#!/bin/sh
# cluster_smoke.sh — clustered-serving smoke test behind `make cluster-smoke`.
#
# Builds ggserved and ggload, reserves three ports, and starts three
# real ggserved replicas peered into a static fleet over a shared
# checkpoint root. ggload's cluster sequence then exercises the whole
# tentpole end to end:
#
#   - every replica's /v2/healthz reports the full fleet connected;
#   - the same config submitted to two different replicas simulates
#     exactly once fleet-wide (the second submit is a peer-fill cache
#     hit, proven by summing serve.simulations across /v2/stats);
#   - a sweep with duplicated members streams one SSE result per
#     member in completion order while simulating only the unique
#     configs;
#   - the replica that owns a long checkpointing job is SIGKILLed
#     mid-run and the submitting replica resumes it from the shared
#     keyed checkpoint directory (resumed_from set, cluster.failovers
#     bumped).
#
# Survivors are then SIGTERM-drained.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
pids=""
trap 'for p in $pids; do kill "$p" 2>/dev/null || true; done; rm -rf "$dir"' EXIT INT TERM

# Race-instrumented replicas: peer fills, delegation, and failover all
# cross goroutine and process boundaries under real scheduling here.
$GO build -race -o "$dir/ggserved" ./cmd/ggserved
$GO build -o "$dir/ggload" ./cmd/ggload

"$dir/ggload" -free-ports 3 >"$dir/ports"
a1=$(sed -n 1p "$dir/ports")
a2=$(sed -n 2p "$dir/ports")
a3=$(sed -n 3p "$dir/ports")

fail() {
    echo "cluster-smoke: $1" >&2
    for n in 1 2 3; do
        echo "--- replica $n log ---" >&2
        cat "$dir/ggserved$n.log" >&2 || true
    done
    exit 1
}

start_replica() {
    # $1 = own addr, $2 = peers, $3 = index
    "$dir/ggserved" -addr "$1" -peers "$2" \
        -checkpoint-root "$dir/ckpt" 2>"$dir/ggserved$3.log" &
    pids="$pids $!"
    eval "pid$3=$!"
}

start_replica "$a1" "$a2,$a3" 1
start_replica "$a2" "$a1,$a3" 2
start_replica "$a3" "$a1,$a2" 3

# Wait for all three to answer /v2/healthz at all (fleet connectivity
# itself is asserted by ggload).
for a in "$a1" "$a2" "$a3"; do
    i=0
    until curl -sf "http://$a/v2/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -le 100 ] || fail "replica $a never came up"
        sleep 0.1
    done
done

if ! "$dir/ggload" -cluster-smoke -addrs "$a1,$a2,$a3" \
    -pids "$pid1,$pid2,$pid3" -checkpoint-root "$dir/ckpt"; then
    fail "ggload cluster sequence failed"
fi

# The failover leg killed one replica; drain whichever are left.
for p in $pids; do
    kill -0 "$p" 2>/dev/null && kill -TERM "$p"
done
i=0
for p in $pids; do
    while kill -0 "$p" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -le 300 ] || fail "a replica did not drain within 30s of SIGTERM"
        sleep 0.1
    done
done
pids=""
echo "cluster-smoke: OK ($a1 $a2 $a3)"
