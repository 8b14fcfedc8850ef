#!/bin/sh
# obs_smoke.sh — observability-plane smoke test behind `make obs-smoke`.
#
# Starts ggserved on an ephemeral port (with pprof on a second
# ephemeral listener), submits a PHOLD job, waits for completion, then
# checks the whole observability surface end to end:
#
#   - GET /metrics is a valid OpenMetrics page (ggtop's strict parser
#     is the validator: it exits non-zero on any malformed line,
#     undeclared family, or incomplete histogram);
#   - the page covers every metric name in the checked-in inventory
#     (internal/telemetry/inventory.txt), both the serve.* plane and
#     the engine metrics folded in from the completed job;
#   - GET /v2/jobs/{id}/series returns the per-GVT-round time series
#     with the horizon statistics;
#   - ggtop -once renders GVT, rollback, and horizon lines for the job;
#   - the pprof listener answers on its own port.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
trap 'if [ -n "${pid:-}" ]; then kill "$pid" 2>/dev/null || true; fi; rm -rf "$dir"' EXIT INT TERM

$GO build -o "$dir/ggserved" ./cmd/ggserved
$GO build -o "$dir/ggtop" ./cmd/ggtop

"$dir/ggserved" -addr 127.0.0.1:0 -addr-file "$dir/addr" \
    -pprof-addr 127.0.0.1:0 2>"$dir/ggserved.log" &
pid=$!

fail() {
    echo "obs-smoke: $1" >&2
    cat "$dir/ggserved.log" >&2
    exit 1
}

i=0
while [ ! -s "$dir/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$pid" 2>/dev/null; then
        fail "ggserved never bound an address"
    fi
    sleep 0.1
done
addr=$(cat "$dir/addr")

# Submit one PHOLD job and poll it to completion.
curl -sf "http://$addr/v2/jobs" \
    -d '{"config":{"model":{"name":"phold"},"threads":8,"end_time":30,"seed":7}}' \
    >"$dir/submit.json" || fail "submit failed"
id=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$dir/submit.json" | head -n 1)
[ -n "$id" ] || fail "submit returned no job id"

i=0
state=
while [ "$state" != "done" ]; do
    i=$((i + 1))
    [ "$i" -le 300 ] || fail "job $id stuck in state '$state'"
    state=$(curl -sf "http://$addr/v2/jobs/$id" |
        sed -n 's/.*"state": "\([^"]*\)".*/\1/p' | head -n 1)
    case "$state" in
    failed | cancelled) fail "job $id finished $state" ;;
    esac
    sleep 0.1
done

# The exposition must parse (ggtop -once validates it) and cover every
# inventoried metric name. Counters and histograms always appear;
# gauges are skipped only when never set, and every gauge in the
# inventory is set during a completed serve run.
curl -sf "http://$addr/metrics" >"$dir/metrics" || fail "/metrics scrape failed"
while read -r kind name; do
    case "$kind" in
    counter | gauge | histogram) ;;
    *) continue ;;
    esac
    case "$name" in
    dist.*) continue ;;    # only distributed runs register these — asserted absent below
    cluster.*) continue ;; # only clustered replicas register these — asserted absent below
    esac
    expo="ggpdes_$(echo "$name" | tr . _)"
    grep -q "^# TYPE $expo $kind\$" "$dir/metrics" ||
        fail "/metrics is missing $kind $name ($expo)"
done <internal/telemetry/inventory.txt

grep -q '_bucket{le="+Inf"}' "$dir/metrics" || fail "no histogram buckets exposed"

# No distributed job ran, so the dist.* plane must be absent — in
# particular dist.workers.connected: unset gauges stay off the page
# entirely (the set-flag skipping discipline).
if grep -q 'ggpdes_dist_' "$dir/metrics"; then
    fail "dist.* metrics exposed without a distributed run"
fi

# Same discipline for the fleet plane: cluster.* counters are only
# registered by cluster.New, and this replica ran with no peers.
if grep -q 'ggpdes_cluster_' "$dir/metrics"; then
    fail "cluster.* metrics exposed without clustering"
fi

# Per-round series with the horizon statistics.
curl -sf "http://$addr/v2/jobs/$id/series" >"$dir/series.json" || fail "series fetch failed"
grep -q '"horizon_width"' "$dir/series.json" || fail "series has no horizon_width"
grep -q '"thread_lvts"' "$dir/series.json" || fail "series has no thread_lvts"

# ggtop renders one frame (and strictly re-parses /metrics doing so).
"$dir/ggtop" -addr "$addr" -job "$id" -once >"$dir/ggtop.out" ||
    fail "ggtop -once failed (exposition invalid?)"
for want in "gvt=" "rollback" "horizon width"; do
    grep -qi "$want" "$dir/ggtop.out" || fail "ggtop frame missing '$want'"
done

# pprof answers on its own listener.
pprof=$(sed -n 's/^ggserved: pprof on \(.*\)$/\1/p' "$dir/ggserved.log" | head -n 1)
[ -n "$pprof" ] || fail "pprof listener never came up"
curl -sf "http://$pprof/debug/pprof/" >/dev/null || fail "pprof index unreachable"

kill -TERM "$pid"
i=0
while kill -0 "$pid" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "ggserved did not drain within 10s of SIGTERM"
    sleep 0.1
done
pid=
echo "obs-smoke: OK ($addr, job $id)"
