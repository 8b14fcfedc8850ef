#!/bin/sh
# serve_smoke.sh — end-to-end smoke test behind `make serve-smoke`.
#
# Builds ggserved and ggload, checks that ggserved refuses a result
# cache below one entry, starts the daemon on an ephemeral port, runs
# ggload's deterministic smoke sequence (healthz, submit a small PHOLD
# job, wait it to done, fetch the result, resubmit the identical spec
# and require a cache hit backed by the server's counters), then starts
# a job of a second or two, and while ggload's status request is held
# on it shuts the daemon down with SIGTERM: the daemon must drain and
# exit within 10 s, and ggload must get the job's terminal meta.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
trap 'for p in ${pid:-} ${lpid:-}; do kill "$p" 2>/dev/null || true; done; rm -rf "$dir"' EXIT INT TERM

$GO build -o "$dir/ggserved" ./cmd/ggserved
$GO build -o "$dir/ggload" ./cmd/ggload

# The cache is where finished jobs' results live: ggserved will not run
# without one.
code=0
"$dir/ggserved" -addr 127.0.0.1:0 -cache-entries 0 2>"$dir/refused.log" || code=$?
if [ "$code" -ne 2 ] || ! grep -q '^usage:' "$dir/refused.log"; then
    echo "serve-smoke: ggserved -cache-entries 0 exited $code, want 2 with a usage line" >&2
    cat "$dir/refused.log" >&2
    exit 1
fi

"$dir/ggserved" -addr 127.0.0.1:0 -addr-file "$dir/addr" 2>"$dir/ggserved.log" &
pid=$!

i=0
while [ ! -s "$dir/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: ggserved never bound an address" >&2
        cat "$dir/ggserved.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$dir/addr")

if ! "$dir/ggload" -addr "$addr" -smoke; then
    cat "$dir/ggserved.log" >&2
    exit 1
fi

# One job of a second or two, waited on by ggload's held status request.
"$dir/ggload" -addr "$addr" -jobs 1 -concurrency 1 -end 60000 -seed-base 31337 >"$dir/ggload.out" 2>&1 &
lpid=$!
i=0
until curl -sf "http://$addr/v2/healthz" | grep -q '"running": 1'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: the long-poll job never started running" >&2
        cat "$dir/ggload.out" "$dir/ggserved.log" >&2
        exit 1
    fi
    sleep 0.1
done

kill -TERM "$pid"
i=0
while kill -0 "$pid" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: ggserved did not drain within 10s of SIGTERM" >&2
        cat "$dir/ggserved.log" >&2
        exit 1
    fi
    sleep 0.1
done
pid=
if ! wait "$lpid" || ! grep -q '^  done *: 1$' "$dir/ggload.out"; then
    echo "serve-smoke: ggload did not get the held job's terminal meta across SIGTERM" >&2
    cat "$dir/ggload.out" "$dir/ggserved.log" >&2
    exit 1
fi
lpid=
echo "serve-smoke: OK ($addr)"
