#!/bin/sh
# dist_smoke.sh — distributed-run smoke test behind `make dist-smoke`.
#
# The full multi-process topology, end to end: two ggworker processes
# on ephemeral ports, a ggsim coordinator connecting to them with
# -worker-addrs, and an in-process golden run of the same seeded
# configuration. Asserts:
#
#   - the distributed report and the per-GVT-round series CSV are
#     byte-identical to the in-process golden (only the "distributed"
#     info line, which names the sharding itself, and the "host" line,
#     which measures the host, are excluded);
#   - both workers exit cleanly after the coordinator's shutdown frame.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
w1=
w2=
trap 'kill $w1 $w2 2>/dev/null || true; rm -rf "$dir"' EXIT INT TERM

fail() {
    echo "dist-smoke: $1" >&2
    shift
    for f in "$@"; do
        cat "$f" >&2
    done
    exit 1
}

$GO build -o "$dir/ggsim" ./cmd/ggsim
$GO build -o "$dir/ggworker" ./cmd/ggworker

# run <subdir> [extra flags...] — the series CSV is a relative path
# under the subdir so the report line naming it is identical across
# runs.
run() {
    sub=$1
    shift
    mkdir -p "$dir/$sub"
    (cd "$dir/$sub" && "$dir/ggsim" -model phold -threads 8 -end 40 -seed 42 \
        -gvt-freq 10 -zero-threshold 60 \
        -v -hist -series series.csv "$@")
}

run golden >"$dir/golden_raw.txt" 2>&1 || fail "in-process golden run failed" "$dir/golden_raw.txt"
grep -v '^host ' "$dir/golden_raw.txt" >"$dir/golden.txt"

"$dir/ggworker" -addr-file "$dir/w1.addr" >"$dir/w1.log" 2>&1 &
w1=$!
"$dir/ggworker" -addr-file "$dir/w2.addr" >"$dir/w2.log" 2>&1 &
w2=$!
i=0
while [ ! -s "$dir/w1.addr" ] || [ ! -s "$dir/w2.addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$w1" 2>/dev/null || ! kill -0 "$w2" 2>/dev/null; then
        fail "workers never bound their addresses" "$dir/w1.log" "$dir/w2.log"
    fi
    sleep 0.1
done
addrs="$(cat "$dir/w1.addr"),$(cat "$dir/w2.addr")"

run dist -worker-addrs "$addrs" >"$dir/dist_raw.txt" 2>&1 ||
    fail "distributed run failed" "$dir/dist_raw.txt" "$dir/w1.log" "$dir/w2.log"

grep -q '^distributed *: 2 workers' "$dir/dist_raw.txt" ||
    fail "coordinator did not report 2 workers" "$dir/dist_raw.txt"
grep -v -e '^distributed' -e '^host ' "$dir/dist_raw.txt" >"$dir/dist.txt"

if ! diff -u "$dir/golden.txt" "$dir/dist.txt" >"$dir/diff.txt"; then
    echo "dist-smoke: distributed run diverged from in-process golden:" >&2
    cat "$dir/diff.txt" >&2
    exit 1
fi
if ! diff -u "$dir/golden/series.csv" "$dir/dist/series.csv" >"$dir/diff.txt"; then
    echo "dist-smoke: distributed series CSV diverged from golden:" >&2
    cat "$dir/diff.txt" >&2
    exit 1
fi

# The coordinator's shutdown frames must let both workers exit 0.
i=0
while kill -0 "$w1" 2>/dev/null || kill -0 "$w2" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 50 ] || fail "workers still alive after coordinator shutdown" "$dir/w1.log" "$dir/w2.log"
    sleep 0.1
done
wait "$w1" || fail "worker 1 exited non-zero" "$dir/w1.log"
wait "$w2" || fail "worker 2 exited non-zero" "$dir/w2.log"
w1=
w2=

echo "dist-smoke: OK (2 workers at $addrs, report and series identical to in-process)"
