#!/bin/sh
# determinism_smoke.sh — end-to-end determinism check behind
# `make determinism-smoke`.
#
# Runs the same seeded PHOLD configuration twice and requires the full
# verbose report — results, percentile lines, and every telemetry
# histogram — to be byte-identical. This is the guarantee ggvet's
# determinism pass protects at the source level, asserted at the
# binary's mouth: everything ggsim prints derives from simulated
# machine time, so any divergence means ambient nondeterminism leaked
# into the core.
#
# Then the same configuration runs sharded across 2 worker processes
# (-workers 2): the report and the per-GVT-round series CSV must still
# be byte-identical to the in-process run — the distributed control/
# data split forwards operations without reordering them, so process
# boundaries must not move the trajectory. Only the "distributed" info
# line, which names the sharding itself, and the "host" line, which
# measures the host, are excluded from the diff.
#
# Last, an imbalanced leg: 1-16 PHOLD behind an optimism window, under
# Baseline and under GG-PDES with the wait-free GVT, where 15 of 16
# threads poll at any time. In process those polling iterations are
# booked arithmetically (core's skip-ahead); the coordinator of a
# 2-worker run executes every one of them, because its peers live in
# other processes. Report and series CSV byte-identical is therefore
# the binary-level proof that skipping equals executing.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM

$GO build -o "$dir/ggsim" ./cmd/ggsim

# run <subdir> [extra flags...] — the report goes to <subdir>.txt, less
# the "host" line -v adds (wall time, CPU and RSS, which no two runs
# share); the series CSV is written under the subdir as a relative path
# so the "series written to" report line is identical across runs.
run() {
    sub=$1
    shift
    mkdir -p "$dir/$sub"
    (cd "$dir/$sub" && "$dir/ggsim" -model phold -threads 16 -end 40 -seed 1337 \
        -v -hist -series series.csv "$@") >"$dir/$sub.out" 2>&1
    grep -v '^host ' "$dir/$sub.out" >"$dir/$sub.txt"
}

# same <what> <subdir a> <subdir b> — reports and series CSVs identical.
same() {
    for f in .txt /series.csv; do
        if ! diff -u "$dir/$2$f" "$dir/$3$f" >"$dir/diff.txt"; then
            echo "determinism-smoke: $1 (${f#[./]}):" >&2
            cat "$dir/diff.txt" >&2
            exit 1
        fi
    done
}

# sharded <in-process subdir> <subdir> [flags...] — the same flags
# across 2 workers must reproduce the in-process run already made.
sharded() {
    a=$1 b=$2
    shift 2
    run "$b.raw" "$@" -workers 2
    grep -q '^distributed' "$dir/$b.raw.txt" || {
        echo "determinism-smoke: -workers 2 run did not report its sharding:" >&2
        cat "$dir/$b.raw.txt" >&2
        exit 1
    }
    grep -v '^distributed' "$dir/$b.raw.txt" >"$dir/$b.txt"
    mv "$dir/$b.raw" "$dir/$b"
    same "2-worker run ($*) diverged from in-process" "$a" "$b"
}

run a
run b
same "identical seeded runs diverged" a b
sharded a dist

imbalanced="-imbalance 16 -lps 4 -optimism 10 -gvt async"
run skip_base $imbalanced -system baseline
sharded skip_base exec_base $imbalanced -system baseline
run skip_gg $imbalanced -system gg
sharded skip_gg exec_gg $imbalanced -system gg

echo "determinism-smoke: seeded runs byte-identical in-process and across 2 workers ($(wc -l <"$dir/a.txt") report lines, $(wc -l <"$dir/a/series.csv") series rows); imbalanced runs that skip identical to coordinators that execute ($(wc -l <"$dir/skip_base/series.csv") + $(wc -l <"$dir/skip_gg/series.csv") series rows)"
