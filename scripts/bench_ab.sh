#!/bin/sh
# bench_ab.sh — the paired before/after of a performance change, behind
# `make perf-ab PARENT=<ref> WORKLOAD=<name> [PAIRS=n]`.
#
#   sh scripts/bench_ab.sh <parent-ref> <workload> [pairs] [ggperf flags...]
#
# Checks <parent-ref> out into a temporary git worktree, then runs the
# repository's benchmark (bench/run.sh) on one workload <pairs> times
# (default 10) in that tree and in this one, alternating, and swapping
# which side goes first from pair to pair so that neither always runs
# on the warmer machine. Each tree builds its own ggperf from its own
# source, before the first pair, so no timed run shares the box with a
# compile. Ends with `bench/run.sh -compare` over the two sets of
# result files: per metric both sides' median and quartiles across
# runs, the change, BENCHMARK.json's bound and a verdict. This is the
# protocol for claiming a gain on a small shared box — at least ten
# pairs, the change ahead in nine tenths of them, medians apart by more
# than the parent's own quartile distance.
#
# Extra arguments go to ggperf after the defaults, so `-seed 7` measures
# a seed the change was not written against and `-trace 1` makes the
# traced run, whose per-layer metrics -compare prints too. OUT=<dir>
# keeps the result files (a<i>.json parent, b<i>.json change); without
# it they are deleted with the worktree on exit.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-ref> <workload> [pairs] [ggperf flags...]" >&2
    exit 2
fi
parent=$1
workload=$2
shift 2
pairs=10
if [ $# -gt 0 ]; then
    pairs=$1
    shift
fi

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$tmp/parent" >/dev/null 2>&1 || true
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git -C "$root" worktree add --detach "$tmp/parent" "$parent" >/dev/null
out=${OUT:-$tmp/results}
mkdir -p "$out"

# run <tree> <result file> [flags...]
run() {
    tree=$1 json=$2
    shift 2
    sh "$tree/bench/run.sh" --workload "$workload" -seed 1 -quiet "$@" -json "$json" >/dev/null
}

echo "bench-ab: building $parent and the working tree" >&2
run "$tmp/parent" "$tmp/warm.json" -scale tiny -iters 1
run "$root" "$tmp/warm.json" -scale tiny -iters 1

a= b=
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run "$tmp/parent" "$out/a$i.json" "$@"
        run "$root" "$out/b$i.json" "$@"
    else
        run "$root" "$out/b$i.json" "$@"
        run "$tmp/parent" "$out/a$i.json" "$@"
    fi
    echo "bench-ab: $workload pair $i/$pairs" >&2
    a="$a${a:+,}$out/a$i.json"
    b="$b${b:+,}$out/b$i.json"
    i=$((i + 1))
done

sh "$root/bench/run.sh" -compare "$a" "$b"
