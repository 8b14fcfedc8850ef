#!/bin/sh
# bench_ab.sh — the paired before/after of a performance change, behind
# `make perf-ab PARENT=<ref> WORKLOAD=<name> [PAIRS=n]`.
#
#   sh scripts/bench_ab.sh <parent-ref> <workload> [pairs] [ggperf flags...]
#
# Unpacks <parent-ref>, any git commit, into a temporary directory
# (`git archive | tar -x`: no worktree is made, and the record names the
# commit whatever the tree holds), then runs the repository's benchmark
# (bench/run.sh) on one workload <pairs> times (default 10) in that tree
# and in this one, alternating, and swapping
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
# it they are deleted with the parent's tree on exit.
#
# METRIC=<name> adds, after the table, the two lines a claim is judged
# by: that metric's value in every pair, parent and change side by side,
# "change ahead in N of M pairs" (by BENCHMARK.json's direction; a tie
# counts for neither), and both sides' median and quartiles with the
# change in percent — or, for a metric whose quartiles read the same to
# four digits on either side, "exact count", since a count that repeats
# has no spread to compare against — then the exact two-sided sign
# test's p-value over the untied pairs and its verdict at alpha 0.05,
# "claim" or "unresolved" ("exact" for an exact count; at least six
# pairs are needed to reach p < 0.05). It then prints the same reading
# as one JSON line, the record a claim is filed under: the machine
# (CPUs, GOMAXPROCS and Go version of the change's first run), the
# parent's commit, the extra flags, the pair count, each side's median
# and quartiles, "ahead in N of M", the p-value and the verdict.
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
if [ -n "${METRIC:-}" ]; then
    better=$(awk -v m="\"$METRIC\"," '
        $1 == "\"name\":" && $2 == m { hit = 1 }
        hit && $1 == "\"better\":" { gsub(/[",]/, "", $2); print $2; exit }
    ' "$root/BENCHMARK.json")
    if [ -z "$better" ]; then
        echo "bench-ab: BENCHMARK.json declares no metric $METRIC" >&2
        exit 2
    fi
fi
commit=$(git -C "$root" rev-parse --short "$parent^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

ptree=$tmp/parent
mkdir "$ptree"
git -C "$root" archive "$commit" | tar -x -C "$ptree"
out=${OUT:-$tmp/results}
mkdir -p "$out"

# run <tree> <result file> [flags...]
run() {
    tree=$1 json=$2
    shift 2
    sh "$tree/bench/run.sh" --workload "$workload" -seed 1 -quiet "$@" -json "$json" >/dev/null
}

echo "bench-ab: building $parent and the working tree" >&2
run "$ptree" "$tmp/warm.json" -scale tiny -iters 1
run "$root" "$tmp/warm.json" -scale tiny -iters 1

a= b=
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run "$ptree" "$out/a$i.json" "$@"
        run "$root" "$out/b$i.json" "$@"
    else
        run "$root" "$out/b$i.json" "$@"
        run "$ptree" "$out/a$i.json" "$@"
    fi
    echo "bench-ab: $workload pair $i/$pairs" >&2
    a="$a${a:+,}$out/a$i.json"
    b="$b${b:+,}$out/b$i.json"
    i=$((i + 1))
done

# -compare exits non-zero on a "worse" verdict; METRIC's lines follow
# either way and the script ends with that status.
status=0
sh "$root/bench/run.sh" -compare "$a" "$b" || status=$?

[ -n "${METRIC:-}" ] || exit "$status"

# value_of <result file>: METRIC's value in it, end to end or per layer.
value_of() {
    awk -v m="\"$METRIC\":" '
        $1 == m && $2 == "{" { inside = 1; next }
        $1 == m || (inside && $1 == "\"value\":") { sub(/,$/, "", $2); print $2; exit }
    ' "$1"
}
# env_of <result file> <field>: the workload's environment field, the
# last one the file holds (a result file's own env comes first).
env_of() {
    awk -v f="\"$2\":" '$1 == f { v = $2 } END { gsub(/[",]/, "", v); print v }' "$1"
}
i=1
while [ "$i" -le "$pairs" ]; do
    echo "$i $(value_of "$out/a$i.json") $(value_of "$out/b$i.json")"
    i=$((i + 1))
done | awk -v metric="$METRIC" -v better="$better" -v workload="$workload" -v flags="$*" \
    -v parent="$commit" -v cpus="$(env_of "$out/b1.json" nproc)" \
    -v procs="$(env_of "$out/b1.json" gomaxprocs)" -v gover="$(env_of "$out/b1.json" go_version)" \
    -f "$root/scripts/ab_record.awk"
exit "$status"
