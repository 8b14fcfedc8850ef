#!/bin/sh
# paper_point_ab.sh — the paired before/after at the paper-scale point,
# behind `make paper-point PARENT=<ref> [PAIRS=n]`.
#
#   FLAGS="<ggsim flags>" sh scripts/paper_point_ab.sh <parent-ref> [pairs]
#
# Builds ggsim from <parent-ref>, any git commit, unpacked into a
# temporary directory (`git archive | tar -x`: no worktree is made, and
# the records name the commit), and from this tree, then runs the point <pairs> times
# (default 10) with each binary under GOMAXPROCS=1, alternating, and
# swapping which side goes first from pair to pair. FLAGS is the
# point's ggsim command line, -v included (the Makefile's PAPER_POINT).
#
# Every run's report (stdout) must be byte-identical to the parent's
# first: the script stops at the first that differs and prints the
# diff. The host line ggsim -v writes to stderr gives each run's wall
# time, user CPU, peak RSS, heap objects and bytes allocated. After the
# pairs the script prints, for each of the five, the pairs side by side,
# "change ahead in N of M pairs", both medians with quartiles and one
# JSON record in bench_ab.sh's shape (scripts/ab_record.awk). A parent
# whose host line has no heap counts gets records for the first three.
set -eu

if [ $# -lt 1 ] || [ -z "${FLAGS:-}" ]; then
    echo "usage: FLAGS=\"<ggsim flags>\" $0 <parent-ref> [pairs]" >&2
    exit 2
fi
parent=$1
pairs=${2:-10}
GO=${GO:-go}

root=$(cd "$(dirname "$0")/.." && pwd)
commit=$(git -C "$root" rev-parse --short "$parent^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

ptree=$tmp/parent
mkdir "$ptree"
git -C "$root" archive "$commit" | tar -x -C "$ptree"

echo "paper-point-ab: building $parent and the working tree" >&2
(cd "$ptree" && $GO build -o "$tmp/a.ggsim" ./cmd/ggsim)
(cd "$root" && $GO build -o "$tmp/b.ggsim" ./cmd/ggsim)

# run <side> <pair>: one run of side a (parent) or b (change). Its
# report is held to the first parent run's; its host line's wall
# seconds, user CPU seconds, peak RSS MB, heap objects and MB allocated
# ("-" for the last two when the line has none) are appended to
# <side>.host.
run() {
    # shellcheck disable=SC2086 # FLAGS is a command line
    GOMAXPROCS=1 "$tmp/$1.ggsim" $FLAGS >"$tmp/$1.out" 2>"$tmp/$1.err"
    # host                 : 9.87 s wall, 8.12 s user CPU, 347.7 MB peak RSS, 5432 heap objects, 612.3 MB allocated
    if ! awk '$1 == "host" && $8 == "user" {
            print $3, $6, $10, ($15 == "heap" ? $14 : "-"), ($19 == "allocated" ? $17 : "-"); found = 1
        } END { exit !found }' \
        "$tmp/$1.err" >>"$tmp/$1.host"; then
        echo "paper-point-ab: run $2 of side $1 printed no host line with user CPU and RSS" >&2
        exit 1
    fi
    if [ ! -f "$tmp/ref.out" ]; then
        cp "$tmp/$1.out" "$tmp/ref.out"
    elif ! cmp -s "$tmp/ref.out" "$tmp/$1.out"; then
        echo "paper-point-ab: the report of run $2 of side $1 differs from the parent's first:" >&2
        diff "$tmp/ref.out" "$tmp/$1.out" >&2 || true
        exit 1
    fi
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run a "$i"
        run b "$i"
    else
        run b "$i"
        run a "$i"
    fi
    echo "paper-point-ab: pair $i/$pairs" >&2
    i=$((i + 1))
done
echo "paper-point-ab: all $((2 * pairs)) reports identical"

cpus=$(getconf _NPROCESSORS_ONLN)
gover=$($GO env GOVERSION)
col=1
for metric in wall_s user_cpu_s peak_rss_mb heap_objects alloc_mb; do
    if [ "$col" -gt 3 ] && grep -q ' -$' "$tmp/a.host" "$tmp/b.host"; then
        echo "paper-point-ab: no $metric record: a host line without heap counts (the parent's predates them)"
        col=$((col + 1))
        continue
    fi
    paste -d ' ' "$tmp/a.host" "$tmp/b.host" |
        awk -v c="$col" '{ print NR, $c, $(c + 5) }' |
        awk -v metric="$metric" -v better=lower -v workload=paper-point -v flags="$FLAGS" \
            -v parent="$commit" -v cpus="$cpus" -v procs=1 -v gover="$gover" \
            -f "$root/scripts/ab_record.awk"
    col=$((col + 1))
done
