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
# The same run with -progress must print the same report on stdout and
# its progress lines on stderr: observers do not perturb the run.
#
# Last, an imbalanced leg: 1-16 PHOLD behind an optimism window, under
# Baseline and under GG-PDES with the wait-free GVT, where 15 of 16
# threads poll at any time. Those polling iterations are booked
# arithmetically (core's skip-ahead) unless a stall injector is
# attached: a run with the smallest stall rate (-chaos-stall 5e-324:
# the injector is consulted every iteration and stalls one only on a
# 53-bit draw of exactly 0) executes every one of them. Report and
# series CSV byte-identical is therefore the binary-level proof that
# skipping equals executing.
#
# Then a checkpointed leg: an Epidemics run that writes a snapshot every
# 2 GVT rounds, and a resume from its middle snapshot. Every segment
# boundary of the first hands the finished machine's parked coroutines
# to the next machine, and the resume's first machine is a rebuilt one
# decoding its states from the file, so the two -v reports being equal
# (but for the first line, the config banner or "resumed from", and the
# host line) is the binary-level proof that a machine given the previous
# one's threads continues exactly like a rebuilt one.
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

run a
run b
same "identical seeded runs diverged" a b

mkdir -p "$dir/progress"
(cd "$dir/progress" && "$dir/ggsim" -model phold -threads 16 -end 40 -seed 1337 \
    -v -hist -series series.csv -progress) >"$dir/progress.txt" 2>"$dir/progress.err"
same "-progress changed the run's report" a progress
grep -q '^gvt ' "$dir/progress.err" || {
    echo "determinism-smoke: -progress printed no progress line on stderr:" >&2
    cat "$dir/progress.err" >&2
    exit 1
}

imbalanced="-imbalance 16 -lps 4 -optimism 10 -gvt async"
never_stalls="-chaos-stall 5e-324"
run skip_base $imbalanced -system baseline
run exec_base $imbalanced -system baseline $never_stalls
same "executing run (baseline) diverged from the skipping one" skip_base exec_base
run skip_gg $imbalanced -system gg
run exec_gg $imbalanced -system gg $never_stalls
same "executing run (gg) diverged from the skipping one" skip_gg exec_gg

ckpt="-model epidemics -threads 8 -end 40 -gvt-freq 10 -seed 1337 -v -hist"
"$dir/ggsim" $ckpt -checkpoint-every 2 -checkpoint-dir "$dir/ckpt" 2>&1 | grep -v '^host ' | sed 1d >"$dir/ckpt.txt"
files=$(ls "$dir/ckpt" | wc -l)
middle=$(printf 'ckpt-%08d.ckpt' $(((files + 1) / 2)))
"$dir/ggsim" -resume "$dir/ckpt/$middle" -v -hist >"$dir/resumed.out" 2>&1
head -n 1 "$dir/resumed.out" | grep -q '^resumed from ' || {
    echo "determinism-smoke: resume printed no \"resumed from\" line first:" >&2
    cat "$dir/resumed.out" >&2
    exit 1
}
grep -v '^host ' "$dir/resumed.out" | sed 1d >"$dir/resumed.txt"
if [ "$files" -lt 2 ] || ! diff -u "$dir/ckpt.txt" "$dir/resumed.txt" >"$dir/diff.txt"; then
    echo "determinism-smoke: resume from $middle of $files snapshots diverged from the checkpointed run:" >&2
    cat "$dir/diff.txt" >&2
    exit 1
fi

echo "determinism-smoke: seeded runs byte-identical, with $(grep -c '^gvt ' "$dir/progress.err") progress lines on stderr ($(wc -l <"$dir/a.txt") report lines, $(wc -l <"$dir/a/series.csv") series rows); imbalanced runs that skip identical to runs that execute ($(wc -l <"$dir/skip_base/series.csv") + $(wc -l <"$dir/skip_gg/series.csv") series rows); resume from $middle of $files snapshots identical to the checkpointed run ($(wc -l <"$dir/ckpt.txt") report lines)"
