#!/bin/sh
# run.sh -- build ggperf once, then run it with the arguments given.
#
#   sh bench/run.sh -seed 1                  all six workloads, tracing off
#   sh bench/run.sh -seed 1 -trace 1         plus the traced run of each
#   sh bench/run.sh --workload serve-mix --seed 7 --seconds 10 --trace 0
#   sh bench/run.sh -compare a.json b.json
#
# Works from any directory: the repository root is taken from this
# file's own location. Nothing outside the repository is written: the
# Go build cache and the toolchain's own files are kept under
# bench/out/, which is ignored by git. The first run in a fresh
# checkout therefore compiles the standard library too.
set -eu

GO=${GO:-go}
dir=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$dir")
out="$dir/out"
bin="$out/ggperf"

# Without the program's source there is nothing to build or measure:
# say so and stop before the toolchain is started at all.
if [ ! -f "$root/go.mod" ]; then
    echo "run.sh: $root holds no ggpdes source (go.mod); nothing to benchmark" >&2
    exit 2
fi
mkdir -p "$out/tmp"

export HOME="$out/home"
export XDG_CONFIG_HOME="$HOME/.config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
export GOPROXY=off

# In a fresh HOME the go command would start its telemetry sidecar, a
# detached child that outlives the build. Telemetry mode "off" is read
# from the config directory; with it the sidecar is never started.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

# Rebuild only when a source file is newer than the binary.
build_s=0
if [ ! -x "$bin" ] || [ -n "$(find "$root" -name '*.go' -newer "$bin" -not -path "$out/*" | head -n 1)" ]; then
    t0=$(date +%s.%N)
    (cd "$root" && "$GO" build -o "$bin" ./bench/ggperf)
    t1=$(date +%s.%N)
    build_s=$(echo "$t1 $t0" | awk '{ printf "%.3f", $1 - $2 }')
    echo "build_s $build_s" >&2
fi

commit=unknown
if [ -d "$root/.git" ]; then
    commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

cd "$root"
exec "$bin" -out "$out" -golden "$dir/golden" -benchmark "$root/BENCHMARK.json" \
    -commit "$commit" -build-s "$build_s" "$@"
