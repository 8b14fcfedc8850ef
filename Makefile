# Developer entry points. Everything is stdlib-only Go; no tools to
# install beyond the toolchain itself.

GO ?= go

.PHONY: all build vet lint test test-race fuzz bench bench-smoke perf perf-ab paper-point loc serve-smoke cluster-smoke determinism-smoke obs-smoke inventory ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: gofmt, go vet, and ggvet — the repo's own
# domain-aware analyzer suite (internal/lint, cmd/ggvet) enforcing
# determinism of the simulation core, event-pool hygiene, telemetry
# naming, context plumbing, lock order and goroutine tracking.
lint:
	GO="$(GO)" sh scripts/lint.sh

test:
	$(GO) test ./...

# The simulated machine's threads are coroutines that run strictly one
# at a time (iter.Pull orders every switch for the race detector), so
# there is nothing for it to find there by construction; what it guards
# is the harness, the serving and distributed layers, the CLIs and the
# test plumbing.
test-race:
	$(GO) test -race ./...

# Short fuzz pass over the external inputs — the Config JSON wire
# codec, the distributed binary batch codec, the checkpoint file
# decoder and the engine a decoded capture rebuilds — and over the
# generated configs the sequential oracle checks (FuzzOracle); extend
# FUZZTIME locally.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz='^FuzzConfigJSON$$' -fuzztime=$(FUZZTIME) .
	$(GO) test -run=^$$ -fuzz='^FuzzBinaryFrame$$' -fuzztime=$(FUZZTIME) ./internal/dist
	$(GO) test -run=^$$ -fuzz='^FuzzCheckpointDecode$$' -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run=^$$ -fuzz='^FuzzEngineState$$' -fuzztime=$(FUZZTIME) ./internal/tw
	$(GO) test -run=^$$ -fuzz='^FuzzOracle$$' -fuzztime=$(FUZZTIME) ./internal/tw

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Benchmark gate: the real benchmark entry point (bench/run.sh builds
# and runs ggperf) at tiny scale — all six workloads, two measured
# operations each, every operation checked by its workload's oracle;
# any failed operation exits 1. Under a minute including the first
# build in a fresh checkout. The numbers it prints are not evidence
# (goldens and bounds apply at full scale: `make perf`).
bench-smoke:
	sh bench/run.sh -scale tiny -iters 2 -seed 1

# The repo's benchmark (BENCHMARK.json): six workloads, twelve
# end-to-end metrics and the per-layer ledger. Not part of ci.
perf:
	sh bench/run.sh

# The paired before/after a performance claim rests on: PAIRS
# alternating runs of one benchmark workload at PARENT (any git ref,
# checked out into a temporary worktree, or a directory holding that
# tree) and in this tree, then the -compare table over both sets and,
# with METRIC, that metric pair by pair with "change ahead in N of M
# pairs". Not part of ci.
#   make perf-ab PARENT=HEAD~1 WORKLOAD=traffic-oversub-rollback METRIC=committed_ev_per_host_s
PAIRS ?= 10
perf-ab:
	METRIC="$(METRIC)" sh scripts/bench_ab.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# The paper-scale point engine host-time claims are read at: 1,024
# threads on 64x4 contexts, 1-4 PHOLD with 128 LPs per thread, Baseline
# with the wait-free GVT, one OS thread. The -v report ends with the
# "host" line on stderr (wall time, user CPU, peak RSS, heap objects
# and bytes allocated). GGSIM runs a
# prebuilt binary instead of this tree's. With PARENT=<ref> (a git ref
# or a directory holding that tree) it is the paired before/after
# instead: PAIRS alternating runs of the parent's ggsim and this tree's
# (scripts/paper_point_ab.sh), failing if any report differs from the
# parent's, then a JSON record each for wall time, user CPU, peak RSS,
# heap objects and bytes allocated. About 10 s and 0.4 GB of RSS a run.
# Not part of ci.
#   make paper-point PARENT=HEAD~1 PAIRS=5
GGSIM ?=
PAPER_POINT = -cores 64 -smt 4 -threads 1024 -imbalance 4 -lps 128 \
	-gvt-freq 200 -optimism 10 -system baseline -gvt async -end 30 -v
paper-point:
	@if [ -n "$(PARENT)" ]; then \
		FLAGS="$(PAPER_POINT)" GO="$(GO)" sh scripts/paper_point_ab.sh $(PARENT) $(PAIRS); exit $$?; \
	fi; \
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; bin="$(GGSIM)"; \
	if [ -z "$$bin" ]; then bin="$$dir/ggsim"; $(GO) build -o "$$bin" ./cmd/ggsim || exit 1; fi; \
	GOMAXPROCS=1 "$$bin" $(PAPER_POINT)

# Code size, the number the "line count goes down" leg is read from:
# non-blank, non-comment Go lines per package — non-test files, tests
# and testdata apart — here, and with PARENT=<ref> against that commit
# with the delta (only the packages that moved, above the totals). The
# output is a markdown table, ready for CHANGES.md. Not part of ci.
#   make loc PARENT=HEAD~1
loc:
	@sh scripts/loc.sh $(PARENT)

# End-to-end serving smoke: ggserved on an ephemeral port, one PHOLD
# job to completion, identical resubmit served from cache, clean drain.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

# Clustered-serving smoke: three real peered ggserved replicas over a
# shared checkpoint root; duplicate submits answered by peer fill with
# one fleet-wide simulation, a deduplicated sweep streamed over SSE,
# and a SIGKILLed owner's job resumed by the submitting replica from
# the shared keyed checkpoint directory.
cluster-smoke:
	GO="$(GO)" sh scripts/cluster_smoke.sh

# Observability smoke: ggserved + pprof on ephemeral ports, one PHOLD
# job, then the whole surface end to end — /metrics covers every
# inventoried name, the series endpoint reports the horizon stats, and
# ggtop -once strictly re-parses the OpenMetrics page while rendering.
obs-smoke:
	GO="$(GO)" sh scripts/obs_smoke.sh

# Regenerate internal/telemetry/inventory.txt from the metric-name
# string literals ggvet's telemetryname pass collects. `make lint`
# fails if the committed file is stale.
inventory:
	$(GO) run ./cmd/ggvet -write-inventory

# Determinism smoke: the same seeded PHOLD config twice, then once
# more with -progress, then imbalanced runs that skip idle polls
# against ones that execute them, then a resume from the middle
# snapshot of a checkpointed run against that run; the full verbose
# report (results + telemetry histograms) and the series CSV must be
# byte-identical — the end-to-end form of ggvet's determinism pass.
determinism-smoke:
	GO="$(GO)" sh scripts/determinism_smoke.sh

ci: build lint test test-race determinism-smoke serve-smoke cluster-smoke obs-smoke bench-smoke
