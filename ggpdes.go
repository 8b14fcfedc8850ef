// Package ggpdes is a reproduction of "GVT-Guided Demand-Driven
// Scheduling in Parallel Discrete Event Simulation" (Eker, Timmerman,
// Williams, Chiu, Ponomarev — ICPP 2021).
//
// It bundles a full optimistic (Time Warp) PDES engine, the paper's
// GVT-guided demand-driven thread scheduler (GG-PDES), the prior
// controller-thread design it improves on (DD-PDES), two GVT algorithms
// (synchronous Barrier and asynchronous Wait-Free), three CPU affinity
// algorithms (none / constant / dynamic), and the paper's three
// workloads (PHOLD, Epidemics, Traffic) — all running on a
// deterministic simulated many-core processor that stands in for the
// paper's Knights Landing testbed, since Go's runtime exposes no
// portable thread pinning or core-level de-scheduling.
//
// Quick start:
//
//	res, err := ggpdes.Run(ggpdes.Config{
//		Model:   ggpdes.PHOLD{LPsPerThread: 16, Imbalance: 4},
//		Threads: 64,
//		System:  ggpdes.GGPDES,
//		GVT:     ggpdes.WaitFree,
//		EndTime: 50,
//	})
//	fmt.Println(res.CommittedEventRate, "committed events/s")
package ggpdes

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"ggpdes/internal/core"
	"ggpdes/internal/gvt"
	"ggpdes/internal/machine"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/tw"
)

// System selects the thread-scheduling design under evaluation.
type System int

const (
	// Baseline performs no explicit thread scheduling (the OS/CFS
	// multiplexes everything).
	Baseline System = iota
	// DDPDES is the prior Demand-Driven PDES with a dedicated
	// controller thread and a global lock.
	DDPDES
	// GGPDES is the paper's lock-free, GVT-guided design.
	GGPDES
)

// String returns the system's name as used in the paper.
func (s System) String() string { return core.System(s).String() }

// GVT selects the Global Virtual Time algorithm.
type GVT int

const (
	// Barrier is the synchronous algorithm ("-Sync" systems).
	Barrier GVT = iota
	// WaitFree is the asynchronous five-phase algorithm ("-Async").
	WaitFree
)

// String returns the algorithm's name.
func (g GVT) String() string { return gvt.Kind(g).String() }

// Affinity selects the CPU pinning algorithm (§4.2 / Figure 7).
type Affinity int

const (
	// NoAffinity lets the machine's CFS place and migrate threads.
	NoAffinity Affinity = iota
	// ConstantAffinity pins thread t to core t mod cores at startup.
	ConstantAffinity
	// DynamicAffinity re-pins active threads to idle cores each GVT
	// round (GG-PDES only).
	DynamicAffinity
)

// String returns the affinity algorithm's name.
func (a Affinity) String() string { return core.Affinity(a).String() }

// Machine describes the simulated processor. The zero value selects the
// paper's KNL 7230 (64 cores × 4-way SMT at 1.3 GHz).
type Machine struct {
	// Cores is the number of physical cores (0 = 64).
	Cores int
	// SMTWidth is hardware threads per core (0 = 4).
	SMTWidth int
	// FreqHz converts cycles to seconds (0 = 1.3 GHz).
	FreqHz float64
	// MaxTicks aborts runaway simulations (0 = 1<<26 quanta).
	MaxTicks uint64
}

// KNL7230 returns the paper's evaluation platform.
func KNL7230() Machine { return Machine{Cores: 64, SMTWidth: 4, FreqHz: 1.3e9} }

// SmallMachine returns a 4-core, 2-way-SMT machine for quick runs.
func SmallMachine() Machine { return Machine{Cores: 4, SMTWidth: 2, FreqHz: 1.3e9} }

func (m Machine) build() (machine.Config, error) {
	if m.Cores < 0 || m.SMTWidth < 0 {
		return machine.Config{}, errors.New("ggpdes: Machine fields must be non-negative")
	}
	// NaN passes a FreqHz < 0 test and would run at the default clock;
	// +Inf would make every cycle take no time.
	if !(m.FreqHz >= 0 && !math.IsInf(m.FreqHz, 1)) {
		return machine.Config{}, errors.New("ggpdes: Machine.FreqHz must be non-negative and finite")
	}
	cfg := machine.KNL7230()
	if m.Cores > 0 {
		cfg.Cores = m.Cores
	}
	if m.SMTWidth > 0 {
		cfg.SMTWidth = m.SMTWidth
		if m.SMTWidth <= len(cfg.SMTAggregate) {
			cfg.SMTAggregate = cfg.SMTAggregate[:m.SMTWidth]
		} else {
			agg := make([]float64, m.SMTWidth)
			for i := range agg {
				agg[i] = 1 + 0.3*float64(i)
			}
			agg[0] = 1
			cfg.SMTAggregate = agg
		}
	}
	if m.FreqHz > 0 {
		cfg.FreqHz = m.FreqHz
	}
	cfg.MaxTicks = m.MaxTicks
	if cfg.MaxTicks == 0 {
		cfg.MaxTicks = 1 << 26
	}
	return cfg, cfg.Validate()
}

// Config assembles a simulation run.
type Config struct {
	// Model is the workload: PHOLD, Epidemics or Traffic.
	Model Model
	// Threads is the number of simulation threads. More threads than
	// the machine's hardware contexts is the paper's over-subscription
	// scenario.
	Threads int
	// System selects Baseline, DDPDES or GGPDES.
	System System
	// GVT selects Barrier (Sync) or WaitFree (Async).
	GVT GVT
	// Affinity selects the pinning algorithm; DynamicAffinity requires
	// GGPDES.
	Affinity Affinity
	// EndTime is the virtual end time of the simulation.
	EndTime float64
	// Seed drives all model randomness (0 = 1).
	Seed uint64
	// Machine is the simulated processor (zero value = KNL 7230).
	Machine Machine
	// GVTFrequency is main-loop iterations per GVT round (0 = 200, the
	// paper's setting).
	GVTFrequency int
	// ZeroCounterThreshold is empty-queue iterations before a thread is
	// flagged inactive (0 = 2000, the paper's setting).
	ZeroCounterThreshold int
	// BatchSize is events per main-loop cycle (0 = 8, as in ROSS).
	BatchSize int
	// Trace enables run instrumentation when non-nil.
	Trace *TraceOptions
	// OptimismWindow bounds speculation to GVT + window virtual time
	// units (ROSS's max_opt_lookahead); 0 means unbounded optimism.
	// Bounding is recommended for deep over-subscription, where
	// demand-driven scheduling hands freshly woken thread groups the
	// whole machine and unbounded speculation triggers rollback thrash.
	OptimismWindow float64
	// Series, when non-nil, records a per-GVT-round time series of the
	// run (GVT advance rate, virtual-time-horizon width and roughness,
	// rollback and commit totals, pool hit rate, queue depths).
	// Sampling only reads state — it charges zero simulated cycles —
	// so the trajectory is identical with and without it; like the
	// other observability knobs it is excluded from CacheKey.
	Series *SeriesOptions
	// Telemetry, when non-nil, routes the run's metrics into the given
	// registry instead of a private one — the serving layer's way of
	// letting concurrent jobs share one scrape target. Metrics from
	// all runs sharing the registry commingle (counters add; per-run
	// attribution needs per-run registries). Observability-only:
	// excluded from CacheKey and from checkpoint snapshots.
	Telemetry *Registry
	// Checkpoint, when non-nil, makes the run checkpointable: the
	// engine quiesces onto its committed state every Every GVT rounds
	// and a versioned snapshot is written to Dir. A checkpointed run
	// executes as a chain of segments, each on a fresh machine and
	// engine started from the previous one's committed cut — whether
	// or not the process dies in between — and Resume from any
	// snapshot rebuilds the same chain from the file, reproducing the
	// uninterrupted run's Results exactly.
	// Segmentation perturbs speculation, so Checkpoint.Every is part of
	// CacheKey; Checkpoint.Dir is not.
	Checkpoint *CheckpointOptions
	// Chaos, when non-nil, stalls simulation-thread iterations (see
	// ChaosOptions). A stall changes scheduling, not what the run
	// commits: final LP states and committed counts equal the
	// fault-free run's, while wall clock, rollbacks and every other
	// machine-time figure may differ. It is part of CacheKey.
	Chaos *ChaosOptions
}

// CheckpointOptions configures deterministic checkpoint/restore.
type CheckpointOptions struct {
	// Every is the number of GVT rounds between checkpoints (>= 1).
	Every int `json:"every"`
	// Dir receives the numbered snapshot files ("ckpt-NNNNNNNN.ckpt",
	// binary, format version 2). It is created if
	// missing, and a run that cannot create it fails before its first
	// event. Files are written while the next segment runs and are all
	// complete when the run returns; a failed write fails the run.
	// Empty runs the segmented trajectory without encoding or
	// persisting anything — useful for testing; Resume obviously needs
	// a directory.
	Dir string `json:"dir,omitempty"`
}

// ChaosOptions injects deterministic, seeded stalls into a run. Every
// decision is a function of (Seed, thread, iteration), so a chaos run
// is exactly reproducible. Stalls are the one injected fault: message
// loss and killed threads break what Time Warp assumes, and are
// retired (DESIGN.md §5).
type ChaosOptions struct {
	// Seed drives all injection randomness (0 = the run's Seed).
	Seed uint64 `json:"seed,omitempty"`
	// StallRate is a per-thread-iteration probability, in [0, 1), of
	// burning the iteration without doing any work.
	StallRate float64 `json:"stall_rate,omitempty"`
}

// TraceOptions configures run instrumentation: GVT progression,
// rollbacks, commits, anti-messages, scheduling transitions, affinity
// repins, machine migrations and preemptions.
type TraceOptions struct {
	// Limit caps retained records (0 = 1<<20).
	Limit int
	// Ring retains the newest Limit records instead of the oldest —
	// long runs keep the tail, where the interesting behaviour usually
	// is. Dropped counts stay accurate either way.
	Ring bool
	// CSV, when non-nil, receives all records as CSV after the run.
	CSV io.Writer
	// Timeline, when non-nil, receives an ASCII per-thread activity
	// Gantt after the run ('#' scheduled, '.' de-scheduled).
	Timeline io.Writer
	// TimelineWidth is the Gantt width in columns (0 = 80).
	TimelineWidth int
	// Perfetto, when non-nil, receives the run as Chrome trace-event
	// JSON after the run — open it in ui.perfetto.dev: one track per
	// simulation thread (de-scheduled spans as slices; repins,
	// rollbacks, migrations, preemptions as instants) plus GVT and
	// committed-event counter tracks.
	Perfetto io.Writer
}

// Registry, Series, SeriesPoint and MetricsState re-export the
// telemetry layer's types so callers outside the module can name them
// (internal packages are not importable from outside).
type (
	Registry     = telemetry.Registry
	Series       = telemetry.Series
	SeriesPoint  = telemetry.SeriesPoint
	MetricsState = telemetry.MetricsState
)

// NewRegistry returns an empty telemetry registry, for sharing one
// scrape target across runs via Config.Telemetry.
func NewRegistry() *Registry { return telemetry.NewRegistry() }

// NewSeries returns a ring buffer retaining the last limit series
// points (a default when limit <= 0), for live sampling via
// SeriesOptions.Buffer.
func NewSeries(limit int) *Series { return telemetry.NewSeries(limit) }

// SeriesOptions configures per-GVT-round time-series recording.
type SeriesOptions struct {
	// Limit bounds the number of retained points (ring buffer; 0
	// selects a default). Ignored when Buffer is set.
	Limit int
	// CSV, when non-nil, receives the retained points as CSV when the
	// run finishes (ggsim -series).
	CSV io.Writer
	// Buffer, when non-nil, is sampled into directly, so a concurrent
	// reader (the serving layer's live series endpoint) can watch the
	// run mid-flight. The caller owns the buffer's lifecycle.
	Buffer *Series
	// Func, when non-nil, is called with every point as it is recorded,
	// on the goroutine running the simulation — the hook for live
	// progress reporting (ggsim -progress). The point shares its
	// ThreadLVTs with the recorded series: read it, do not modify it.
	Func func(SeriesPoint)
}

// HistSummary is a percentile digest of a run histogram. Count, Mean,
// Min and Max are exact; P50/P95/P99 interpolate within log2 buckets
// (exact to a factor of two).
type HistSummary struct {
	Count          uint64
	Mean, Min, Max float64
	P50, P95, P99  float64
}

// String renders the digest on one line ("n=0" when empty).
func (h HistSummary) String() string {
	if h.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
		h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
}

func histSummary(s telemetry.Summary) HistSummary {
	return HistSummary{
		Count: s.Count, Mean: s.Mean, Min: s.Min, Max: s.Max,
		P50: s.P50, P95: s.P95, P99: s.P99,
	}
}

// Results reports everything the paper's evaluation measures.
type Results struct {
	// CommittedEvents is the number of events committed below GVT; the
	// paper's primary metric is CommittedEventRate = CommittedEvents /
	// WallClockSeconds.
	CommittedEvents    uint64
	CommittedEventRate float64
	// ProcessedEvents counts speculative executions including
	// re-executions; RolledBackEvents counts undone executions (§6.5).
	ProcessedEvents, RolledBackEvents uint64
	// Rollbacks, Stragglers, AntiMessages detail optimism behaviour.
	Rollbacks, Stragglers, AntiMessages uint64
	// LazyReused and LazyCancelled are always 0. They counted the
	// outcomes of lazy cancellation, which is retired (DESIGN.md §5),
	// and stay because Results' JSON form is a contract: result caches
	// and the benchmark's result digests hash it.
	LazyReused, LazyCancelled uint64
	// WallClockSeconds is simulated machine wall time.
	WallClockSeconds float64
	// GVTCPUSeconds is CPU time spent inside GVT computation,
	// accumulated across threads (the paper's per-round numbers ×
	// rounds); GVTRounds is the number of completed rounds.
	GVTCPUSeconds float64
	GVTRounds     uint64
	// TotalCycles is all CPU cycles consumed — the instruction-count
	// proxy for the paper's PAPI numbers.
	TotalCycles uint64
	// Deactivations/Activations count demand-driven scheduling ops;
	// LockContention counts blocked acquisitions of DD-PDES's mutex;
	// Repins counts dynamic-affinity pin operations.
	Deactivations, Activations uint64
	LockContention             uint64
	Repins                     uint64
	// ContextSwitches and Migrations are machine scheduler counters;
	// Preempts counts involuntary context losses. CrossNodeMigrations
	// is always 0: sub-NUMA clustering is retired (DESIGN.md §5), and
	// the field stays because Results' JSON form is a contract.
	ContextSwitches, Migrations uint64
	CrossNodeMigrations         uint64
	Preempts                    uint64
	// PeakUncommittedEvents is the high-water mark of processed events
	// awaiting fossil collection — the state-saving memory demand the
	// GVT computation frequency trades off against (§2.1).
	PeakUncommittedEvents int
	// FinalGVT is the published GVT at completion (== EndTime).
	FinalGVT float64
	// FinalGVTFrequency is the GVT round interval the run used:
	// GVTFrequency, defaults applied. Nothing tunes it any more (adaptive
	// GVT frequency is retired, DESIGN.md §5); the field stays because
	// Results' JSON form is a contract.
	FinalGVTFrequency int
	// TraceSummary digests the recorded trace (empty without tracing);
	// InactiveFraction is the share of thread-time spent de-scheduled.
	TraceSummary     string
	InactiveFraction float64
	// RollbackDepth digests events undone per rollback episode;
	// GVTRoundLatencyCycles digests wall cycles between consecutive GVT
	// round completions; CommitBatch digests events committed per
	// fossil-collection pass; DescheduleSpanCycles digests wall cycles
	// threads spent de-scheduled per episode.
	RollbackDepth         HistSummary
	GVTRoundLatencyCycles HistSummary
	CommitBatch           HistSummary
	DescheduleSpanCycles  HistSummary
	// Counters, Gauges and Histograms snapshot the full telemetry
	// registry by metric name (e.g. "tw.rollback_depth",
	// "machine.runq_depth"). Gauges holds only gauges that were
	// actually set during the run; Metrics carries the set flag for
	// the rest.
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistSummary
	// Series holds the per-GVT-round time series when Config.Series
	// was set (oldest first, ring-bounded). Excluded from the JSON
	// form — the serving layer exposes it through its own endpoint.
	Series []SeriesPoint `json:"-"`
	// Metrics is the lossless raw telemetry export (bucket counts,
	// gauge set flags); the serving layer folds it into its shared
	// registry. Excluded from the JSON form.
	Metrics MetricsState `json:"-"`
}

// GVTCPUSecondsPerRound is the paper's "average CPU time spent for a
// GVT computation round accumulated among threads".
func (r *Results) GVTCPUSecondsPerRound() float64 {
	if r.GVTRounds == 0 {
		return 0
	}
	return r.GVTCPUSeconds / float64(r.GVTRounds)
}

// HistogramsText renders every run histogram as one "name summary"
// line per metric, sorted by name.
func (r *Results) HistogramsText() string {
	names := make([]string, 0, len(r.Histograms))
	for name := range r.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%-32s %s\n", name, r.Histograms[name])
	}
	return b.String()
}

// Efficiency is the fraction of processed events that committed.
func (r *Results) Efficiency() float64 {
	if r.ProcessedEvents == 0 {
		return 0
	}
	return float64(r.CommittedEvents) / float64(r.ProcessedEvents)
}

// Validate checks cfg for the errors Run would reject it with, without
// running anything: missing or malformed fields, out-of-range enum
// values, impossible machine shapes, and model parameter errors. Every
// rejection wraps ErrInvalidConfig. Commands call it to fail fast with
// a one-line diagnostic; the serving layer calls it at admission time
// and maps the sentinel to HTTP 400.
func (c Config) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidConfig, fmt.Sprintf(format, args...))
	}
	if c.Model == nil {
		return fail("Config.Model is required")
	}
	if c.Threads <= 0 {
		return fail("Config.Threads must be positive")
	}
	if !(c.EndTime > 0 && !math.IsInf(c.EndTime, 1)) {
		return fail("Config.EndTime must be positive and finite")
	}
	if c.System < Baseline || c.System > GGPDES {
		return fail("unknown System %d", int(c.System))
	}
	if c.GVT < Barrier || c.GVT > WaitFree {
		return fail("unknown GVT algorithm %d", int(c.GVT))
	}
	if c.Affinity < NoAffinity || c.Affinity > DynamicAffinity {
		return fail("unknown Affinity %d", int(c.Affinity))
	}
	if c.Affinity == DynamicAffinity && c.System != GGPDES {
		return fail("DynamicAffinity requires the GGPDES system")
	}
	if c.GVTFrequency < 0 {
		return fail("GVTFrequency must be non-negative")
	}
	if c.ZeroCounterThreshold < 0 {
		return fail("ZeroCounterThreshold must be non-negative")
	}
	if c.BatchSize < 0 {
		return fail("BatchSize must be non-negative")
	}
	if !(c.OptimismWindow >= 0 && !math.IsInf(c.OptimismWindow, 1)) {
		return fail("OptimismWindow must be non-negative and finite")
	}
	if ck := c.Checkpoint; ck != nil {
		if ck.Every < 1 {
			return fail("Checkpoint.Every must be at least 1")
		}
	}
	// A rate of 1 stalls every iteration forever.
	if ch := c.Chaos; ch != nil && !(ch.StallRate >= 0 && ch.StallRate < 1) {
		return fail("Chaos.StallRate must be in [0, 1)")
	}
	mc, err := c.Machine.build()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if c.System == DDPDES && mc.Cores < 2 {
		return fail("DDPDES needs at least 2 cores (its controller thread takes one)")
	}
	model, err := c.Model.build(c.Threads, c.EndTime)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if c.Checkpoint != nil {
		if _, ok := model.(tw.CheckpointModel); !ok {
			return fail("Checkpoint requires a model with state codecs")
		}
	}
	return nil
}
