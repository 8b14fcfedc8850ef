// Package gvt implements the two Global Virtual Time algorithms the
// paper evaluates: the synchronous Barrier GVT (descheduling
// pthread-style barriers, a perfect GVT) and the asynchronous Wait-Free
// GVT (the five-phase A / Send / B / Aware / End protocol GG-PDES
// couples its scheduling to).
//
// Demand-driven scheduling hooks into the algorithms at the points the
// paper prescribes: the pseudo-controller — the first thread to reach
// Phase Aware (or the barrier's serial thread) — runs activation; every
// thread may deactivate at Phase End; and the last thread to complete a
// round runs the Dynamic CPU Affinity pass.
package gvt

import (
	"fmt"

	"ggpdes/internal/machine"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/tw"
)

// Metric names the GVT layer registers.
const (
	// MetricRoundLatency is a histogram of wall cycles between
	// consecutive GVT round completions.
	MetricRoundLatency = "gvt.round_latency_cycles"
	// MetricRounds counts completed GVT rounds.
	MetricRounds = "gvt.rounds"
)

// roundTelemetry observes round-completion latency for both
// algorithms. Handles are per-thread registry shards, indexed by the
// tid that closes the round, so recording never contends with another
// thread's cells; the round timestamp itself is shared because round
// completion is a global event (machine-serialized, like everything
// here).
type roundTelemetry struct {
	clock   func() uint64
	latency []*telemetry.Histogram
	rounds  []*telemetry.Counter
	last    uint64
}

func newRoundTelemetry(cfg *Config) roundTelemetry {
	n := len(cfg.Engine.Peers())
	rt := roundTelemetry{
		clock:   cfg.Machine.NowCycles,
		latency: make([]*telemetry.Histogram, n),
		rounds:  make([]*telemetry.Counter, n),
	}
	for tid := 0; tid < n; tid++ {
		sh := cfg.Telemetry.Shard(tid)
		rt.latency[tid] = sh.Histogram(MetricRoundLatency)
		rt.rounds[tid] = sh.Counter(MetricRounds)
	}
	return rt
}

// roundComplete records the wall-cycle gap since the previous round
// (the run start, for the first one) on the closing thread's shard.
func (rt *roundTelemetry) roundComplete(tid int) {
	now := rt.clock()
	rt.latency[tid].Observe(float64(now - rt.last))
	rt.last = now
	rt.rounds[tid].Inc()
}

// Kind selects a GVT algorithm.
type Kind int

const (
	// Barrier is the synchronous algorithm ("-Sync" systems).
	Barrier Kind = iota
	// WaitFree is the asynchronous five-phase algorithm ("-Async").
	WaitFree
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Barrier:
		return "barrier"
	case WaitFree:
		return "waitfree"
	default:
		return "unknown"
	}
}

// Hooks are the demand-driven scheduling extension points. All methods
// must charge their costs through acc (flushing before any blocking
// machine call).
type Hooks interface {
	// OnAware runs on the pseudo-controller once per round, immediately
	// after the new GVT is published: the activation scan (Algorithm 2).
	OnAware(p *machine.Proc, acc *machine.Acc, tid int)
	// OnRoundComplete runs on the last thread to finish the round,
	// after all activations and deactivations: the Dynamic CPU Affinity
	// pass (Algorithm 4).
	OnRoundComplete(p *machine.Proc, acc *machine.Acc, tid int)
	// OnEnd runs on every participating thread at Phase End, after
	// fossil collection: the deactivation decision (Algorithm 1). It
	// may block the calling thread (semaphore de-scheduling); it must
	// call Algorithm.Leave before blocking and Algorithm.Join after
	// waking.
	OnEnd(p *machine.Proc, acc *machine.Acc, tid int)
}

// NopHooks is the baseline: no demand-driven scheduling.
type NopHooks struct{}

// OnAware does nothing.
func (NopHooks) OnAware(*machine.Proc, *machine.Acc, int) {}

// OnRoundComplete does nothing.
func (NopHooks) OnRoundComplete(*machine.Proc, *machine.Acc, int) {}

// OnEnd does nothing.
func (NopHooks) OnEnd(*machine.Proc, *machine.Acc, int) {}

// Algorithm is a GVT protocol instance shared by all simulation
// threads of one run.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Step advances the protocol for thread tid. It is called once per
	// main-loop iteration; non-blocking costs go through acc, blocking
	// calls flush first. Step also drives the scheduling hooks.
	Step(p *machine.Proc, acc *machine.Acc, tid int)
	// IdleSteps reports how many of tid's next Step calls are certain to
	// only poll: each charges cycles (the phase check) through acc and
	// to the thread's GVT CPU time, counts one iteration where Step
	// counts them, and touches nothing else — no cut, no hook, no
	// machine call. The answer holds as long as no other thread runs,
	// that is, for the rest of the caller's tick grant; a wait that only
	// another thread can end is math.MaxInt steps long.
	IdleSteps(tid int) (k int, cycles uint64)
	// SkipIdle books n of those Step calls, n <= IdleSteps(tid), without
	// making them. It leaves the algorithm and the thread's GVT CPU time
	// exactly as n Step calls would; charging n × cycles to the thread
	// is the caller's job.
	SkipIdle(tid, n int)
	// Leave unsubscribes tid from GVT participation. It must only be
	// called from the Phase End extension point (inside Hooks.OnEnd),
	// where the thread's pending events are already incorporated in the
	// finished round.
	Leave(tid int)
	// Join resubscribes tid after reactivation; the thread participates
	// from the next round on.
	Join(tid int)
	// Participants returns the number of currently subscribed threads.
	Participants() int
	// Rounds returns the number of completed GVT rounds.
	Rounds() uint64
}

// Costs prices GVT protocol operations in CPU cycles.
type Costs struct {
	// PhaseCheckCycles is the cost of polling round/phase counters,
	// paid on every Step call — the overhead inactive threads keep
	// paying in asynchronous baselines.
	PhaseCheckCycles uint64
	// PhaseAdvanceCycles is the cost of recording a cut (atomic counter
	// + local minimum bookkeeping beyond the engine's LocalMin scan).
	PhaseAdvanceCycles uint64
	// ReduceCyclesPerThread is the pseudo-controller's per-participant
	// cost of the global minimum reduction.
	ReduceCyclesPerThread uint64
}

// DefaultCosts returns the cost model used in the evaluation.
func DefaultCosts() Costs {
	return Costs{
		PhaseCheckCycles:      60,
		PhaseAdvanceCycles:    200,
		ReduceCyclesPerThread: 30,
	}
}

// Config assembles an Algorithm.
type Config struct {
	Kind Kind
	// Engine is the Time Warp engine being synchronized.
	Engine *tw.Engine
	// Machine hosts the simulation threads (the Barrier algorithm
	// allocates machine barriers).
	Machine *machine.Machine
	// Frequency is the number of main-loop iterations between GVT
	// rounds (the paper uses 200).
	Frequency int
	// Hooks are the scheduling extension points; nil means NopHooks.
	Hooks Hooks
	// Costs is the protocol cost model; zero value selects defaults.
	Costs Costs
	// Telemetry, when non-nil, receives round-latency metrics (see the
	// Metric constants).
	Telemetry *telemetry.Registry
	// OnCut, when non-nil, is invoked at the two Mattern-style cut
	// points of every round: cut 1 when the round's first local-minimum
	// cut is recorded (barrier: the stop-the-world generation; wait-free:
	// the first thread entering Phase A), and cut 2 when the reduction
	// is complete, immediately before the new GVT is published. The
	// distributed coordinator stamps wire traffic with the cut
	// generation from this hook. It runs outside cost accounting and
	// must not touch engine state — observability only.
	OnCut func(cut int, round uint64)
}

// New builds the requested algorithm over all engine threads.
func New(cfg Config) (Algorithm, error) {
	if cfg.Engine == nil || cfg.Machine == nil {
		return nil, fmt.Errorf("gvt: Engine and Machine are required")
	}
	if cfg.Frequency <= 0 {
		return nil, fmt.Errorf("gvt: Frequency must be positive, got %d", cfg.Frequency)
	}
	if cfg.Hooks == nil {
		cfg.Hooks = NopHooks{}
	}
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	switch cfg.Kind {
	case Barrier:
		return newBarrier(cfg), nil
	case WaitFree:
		return newWaitFree(cfg), nil
	default:
		return nil, fmt.Errorf("gvt: unknown kind %d", cfg.Kind)
	}
}
