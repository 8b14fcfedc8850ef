// Package core implements the paper's contribution: demand-driven
// scheduling of PDES simulation threads.
//
// Three systems are provided:
//
//   - Baseline: no explicit scheduling; inactive threads keep polling
//     (or sleep only incidentally inside barrier waits) and the OS
//     (machine CFS) multiplexes everything.
//   - DDPDES: the prior Demand-Driven PDES design — a dedicated
//     controller thread on its own core periodically scans activity
//     under a global mutex and reactivates threads; simulation threads
//     deactivate under the same mutex.
//   - GGPDES: the paper's GVT-Guided design — no controller thread;
//     the first thread to reach the GVT round's Aware phase acts as
//     pseudo-controller and runs the activation scan (Algorithm 2);
//     every thread may deactivate at Phase End (Algorithm 1); shared
//     state is touched lock-free, relying on the phase ordering
//     (Aware precedes End) for consistency.
//
// On top of GG-PDES sit three CPU affinity algorithms (§4.2): none
// (CFS decides), constant (round-robin pinning at startup, Algorithm
// 3), and dynamic (re-pin active threads to idle cores each GVT round,
// SMT-aware, Algorithm 4).
package core

import (
	"errors"
	"fmt"

	"ggpdes/internal/gvt"
	"ggpdes/internal/machine"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/trace"
	"ggpdes/internal/tw"
)

// Metric names the scheduling layer registers.
const (
	// MetricDescheduleSpan is a histogram of wall cycles each
	// de-scheduled thread spent blocked before reactivation.
	MetricDescheduleSpan = "core.deschedule_span_cycles"
	// MetricDeactivations and MetricActivations count de-schedule and
	// re-schedule operations.
	MetricDeactivations = "core.deactivations"
	MetricActivations   = "core.activations"
	// MetricRepins counts dynamic-affinity SetAffinity operations.
	MetricRepins = "core.repins"
)

// System selects the thread-scheduling design.
type System int

const (
	// Baseline relies on the OS scheduler alone.
	Baseline System = iota
	// DDPDES is the prior controller-thread design.
	DDPDES
	// GGPDES is the paper's GVT-guided design.
	GGPDES
)

// String returns the system name.
func (s System) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case DDPDES:
		return "dd-pdes"
	case GGPDES:
		return "gg-pdes"
	default:
		return "unknown"
	}
}

// Affinity selects the CPU pinning algorithm.
type Affinity int

const (
	// AffinityNone lets the machine's CFS place and migrate threads.
	AffinityNone Affinity = iota
	// AffinityConstant pins thread t to core t mod usable-cores at
	// startup and never changes it (Algorithm 3).
	AffinityConstant
	// AffinityDynamic re-pins unpinned active threads to the
	// least-loaded cores at the end of every GVT round (Algorithm 4);
	// only meaningful with GGPDES.
	AffinityDynamic
)

// String returns the affinity algorithm's name.
func (a Affinity) String() string {
	switch a {
	case AffinityNone:
		return "none"
	case AffinityConstant:
		return "constant"
	case AffinityDynamic:
		return "dynamic"
	default:
		return "unknown"
	}
}

// Costs prices scheduler operations in CPU cycles.
type Costs struct {
	// LoopCycles is per main-loop iteration overhead (queue size check,
	// zero-counter update, branch logic).
	LoopCycles uint64
	// ScanPerThreadCycles is the activation scan's cost per thread
	// entry (Algorithm 2's walk, and the DD controller's scan).
	ScanPerThreadCycles uint64
	// DeactivateCycles is the bookkeeping cost of Algorithm 1's
	// deactivation path (excluding the semaphore call itself).
	DeactivateCycles uint64
	// AffinityPerThreadCycles is Algorithm 4's per-entry table scan.
	AffinityPerThreadCycles uint64
	// DDControllerPauseCycles is the work the DD controller performs
	// between scan passes on its dedicated core.
	DDControllerPauseCycles uint64
}

// DefaultCosts returns the scheduler cost model used in the evaluation.
func DefaultCosts() Costs {
	return Costs{
		LoopCycles:              150,
		ScanPerThreadCycles:     25,
		DeactivateCycles:        300,
		AffinityPerThreadCycles: 30,
		DDControllerPauseCycles: 4000,
	}
}

// Config assembles a Runner.
type Config struct {
	// Machine hosts the simulation threads.
	Machine *machine.Machine
	// Engine is the Time Warp engine to drive (one peer per thread).
	Engine *tw.Engine
	// System selects Baseline, DDPDES or GGPDES.
	System System
	// GVTKind selects Barrier (-Sync) or WaitFree (-Async).
	GVTKind gvt.Kind
	// GVTFrequency is main-loop iterations between GVT rounds (paper:
	// 200). Zero selects 200.
	GVTFrequency int
	// ZeroCounterThreshold is how many consecutive empty-queue loop
	// iterations flag a thread inactive (paper: 2000). Zero selects
	// 2000.
	ZeroCounterThreshold int
	// Affinity selects the pinning algorithm. AffinityDynamic requires
	// GGPDES.
	Affinity Affinity
	// Costs is the scheduler cost model; zero value selects defaults.
	Costs Costs
	// GVTCosts is the GVT protocol cost model; zero value = defaults.
	GVTCosts gvt.Costs
	// Trace, when non-nil, records scheduling transitions, GVT rounds
	// and affinity repins.
	Trace *trace.Recorder
	// Telemetry, when non-nil, receives scheduler metrics (see the
	// Metric constants) and is forwarded to the GVT layer.
	Telemetry *telemetry.Registry
	// GVTOnCut, when non-nil, is forwarded to gvt.Config.OnCut: the
	// Mattern-style cut notification the distributed coordinator uses
	// to stamp wire traffic with cut generations. Observability only.
	GVTOnCut func(cut int, round uint64)
	// Faults, when non-nil, is consulted once per main-loop iteration
	// (see internal/chaos): a stalled thread burns the iteration without
	// doing work. That changes scheduling, never what commits. A run
	// with an injector executes every iteration; without one, idle
	// iterations are booked (skipIdle).
	Faults ThreadFaultInjector
}

// ThreadFaultInjector decides per-thread, per-iteration stalls.
// Implementations must be deterministic given their construction
// parameters and the sequence of calls per thread, so injected runs
// are reproducible.
type ThreadFaultInjector interface {
	// Stalled reports whether thread tid wastes its current iteration.
	Stalled(tid int) bool
}

// Runner wires a machine, an engine, a GVT algorithm, a scheduler and
// an affinity algorithm together and spawns the simulation threads.
// After Setup, drive the run with Machine.Run.
type Runner struct {
	cfg   Config
	alg   gvt.Algorithm
	sched scheduler
	// demand is the demand-driven schedulers' shared book-keeping; nil
	// under Baseline.
	demand *demand
	aff    affinity
	tel    coreTelemetry

	// pollCycles is what an iteration that finds nothing costs before
	// its GVT step: the loop overhead and an empty input-queue poll.
	pollCycles uint64
	// executed and skipped count main-loop iterations over all threads:
	// the ones that ran and the ones skipIdle booked instead.
	executed, skipped uint64

	shutdownDone bool
}

// coreTelemetry caches metric handles for the scheduling hot paths,
// one registry shard per thread so recording never shares a cache
// line across threads. Handles are indexed by the tid the operation
// concerns (the thread being activated, deactivated or repinned).
type coreTelemetry struct {
	descheduleSpan             []*telemetry.Histogram
	deactivations, activations []*telemetry.Counter
	repins                     []*telemetry.Counter
}

// scheduler is the demand-driven scheduling behaviour, invoked from the
// GVT algorithm's hook points and from the main loop.
type scheduler interface {
	gvt.Hooks
	// ReadMessageCount is Algorithm 1's per-iteration activity probe.
	ReadMessageCount(tid int)
	// SkipIdle books n ReadMessageCount probes of a thread whose peer is
	// quiet, each of which would have found nothing executable.
	SkipIdle(tid, n int)
	// SemOf returns the thread's de-scheduling semaphore, nil if the
	// system never de-schedules.
	SemOf(tid int) *machine.Sem
	// IsActive reports scheduler-level activity of a thread.
	IsActive(tid int) bool
}

// NewRunner validates cfg, spawns one machine thread per engine peer
// (and the DD controller when applicable), and returns the runner.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Machine == nil || cfg.Engine == nil {
		return nil, errors.New("core: Machine and Engine are required")
	}
	if cfg.GVTFrequency == 0 {
		cfg.GVTFrequency = 200
	}
	if cfg.GVTFrequency < 0 {
		return nil, errors.New("core: GVTFrequency must be positive")
	}
	if cfg.ZeroCounterThreshold == 0 {
		cfg.ZeroCounterThreshold = 2000
	}
	if cfg.ZeroCounterThreshold < 0 {
		return nil, errors.New("core: ZeroCounterThreshold must be positive")
	}
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	if cfg.Affinity == AffinityDynamic && cfg.System != GGPDES {
		return nil, errors.New("core: AffinityDynamic requires the GGPDES system")
	}
	r := &Runner{cfg: cfg, pollCycles: cfg.Costs.LoopCycles + cfg.Engine.Config().Costs.DrainBaseCycles}

	n := len(cfg.Engine.Peers())
	r.tel = coreTelemetry{
		descheduleSpan: make([]*telemetry.Histogram, n),
		deactivations:  make([]*telemetry.Counter, n),
		activations:    make([]*telemetry.Counter, n),
		repins:         make([]*telemetry.Counter, n),
	}
	for tid := 0; tid < n; tid++ {
		sh := cfg.Telemetry.Shard(tid)
		r.tel.descheduleSpan[tid] = sh.Histogram(MetricDescheduleSpan)
		r.tel.deactivations[tid] = sh.Counter(MetricDeactivations)
		r.tel.activations[tid] = sh.Counter(MetricActivations)
		r.tel.repins[tid] = sh.Counter(MetricRepins)
	}
	mcfg := cfg.Machine.Config()
	usableCores := mcfg.Cores
	if cfg.System == DDPDES {
		// The controller monopolizes the last core.
		usableCores--
		if usableCores < 1 {
			return nil, errors.New("core: DDPDES needs at least 2 cores")
		}
	}

	switch cfg.Affinity {
	case AffinityNone:
		r.aff = &noAffinity{}
	case AffinityConstant:
		r.aff = &constantAffinity{usableCores: usableCores}
	case AffinityDynamic:
		r.aff = newDynamicAffinity(n, usableCores, cfg.Costs)
	default:
		return nil, fmt.Errorf("core: unknown affinity %d", cfg.Affinity)
	}

	var controller func(*machine.Proc)
	switch cfg.System {
	case Baseline:
		r.sched = &baselineSched{}
	case GGPDES:
		gg := newGGSched(r)
		r.sched, r.demand = gg, &gg.demand
	case DDPDES:
		dd := newDDSched(r)
		r.sched, r.demand, controller = dd, &dd.demand, dd.controllerBody
	default:
		return nil, fmt.Errorf("core: unknown system %d", cfg.System)
	}

	alg, err := gvt.New(gvt.Config{
		Kind:      cfg.GVTKind,
		Engine:    cfg.Engine,
		Machine:   cfg.Machine,
		Frequency: cfg.GVTFrequency,
		Hooks:     r.sched,
		Costs:     cfg.GVTCosts,
		Telemetry: cfg.Telemetry,
		OnCut:     cfg.GVTOnCut,
	})
	if err != nil {
		return nil, err
	}
	r.alg = alg

	for tid := 0; tid < n; tid++ {
		tid := tid
		cfg.Machine.Spawn(fmt.Sprintf("sim-%d", tid), func(p *machine.Proc) {
			r.threadBody(p, tid)
		})
	}
	if controller != nil {
		cfg.Machine.SpawnPinned("dd-controller", mcfg.Cores-1, controller)
	}
	return r, nil
}

// Algorithm returns the GVT algorithm instance (for stats).
func (r *Runner) Algorithm() gvt.Algorithm { return r.alg }

// SchedulingStats summarizes a run's demand-driven scheduling activity.
type SchedulingStats struct {
	// Deactivations and Activations count de-schedule / re-schedule
	// operations.
	Deactivations, Activations uint64
	// LockContention counts blocking acquisitions of DD-PDES's global
	// mutex (zero for Baseline and GG-PDES).
	LockContention uint64
	// Repins counts dynamic-affinity SetAffinity operations.
	Repins uint64
}

// SchedulingStats returns the run's scheduling counters; valid after
// Machine.Run completes.
func (r *Runner) SchedulingStats() SchedulingStats {
	var s SchedulingStats
	if d := r.demand; d != nil {
		s.Deactivations, s.Activations = d.Deactivations, d.Activations
	}
	if dd, ok := r.sched.(*ddSched); ok {
		s.LockContention = dd.mu.Contended
	}
	if dyn, ok := r.aff.(*dynamicAffinity); ok {
		s.Repins = dyn.Repins
	}
	return s
}

// System returns the configured scheduling system.
func (r *Runner) System() System { return r.cfg.System }

// NumActive returns the number of currently scheduled-in simulation
// threads; for Baseline every thread always counts as active. The
// per-round series sampler reads it mid-run — safe because machine
// execution is serialized.
func (r *Runner) NumActive() int {
	if d := r.demand; d != nil {
		return d.numActive
	}
	return len(r.cfg.Engine.Peers())
}

// LoopIterations returns how many main-loop iterations the simulation
// threads executed and how many more they booked arithmetically (see
// skipIdle); the sum is what the run would have executed without the
// skip. Host-side bookkeeping for tests and benchmarks: nothing
// simulated depends on the split, so it is no part of any result.
func (r *Runner) LoopIterations() (executed, skipped uint64) { return r.executed, r.skipped }

// idleFlushEvery batches the cycle charges of consecutive do-nothing
// loop iterations into one machine interaction; idle iterations have no
// cross-thread effects, so batching them does not change semantics.
const idleFlushEvery = 8

// threadBody is a simulation thread's main loop, the ROSS core loop:
// drain input, process a batch, probe activity, advance GVT.
func (r *Runner) threadBody(p *machine.Proc, tid int) {
	eng := r.cfg.Engine
	peer := eng.Peer(tid)
	acc := machine.NewAcc(p)
	r.aff.Setup(p, acc, tid)
	idle := 0
	// polled: the previous iteration found nothing to drain or process.
	// A busy thread never gets past it to skipIdle's probe.
	polled := false
	for !eng.Done() {
		if polled && idle == 0 && r.cfg.Faults == nil {
			r.skipIdle(p, acc, peer, tid)
		}
		r.executed++
		acc.Work(r.cfg.Costs.LoopCycles)
		if f := r.cfg.Faults; f != nil && f.Stalled(tid) {
			acc.Flush()
			continue
		}
		drained, processed := peer.DrainProcess(acc)
		polled = drained == 0 && processed == 0
		r.sched.ReadMessageCount(tid)
		before := r.alg.Rounds()
		r.alg.Step(p, acc, tid)
		if !polled || r.alg.Rounds() != before || acc.Pending() > 4*r.cfg.Costs.LoopCycles {
			acc.Flush()
			idle = 0
			continue
		}
		if idle++; idle >= idleFlushEvery {
			acc.Flush()
			idle = 0
		}
	}
	// Final fossil collection: threads that exit mid-round (wait-free)
	// or woke from de-scheduling still hold committable history.
	peer.FossilCollect(acc, eng.GVT())
	acc.Flush()
	r.shutdownWake(p, tid)
}

// skipIdle is the arithmetic skip-ahead for a polling thread: the
// iterations that are certain to do nothing are charged, not executed.
// It runs at the top of an iteration, with the idle-flush counter at
// zero. When nothing waits in the accumulator, the peer is Quiet — its
// poll finds nothing, costs DrainBaseCycles and changes nothing, and
// the scheduler's probe finds nothing executable — and the GVT
// algorithm says its next k Steps only pay the phase check, then every
// one of the next k iterations adds the same c cycles to the
// accumulator and the loop above flushes it every m of them: after
// idleFlushEvery, or sooner once it holds more than 4·LoopCycles. Those
// flushes are back-to-back Work(m·c) calls, and Proc.WorkN charges as
// many of them as end strictly inside the tick grant, which is also
// what makes the k iterations certain: until the grant is spent no
// other thread runs, so no message arrives, no round moves and the run
// cannot end. Each booked flush stands for m whole iterations, which
// the GVT algorithm and the scheduler count as they would have; the
// iteration that reaches or crosses the grant is left to the loop.
//
// Two kinds of run execute every iteration instead. One with a fault
// injector, which is consulted (and may draw) once per iteration; the
// caller checks that. And the coordinator of a distributed run, whose
// hollow peers are never Quiet (see tw.Peer.Quiet): what it polls
// lives in another process.
func (r *Runner) skipIdle(p *machine.Proc, acc *machine.Acc, peer *tw.Peer, tid int) {
	if acc.Pending() != 0 || !peer.Quiet() {
		return
	}
	k, stepCycles := r.alg.IdleSteps(tid)
	c := r.pollCycles + stepCycles
	if c == 0 {
		return // free iterations never flush: there is no rhythm to reproduce
	}
	m := int(min(idleFlushEvery, 4*r.cfg.Costs.LoopCycles/c+1))
	if g := p.WorkN(uint64(m)*c, k/m); g > 0 {
		r.alg.SkipIdle(tid, g*m)
		r.sched.SkipIdle(tid, g*m)
		r.skipped += uint64(g * m)
	}
}

// shutdownWake releases every de-scheduled thread once the simulation
// completes so it can observe completion and exit.
func (r *Runner) shutdownWake(p *machine.Proc, tid int) {
	if r.shutdownDone {
		return
	}
	r.shutdownDone = true
	n := len(r.cfg.Engine.Peers())
	for i := 0; i < n; i++ {
		if sem := r.sched.SemOf(i); sem != nil && !r.sched.IsActive(i) {
			p.SemPost(sem)
		}
	}
}
