package machine

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"ggpdes/internal/slab"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/trace"
)

// Machine is a simulated many-core processor. Create one with New,
// spawn threads, then Run to completion. A Machine is single-use; the
// host coroutines its threads ran on need not be (Spare).
type Machine struct {
	cfg     Config
	threads []*Thread
	cores   []coreState
	// share[k-1] is a context's cycle share of one tick with k active
	// contexts on its core.
	share   []uint64
	tick    uint64
	live    int
	started bool

	stats    Stats
	tr       *trace.Recorder
	tel      telemetryHandles
	onCancel func()

	// Threads, semaphores and accumulators come from per-machine slabs
	// in blocks of one per hardware context: runs spawn a multiple of
	// that, and the paper's point 1,024 of each.
	threadSlab slab.Slab[Thread]
	semSlab    slab.Slab[Sem]
	accSlab    slab.Slab[Acc]
	coroSlab   slab.Slab[coro]

	// spare is the set Lend gave the machine, nil when there is none.
	spare *Spare
}

// Spare is what a finished machine leaves the next one: its threads'
// parked coroutines (see coro), the array it kept its threads in, and
// its cores' emptied run queues, running sets and scratch buffers. A
// checkpointed run builds a machine per segment, and without the set
// every one of them created a coroutine per thread and regrew its
// thread array and queues from nil; with it, a run
// pays for its coroutines once, as the paper's long-lived threads are
// created once and only ever de-scheduled. The set carries no
// scheduling state — every CFS field of a machine starts from New —
// only host memory and stacks, so a machine that was lent one runs
// exactly as one that was not. Whoever lends it ends it (End) once no
// machine will run on it again, on every return path.
type Spare struct {
	coros   []*coro
	threads []*Thread
	cores   []coreState
}

// End ends every parked coroutine in the set.
func (sp *Spare) End() {
	for _, c := range sp.coros {
		c.stop()
	}
	sp.coros = nil
}

// Lend has m run on sp: its threads start on sp's parked coroutines
// before creating any, it keeps them in sp's thread array, its cores
// take sp's queue capacity, and a thread's coroutine parks in sp when
// its body returns; when RunContext returns, m leaves its thread array
// and its cores' capacity there too. The finished m's Threads stay
// readable until the next machine lent sp spawns. A machine that was
// lent nothing ends a coroutine as soon as its body returns. Call
// before Spawn, and end sp after the last machine lent it has run.
func (m *Machine) Lend(sp *Spare) { m.spare = sp }

// Metric names the machine registers. Histograms are sampled every
// telemetrySampleTicks quanta per core.
const (
	MetricMigrations   = "machine.migrations"
	MetricPreempts     = "machine.preempts"
	MetricCtxSwitches  = "machine.ctx_switches"
	MetricRunqDepth    = "machine.runq_depth"
	MetricSMTOccupancy = "machine.smt_occupancy"
)

// telemetrySampleTicks is the per-core occupancy sampling period.
const telemetrySampleTicks = 16

// telemetryHandles caches metric handles so the hot scheduling paths
// never do registry lookups.
type telemetryHandles struct {
	migrations, preempts, ctxSwitches *telemetry.Counter
	runqDepth, smtOccupancy           *telemetry.Histogram
}

func (m *Machine) bindTelemetry(reg *telemetry.Registry) {
	// The machine runs entirely on its single driving goroutine, so
	// one shard (tid 0) suffices; what matters is that its cells do
	// not share cache lines with the worker-thread shards.
	sh := reg.Shard(0)
	m.tel = telemetryHandles{
		migrations:   sh.Counter(MetricMigrations),
		preempts:     sh.Counter(MetricPreempts),
		ctxSwitches:  sh.Counter(MetricCtxSwitches),
		runqDepth:    sh.Histogram(MetricRunqDepth),
		smtOccupancy: sh.Histogram(MetricSMTOccupancy),
	}
}

// SetTrace attaches a trace recorder; the machine emits migration and
// preemption records. Call before Run.
func (m *Machine) SetTrace(r *trace.Recorder) { m.tr = r }

// SetTelemetry points the machine's metrics at reg (nil detaches them
// again). Call before Run.
func (m *Machine) SetTelemetry(reg *telemetry.Registry) { m.bindTelemetry(reg) }

// SetOnCancel registers a hook RunContext invokes once, from the
// driving goroutine, when its context is cancelled — the place to ask
// the workload to wind itself down (e.g. tw.Engine.Cancel). Call
// before Run.
func (m *Machine) SetOnCancel(f func()) { m.onCancel = f }

type coreState struct {
	// runq holds runnable threads not currently on a context, ordered
	// by (vruntime, id).
	runq []*Thread
	// running holds the threads occupying SMT contexts this tick.
	running []*Thread
	// scratch is advanceTick's reusable iteration snapshot of running,
	// so the per-core per-tick copy allocates nothing in steady state.
	scratch []*Thread
	// busy accumulates cycles actually consumed on this core.
	busy uint64
}

// Stats aggregates machine-level counters for a run.
type Stats struct {
	// Ticks is the number of scheduling quanta the run took; Ticks ×
	// TickCycles is the machine wall-clock in cycles.
	Ticks uint64
	// CtxSwitches counts threads switched onto a context they were not
	// already occupying.
	CtxSwitches uint64
	// Migrations counts cross-core thread movements.
	// CrossNodeMigrations is always zero: the machine has one memory
	// node since sub-NUMA clustering left (DESIGN.md §5), and the field
	// stays because checkpoint headers carry it.
	Migrations          uint64
	CrossNodeMigrations uint64
	// SemWaits, SemPosts and BarrierWaits count synchronization calls.
	SemWaits, SemPosts, BarrierWaits uint64
	// Wakeups counts threads woken from blocking calls.
	Wakeups uint64
	// Preempts counts involuntary context losses to a lower-vruntime
	// waiter.
	Preempts uint64
}

// New creates a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, tick: cfg.StartTick}
	n := cfg.Cores * cfg.SMTWidth
	m.threadSlab.Min, m.threadSlab.Max = n, n
	m.semSlab.Min, m.semSlab.Max = n, n
	m.accSlab.Min, m.accSlab.Max = n, n
	m.cores = make([]coreState, cfg.Cores)
	m.share = make([]uint64, cfg.SMTWidth)
	for k := range m.share {
		m.share[k] = max(1, uint64(float64(cfg.TickCycles)*cfg.SMTAggregate[k]/float64(k+1)))
	}
	// Bind against a nil registry so instrumentation sites always have
	// live (if unreported) handles.
	m.bindTelemetry(nil)
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Stats returns the machine counters; valid after Run.
func (m *Machine) Stats() Stats { return m.stats }

// NowCycles returns the machine wall-clock in cycles (tick-granular);
// also available to threads via Proc.NowCycles.
func (m *Machine) NowCycles() uint64 { return m.tick * m.cfg.TickCycles }

// WallSeconds converts the run's tick count to seconds of machine
// wall-clock time.
func (m *Machine) WallSeconds() float64 {
	return float64(m.tick) * float64(m.cfg.TickCycles) / m.cfg.FreqHz
}

// CyclesToSeconds converts a cycle count to seconds on this machine.
func (m *Machine) CyclesToSeconds(cycles uint64) float64 {
	return float64(cycles) / m.cfg.FreqHz
}

// TotalCycles returns the CPU cycles consumed by all threads, the
// machine's "instructions executed" proxy.
func (m *Machine) TotalCycles() uint64 {
	var sum uint64
	for _, t := range m.threads {
		sum += t.cycles
	}
	return sum
}

// Threads returns the spawned threads in id order.
func (m *Machine) Threads() []*Thread { return m.threads }

// CoreBusyCycles returns the cycles consumed on the given core. Core's
// skip tests compare it core by core between a run that books idle
// iterations and one that executes them, which no invariant replaces.
func (m *Machine) CoreBusyCycles(core int) uint64 { return m.cores[core].busy }

// Spawn creates a thread that will run body when the machine starts.
// The thread is unpinned; initial placement is round-robin. Spawn must
// be called before Run.
func (m *Machine) Spawn(name string, body func(*Proc)) *Thread {
	return m.spawn(name, AnyCore, body)
}

// SpawnPinned creates a thread pinned to the given core.
func (m *Machine) SpawnPinned(name string, core int, body func(*Proc)) *Thread {
	if core < 0 || core >= m.cfg.Cores {
		panic(fmt.Sprintf("machine: SpawnPinned to invalid core %d", core))
	}
	return m.spawn(name, core, body)
}

func (m *Machine) spawn(name string, pin int, body func(*Proc)) *Thread {
	if m.started {
		panic("machine: Spawn after Run")
	}
	if sp := m.spare; sp != nil && m.threads == nil {
		clear(sp.threads)
		m.threads = sp.threads[:0]
	}
	t := m.threadSlab.New()
	*t = Thread{
		id:         len(m.threads),
		name:       name,
		m:          m,
		state:      StateRunnable,
		pinned:     pin,
		needsFetch: true,
		body:       body,
	}
	m.threads = append(m.threads, t)
	m.live++
	return t
}

// DeadlockError reports that live threads exist but none is runnable.
type DeadlockError struct {
	// Tick is the quantum at which the deadlock was detected.
	Tick uint64
	// Blocked lists the blocked threads and what they wait on.
	Blocked []string
}

// Error implements the error interface.
func (e *DeadlockError) Error() string {
	msg := fmt.Sprintf("machine: deadlock at tick %d: %d thread(s) blocked", e.Tick, len(e.Blocked))
	return msg + ": " + strings.Join(e.Blocked[:min(len(e.Blocked), 8)], ", ")
}

// Run drives the machine until every thread has exited. It returns a
// *DeadlockError if all live threads block, or an error when MaxTicks
// is exceeded or a thread body panics.
func (m *Machine) Run() error { return m.RunContext(context.Background()) }

// cancelGraceTicks bounds how long a cancelled run may keep ticking
// while its threads wind down before the machine aborts them outright.
// Threads observing a cancellation flag exit within one main-loop
// iteration (a handful of ticks), so this is generous.
const cancelGraceTicks = 1 << 16

// RunContext drives the machine like Run, polling ctx and yielding the
// processor once per tick (real time, not simulated time). On
// cancellation it invokes the SetOnCancel hook so the workload can wind
// down cooperatively, keeps ticking for a bounded grace period, and
// returns ctx's error — also
// swallowing any deadlock or MaxTicks failure that the teardown
// itself provokes (threads parked on barriers or semaphores when the
// flag flips never get their partners back).
func (m *Machine) RunContext(ctx context.Context) (err error) {
	if m.started {
		return fmt.Errorf("machine: Run called twice")
	}
	m.started = true
	// One block holds every coroutine the threads may have to create.
	m.coroSlab.Min, m.coroSlab.Max = len(m.threads), len(m.threads)
	if m.spare != nil {
		m.swapQueues()
		defer m.swapQueues()
	}
	defer func() {
		if err != nil {
			m.abort()
		}
	}()
	// Initial placement: pinned threads on their core, the rest
	// round-robin (fork balancing).
	next := 0
	for _, t := range m.threads {
		core := t.pinned
		if core == AnyCore {
			core = next % m.cfg.Cores
			next++
		}
		t.core = core
		m.cores[core].runq = append(m.cores[core].runq, t)
	}
	for c := range m.cores {
		m.sortRunq(&m.cores[c])
	}

	done := ctx.Done()
	cancelled := false
	var cancelTick uint64
	for m.live > 0 {
		// A run switches between coroutines without entering the Go
		// scheduler, so without this it holds its P until the runtime
		// preempts it (10 ms): the garbage collector's workers and, in a
		// server, request handlers wait that long. Measured without it:
		// peak RSS of a single-P run +40 %, p95 of a cache hit beside two
		// simulating workers 1.4 ms -> 6 ms.
		runtime.Gosched()
		if done != nil && !cancelled {
			select {
			case <-done:
				cancelled = true
				cancelTick = m.tick
				if m.onCancel != nil {
					m.onCancel()
				}
			default:
			}
		}
		if cancelled && m.tick-cancelTick > cancelGraceTicks {
			return ctx.Err()
		}
		if m.cfg.MaxTicks > 0 && m.tick >= m.cfg.MaxTicks {
			if cancelled {
				return ctx.Err()
			}
			return fmt.Errorf("machine: exceeded MaxTicks=%d with %d live thread(s): %s",
				m.cfg.MaxTicks, m.live, m.describeThreads())
		}
		anyRunning := false
		for c := range m.cores {
			m.reselect(c)
			if len(m.cores[c].running) > 0 {
				anyRunning = true
			}
		}
		if !anyRunning {
			if cancelled {
				return ctx.Err()
			}
			return m.deadlock()
		}
		if perr := m.advanceTick(); perr != nil {
			return perr
		}
		m.tick++
		m.stats.Ticks = m.tick
		if m.tick%telemetrySampleTicks == 0 {
			m.sampleOccupancy()
		}
		if m.cfg.LoadBalancePeriodTicks > 0 && m.tick%uint64(m.cfg.LoadBalancePeriodTicks) == 0 {
			m.loadBalance()
		}
		if tickCheck != nil {
			if err := tickCheck(m); err != nil {
				return err
			}
		}
	}
	if cancelled {
		return ctx.Err()
	}
	return nil
}

// abort unwinds the coroutines of all non-exited threads so they do
// not leak; a thread that never ran has none. An aborted coroutine
// ends: it is never parked.
func (m *Machine) abort() {
	for _, t := range m.threads {
		if t.state != StateExited {
			t.state = StateExited
			if t.co != nil {
				t.co.stop()
			}
		}
	}
}

// swapQueues swaps the cores' run queues, running sets and scratch
// buffers with the spare set's: at the start of a run the cores take the
// capacity a finished machine left, and at its end they leave theirs,
// emptied. Each core keeps its busy cycles. The set holds the machine's
// thread array from then on, for the next machine's spawn.
func (m *Machine) swapQueues() {
	sp := m.spare
	sp.threads = m.threads
	if len(sp.cores) != len(m.cores) {
		sp.cores = make([]coreState, len(m.cores))
	}
	for i := range m.cores {
		c, s := &m.cores[i], &sp.cores[i]
		clear(c.runq)
		clear(c.running)
		c.runq, s.runq = s.runq[:0], c.runq[:0]
		c.running, s.running = s.running[:0], c.running[:0]
		c.scratch, s.scratch = s.scratch[:0], c.scratch[:0]
	}
}

// coroutine hands t a coroutine: a parked one from the spare set, or a
// new one.
func (m *Machine) coroutine(t *Thread) *coro {
	var c *coro
	if sp := m.spare; sp != nil && len(sp.coros) > 0 {
		c, sp.coros = sp.coros[len(sp.coros)-1], sp.coros[:len(sp.coros)-1]
	} else {
		c = m.coroSlab.New()
		c.start()
	}
	c.t = t
	return c
}

// describeThreads summarizes non-exited threads for diagnostics.
func (m *Machine) describeThreads() string {
	var parts []string
	for _, t := range m.threads {
		if t.state == StateExited {
			continue
		}
		d := fmt.Sprintf("%s=%s", t.name, t.state)
		if t.state == StateBlocked {
			d += "(" + t.blockKind + " " + t.blockName + ")"
		}
		parts = append(parts, d)
		if len(parts) >= 16 {
			parts = append(parts, "...")
			break
		}
	}
	return strings.Join(parts, " ")
}

func (m *Machine) deadlock() error {
	e := &DeadlockError{Tick: m.tick}
	for _, t := range m.threads {
		if t.state == StateBlocked {
			e.Blocked = append(e.Blocked, fmt.Sprintf("%s(%s %s)", t.name, t.blockKind, t.blockName))
		}
	}
	return e
}

// threadLess is the CFS ordering: lowest vruntime first, id tiebreak.
func threadLess(a, b *Thread) bool {
	if a.vruntime != b.vruntime {
		return a.vruntime < b.vruntime
	}
	return a.id < b.id
}

func (m *Machine) sortRunq(c *coreState) {
	//ggvet:allow(threadLess's order, vruntime with id tiebreak, is total, so the unstable sort cannot permute equal elements)
	slices.SortFunc(c.runq, func(a, b *Thread) int {
		return cmp.Or(cmp.Compare(a.vruntime, b.vruntime), cmp.Compare(a.id, b.id))
	})
}

// reselect fills the core's SMT contexts: empty slots take the lowest
// vruntime runnable threads; a runnable thread preempts a running one
// only with a vruntime lead of PreemptGranularityTicks quanta.
func (m *Machine) reselect(core int) {
	c := &m.cores[core]
	// Fill free contexts.
	for len(c.running) < m.cfg.SMTWidth && len(c.runq) > 0 {
		m.switchIn(c, c.popRunq())
	}
	if len(c.runq) == 0 {
		return
	}
	gran := uint64(m.cfg.PreemptGranularityTicks) * m.cfg.TickCycles
	// Preemption: compare the best waiter against the worst runner.
	for {
		if len(c.runq) == 0 {
			return
		}
		cand := c.runq[0]
		worst := -1
		for i, r := range c.running {
			if worst == -1 || threadLess(c.running[worst], r) {
				worst = i
			}
		}
		r := c.running[worst]
		if cand.vruntime+gran >= r.vruntime {
			return
		}
		// Swap: r back to the queue, cand onto the context.
		m.stats.Preempts++
		m.tel.preempts.Inc()
		if m.tr != nil {
			m.tr.Add(trace.KindPreempt, r.id, 0, int64(core))
		}
		c.popRunq()
		r.state = StateRunnable
		c.running[worst] = c.running[len(c.running)-1]
		c.running = c.running[:len(c.running)-1]
		m.enqueue(r, core)
		m.switchIn(c, cand)
	}
}

// popRunq removes and returns the head of the run queue. It copies the
// rest down (queues hold a few dozen entries at most): re-slicing from
// the front would give the capacity away and make enqueue's append
// reallocate for ever.
func (c *coreState) popRunq() *Thread {
	t := c.runq[0]
	n := copy(c.runq, c.runq[1:])
	c.runq[n] = nil
	c.runq = c.runq[:n]
	return t
}

// switchIn puts t on a free context of core c, charging switch costs.
func (m *Machine) switchIn(c *coreState, t *Thread) {
	t.state = StateRunning
	c.running = append(c.running, t)
	if t.everRan {
		t.penalty += m.cfg.CtxSwitchCycles
		m.stats.CtxSwitches++
		m.tel.ctxSwitches.Inc()
	}
	t.everRan = true
}

// enqueue places a runnable thread on a core's run queue in order.
func (m *Machine) enqueue(t *Thread, core int) {
	if t.core != core {
		t.penalty += m.cfg.MigrationCycles
		m.stats.Migrations++
		m.tel.migrations.Inc()
		if m.tr != nil {
			m.tr.Add(trace.KindMigration, t.id, 0, int64(core))
		}
		t.core = core
	}
	c := &m.cores[core]
	i := sort.Search(len(c.runq), func(i int) bool { return threadLess(t, c.runq[i]) })
	c.runq = append(c.runq, nil)
	copy(c.runq[i+1:], c.runq[i:])
	c.runq[i] = t
}

// placeWoken chooses a core for a freshly woken thread: its pin, or the
// least-loaded core (CFS wake placement).
func (m *Machine) placeWoken(t *Thread) {
	core := t.pinned
	if core == AnyCore {
		core = m.idlestCore()
	}
	// Wake-up placement: do not let a long-sleeping thread's stale low
	// vruntime starve others; align it with the destination core's
	// minimum.
	if min, ok := m.coreMinVruntime(core); ok && t.vruntime < min {
		t.vruntime = min
	}
	m.enqueue(t, core)
}

func (m *Machine) idlestCore() int {
	best, bestLoad := 0, int(^uint(0)>>1)
	for i := range m.cores {
		load := len(m.cores[i].runq) + len(m.cores[i].running)
		if load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

func (m *Machine) coreMinVruntime(core int) (uint64, bool) {
	c := &m.cores[core]
	var min uint64
	found := false
	for _, t := range c.running {
		if !found || t.vruntime < min {
			min, found = t.vruntime, true
		}
	}
	if len(c.runq) > 0 && (!found || c.runq[0].vruntime < min) {
		min, found = c.runq[0].vruntime, true
	}
	return min, found
}

// wake transitions a blocked thread to runnable.
func (m *Machine) wake(t *Thread) {
	if t.state != StateBlocked {
		panic("machine: wake of non-blocked thread " + t.name)
	}
	t.state = StateRunnable
	t.blockKind, t.blockName = "", ""
	t.penalty += m.cfg.WakeCycles
	m.stats.Wakeups++
	m.placeWoken(t)
}

// block marks the currently running thread t as blocked on the named
// primitive of the given kind; the caller removes it from the running
// set.
func (m *Machine) block(t *Thread, kind, name string) {
	t.state = StateBlocked
	t.blockKind, t.blockName = kind, name
}

// advanceTick grants every running context its cycle share and advances
// thread programs.
func (m *Machine) advanceTick() error {
	for core := range m.cores {
		c := &m.cores[core]
		k := len(c.running)
		if k == 0 {
			continue
		}
		share := m.share[k-1]
		// Iterate over a snapshot: perform() mutates c.running. The
		// snapshot reuses a per-core scratch buffer across ticks.
		c.scratch = append(c.scratch[:0], c.running...)
		for i, t := range c.scratch {
			c.scratch[i] = nil
			if t.state != StateRunning {
				continue // blocked/migrated by an earlier thread this tick
			}
			if err := m.advanceThread(c, t, share); err != nil {
				return err
			}
		}
	}
	return nil
}

// advanceThread lets t consume up to budget cycles, completing as many
// segments as fit.
func (m *Machine) advanceThread(c *coreState, t *Thread, budget uint64) error {
	for {
		if t.needsFetch {
			ok, err := m.fetchNext(t, budget)
			if err != nil {
				return err
			}
			if !ok {
				m.exitThread(c, t)
				return nil
			}
			budget = t.grant
		}
		if t.seg.cost > budget {
			t.seg.cost -= budget
			m.charge(c, t, budget)
			return nil
		}
		spent := t.seg.cost
		budget -= spent
		m.charge(c, t, spent)
		t.seg.cost = 0
		t.needsFetch = true
		m.perform(c, t)
		if t.state != StateRunning {
			return nil
		}
		if budget == 0 {
			return nil
		}
	}
}

func (m *Machine) charge(c *coreState, t *Thread, cycles uint64) {
	t.cycles += cycles
	t.vruntime += cycles
	c.busy += cycles
}

// fetchNext switches to t's coroutine, handing it grant cycles to
// charge in place (see Proc.work), until its next call that needs the
// scheduler; what is left of the grant is in t.grant. It reports
// ok=false when the body returned, and an error if it panicked.
func (m *Machine) fetchNext(t *Thread, grant uint64) (ok bool, err error) {
	if t.co == nil {
		t.co = m.coroutine(t)
	}
	t.grant = grant
	_, alive := t.co.next()
	t.needsFetch = false
	if !alive || t.co.t == nil {
		// The body returned and its coroutine parked — it goes to the
		// spare set, or ends when the machine was lent none — or it
		// panicked and its coroutine ended.
		switch {
		case alive && m.spare != nil:
			m.spare.coros = append(m.spare.coros, t.co)
		case alive:
			t.co.stop()
		}
		t.co = nil
		if t.panicV != nil {
			return false, fmt.Errorf("machine: thread %s panicked: %v", t.name, t.panicV)
		}
		return false, nil
	}
	t.seg.cost += t.penalty
	t.penalty = 0
	return true, nil
}

// exitThread removes t from its core after its body returned.
func (m *Machine) exitThread(c *coreState, t *Thread) {
	t.state = StateExited
	m.removeRunning(c, t)
	m.live--
}

func (m *Machine) removeRunning(c *coreState, t *Thread) {
	if i := slices.Index(c.running, t); i >= 0 {
		c.running = slices.Delete(c.running, i, i+1)
	}
}

// perform executes the action of t's just-paid segment.
func (m *Machine) perform(c *coreState, t *Thread) {
	seg := &t.seg
	switch seg.kind {
	case segWork:
		// Pure computation; nothing to do.
	case segSemWait:
		m.stats.SemWaits++
		if seg.sem.wait(t) {
			m.block(t, "sem", seg.sem.name)
			m.removeRunning(c, t)
		}
	case segSemPost:
		m.stats.SemPosts++
		seg.sem.post()
	case segBarrier:
		m.stats.BarrierWaits++
		if seg.bar.arrive(t) {
			m.block(t, "barrier", seg.bar.name)
			m.removeRunning(c, t)
		}
	case segLock:
		if seg.mu.lock(t) {
			m.block(t, "mutex", seg.mu.name)
			m.removeRunning(c, t)
		}
	case segUnlock:
		seg.mu.unlock(t)
	case segSetAffinity:
		m.applyAffinity(c, t, seg.target, seg.newPin)
	case segYield:
		// Give up the context; rejoin the queue at the back of the
		// current vruntime position.
		t.state = StateRunnable
		m.removeRunning(c, t)
		m.enqueue(t, t.core)
	default:
		panic(fmt.Sprintf("machine: unknown segment kind %d", seg.kind))
	}
}

// applyAffinity implements sched_setaffinity: pin target to newPin and
// migrate it if it currently sits elsewhere.
func (m *Machine) applyAffinity(c *coreState, caller, target *Thread, newPin int) {
	target.pinned = newPin
	if newPin == AnyCore || target.core == newPin {
		return
	}
	switch target.state {
	case StateRunning:
		tc := &m.cores[target.core]
		m.removeRunning(tc, target)
		target.state = StateRunnable
		m.enqueue(target, newPin)
	case StateRunnable:
		tc := &m.cores[target.core]
		tc.runq = slices.DeleteFunc(tc.runq, func(r *Thread) bool { return r == target })
		m.enqueue(target, newPin)
	case StateBlocked:
		// Re-placed on wake; just record the pin (done above) and the
		// eventual migration cost.
		target.core = newPin
		target.penalty += m.cfg.MigrationCycles
		m.stats.Migrations++
		m.tel.migrations.Inc()
		if m.tr != nil {
			m.tr.Add(trace.KindMigration, target.id, 0, int64(newPin))
		}
	case StateExited:
		// Nothing to do.
	}
}

// sampleOccupancy records per-core run-queue depth and SMT-context
// occupancy into the telemetry histograms. Pure observation — no cycle
// charges, so determinism is unaffected.
func (m *Machine) sampleOccupancy() {
	for i := range m.cores {
		m.tel.runqDepth.Observe(float64(len(m.cores[i].runq)))
		m.tel.smtOccupancy.Observe(float64(len(m.cores[i].running)))
	}
}

// loadBalance migrates unpinned threads from the most to the least
// loaded cores, one pass per period.
func (m *Machine) loadBalance() {
	for moves := 0; moves < m.cfg.Cores; moves++ {
		maxC, minC := -1, -1
		maxL, minL := -1, int(^uint(0)>>1)
		for i := range m.cores {
			load := len(m.cores[i].runq) + len(m.cores[i].running)
			if load > maxL {
				maxL, maxC = load, i
			}
			if load < minL {
				minL, minC = load, i
			}
		}
		if maxC == -1 || minC == -1 || maxL-minL <= 1 {
			return
		}
		// Move the last (highest-vruntime) unpinned runnable thread.
		c := &m.cores[maxC]
		moved := false
		for i := len(c.runq) - 1; i >= 0; i-- {
			t := c.runq[i]
			if t.pinned != AnyCore {
				continue
			}
			c.runq = append(c.runq[:i], c.runq[i+1:]...)
			m.enqueue(t, minC)
			moved = true
			break
		}
		if !moved {
			return
		}
	}
}
