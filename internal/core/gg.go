package core

import (
	"ggpdes/internal/machine"
	"ggpdes/internal/trace"
)

// ggSched is the GVT-Guided scheduler (the paper's contribution). All
// shared state — the active_threads flags, the semaphore array, the
// active count — is accessed without locks: the GVT phase ordering
// guarantees the pseudo-controller's activation scan (Phase Aware)
// never races a deactivation (Phase End), and the simulated machine's
// serialized execution mirrors the word-atomic reads and writes the
// paper relies on.
type ggSched struct {
	r *Runner

	// semLocks: one binary semaphore per simulation thread; waiting on
	// it de-schedules the thread (Algorithm 1 line 13).
	semLocks []*machine.Sem
	// activeThreads mirrors the paper's padded, cache-aligned boolean
	// array indicating which threads are scheduled in.
	activeThreads []bool
	numActive     int

	// zeroCounter counts consecutive empty-queue loop iterations;
	// wantDeactivate is Algorithm 1's "active" flag gone false.
	zeroCounter    []int
	wantDeactivate []bool
	// posted guards against double sem_post when a reactivated thread
	// has not yet run its wake-up path by the next Aware phase.
	posted []bool

	// Deactivations and Activations count scheduling operations.
	Deactivations, Activations uint64
}

func newGGSched(r *Runner) *ggSched {
	n := len(r.cfg.Engine.Peers())
	g := &ggSched{
		r:              r,
		semLocks:       make([]*machine.Sem, n),
		activeThreads:  make([]bool, n),
		numActive:      n,
		zeroCounter:    make([]int, n),
		wantDeactivate: make([]bool, n),
		posted:         make([]bool, n),
	}
	for i := range g.semLocks {
		g.semLocks[i] = r.cfg.Machine.NewSem("gg-sem", 0)
		g.activeThreads[i] = true
	}
	return g
}

// SemOf implements scheduler.
func (g *ggSched) SemOf(tid int) *machine.Sem { return g.semLocks[tid] }

// IsActive implements scheduler.
func (g *ggSched) IsActive(tid int) bool { return g.activeThreads[tid] }

// NumActive returns the number of currently scheduled threads.
func (g *ggSched) NumActive() int { return g.numActive }

// ReadMessageCount is Algorithm 1 lines 1-6: track consecutive
// empty-queue iterations and flag the thread for deactivation past the
// threshold. Its cost is part of the main loop's LoopCycles.
func (g *ggSched) ReadMessageCount(tid int) {
	if g.r.cfg.Engine.Peer(tid).HasExecutableWork() {
		g.zeroCounter[tid] = 0
		g.wantDeactivate[tid] = false
		return
	}
	g.SkipIdle(tid, 1)
}

// SkipIdle implements scheduler: n probes that found nothing.
func (g *ggSched) SkipIdle(tid, n int) {
	g.zeroCounter[tid] += n
	if g.zeroCounter[tid] > g.r.cfg.ZeroCounterThreshold {
		g.wantDeactivate[tid] = true
	}
}

// OnAware is Algorithm 2, run by the round's pseudo-controller: walk
// the activity arrays and reactivate any de-scheduled thread whose
// input queue received messages.
func (g *ggSched) OnAware(p *machine.Proc, acc *machine.Acc, tid int) {
	if g.numActive >= len(g.activeThreads) {
		return
	}
	eng := g.r.cfg.Engine
	for i := range g.activeThreads {
		acc.Work(g.r.cfg.Costs.ScanPerThreadCycles)
		if !g.activeThreads[i] && !g.posted[i] && eng.Peer(i).HasExecutableWork() {
			g.posted[i] = true
			g.Activations++
			g.r.tel.activations[i].Inc()
			acc.Flush()
			p.SemPost(g.semLocks[i])
		}
	}
}

// OnRoundComplete runs the Dynamic CPU Affinity pass (Algorithm 4)
// after all of the round's activations and deactivations.
func (g *ggSched) OnRoundComplete(p *machine.Proc, acc *machine.Acc, tid int) {
	if t := g.r.cfg.Trace; t != nil {
		t.Add(trace.KindRound, tid, g.r.cfg.Engine.GVT(), int64(g.r.alg.Participants()))
	}
	g.r.aff.OnRoundComplete(p, acc, g)
}

// OnEnd is Algorithm 1 lines 7-17: the deactivation point at Phase End.
func (g *ggSched) OnEnd(p *machine.Proc, acc *machine.Acc, tid int) {
	eng := g.r.cfg.Engine
	peer := eng.Peer(tid)
	if !g.wantDeactivate[tid] || peer.HasExecutableWork() || g.numActive <= 1 || eng.Done() {
		return
	}
	acc.Work(g.r.cfg.Costs.DeactivateCycles)
	// Lines 9-10: release this thread's affinity table slots.
	g.r.aff.OnDeactivate(acc, tid)
	// Lines 11-13: mark inactive and schedule out.
	g.activeThreads[tid] = false
	g.numActive--
	g.Deactivations++
	g.r.tel.deactivations[tid].Inc()
	if t := g.r.cfg.Trace; t != nil {
		t.Add(trace.KindDeactivate, tid, 0, 0)
	}
	g.r.alg.Leave(tid)
	acc.Flush()
	blockedAt := p.NowCycles()
	p.SemWait(g.semLocks[tid])
	// Lines 14-17: woken by the pseudo-controller (or shutdown).
	g.r.tel.descheduleSpan[tid].Observe(float64(p.NowCycles() - blockedAt))
	g.posted[tid] = false
	g.activeThreads[tid] = true
	g.numActive++
	if t := g.r.cfg.Trace; t != nil {
		t.Add(trace.KindActivate, tid, 0, 0)
	}
	g.zeroCounter[tid] = 0
	g.wantDeactivate[tid] = false
	if eng.Done() {
		// Shutdown wake: exit without rejoining the GVT protocol.
		return
	}
	g.r.alg.Join(tid)
	acc.Work(g.r.cfg.Costs.DeactivateCycles)
}
