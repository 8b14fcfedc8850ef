package core

import (
	"ggpdes/internal/machine"
	"ggpdes/internal/trace"
)

// demand is the book-keeping both demand-driven schedulers keep: which
// threads are scheduled in, one semaphore each to park the others on,
// and Algorithm 1's per-thread activity probe. GG-PDES touches it
// lock-free at its GVT phase points; DD-PDES under its global mutex.
type demand struct {
	r *Runner

	// threads holds each simulation thread's book-keeping, in one block.
	threads   []demandThread
	numActive int

	// Deactivations and Activations count scheduling operations.
	Deactivations, Activations uint64
}

// demandThread is one simulation thread's scheduling book-keeping.
type demandThread struct {
	// sem is the thread's binary semaphore; waiting on it de-schedules
	// the thread (Algorithm 1 line 13).
	sem *machine.Sem
	// active is the thread's entry of the paper's padded, cache-aligned
	// boolean array indicating which threads are scheduled in.
	active bool
	// zeroCounter counts consecutive empty-queue loop iterations;
	// wantDeactivate is Algorithm 1's "active" flag gone false.
	zeroCounter    int
	wantDeactivate bool
	// posted guards against double sem_post when a reactivated thread
	// has not yet run its wake-up path by the next activation scan.
	posted bool
}

func newDemand(r *Runner, semName string) demand {
	d := demand{r: r, threads: make([]demandThread, len(r.cfg.Engine.Peers()))}
	d.numActive = len(d.threads)
	for i := range d.threads {
		d.threads[i] = demandThread{sem: r.cfg.Machine.NewSem(semName, 0), active: true}
	}
	return d
}

// SemOf implements scheduler.
func (d *demand) SemOf(tid int) *machine.Sem { return d.threads[tid].sem }

// IsActive implements scheduler.
func (d *demand) IsActive(tid int) bool { return d.threads[tid].active }

// ReadMessageCount is Algorithm 1 lines 1-6: track consecutive
// empty-queue iterations and flag the thread for deactivation past the
// threshold. Its cost is part of the main loop's LoopCycles.
func (d *demand) ReadMessageCount(tid int) {
	if d.r.cfg.Engine.Peer(tid).HasExecutableWork() {
		d.threads[tid].zeroCounter = 0
		d.threads[tid].wantDeactivate = false
		return
	}
	d.SkipIdle(tid, 1)
}

// SkipIdle implements scheduler: n probes that found nothing.
func (d *demand) SkipIdle(tid, n int) {
	th := &d.threads[tid]
	th.zeroCounter += n
	if th.zeroCounter > d.r.cfg.ZeroCounterThreshold {
		th.wantDeactivate = true
	}
}

// canPark reports whether thread tid may de-schedule now: it asked to,
// it has nothing to execute, another thread stays active, and the run
// goes on.
func (d *demand) canPark(tid int) bool {
	eng := d.r.cfg.Engine
	return d.threads[tid].wantDeactivate && !eng.Peer(tid).HasExecutableWork() && d.numActive > 1 && !eng.Done()
}

// activate is Algorithm 2: walk the activity arrays and reactivate any
// de-scheduled thread whose input queue received messages.
func (d *demand) activate(p *machine.Proc, acc *machine.Acc) {
	if d.numActive >= len(d.threads) {
		return
	}
	eng := d.r.cfg.Engine
	for i := range d.threads {
		acc.Work(d.r.cfg.Costs.ScanPerThreadCycles)
		if th := &d.threads[i]; !th.active && !th.posted && eng.Peer(i).HasExecutableWork() {
			th.posted = true
			d.Activations++
			d.r.tel[i].activations.Inc()
			acc.Flush()
			p.SemPost(th.sem)
		}
	}
}

// park is the first half of Algorithm 1 lines 11-13: mark tid inactive
// and leave the GVT protocol. The caller blocks it next.
func (d *demand) park(tid int) {
	d.threads[tid].active = false
	d.numActive--
	d.Deactivations++
	d.r.tel[tid].deactivations.Inc()
	if t := d.r.cfg.Trace; t != nil {
		t.Add(trace.KindDeactivate, tid, 0, 0)
	}
	d.r.alg.Leave(tid)
}

// block de-schedules tid on its semaphore until an activation scan (or
// the shutdown wake) posts it, and records how long that took.
func (d *demand) block(p *machine.Proc, tid int) {
	blockedAt := p.NowCycles()
	p.SemWait(d.threads[tid].sem)
	d.r.tel[tid].descheduleSpan.Observe(float64(p.NowCycles() - blockedAt))
}

// wake is Algorithm 1 lines 14-17: mark the woken thread active again
// and, unless the run is over, rejoin the GVT protocol. It reports
// whether the thread rejoined; a shutdown wake exits without.
func (d *demand) wake(tid int) bool {
	// Scheduled in, not posted, and the activity probe starts over.
	d.threads[tid] = demandThread{sem: d.threads[tid].sem, active: true}
	d.numActive++
	if t := d.r.cfg.Trace; t != nil {
		t.Add(trace.KindActivate, tid, 0, 0)
	}
	if d.r.cfg.Engine.Done() {
		return false
	}
	d.r.alg.Join(tid)
	return true
}
