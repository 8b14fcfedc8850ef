package core

import (
	"ggpdes/internal/machine"
	"ggpdes/internal/trace"
)

// ddSched reproduces the prior Demand-Driven PDES design the paper
// improves on: a dedicated controller thread, running on its own CPU
// core and excluded from event processing, periodically scans thread
// activity under a global mutex and reactivates de-scheduled threads;
// simulation threads must take the same mutex to deactivate. The
// mutex serialization and the controller's O(threads) scan are the
// bottlenecks that make DD-PDES collapse at large thread counts.
type ddSched struct {
	r *Runner

	mu            *machine.Mutex
	semLocks      []*machine.Sem
	activeThreads []bool
	numActive     int

	zeroCounter    []int
	wantDeactivate []bool
	posted         []bool

	// Deactivations and Activations count scheduling operations.
	Deactivations, Activations uint64
}

func newDDSched(r *Runner) *ddSched {
	n := len(r.cfg.Engine.Peers())
	d := &ddSched{
		r:              r,
		mu:             r.cfg.Machine.NewMutex("dd-lock"),
		semLocks:       make([]*machine.Sem, n),
		activeThreads:  make([]bool, n),
		numActive:      n,
		zeroCounter:    make([]int, n),
		wantDeactivate: make([]bool, n),
		posted:         make([]bool, n),
	}
	for i := range d.semLocks {
		d.semLocks[i] = r.cfg.Machine.NewSem("dd-sem", 0)
		d.activeThreads[i] = true
	}
	return d
}

// SemOf implements scheduler.
func (d *ddSched) SemOf(tid int) *machine.Sem { return d.semLocks[tid] }

// IsActive implements scheduler.
func (d *ddSched) IsActive(tid int) bool { return d.activeThreads[tid] }

// NumActive returns the number of currently scheduled threads.
func (d *ddSched) NumActive() int { return d.numActive }

// LockContention returns how many lock acquisitions had to block, the
// measure of DD-PDES's serialization bottleneck.
func (d *ddSched) LockContention() uint64 { return d.mu.Contended }

// ReadMessageCount tracks consecutive empty-queue iterations, as in GG.
func (d *ddSched) ReadMessageCount(tid int) {
	if d.r.cfg.Engine.Peer(tid).HasExecutableWork() {
		d.zeroCounter[tid] = 0
		d.wantDeactivate[tid] = false
		return
	}
	d.SkipIdle(tid, 1)
}

// SkipIdle implements scheduler: n probes that found nothing.
func (d *ddSched) SkipIdle(tid, n int) {
	d.zeroCounter[tid] += n
	if d.zeroCounter[tid] > d.r.cfg.ZeroCounterThreshold {
		d.wantDeactivate[tid] = true
	}
}

// OnAware does nothing: activation is the controller thread's job.
func (d *ddSched) OnAware(*machine.Proc, *machine.Acc, int) {}

// OnRoundComplete does nothing: DD-PDES has no dynamic affinity.
func (d *ddSched) OnRoundComplete(*machine.Proc, *machine.Acc, int) {}

// OnEnd deactivates an idle thread — but unlike GG-PDES the shared
// bookkeeping must be mutated under the global controller mutex.
func (d *ddSched) OnEnd(p *machine.Proc, acc *machine.Acc, tid int) {
	eng := d.r.cfg.Engine
	peer := eng.Peer(tid)
	if !d.wantDeactivate[tid] || peer.HasExecutableWork() || d.numActive <= 1 || eng.Done() {
		return
	}
	acc.Work(d.r.cfg.Costs.DeactivateCycles)
	acc.Flush()
	p.Lock(d.mu)
	ok := !peer.HasExecutableWork() && d.numActive > 1 && !eng.Done()
	if ok {
		d.activeThreads[tid] = false
		d.numActive--
		d.Deactivations++
		d.r.tel.deactivations[tid].Inc()
		if t := d.r.cfg.Trace; t != nil {
			t.Add(trace.KindDeactivate, tid, 0, 0)
		}
		d.r.alg.Leave(tid)
	}
	p.Unlock(d.mu)
	if !ok {
		return
	}
	blockedAt := p.NowCycles()
	p.SemWait(d.semLocks[tid])
	// Woken by the controller (or shutdown).
	d.r.tel.descheduleSpan[tid].Observe(float64(p.NowCycles() - blockedAt))
	p.Lock(d.mu)
	d.posted[tid] = false
	d.activeThreads[tid] = true
	d.numActive++
	if t := d.r.cfg.Trace; t != nil {
		t.Add(trace.KindActivate, tid, 0, 0)
	}
	d.zeroCounter[tid] = 0
	d.wantDeactivate[tid] = false
	done := eng.Done()
	if !done {
		d.r.alg.Join(tid)
	}
	p.Unlock(d.mu)
}

// controllerBody is the dedicated controller thread's loop: scan all
// threads' input queues under the mutex and reactivate any inactive
// thread with messages.
func (d *ddSched) controllerBody(p *machine.Proc) {
	eng := d.r.cfg.Engine
	acc := machine.NewAcc(p)
	costs := d.r.cfg.Costs
	for !eng.Done() {
		acc.Flush()
		p.Lock(d.mu)
		if d.numActive < len(d.activeThreads) {
			for i := range d.activeThreads {
				acc.Work(costs.ScanPerThreadCycles)
				if !d.activeThreads[i] && !d.posted[i] && eng.Peer(i).HasExecutableWork() {
					d.posted[i] = true
					d.Activations++
					d.r.tel.activations[i].Inc()
					acc.Flush()
					p.SemPost(d.semLocks[i])
				}
			}
		}
		acc.Flush()
		p.Unlock(d.mu)
		p.Work(costs.DDControllerPauseCycles)
	}
}
