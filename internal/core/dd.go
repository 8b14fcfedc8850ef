package core

import "ggpdes/internal/machine"

// ddSched reproduces the prior Demand-Driven PDES design the paper
// improves on: a dedicated controller thread, running on its own CPU
// core and excluded from event processing, periodically scans thread
// activity under a global mutex and reactivates de-scheduled threads;
// simulation threads must take the same mutex to deactivate. The
// mutex serialization and the controller's O(threads) scan are the
// bottlenecks that make DD-PDES collapse at large thread counts.
type ddSched struct {
	demand
	mu *machine.Mutex
}

func newDDSched(r *Runner) *ddSched {
	return &ddSched{demand: newDemand(r, "dd-sem"), mu: r.cfg.Machine.NewMutex("dd-lock")}
}

// OnAware does nothing: activation is the controller thread's job.
func (d *ddSched) OnAware(*machine.Proc, *machine.Acc, int) {}

// OnRoundComplete does nothing: DD-PDES has no dynamic affinity.
func (d *ddSched) OnRoundComplete(*machine.Proc, *machine.Acc, int) {}

// OnEnd deactivates an idle thread — but unlike GG-PDES the shared
// bookkeeping must be mutated under the global controller mutex.
func (d *ddSched) OnEnd(p *machine.Proc, acc *machine.Acc, tid int) {
	if !d.canPark(tid) {
		return
	}
	acc.Work(d.r.cfg.Costs.DeactivateCycles)
	acc.Flush()
	p.Lock(d.mu)
	ok := d.canPark(tid)
	if ok {
		d.park(tid)
	}
	p.Unlock(d.mu)
	if !ok {
		return
	}
	d.block(p, tid)
	p.Lock(d.mu)
	d.wake(tid)
	p.Unlock(d.mu)
}

// controllerBody is the dedicated controller thread's loop: scan all
// threads' input queues under the mutex and reactivate any inactive
// thread with messages.
func (d *ddSched) controllerBody(p *machine.Proc) {
	acc := machine.NewAcc(p)
	for !d.r.cfg.Engine.Done() {
		acc.Flush()
		p.Lock(d.mu)
		d.activate(p, acc)
		acc.Flush()
		p.Unlock(d.mu)
		p.Work(d.r.cfg.Costs.DDControllerPauseCycles)
	}
}
