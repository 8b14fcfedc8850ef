package gvt

import (
	"fmt"
	"math"

	"ggpdes/internal/machine"
	"ggpdes/internal/tw"
)

// barrierGVT is the synchronous algorithm: every Frequency main-loop
// iterations all participating threads rendezvous, drain their input
// queues while no sends can occur, reduce a perfect global minimum, and
// fossil collect. Arriving threads are de-scheduled by the barrier
// (pthread_barrier semantics) — the reason Baseline-Sync beats
// Baseline-Async on imbalanced models even without demand-driven
// scheduling: barrier waiters burn no cycles.
//
// Three barrier generations delimit the round:
//
//	bar1: stop the world — after it, nobody processes events; each
//	      thread drains and records its min. A drain's rollbacks can
//	      still send anti-messages, to threads that drained earlier.
//	bar2: all minimums recorded; the serial thread reduces, publishes
//	      the GVT, and runs the pseudo-controller activation hook.
//	bar3: GVT published; everybody fossil collects.
//
// Leave shrinks the barriers (the paper's "customised barrier
// functions"), releasing rounds that no longer wait for de-scheduled
// threads.
type barrierGVT struct {
	cfg   Config
	costs Costs
	eng   *tw.Engine

	bar1, bar2, bar3 *machine.Barrier
	freq             int
	// threads holds each thread's protocol state, in one block.
	threads      []barrierThread
	participants int
	roundSize    int
	endCount     int
	rounds       uint64
	rt           roundTelemetry
	// pendingJoins holds reactivated threads whose subscription must
	// wait for a safe point: growing the barriers mid-round would make
	// in-flight generations wait for a thread that re-enters at bar1.
	pendingJoins []int
}

// barrierThread is one thread's barrier protocol state.
type barrierThread struct {
	subscribed bool
	iters      int
	localMin   tw.VT
	// cpu is the thread's engine-charge adapter (see gvtCPU).
	cpu gvtCPU
}

func newBarrier(cfg Config) *barrierGVT {
	n := len(cfg.Engine.Peers())
	b := &barrierGVT{
		cfg:          cfg,
		costs:        cfg.Costs,
		eng:          cfg.Engine,
		bar1:         cfg.Machine.NewBarrier("gvt1", n),
		bar2:         cfg.Machine.NewBarrier("gvt2", n),
		bar3:         cfg.Machine.NewBarrier("gvt3", n),
		freq:         cfg.Frequency,
		threads:      make([]barrierThread, n),
		participants: n,
		roundSize:    n,
		rt:           newRoundTelemetry(&cfg),
	}
	for i := range b.threads {
		b.threads[i].subscribed = true
	}
	return b
}

// Name implements Algorithm.
func (b *barrierGVT) Name() string { return "barrier" }

// Participants implements Algorithm.
func (b *barrierGVT) Participants() int { return b.participants }

// Rounds implements Algorithm.
func (b *barrierGVT) Rounds() uint64 { return b.rounds }

// Step implements Algorithm.
func (b *barrierGVT) Step(p *machine.Proc, acc *machine.Acc, tid int) {
	th := &b.threads[tid]
	cpu := &th.cpu
	cpu.acc, cpu.peer = acc, b.eng.Peer(tid)
	cpu.Work(b.costs.PhaseCheckCycles)
	if !th.subscribed {
		// Reactivated but not yet applied: process events freely; the
		// reduction covers this thread via RemoteMin until it joins.
		return
	}
	th.iters++
	if th.iters < b.freq {
		return
	}
	th.iters = 0

	// Stop the world. Block-time is not CPU time; only the barrier op
	// itself is charged (by the machine).
	cpu.Work(b.costs.PhaseAdvanceCycles)
	acc.Flush()
	if p.BarrierWait(b.bar1) {
		// Serial thread freezes the round size while everyone is
		// synchronized; the world being stopped is this algorithm's
		// first (trivially consistent) cut.
		b.roundSize = b.participants
		if f := b.cfg.OnCut; f != nil {
			f(1, b.rounds)
		}
	}

	// No thread is processing events now: drain and record the local
	// minimum. Threads that drain later can still roll back and send
	// anti-messages here; the reduction at bar2 rescans for them.
	_, th.localMin = cpu.peer.DrainLocalMin(cpu)
	acc.Flush()
	if p.BarrierWait(b.bar2) {
		// Serial thread is the pseudo-controller: reduce, publish, and
		// run the activation scan.
		gmin := math.Inf(1)
		for i := range b.threads {
			// Every thread's queues are scanned as they stand now.
			// Unsubscribed threads (de-scheduled, or reactivated and
			// still processing before their join applies) also add
			// their unread sent-minimum window. A subscribed thread's
			// recorded minimum replaces that window, but not the scan:
			// a thread that drained after it may have rolled back and
			// put anti-messages into its input queue since.
			rm, ms := b.eng.Peer(i).ScanMins()
			if other := &b.threads[i]; other.subscribed {
				ms = other.localMin
			}
			gmin = min(gmin, rm, ms)
			cpu.Work(b.costs.ReduceCyclesPerThread)
		}
		if f := b.cfg.OnCut; f != nil {
			f(2, b.rounds)
		}
		b.eng.SetGVT(math.Min(gmin, b.eng.EndTime()))
		b.cfg.Hooks.OnAware(p, acc, tid)
	}
	acc.Flush()
	p.BarrierWait(b.bar3)

	// GVT housekeeping.
	cpu.peer.FossilCollect(cpu, b.eng.GVT())
	cpu.peer.Stats.GVTRounds++
	b.endCount++
	if b.endCount >= b.roundSize {
		b.endCount = 0
		b.rounds++
		b.rt.roundComplete(tid)
		// Safe point for subscriptions: every thread of this round is
		// past bar3, and bar1 of the next generation cannot have
		// released yet (it still needs this thread).
		b.applyJoins()
		b.cfg.Hooks.OnRoundComplete(p, acc, tid)
	}
	// Deactivation point (may block inside; Leave is called first).
	b.cfg.Hooks.OnEnd(p, acc, tid)
}

// IdleSteps implements Algorithm. A subscribed thread only polls until
// its iteration count reaches the frequency (the Step that reaches it
// stops the world); a reactivated one only polls until its join is
// applied, at a round completion it takes no part in.
func (b *barrierGVT) IdleSteps(tid int) (int, uint64) {
	th := &b.threads[tid]
	k := math.MaxInt
	if th.subscribed {
		k = max(0, b.freq-th.iters-1)
	}
	return k, b.costs.PhaseCheckCycles
}

// SkipIdle implements Algorithm.
func (b *barrierGVT) SkipIdle(tid, n int) {
	th := &b.threads[tid]
	b.eng.Peer(tid).Stats.GVTCycles += uint64(n) * b.costs.PhaseCheckCycles
	if th.subscribed {
		th.iters += n
	}
}

func (b *barrierGVT) resizeAll() {
	b.bar1.Resize(b.participants)
	b.bar2.Resize(b.participants)
	b.bar3.Resize(b.participants)
}

func (b *barrierGVT) applyJoins() {
	if len(b.pendingJoins) == 0 {
		return
	}
	for _, tid := range b.pendingJoins {
		b.threads[tid].subscribed = true
		b.participants++
		b.threads[tid].iters = 0
	}
	b.pendingJoins = b.pendingJoins[:0]
	b.resizeAll()
}

// Leave implements Algorithm: shrink the barriers so rounds stop
// waiting for the de-scheduled thread. Safe immediately: the leaver is
// past bar3 of its round, so no in-flight generation counts on it.
func (b *barrierGVT) Leave(tid int) {
	th := &b.threads[tid]
	if !th.subscribed {
		panic(fmt.Sprintf("gvt: thread %d left twice", tid))
	}
	th.subscribed = false
	b.participants--
	// Drop the stale sent-minimum window (receiver scans cover it).
	b.eng.Peer(tid).TakeMinSent()
	if b.participants == 0 {
		// The last subscriber is leaving; the scheduler guarantees an
		// active thread exists, so it must be a pending joiner.
		b.applyJoins()
		if b.participants == 0 {
			panic("gvt: no GVT participants left")
		}
		return
	}
	b.resizeAll()
}

// Join implements Algorithm: queue the reactivated thread; its
// subscription takes effect at the next round-completion safe point.
func (b *barrierGVT) Join(tid int) {
	if b.threads[tid].subscribed {
		panic(fmt.Sprintf("gvt: thread %d joined twice", tid))
	}
	for _, pj := range b.pendingJoins {
		if pj == tid {
			panic(fmt.Sprintf("gvt: thread %d joined twice (pending)", tid))
		}
	}
	b.pendingJoins = append(b.pendingJoins, tid)
}
