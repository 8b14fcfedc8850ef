package gvt

import (
	"fmt"
	"math"

	"ggpdes/internal/machine"
	"ggpdes/internal/tw"
)

// wfPhase is a thread's position in the five-phase protocol. The Aware
// and End phases execute within a single Step once the B cut is
// complete, so only three waiting states are needed.
type wfPhase uint8

const (
	wfIdle  wfPhase = iota // between rounds
	wfSend                 // recorded cut A, processing until all reach A
	wfWaitB                // recorded cut B, waiting for all to reach B
)

// waitFree is the asynchronous Wait-Free GVT: five phases (A, Send, B,
// Aware, End) delimited by two consistent cuts. Threads never block;
// they keep executing events between phase transitions, paying a
// phase-check cost per main-loop iteration — which is exactly the
// overhead GG-PDES removes for de-scheduled threads.
//
// Transit safety: a thread's B cut folds in the minimum timestamp it
// sent since its previous B cut (a continuous window), and the
// pseudo-controller folds in the full queue minimum (pending + input)
// of every thread that contributed no cut this round — de-scheduled
// threads and threads waiting to rejoin.
type waitFree struct {
	cfg   Config
	costs Costs
	eng   *tw.Engine

	// threads holds each thread's protocol state, in one block.
	threads []wfThread

	freq              int
	round             uint64
	roundParticipants int
	participants      int
	pendingJoins      int
	countA, countB    int
	countEnd          int
	awareTaken        bool
	rounds            uint64
	rt                roundTelemetry
}

// wfThread is one thread's wait-free protocol state.
type wfThread struct {
	phase      wfPhase
	cutDone    bool
	subscribed bool
	// inRound marks a thread counted in the currently-open round (set
	// at Phase A entry, cleared at reset); Leave uses it to decide
	// whether the open round must shrink.
	inRound      bool
	iters        int
	allowedRound uint64
	localMinA    tw.VT
	localMinB    tw.VT
	// cpu is the thread's engine-charge adapter (see gvtCPU).
	cpu gvtCPU
}

func newWaitFree(cfg Config) *waitFree {
	n := len(cfg.Engine.Peers())
	w := &waitFree{
		cfg:               cfg,
		costs:             cfg.Costs,
		eng:               cfg.Engine,
		threads:           make([]wfThread, n),
		freq:              cfg.Frequency,
		roundParticipants: n,
		participants:      n,
		rt:                newRoundTelemetry(&cfg),
	}
	for i := range w.threads {
		w.threads[i].subscribed = true
	}
	return w
}

// Name implements Algorithm.
func (w *waitFree) Name() string { return "waitfree" }

// Participants implements Algorithm.
func (w *waitFree) Participants() int { return w.participants }

// Rounds implements Algorithm.
func (w *waitFree) Rounds() uint64 { return w.rounds }

// gvtCPU books cycles both to a thread (via acc) and to its peer's GVT
// CPU time, its protocol steps' and the engine operations they make.
// The algorithms keep one per thread, bound at the top of its Step, and
// pass it by pointer: converting a two-word struct value to the tw.CPU
// interface would heap-allocate on every GVT phase step.
type gvtCPU struct {
	acc  *machine.Acc
	peer *tw.Peer
}

func (g *gvtCPU) Work(c uint64) {
	g.acc.Work(c)
	g.peer.Stats.GVTCycles += c
}

// Step implements Algorithm.
func (w *waitFree) Step(p *machine.Proc, acc *machine.Acc, tid int) {
	th := &w.threads[tid]
	cpu := &th.cpu
	cpu.acc, cpu.peer = acc, w.eng.Peer(tid)
	cpu.Work(w.costs.PhaseCheckCycles)
	switch th.phase {
	case wfIdle:
		th.iters++
		if th.iters < w.freq || th.allowedRound > w.round {
			return
		}
		// Phase A: record the first cut.
		if w.countA == 0 {
			if f := w.cfg.OnCut; f != nil {
				f(1, w.round)
			}
		}
		th.localMinA = cpu.peer.LocalMin(cpu)
		cpu.Work(w.costs.PhaseAdvanceCycles)
		w.countA++
		th.inRound = true
		th.phase = wfSend
		w.stepSend(p, tid, cpu)
	case wfSend:
		w.stepSend(p, tid, cpu)
	case wfWaitB:
		w.stepAwareEnd(p, tid, cpu)
	}
}

// IdleSteps implements Algorithm. Between rounds a thread only polls
// until its iteration count reaches the frequency — the Step that
// reaches it records cut A — or, when it has already finished the open
// round, until somebody else closes that round. Inside a round it only
// polls until the last participant records the cut it waits for, and
// that participant is never the waiting thread itself.
func (w *waitFree) IdleSteps(tid int) (int, uint64) {
	th := &w.threads[tid]
	k := 0
	switch th.phase {
	case wfIdle:
		if th.allowedRound > w.round {
			k = math.MaxInt
		} else {
			k = max(0, w.freq-th.iters-1)
		}
	case wfSend:
		if w.countA < w.roundParticipants {
			k = math.MaxInt
		}
	case wfWaitB:
		if w.countB < w.roundParticipants {
			k = math.MaxInt
		}
	}
	return k, w.costs.PhaseCheckCycles
}

// SkipIdle implements Algorithm.
func (w *waitFree) SkipIdle(tid, n int) {
	th := &w.threads[tid]
	w.eng.Peer(tid).Stats.GVTCycles += uint64(n) * w.costs.PhaseCheckCycles
	if th.phase == wfIdle {
		th.iters += n
	}
}

// stepSend advances A -> B when every participant has recorded cut A.
func (w *waitFree) stepSend(p *machine.Proc, tid int, cpu *gvtCPU) {
	if w.countA < w.roundParticipants {
		return
	}
	// Phase B: second cut, folding the continuous sent-minimum window.
	th := &w.threads[tid]
	ms, lm := cpu.peer.CutMins(cpu)
	th.localMinB = min(th.localMinA, ms, lm)
	th.cutDone = true
	cpu.Work(w.costs.PhaseAdvanceCycles)
	w.countB++
	th.phase = wfWaitB
	w.stepAwareEnd(p, tid, cpu)
}

// stepAwareEnd performs Phase Aware (pseudo-controller election, GVT
// publication, activation scan) and Phase End (fossil collection,
// deactivation point, round bookkeeping) once the B cut is complete.
func (w *waitFree) stepAwareEnd(p *machine.Proc, tid int, cpu *gvtCPU) {
	if w.countB < w.roundParticipants {
		return
	}
	if !w.awareTaken {
		// Phase Aware: this thread is the round's pseudo-controller.
		w.awareTaken = true
		gmin := math.Inf(1)
		for i := range w.threads {
			if th := &w.threads[i]; th.cutDone {
				gmin = min(gmin, th.localMinB)
			} else {
				// Threads without a cut this round (de-scheduled or
				// waiting to rejoin) are scanned on their behalf:
				// queues plus their unread sent-minimum window.
				rm, ms := w.eng.Peer(i).ScanMins()
				gmin = min(gmin, rm, ms)
			}
			cpu.Work(w.costs.ReduceCyclesPerThread)
		}
		if f := w.cfg.OnCut; f != nil {
			f(2, w.round)
		}
		w.eng.SetGVT(math.Min(gmin, w.eng.EndTime()))
		w.cfg.Hooks.OnAware(p, cpu.acc, tid)
	}
	// Phase End: housekeeping with the freshly published GVT.
	cpu.peer.FossilCollect(cpu, w.eng.GVT())
	cpu.peer.Stats.GVTRounds++
	w.countEnd++
	th := &w.threads[tid]
	th.phase = wfIdle
	th.iters = 0
	// Completed this round; only the next one may be entered.
	th.allowedRound = w.round + 1
	if w.countEnd == w.roundParticipants {
		w.resetRound(tid)
		w.cfg.Hooks.OnRoundComplete(p, cpu.acc, tid)
	}
	// Deactivation point (may block inside; Leave is called first).
	w.cfg.Hooks.OnEnd(p, cpu.acc, tid)
}

func (w *waitFree) resetRound(tid int) {
	w.round++
	w.rounds++
	w.rt.roundComplete(tid)
	w.countA, w.countB, w.countEnd = 0, 0, 0
	w.awareTaken = false
	w.participants += w.pendingJoins
	w.pendingJoins = 0
	w.roundParticipants = w.participants
	for i := range w.threads {
		w.threads[i].cutDone = false
		w.threads[i].inRound = false
	}
}

// Leave implements Algorithm: unsubscribe tid before it de-schedules.
func (w *waitFree) Leave(tid int) {
	th := &w.threads[tid]
	if th.phase != wfIdle {
		panic(fmt.Sprintf("gvt: thread %d leaving mid-round (phase %d)", tid, th.phase))
	}
	if !th.subscribed {
		panic(fmt.Sprintf("gvt: thread %d left twice", tid))
	}
	th.subscribed = false
	w.participants--
	// Discard the thread's sent-minimum window: its past sends are
	// already accounted for by receiver queue scans, and a stale window
	// read after reactivation would drag the GVT backwards.
	w.eng.Peer(tid).TakeMinSent()
	if !th.inRound {
		// The open round has not counted this thread (it may have been
		// delayed on a lock between finishing its previous round and
		// de-scheduling, as in DD-PDES): shrink the round so it does
		// not wait for a thread that will never arrive.
		w.roundParticipants--
		if w.roundParticipants < 0 {
			panic("gvt: negative round participants")
		}
	}
	if w.participants == 0 {
		// The last subscriber is leaving. The scheduler guarantees an
		// active thread exists, so it must be waiting to join — its
		// participants++ would normally apply at the next round reset,
		// which will never come with nobody subscribed. Promote the
		// pending joiners into a fresh round right now.
		if w.pendingJoins == 0 {
			panic("gvt: no GVT participants left")
		}
		w.participants = w.pendingJoins
		w.pendingJoins = 0
		w.roundParticipants = w.participants
		w.countA, w.countB, w.countEnd = 0, 0, 0
		w.awareTaken = false
		for i := range w.threads {
			if w.threads[i].subscribed && w.threads[i].allowedRound > w.round {
				w.threads[i].allowedRound = w.round
			}
			w.threads[i].cutDone = false
			w.threads[i].inRound = false
		}
	}
	// Block the thread from wandering into a round that no longer
	// counts it, in case it is reactivated without a Join.
	th.allowedRound = math.MaxUint64
}

// Join implements Algorithm: resubscribe tid after reactivation; it
// participates from the next round.
func (w *waitFree) Join(tid int) {
	th := &w.threads[tid]
	if th.subscribed {
		panic(fmt.Sprintf("gvt: thread %d joined twice", tid))
	}
	th.subscribed = true
	w.pendingJoins++
	th.allowedRound = w.round + 1
	th.iters = 0
	th.phase = wfIdle
}
