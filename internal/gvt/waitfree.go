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

	phase        []wfPhase
	iters        []int
	allowedRound []uint64
	localMinA    []tw.VT
	localMinB    []tw.VT
	cutDone      []bool
	subscribed   []bool
	// inRound marks threads counted in the currently-open round (set
	// at Phase A entry, cleared at reset); Leave uses it to decide
	// whether the open round must shrink.
	inRound []bool
	// cpus holds the per-thread engine-charge adapters (see gvtCPU).
	cpus []gvtCPU

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

func newWaitFree(cfg Config) *waitFree {
	n := len(cfg.Engine.Peers())
	w := &waitFree{
		cfg:               cfg,
		costs:             cfg.Costs,
		eng:               cfg.Engine,
		phase:             make([]wfPhase, n),
		iters:             make([]int, n),
		allowedRound:      make([]uint64, n),
		localMinA:         make([]tw.VT, n),
		localMinB:         make([]tw.VT, n),
		cutDone:           make([]bool, n),
		subscribed:        make([]bool, n),
		inRound:           make([]bool, n),
		cpus:              make([]gvtCPU, n),
		freq:              cfg.Frequency,
		roundParticipants: n,
		participants:      n,
		rt:                newRoundTelemetry(&cfg),
	}
	for i := range w.subscribed {
		w.subscribed[i] = true
	}
	return w
}

// Name implements Algorithm.
func (w *waitFree) Name() string { return "waitfree" }

// Participants implements Algorithm.
func (w *waitFree) Participants() int { return w.participants }

// Rounds implements Algorithm.
func (w *waitFree) Rounds() uint64 { return w.rounds }

// charge books cycles both to the thread (via acc) and to its GVT CPU
// time counter.
func (w *waitFree) charge(acc *machine.Acc, tid int, cycles uint64) {
	acc.Work(cycles)
	w.eng.Peer(tid).Stats.GVTCycles += cycles
}

// gvtCPU routes engine-operation charges into GVT accounting. The
// algorithms keep one per thread and pass it by pointer: converting a
// two-word struct value to the tw.CPU interface would heap-allocate on
// every GVT phase step.
type gvtCPU struct {
	acc  *machine.Acc
	peer *tw.Peer
}

func (g *gvtCPU) Work(c uint64) {
	g.acc.Work(c)
	g.peer.Stats.GVTCycles += c
}

// cpu refreshes and returns the thread's charge adapter.
func (w *waitFree) cpu(acc *machine.Acc, tid int, peer *tw.Peer) *gvtCPU {
	c := &w.cpus[tid]
	c.acc, c.peer = acc, peer
	return c
}

// Step implements Algorithm.
func (w *waitFree) Step(p *machine.Proc, acc *machine.Acc, tid int) {
	peer := w.eng.Peer(tid)
	switch w.phase[tid] {
	case wfIdle:
		w.charge(acc, tid, w.costs.PhaseCheckCycles)
		w.iters[tid]++
		if w.iters[tid] < w.freq || w.allowedRound[tid] > w.round {
			return
		}
		// Phase A: record the first cut.
		if w.countA == 0 {
			if f := w.cfg.OnCut; f != nil {
				f(1, w.round)
			}
		}
		w.localMinA[tid] = peer.LocalMin(w.cpu(acc, tid, peer))
		w.charge(acc, tid, w.costs.PhaseAdvanceCycles)
		w.countA++
		w.inRound[tid] = true
		w.phase[tid] = wfSend
		w.stepSend(p, acc, tid, peer)
	case wfSend:
		w.charge(acc, tid, w.costs.PhaseCheckCycles)
		w.stepSend(p, acc, tid, peer)
	case wfWaitB:
		w.charge(acc, tid, w.costs.PhaseCheckCycles)
		w.stepAwareEnd(p, acc, tid, peer)
	}
}

// IdleSteps implements Algorithm. Between rounds a thread only polls
// until its iteration count reaches the frequency — the Step that
// reaches it records cut A — or, when it has already finished the open
// round, until somebody else closes that round. Inside a round it only
// polls until the last participant records the cut it waits for, and
// that participant is never the waiting thread itself.
func (w *waitFree) IdleSteps(tid int) (int, uint64) {
	k := 0
	switch w.phase[tid] {
	case wfIdle:
		if w.allowedRound[tid] > w.round {
			k = math.MaxInt
		} else {
			k = max(0, w.freq-w.iters[tid]-1)
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
	w.eng.Peer(tid).Stats.GVTCycles += uint64(n) * w.costs.PhaseCheckCycles
	if w.phase[tid] == wfIdle {
		w.iters[tid] += n
	}
}

// stepSend advances A -> B when every participant has recorded cut A.
func (w *waitFree) stepSend(p *machine.Proc, acc *machine.Acc, tid int, peer *tw.Peer) {
	if w.countA < w.roundParticipants {
		return
	}
	// Phase B: second cut, folding the continuous sent-minimum window.
	min := w.localMinA[tid]
	ms, lm := peer.CutMins(w.cpu(acc, tid, peer))
	if ms < min {
		min = ms
	}
	if lm < min {
		min = lm
	}
	w.localMinB[tid] = min
	w.cutDone[tid] = true
	w.charge(acc, tid, w.costs.PhaseAdvanceCycles)
	w.countB++
	w.phase[tid] = wfWaitB
	w.stepAwareEnd(p, acc, tid, peer)
}

// stepAwareEnd performs Phase Aware (pseudo-controller election, GVT
// publication, activation scan) and Phase End (fossil collection,
// deactivation point, round bookkeeping) once the B cut is complete.
func (w *waitFree) stepAwareEnd(p *machine.Proc, acc *machine.Acc, tid int, peer *tw.Peer) {
	if w.countB < w.roundParticipants {
		return
	}
	if !w.awareTaken {
		// Phase Aware: this thread is the round's pseudo-controller.
		w.awareTaken = true
		gmin := math.Inf(1)
		for i := range w.cutDone {
			if w.cutDone[i] {
				if w.localMinB[i] < gmin {
					gmin = w.localMinB[i]
				}
			} else {
				// Threads without a cut this round (de-scheduled or
				// waiting to rejoin) are scanned on their behalf:
				// queues plus their unread sent-minimum window.
				rm, ms := w.eng.Peer(i).ScanMins()
				if rm < gmin {
					gmin = rm
				}
				if ms < gmin {
					gmin = ms
				}
			}
			w.charge(acc, tid, w.costs.ReduceCyclesPerThread)
		}
		if f := w.cfg.OnCut; f != nil {
			f(2, w.round)
		}
		w.eng.SetGVT(math.Min(gmin, w.eng.EndTime()))
		w.cfg.Hooks.OnAware(p, acc, tid)
	}
	// Phase End: housekeeping with the freshly published GVT.
	peer.FossilCollect(w.cpu(acc, tid, peer), w.eng.GVT())
	peer.Stats.GVTRounds++
	w.countEnd++
	w.phase[tid] = wfIdle
	w.iters[tid] = 0
	// Completed this round; only the next one may be entered.
	w.allowedRound[tid] = w.round + 1
	if w.countEnd == w.roundParticipants {
		w.resetRound(tid)
		w.cfg.Hooks.OnRoundComplete(p, acc, tid)
	}
	// Deactivation point (may block inside; Leave is called first).
	w.cfg.Hooks.OnEnd(p, acc, tid)
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
	for i := range w.cutDone {
		w.cutDone[i] = false
		w.inRound[i] = false
	}
}

// Leave implements Algorithm: unsubscribe tid before it de-schedules.
func (w *waitFree) Leave(tid int) {
	if w.phase[tid] != wfIdle {
		panic(fmt.Sprintf("gvt: thread %d leaving mid-round (phase %d)", tid, w.phase[tid]))
	}
	if !w.subscribed[tid] {
		panic(fmt.Sprintf("gvt: thread %d left twice", tid))
	}
	w.subscribed[tid] = false
	w.participants--
	// Discard the thread's sent-minimum window: its past sends are
	// already accounted for by receiver queue scans, and a stale window
	// read after reactivation would drag the GVT backwards.
	w.eng.Peer(tid).TakeMinSent()
	if !w.inRound[tid] {
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
		for i := range w.subscribed {
			if w.subscribed[i] && w.allowedRound[i] > w.round {
				w.allowedRound[i] = w.round
			}
			w.cutDone[i] = false
			w.inRound[i] = false
		}
	}
	// Block the thread from wandering into a round that no longer
	// counts it, in case it is reactivated without a Join.
	w.allowedRound[tid] = math.MaxUint64
}

// Join implements Algorithm: resubscribe tid after reactivation; it
// participates from the next round.
func (w *waitFree) Join(tid int) {
	if w.subscribed[tid] {
		panic(fmt.Sprintf("gvt: thread %d joined twice", tid))
	}
	w.subscribed[tid] = true
	w.pendingJoins++
	w.allowedRound[tid] = w.round + 1
	w.iters[tid] = 0
	w.phase[tid] = wfIdle
}
