package gvt

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ggpdes/internal/machine"
	"ggpdes/internal/models"
	"ggpdes/internal/tw"
)

// algPrint is an algorithm's whole state plus what its Steps can reach
// outside it: every peer's statistics, the published GVT and the hook
// and cut invocations. The iteration counters are kept apart because
// they are what an idle Step is allowed to move.
type algPrint struct {
	iters []int
	rest  any
	peers []tw.PeerStats
	gvt   tw.VT
	calls int
}

func printAlg(alg Algorithm, eng *tw.Engine, calls int) algPrint {
	pr := algPrint{gvt: eng.GVT(), calls: calls}
	for _, p := range eng.Peers() {
		pr.peers = append(pr.peers, p.Stats)
	}
	switch a := alg.(type) {
	case *waitFree:
		threads := slices.Clone(a.threads)
		for i := range threads {
			// The charge adapter is scratch: it holds whichever
			// accumulator the last Step was handed.
			pr.iters = append(pr.iters, threads[i].iters)
			threads[i].iters, threads[i].cpu = 0, gvtCPU{}
		}
		pr.rest = []any{
			threads, a.freq, a.round, a.roundParticipants, a.participants, a.pendingJoins,
			a.countA, a.countB, a.countEnd, a.awareTaken, a.rounds, a.rt.last,
		}
	case *barrierGVT:
		threads := slices.Clone(a.threads)
		for i := range threads {
			pr.iters = append(pr.iters, threads[i].iters)
			threads[i].iters, threads[i].cpu = 0, gvtCPU{}
		}
		pr.rest = []any{
			threads, slices.Clone(a.pendingJoins),
			a.freq, a.participants, a.roundSize, a.endCount, a.rounds, a.rt.last,
		}
	}
	return pr
}

// sameBut compares two prints with thread tid's iteration count and GVT
// CPU time, the two things an idle Step may change, taken out.
func sameBut(a, b algPrint, tid int) bool {
	a.iters, b.iters = slices.Clone(a.iters), slices.Clone(b.iters)
	a.peers, b.peers = slices.Clone(a.peers), slices.Clone(b.peers)
	a.iters[tid], b.iters[tid] = 0, 0
	a.peers[tid].GVTCycles, b.peers[tid].GVTCycles = 0, 0
	return reflect.DeepEqual(a, b)
}

// idleWalk is the rig of TestIdleStepsAreNoOps: hooks that park threads
// at Phase End at seeded random and threads that wake them again.
type idleWalk struct {
	t     *testing.T
	rnd   *rand.Rand
	eng   *tw.Engine
	alg   Algorithm
	sems  []*machine.Sem
	state []int // per thread: walking, parked, posted
	awake int
	calls int // hook and cut invocations

	// seen counts the IdleSteps answers by the branch that gave them.
	seen map[string]int
	// mustAct marks threads whose IdleSteps just answered 0, or ran out:
	// their next Step has to do more than poll.
	mustAct []bool
}

const (
	walking = iota
	parked
	posted
)

func (w *idleWalk) OnAware(*machine.Proc, *machine.Acc, int)         { w.calls++ }
func (w *idleWalk) OnRoundComplete(*machine.Proc, *machine.Acc, int) { w.calls++ }

func (w *idleWalk) OnEnd(p *machine.Proc, acc *machine.Acc, tid int) {
	w.calls++
	if w.awake <= 1 || w.eng.Done() || w.rnd.Intn(3) != 0 {
		return
	}
	w.alg.Leave(tid)
	w.state[tid] = parked
	w.awake--
	acc.Flush()
	p.SemWait(w.sems[tid])
	w.state[tid] = walking
	w.awake++
	if !w.eng.Done() {
		w.alg.Join(tid)
	}
}

// wake posts the semaphore of every parked thread (at the end of the
// run) or of some of them.
func (w *idleWalk) wake(p *machine.Proc, acc *machine.Acc, all bool) {
	for i, st := range w.state {
		if st == parked && (all || w.rnd.Intn(6) == 0) {
			w.state[i] = posted
			acc.Flush()
			p.SemPost(w.sems[i])
		}
	}
}

// branch names the case IdleSteps is answering for tid.
func (w *idleWalk) branch(tid int) string {
	switch a := w.alg.(type) {
	case *waitFree:
		switch th := &a.threads[tid]; th.phase {
		case wfIdle:
			if th.allowedRound > a.round {
				return "waitfree idle, round still open"
			}
			return "waitfree idle, counting"
		case wfSend:
			return "waitfree send"
		default:
			return "waitfree wait-B"
		}
	case *barrierGVT:
		if !a.threads[tid].subscribed {
			return "barrier unsubscribed"
		}
		return "barrier counting"
	}
	return "unknown"
}

// check holds IdleSteps to its contract at one point of the walk: when
// it answers k > 0, min(k, 64) real Steps (or, half of the time, some
// smaller number n of them) change nothing but the thread's iteration
// count, its GVT CPU time and the accumulator they charge n × cycles
// to, and SkipIdle(tid, n) from the same state ends in exactly the same
// one.
func (w *idleWalk) check(p *machine.Proc, acc *machine.Acc, tid int) {
	t := w.t
	k, cycles := w.alg.IdleSteps(tid)
	name := w.branch(tid)
	if k == 0 {
		w.seen[name+", must act"]++
		w.mustAct[tid] = true
		return
	}
	if k == math.MaxInt {
		name += ", unbounded"
	}
	w.seen[name]++
	n := min(k, 64)
	if w.rnd.Intn(2) == 0 {
		n = 1 + w.rnd.Intn(n) // stop short, so that counts also run out between checks
	}
	before := printAlg(w.alg, w.eng, w.calls)
	scratch := machine.NewAcc(p)
	for i := 0; i < n; i++ {
		w.alg.Step(p, scratch, tid)
	}
	stepped := printAlg(w.alg, w.eng, w.calls)
	if scratch.Pending() != uint64(n)*cycles {
		t.Fatalf("%s: %d idle Steps of thread %d charged %d cycles, want %d × %d", name, n, tid, scratch.Pending(), n, cycles)
	}
	if !sameBut(before, stepped, tid) {
		t.Fatalf("%s: %d of %d idle Steps of thread %d changed state:\n%+v\n%+v", name, n, k, tid, before, stepped)
	}
	if got, want := stepped.peers[tid].GVTCycles-before.peers[tid].GVTCycles, uint64(n)*cycles; got != want {
		t.Fatalf("%s: %d idle Steps of thread %d added %d GVT cycles, want %d", name, n, tid, got, want)
	}
	// Wind the two things back and book the same Steps arithmetically.
	*w.iters(tid) = before.iters[tid]
	w.eng.Peer(tid).Stats.GVTCycles = before.peers[tid].GVTCycles
	w.alg.SkipIdle(tid, n)
	if skipped := printAlg(w.alg, w.eng, w.calls); !reflect.DeepEqual(stepped, skipped) {
		t.Fatalf("%s: SkipIdle(%d, %d) differs from %d Steps:\n%+v\n%+v", name, tid, n, n, skipped, stepped)
	}
	if left, _ := w.alg.IdleSteps(tid); k != math.MaxInt && left != k-n || k == math.MaxInt && left != k {
		t.Fatalf("%s: IdleSteps = %d after %d of %d idle Steps", name, left, n, k)
	}
	w.mustAct[tid] = n == k
	// The thread did make those Steps: it pays for them.
	acc.Work(scratch.Pending())
}

// iters is thread tid's iteration count.
func (w *idleWalk) iters(tid int) *int {
	if a, ok := w.alg.(*waitFree); ok {
		return &a.threads[tid].iters
	}
	return &w.alg.(*barrierGVT).threads[tid].iters
}

// TestIdleStepsAreNoOps walks both algorithms through seeded runs with
// threads out of step, parking at Phase End (Leave) and rejoining, at
// a fixed frequency, and holds IdleSteps to its contract before
// every Step (see check). Where IdleSteps answers 0, or its count has
// run out, the next Step must do more than poll — the count is exact,
// not just safe. The walk has to visit every branch of both answers.
func TestIdleStepsAreNoOps(t *testing.T) {
	const threads = 6
	seen := map[string]int{}
	for _, kind := range []Kind{Barrier, WaitFree} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", kind, seed), func(t *testing.T) {
				mcfg := machine.Small()
				mcfg.MaxTicks = 1 << 21
				m, err := machine.New(mcfg)
				if err != nil {
					t.Fatal(err)
				}
				model, err := models.NewPHOLD(models.PHOLDConfig{Threads: threads, LPsPerThread: 2, EndTime: 60, Imbalance: 2})
				if err != nil {
					t.Fatal(err)
				}
				eng, err := tw.NewEngine(tw.Config{NumThreads: threads, Model: model, EndTime: 60, Seed: uint64(seed), OptimismWindow: 5})
				if err != nil {
					t.Fatal(err)
				}
				w := &idleWalk{
					t: t, rnd: rand.New(rand.NewSource(seed)), eng: eng, awake: threads, seen: seen,
					sems: make([]*machine.Sem, threads), state: make([]int, threads), mustAct: make([]bool, threads),
				}
				w.alg, err = New(Config{
					Kind: kind, Engine: eng, Machine: m, Frequency: 12, Hooks: w,
					OnCut: func(int, uint64) { w.calls++ },
				})
				if err != nil {
					t.Fatal(err)
				}
				for tid := 0; tid < threads; tid++ {
					tid := tid
					w.sems[tid] = m.NewSem("park", 0)
					m.Spawn(fmt.Sprintf("sim-%d", tid), func(p *machine.Proc) {
						acc := machine.NewAcc(p)
						peer := eng.Peer(tid)
						for !eng.Done() {
							// Threads work at different speeds, so some wait in
							// a round for others that have not entered it.
							acc.Work(uint64((tid + 1) * (50 + w.rnd.Intn(300))))
							if w.rnd.Intn(3) != 0 {
								peer.DrainProcess(acc)
							}
							w.wake(p, acc, false)
							w.check(p, acc, tid)
							mustAct := w.mustAct[tid]
							w.mustAct[tid] = false
							before := printAlg(w.alg, eng, w.calls)
							w.alg.Step(p, acc, tid)
							if mustAct && sameBut(before, printAlg(w.alg, eng, w.calls), tid) {
								t.Errorf("thread %d: a Step past its idle count only polled", tid)
							}
							acc.Flush()
						}
						peer.FossilCollect(acc, eng.GVT())
						w.wake(p, acc, true)
						acc.Flush()
					})
				}
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
				if !eng.Done() {
					t.Fatalf("GVT stalled at %v", eng.GVT())
				}
				if err := eng.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	for _, name := range []string{
		"waitfree idle, counting", "waitfree idle, counting, must act",
		"waitfree idle, round still open, unbounded",
		"waitfree send, unbounded", "waitfree send, must act",
		"waitfree wait-B, unbounded", "waitfree wait-B, must act",
		"barrier counting", "barrier counting, must act", "barrier unsubscribed, unbounded",
	} {
		if seen[name] == 0 {
			t.Errorf("vacuous walk: never saw %q (saw %v)", name, seen)
		}
	}
}
