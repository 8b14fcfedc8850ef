package machine

// Where the host time of a polling run goes, and why a thread's body is
// a coroutine that charges its own work. Baseline-Async on the
// phold-imbalanced-async benchmark config (16 threads, 15 of them with
// nothing to do most of the time; one P; go tool pprof -top), first
// with every Proc call a goroutine round trip over a resume/yield
// channel pair, 374,589 of them to commit 10,247 events (190 ms a run):
//
//	     flat  flat%   sum%        cum   cum%
//	    870ms 11.66% 11.66%      870ms 11.66%  runtime.nanotime (inline)
//	    640ms  8.58% 20.24%      830ms 11.13%  runtime.casgstatus
//	    470ms  6.30% 26.54%      470ms  6.30%  runtime.lock2
//	    430ms  5.76% 32.31%      470ms  6.30%  runtime.unlock2
//	    410ms  5.50% 37.80%     1100ms 14.75%  runtime.chanrecv
//	    230ms  3.08% 40.88%      230ms  3.08%  runtime.(*guintptr).cas (inline)
//	    190ms  2.55% 43.43%     2770ms 37.13%  core.(*Runner).threadBody
//	    180ms  2.41% 45.84%     1630ms 21.85%  machine.(*Acc).Flush (inline)
//	    180ms  2.41% 48.26%      350ms  4.69%  runtime.chanparkcommit
//	    170ms  2.28% 50.54%     1980ms 26.54%  machine.(*Machine).fetchNext
//	    160ms  2.14% 52.68%      220ms  2.95%  tw.(*Peer).peekLive
//	    140ms  1.88% 54.56%      140ms  1.88%  internal/runtime/atomic.(*Int32).Add (inline)
//	    130ms  1.74% 56.30%      130ms  1.74%  runtime.duffcopy
//	    130ms  1.74% 58.04%      190ms  2.55%  runtime.releaseSudog
//	    120ms  1.61% 59.65%      770ms 10.32%  runtime.chanrecv1
//	    110ms  1.47% 61.13%     2150ms 28.82%  machine.(*Machine).advanceThread
//	    110ms  1.47% 62.60%     1450ms 19.44%  machine.(*Proc).Work
//
// (runtime.chansend 22 %, runtime.schedule 21 %, runtime.ready 15 % and
// runtime.findRunnable 14 % cumulative: about 70 % of the run is the Go
// scheduler passing control back and forth.) And with work charged
// inside the grant and one coroutine switch for what is left, 11,867
// switches for the same events and the same trajectory (26 ms a run):
//
//	     flat  flat%   sum%        cum   cum%
//	    0.69s 13.48% 13.48%      4.35s 84.96%  core.(*Runner).threadBody
//	    0.53s 10.35% 23.83%      0.99s 19.34%  gvt.(*waitFree).Step
//	    0.33s  6.45% 30.27%      0.43s  8.40%  tw.(*Peer).Drain
//	    0.33s  6.45% 36.72%      1.33s 25.98%  tw.(*Peer).ProcessBatch
//	    0.26s  5.08% 41.80%      0.36s  7.03%  tw.(*Peer).peekLive
//	    0.22s  4.30% 46.09%      0.36s  7.03%  machine.(*Proc).work
//	    0.19s  3.71% 49.80%      0.34s  6.64%  pq.(*SplayTree).splay
//	    0.18s  3.52% 53.32%      0.18s  3.52%  machine.(*Acc).Work (partial-inline)
//	    0.16s  3.12% 56.45%      0.52s 10.16%  machine.(*Proc).Work (inline)
//	    0.15s  2.93% 59.38%      0.15s  2.93%  tw.(*Engine).Peer (inline)
//	    0.11s  2.15% 61.52%      0.11s  2.15%  gvt.(*waitFree).Rounds
//	    0.11s  2.15% 63.67%      0.11s  2.15%  tw.(*Engine).Done (inline)
//	    0.11s  2.15% 65.82%      0.11s  2.15%  tw.(*Event).before (inline)
//	    0.08s  1.56% 67.38%      0.10s  1.95%  gvt.(*waitFree).stepSend
//	    0.08s  1.56% 68.95%      1.84s 35.94%  tw.(*Peer).DrainProcess
//	    0.07s  1.37% 75.00%      0.07s  1.37%  iter.Pull.func2
//
// What was left of the gap to the synchronous run then (about 4x, from
// 17x) was no longer the machine: 85 % of the run was inside
// core.threadBody, which still executed every one of the 746,580
// polling loop iterations (73 per committed event; Baseline-Sync needs
// 21,120) — an empty Drain, an empty ProcessBatch, a GVT step that
// finds no round in progress — only to add the same constants to the
// same accumulator. Those iterations are now booked, not executed:
// inside a grant nobody else can run, so a thread whose peer is quiet
// and whose GVT algorithm has nothing for it charges whole flush
// groups of them in one Proc.WorkN (core.Runner.skipIdle has the
// argument). Main-loop iterations of the four arms of the benchmark
// config at seed 12345, executed and booked; each sum is what the arm
// executed before:
//
//	                 executed    booked      before
//	Baseline-Sync       2,432    18,688      21,120
//	Baseline-Async     25,880   720,700     746,580
//	DD-PDES-Async       3,878    71,172      75,050
//	GG-PDES-Async       3,004    51,418      54,422
//
// And the third profile, same config, same events, same trajectory
// (11.5 ms a run in this sample and 8.9 in the next, on a box where the
// code of the profile above takes 28 ms and Baseline-Sync 5.1-5.9; go
// tool pprof -top -cum, the frames that matter):
//
//	     flat  flat%        cum   cum%
//	    0.11s  1.95%      3.62s 64.30%  core.(*Runner).threadBody
//	    0.18s  3.20%      2.17s 38.54%  tw.(*Peer).ProcessBatch
//	    0.06s  1.07%      1.53s 27.18%  models.(*PHOLD).OnEvent
//	    0.03s  0.53%      1.20s 21.31%  tw.(*Engine).send
//	    0.04s  0.71%      0.75s 13.32%  runtime.mallocgc
//	    0.04s  0.71%      0.71s 12.61%  pq.(*SplayTree).Push
//	    0.02s  0.36%      0.62s 11.01%  machine.(*Machine).RunContext
//	    0.17s  3.02%      0.55s  9.77%  machine.(*Machine).advanceTick
//	    0.04s  0.71%      0.52s  9.24%  gvt.(*waitFree).Step
//	    0.09s  1.60%      0.50s  8.88%  runtime.coroswitch_m
//	        0     0%      0.45s  7.99%  runtime.gcBgMarkWorker
//	    0.04s  0.71%      0.43s  7.64%  tw.(*Peer).FossilCollect
//	    0.07s  1.24%      0.34s  6.04%  machine.(*Acc).Flush
//	    0.07s  1.24%      0.07s  1.24%  machine.(*Proc).WorkN
//
// The asynchronous run is now mostly the event work the synchronous one
// does too (ProcessBatch with what it calls: 3.5 ms of that run's 5.9,
// 4.4 ms of this one's 11.5, which rolls more back) plus what a poller
// still costs per tick: the probe, the flush group that
// crosses the grant (executed, so that the scheduler sees the call it
// always saw) and one coroutine switch each way — iter.Pull, cas and
// coroswitch together about a fifth of the run, advanceTick a tenth.
// The lever after this one is to park a poller across grants: a thread
// in that state would be charged its tick share by advanceTick without
// being switched to, until a send into its queue, a round start or the
// end of the run un-parks it. That needs the machine to know what a
// poller is waiting for, which it does not today.

import (
	"fmt"
	"iter"
)

// ThreadState is the scheduling state of a simulated thread.
type ThreadState int

// Thread states.
const (
	// StateRunnable means the thread is on a core's run queue.
	StateRunnable ThreadState = iota
	// StateRunning means the thread occupies an SMT context this tick.
	StateRunning
	// StateBlocked means the thread is de-scheduled, waiting on a
	// semaphore, barrier or mutex. It consumes no cycles.
	StateBlocked
	// StateExited means the thread's body returned.
	StateExited
)

// String returns the state name.
func (s ThreadState) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateExited:
		return "exited"
	default:
		return "invalid"
	}
}

// AnyCore passed as an affinity pin lets the scheduler place the thread
// on any core.
const AnyCore = -1

type segKind int

const (
	segWork segKind = iota
	segSemWait
	segSemPost
	segBarrier
	segLock
	segUnlock
	segSetAffinity
	segYield
)

type segment struct {
	kind segKind
	cost uint64
	sem  *Sem
	bar  *Barrier
	mu   *Mutex
	// SetAffinity operands.
	target *Thread
	newPin int
}

// Thread is a simulated OS thread.
type Thread struct {
	id   int
	name string
	m    *Machine

	state  ThreadState
	core   int // core whose structures currently hold the thread
	pinned int // AnyCore or a core id

	vruntime uint64
	cycles   uint64 // CPU cycles consumed so far
	penalty  uint64 // pending wake/switch/migration cycles, added to the next segment

	seg        segment
	needsFetch bool
	everRan    bool

	// grant is what is left of the thread's tick share while its body
	// runs; work that ends strictly inside it is charged in place.
	grant uint64

	// body runs as a coroutine: next resumes it until its next machine
	// call and reports false once it has returned, stop unwinds it.
	// Both are nil until the thread is first scheduled. panicV holds
	// what a panicking body raised.
	body   func(*Proc)
	next   func() (struct{}, bool)
	stop   func()
	panicV any
	// proc is what body is handed: it lives in the thread, and the
	// thread in the machine's slab.
	proc Proc

	blockKind     string // "sem", "barrier" or "mutex", while blocked
	blockName     string // the primitive's name
	waitSeq       uint64 // FIFO ordering among waiters
	barrierSerial bool   // set on barrier release for the last arriver
}

// ID returns the thread's identifier (its spawn index).
func (t *Thread) ID() int { return t.id }

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// State returns the thread's scheduling state. Only meaningful from
// machine or simulated-thread context (runs are single-threaded).
func (t *Thread) State() ThreadState { return t.state }

// Cycles returns the CPU cycles the thread has consumed.
func (t *Thread) Cycles() uint64 { return t.cycles }

// Pinned returns the core the thread is pinned to, or AnyCore.
func (t *Thread) Pinned() int { return t.pinned }

// Proc is the machine interface handed to a thread's body. All methods
// must be called from the thread's own coroutine.
type Proc struct {
	t     *Thread
	yield func(struct{}) bool
}

// aborted is what a machine call panics with, inside the body's
// coroutine, when the machine stopped the run underneath it; start
// recovers it. A body must not swallow panics it did not raise.
type aborted struct{}

// start creates t's coroutine. It runs nothing until the first next.
func (t *Thread) start() {
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != (aborted{}) {
				t.panicV = r
			}
		}()
		t.proc = Proc{t: t, yield: yield}
		t.body(&t.proc)
	})
}

// call hands a segment to the scheduler and switches to it; control
// comes back once the machine has completed the segment and scheduled
// the thread again.
func (p *Proc) call(seg segment) {
	p.t.seg = seg
	if !p.yield(struct{}{}) {
		panic(aborted{})
	}
}

// work consumes cost cycles. A segment that ends strictly inside the
// thread's grant cannot affect anyone else — no other thread runs
// before the grant is spent — so it is charged in place, exactly as
// fetchNext and advanceThread would, without switching to the
// scheduler. One that reaches or crosses the grant goes to the
// scheduler: on an exact fit the body's next side effect belongs to
// the next tick.
func (p *Proc) work(cost uint64) {
	t := p.t
	if total := cost + t.penalty; total < t.grant {
		t.spend(total)
		return
	}
	p.call(segment{kind: segWork, cost: cost})
}

// spend charges total cycles, pending penalty included, inside the
// grant.
func (t *Thread) spend(total uint64) {
	t.grant -= total
	t.penalty = 0
	t.m.charge(&t.m.cores[t.core], t, total)
}

// ID returns the calling thread's id.
func (p *Proc) ID() int { return p.t.id }

// Machine returns the machine the thread runs on.
func (p *Proc) Machine() *Machine { return p.t.m }

// NowCycles returns the machine's wall-clock in cycles (tick-granular).
func (p *Proc) NowCycles() uint64 { return p.t.m.tick * p.t.m.cfg.TickCycles }

// CPUCycles returns the CPU cycles this thread has consumed; the
// difference across a region measures its CPU time (blocked time does
// not count).
func (p *Proc) CPUCycles() uint64 { return p.t.cycles }

// Work consumes the given number of CPU cycles.
func (p *Proc) Work(cycles uint64) { p.work(cycles + p.t.m.cfg.OpCycles) }

// WorkN charges up to n back-to-back Work(cycles) calls as one and
// returns how many it charged: as many as end strictly inside the
// thread's grant, the pending wake/switch/migration penalty riding on
// the first as it would. Every one of those Work calls would have been
// charged in place, and charging is linear in cycles, vruntime and core
// busy time, so the scheduler cannot tell k of them from one charge of
// their sum. A call that would reach or cross the grant is never
// included: it belongs to Work, which hands it to the scheduler.
func (p *Proc) WorkN(cycles uint64, n int) int {
	t := p.t
	if n <= 0 || t.grant <= t.penalty {
		return 0
	}
	cost := cycles + t.m.cfg.OpCycles
	k := min((t.grant-t.penalty-1)/cost, uint64(n))
	if k > 0 {
		t.spend(k*cost + t.penalty)
	}
	return int(k)
}

// Op consumes the baseline per-operation cost, modelling a cheap shared
// memory or atomic operation.
func (p *Proc) Op() { p.work(p.t.m.cfg.OpCycles) }

// SemWait decrements the semaphore, blocking (de-scheduled, zero
// cycles) while its value is zero.
func (p *Proc) SemWait(s *Sem) {
	p.call(segment{kind: segSemWait, cost: p.t.m.cfg.OpCycles, sem: s})
}

// SemPost increments the semaphore, waking the longest-waiting blocked
// thread if any.
func (p *Proc) SemPost(s *Sem) {
	p.call(segment{kind: segSemPost, cost: p.t.m.cfg.OpCycles, sem: s})
}

// BarrierWait blocks until all parties have arrived. It returns true on
// exactly one thread per generation (the last arriver), mirroring
// PTHREAD_BARRIER_SERIAL_THREAD.
func (p *Proc) BarrierWait(b *Barrier) bool {
	p.call(segment{kind: segBarrier, cost: p.t.m.cfg.OpCycles, bar: b})
	return p.t.barrierSerial
}

// Lock acquires the mutex, blocking while it is held.
func (p *Proc) Lock(mu *Mutex) {
	p.call(segment{kind: segLock, cost: p.t.m.cfg.OpCycles, mu: mu})
}

// Unlock releases the mutex, handing it to the longest waiter if any.
// It panics if the calling thread does not hold the mutex.
func (p *Proc) Unlock(mu *Mutex) {
	p.call(segment{kind: segUnlock, cost: p.t.m.cfg.OpCycles, mu: mu})
}

// SetAffinity pins thread tid to the given core (or AnyCore to unpin),
// migrating it if necessary — the sched_setaffinity equivalent. Pinning
// a thread to an out-of-range core panics.
func (p *Proc) SetAffinity(tid, core int) {
	m := p.t.m
	if tid < 0 || tid >= len(m.threads) {
		panic(fmt.Sprintf("machine: SetAffinity on unknown thread %d", tid))
	}
	if core != AnyCore && (core < 0 || core >= m.cfg.Cores) {
		panic(fmt.Sprintf("machine: SetAffinity to invalid core %d", core))
	}
	p.call(segment{
		kind:   segSetAffinity,
		cost:   p.t.m.cfg.OpCycles,
		target: m.threads[tid],
		newPin: core,
	})
}

// Yield relinquishes the rest of the thread's timeslice.
func (p *Proc) Yield() {
	p.call(segment{kind: segYield, cost: p.t.m.cfg.OpCycles})
}
