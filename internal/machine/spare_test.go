package machine

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// goroutineID is the id of the goroutine — here, the coroutine — that
// calls it, from the header runtime.Stack writes.
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// awaitGoroutines waits, briefly, for the process to be back at want
// goroutines.
func awaitGoroutines(t *testing.T, want int) {
	t.Helper()
	for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() != want; runtime.Gosched() {
		if time.Now().After(wait) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), want)
		}
	}
}

// spareProgram spawns n threads on m that work, meet at a barrier, post
// and wait on a semaphore and yield, recording the goroutine each body
// ran on and the most goroutines any of them saw.
func spareProgram(m *Machine, n int, ids []string, most *int) {
	bar := m.NewBarrier("b", n)
	sem := m.NewSem("s", 0)
	for i := 0; i < n; i++ {
		m.Spawn("w", func(p *Proc) {
			ids[p.ID()] = goroutineID()
			*most = max(*most, runtime.NumGoroutine())
			p.Work(uint64(1000 * (p.ID() + 1)))
			p.BarrierWait(bar)
			if p.ID()%2 == 0 {
				p.SemPost(sem)
			} else {
				p.SemWait(sem)
			}
			p.Yield()
			p.Work(500)
		})
	}
}

// A machine lent a spare set leaves its threads' coroutines parked in it,
// and the next machine lent the set runs its bodies on exactly those
// coroutines — the same goroutines, no new one started — and on the
// first machine's queue memory, while it schedules exactly as a machine
// that was lent nothing: the same counters, ticks and cycles per thread.
// A machine with more threads than the set holds creates only the
// difference. Ending the set brings the process back to its goroutines.
func TestSpareHandsCoroutinesOn(t *testing.T) {
	const n = 6
	cfg := testCfg(2, 2)
	baseline := runtime.NumGoroutine()
	var sp Spare

	first := mustNew(t, cfg)
	first.Lend(&sp)
	firstIDs, most := make([]string, n), 0
	spareProgram(first, n, firstIDs, &most)
	if err := first.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sp.coros) != n {
		t.Fatalf("after the first machine: %d parked coroutines, want %d", len(sp.coros), n)
	}
	awaitGoroutines(t, baseline+n)
	parked := slices.Clone(sp.coros)
	queues := make([]**Thread, len(sp.cores))
	for i, c := range sp.cores {
		if cap(c.runq) == 0 || len(c.runq)+len(c.running)+len(c.scratch) != 0 {
			t.Fatalf("core %d left runq %d/%d, running %d, scratch %d; want empty with room",
				i, len(c.runq), cap(c.runq), len(c.running), len(c.scratch))
		}
		queues[i] = unsafe.SliceData(c.runq)
	}

	threads := unsafe.SliceData(sp.threads)
	second := mustNew(t, cfg)
	second.Lend(&sp)
	secondIDs := make([]string, n)
	most = 0
	spareProgram(second, n, secondIDs, &most)
	if err := second.Run(); err != nil {
		t.Fatal(err)
	}
	slices.Sort(firstIDs)
	slices.Sort(secondIDs)
	if !slices.Equal(firstIDs, secondIDs) || most > baseline+n {
		t.Fatalf("second machine's bodies ran on goroutines %v, the first's on %v, with up to %d over the baseline",
			secondIDs, firstIDs, most-baseline)
	}
	if !sameCoros(parked, sp.coros) {
		t.Fatal("the second machine parked other coroutines than it was lent")
	}
	if unsafe.SliceData(second.Threads()) != threads || unsafe.SliceData(sp.threads) != threads {
		t.Fatal("the second machine did not keep its threads in the array the set lent it, or did not hand it back")
	}
	for i, c := range sp.cores {
		if unsafe.SliceData(c.runq) != queues[i] {
			t.Fatalf("core %d's run queue is not the one the first machine left", i)
		}
	}

	fresh := mustNew(t, cfg)
	spareProgram(fresh, n, make([]string, n), new(int))
	if err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	if second.Stats() != fresh.Stats() || !reflect.DeepEqual(threadCycles(second), threadCycles(fresh)) {
		t.Fatalf("lent machine %+v %v, fresh one %+v %v", second.Stats(), threadCycles(second), fresh.Stats(), threadCycles(fresh))
	}
	awaitGoroutines(t, baseline+n)

	third := mustNew(t, cfg)
	third.Lend(&sp)
	spareProgram(third, n+2, make([]string, n+2), new(int))
	if err := third.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sp.coros) != n+2 || countIn(parked, sp.coros) != n {
		t.Fatalf("a machine of %d threads lent %d coroutines left %d, %d of them lent", n+2, n, len(sp.coros), countIn(parked, sp.coros))
	}
	sp.End()
	if len(sp.coros) != 0 {
		t.Fatalf("End left %d coroutines in the set", len(sp.coros))
	}
	awaitGoroutines(t, baseline)
}

// A body that panicked and a body the machine aborted end their
// coroutines: neither is ever parked, so no later machine resumes a
// stack that did not unwind cleanly. Only the body that returned leaves
// its coroutine, and ending the set leaves no goroutine behind.
func TestSpareNeverHoldsAFailedBody(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var sp Spare
	// Three parked coroutines to start the failing machines on.
	warm := mustNew(t, testCfg(2, 2))
	warm.Lend(&sp)
	spareProgram(warm, 3, make([]string, 3), new(int))
	if err := warm.Run(); err != nil || len(sp.coros) != 3 {
		t.Fatalf("warm-up machine: %v, %d parked", err, len(sp.coros))
	}

	panicking := mustNew(t, testCfg(2, 2))
	panicking.Lend(&sp)
	sem := panicking.NewSem("never", 0)
	// It returns once every other body has started, so none of them
	// resumes its coroutine.
	panicking.Spawn("returns", func(p *Proc) { p.Work(100_000) })
	panicking.Spawn("blocks", func(p *Proc) { p.SemWait(sem) })
	panicking.Spawn("spins", func(p *Proc) {
		for {
			p.Work(100)
		}
	})
	panicking.Spawn("panics", func(p *Proc) {
		p.Work(300_000)
		panic("boom")
	})
	if err := panicking.Run(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run returned %v, want the panic", err)
	}
	if len(sp.coros) != 1 {
		t.Fatalf("%d coroutines parked after a panic, want 1 (the body that returned)", len(sp.coros))
	}
	awaitGoroutines(t, baseline+1)

	cfg := testCfg(1, 1)
	cfg.MaxTicks = 100
	stuck := mustNew(t, cfg)
	stuck.Lend(&sp)
	for i := 0; i < 3; i++ {
		stuck.Spawn("spins", func(p *Proc) {
			for {
				p.Work(100)
			}
		})
	}
	if err := stuck.Run(); err == nil || !strings.Contains(err.Error(), "MaxTicks") {
		t.Fatalf("Run returned %v, want MaxTicks", err)
	}
	if len(sp.coros) != 0 {
		t.Fatalf("%d coroutines parked after an abort, want 0", len(sp.coros))
	}
	sp.End()
	awaitGoroutines(t, baseline)
}

// threadCycles is the cycles each of m's threads consumed.
func threadCycles(m *Machine) []uint64 {
	var c []uint64
	for _, t := range m.Threads() {
		c = append(c, t.Cycles())
	}
	return c
}

// sameCoros reports whether a and b hold the same coroutines.
func sameCoros(a, b []*coro) bool { return len(a) == len(b) && countIn(a, b) == len(a) }

// countIn is how many of b's coroutines are in a.
func countIn(a, b []*coro) int {
	n := 0
	for _, c := range b {
		if slices.Contains(a, c) {
			n++
		}
	}
	return n
}
