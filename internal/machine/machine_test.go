package machine

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func testCfg(cores, smt int) Config {
	c := Small()
	c.Cores = cores
	c.SMTWidth = smt
	agg := make([]float64, smt)
	for i := range agg {
		agg[i] = 1 + 0.5*float64(i) // 1.0, 1.5, 2.0, ...
	}
	agg[0] = 1.0
	c.SMTAggregate = agg
	c.MaxTicks = 1 << 20
	return c
}

func mustNew(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustRun(t *testing.T, m *Machine) {
	t.Helper()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	good := KNL7230()
	if err := good.Validate(); err != nil {
		t.Fatalf("KNL7230 invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.SMTWidth = 0 },
		func(c *Config) { c.FreqHz = 0 },
		func(c *Config) { c.TickCycles = 0 },
		func(c *Config) { c.OpCycles = 0 },
		func(c *Config) { c.SMTAggregate = nil },
		func(c *Config) { c.SMTAggregate = []float64{2, 2, 2, 2} },
		func(c *Config) { c.SMTAggregate = []float64{1, 0.9, 0.8, 0.7} },
	}
	for i, mutate := range cases {
		c := KNL7230()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestSingleThreadRuns(t *testing.T) {
	m := mustNew(t, testCfg(1, 1))
	done := false
	th := m.Spawn("w", func(p *Proc) {
		p.Work(100000)
		done = true
	})
	mustRun(t, m)
	if !done {
		t.Fatal("body did not complete")
	}
	if th.State() != StateExited {
		t.Fatalf("state = %v, want exited", th.State())
	}
	if th.Cycles() < 100000 {
		t.Fatalf("cycles = %d, want >= 100000", th.Cycles())
	}
}

func TestTwoThreadsShareCore(t *testing.T) {
	// One core, one context: two threads must timeslice and both finish
	// with similar vruntime.
	m := mustNew(t, testCfg(1, 1))
	const work = 500000
	a := m.Spawn("a", func(p *Proc) { p.Work(work) })
	b := m.Spawn("b", func(p *Proc) { p.Work(work) })
	mustRun(t, m)
	if a.Cycles() < work || b.Cycles() < work {
		t.Fatalf("cycles a=%d b=%d, want >= %d each", a.Cycles(), b.Cycles(), work)
	}
	// Wall time must cover both threads' serialized work on one context.
	wall := m.Stats().Ticks * m.Config().TickCycles
	if wall < 2*work {
		t.Fatalf("wall cycles %d < serialized work %d", wall, 2*work)
	}
}

func TestSMTSharingSpeedsUp(t *testing.T) {
	// Two threads on a 1-core/2-SMT machine (agg 1.5) should finish
	// faster than on a 1-core/1-SMT machine, but slower than on 2 cores.
	run := func(cores, smt int) uint64 {
		m := mustNew(t, testCfg(cores, smt))
		for i := 0; i < 2; i++ {
			m.Spawn("w", func(p *Proc) { p.Work(1 << 20) })
		}
		mustRun(t, m)
		return m.Stats().Ticks
	}
	serial := run(1, 1)
	smt := run(1, 2)
	par := run(2, 1)
	if !(par < smt && smt < serial) {
		t.Fatalf("ticks: 2-core=%d < smt2=%d < 1-context=%d expected", par, smt, serial)
	}
}

func TestSemBlockAndWake(t *testing.T) {
	m := mustNew(t, testCfg(2, 1))
	s := m.NewSem("s", 0)
	order := []string{}
	m.Spawn("waiter", func(p *Proc) {
		p.SemWait(s)
		order = append(order, "woken")
	})
	m.Spawn("poster", func(p *Proc) {
		p.Work(200000)
		order = append(order, "posting")
		p.SemPost(s)
	})
	mustRun(t, m)
	if len(order) != 2 || order[0] != "posting" || order[1] != "woken" {
		t.Fatalf("order = %v", order)
	}
}

func TestSpinningThreadBurnsCycles(t *testing.T) {
	m := mustNew(t, testCfg(2, 1))
	stop := false
	spinner := m.Spawn("spinner", func(p *Proc) {
		for !stop {
			p.Work(100)
		}
	})
	m.Spawn("worker", func(p *Proc) {
		p.Work(1 << 21)
		stop = true
	})
	mustRun(t, m)
	if spinner.Cycles() < 1<<20 {
		t.Fatalf("spinner consumed only %d cycles", spinner.Cycles())
	}
}

func TestSemCountingSemantics(t *testing.T) {
	m := mustNew(t, testCfg(1, 1))
	s := m.NewSem("s", 2)
	ran := 0
	m.Spawn("w", func(p *Proc) {
		p.SemWait(s) // count 2 -> 1, no block
		ran++
		p.SemWait(s) // count 1 -> 0, no block
		ran++
		p.SemPost(s)
		p.SemWait(s) // immediately satisfied
		ran++
	})
	mustRun(t, m)
	if ran != 3 || s.count != 0 {
		t.Fatalf("ran=%d value=%d", ran, s.count)
	}
}

func TestSemFIFOWake(t *testing.T) {
	m := mustNew(t, testCfg(1, 1))
	s := m.NewSem("s", 0)
	var woken []int
	for i := 0; i < 3; i++ {
		i := i
		m.Spawn("waiter", func(p *Proc) {
			p.Work(uint64(1000 * (i + 1))) // stagger arrival order: 0, 1, 2
			p.SemWait(s)
			woken = append(woken, i)
		})
	}
	m.Spawn("poster", func(p *Proc) {
		p.Work(1 << 20) // let all waiters block first
		for i := 0; i < 3; i++ {
			p.SemPost(s)
			p.Work(200000) // allow each woken thread to record in turn
		}
	})
	mustRun(t, m)
	if len(woken) != 3 || woken[0] != 0 || woken[1] != 1 || woken[2] != 2 {
		t.Fatalf("wake order = %v, want [0 1 2]", woken)
	}
}

func TestBarrierRendezvous(t *testing.T) {
	m := mustNew(t, testCfg(4, 1))
	b := m.NewBarrier("b", 4)
	serials := 0
	phase := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		m.Spawn("t", func(p *Proc) {
			p.Work(uint64(1000 * (i + 1)))
			if p.BarrierWait(b) {
				serials++
			}
			phase[i] = 1
		})
	}
	mustRun(t, m)
	if serials != 1 {
		t.Fatalf("serial flag granted %d times, want 1", serials)
	}
	for i, ph := range phase {
		if ph != 1 {
			t.Fatalf("thread %d never passed the barrier", i)
		}
	}
}

func TestBarrierMultipleGenerations(t *testing.T) {
	m := mustNew(t, testCfg(2, 2))
	b := m.NewBarrier("b", 3)
	const rounds = 5
	serialCount := 0
	for i := 0; i < 3; i++ {
		m.Spawn("t", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Work(5000)
				if p.BarrierWait(b) {
					serialCount++
				}
			}
		})
	}
	mustRun(t, m)
	if serialCount != rounds {
		t.Fatalf("serial granted %d times, want %d", serialCount, rounds)
	}
}

func TestBarrierResizeReleases(t *testing.T) {
	m := mustNew(t, testCfg(2, 1))
	b := m.NewBarrier("b", 3)
	passed := 0
	for i := 0; i < 2; i++ {
		m.Spawn("w", func(p *Proc) {
			p.BarrierWait(b)
			passed++
		})
	}
	m.Spawn("resizer", func(p *Proc) {
		p.Work(1 << 20) // let both block
		b.Resize(2)
		p.Op()
	})
	mustRun(t, m)
	if passed != 2 {
		t.Fatalf("passed = %d, want 2", passed)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	m := mustNew(t, testCfg(4, 1))
	mu := m.NewMutex("mu")
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		m.Spawn("t", func(p *Proc) {
			for r := 0; r < 10; r++ {
				p.Lock(mu)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Work(10000)
				inside--
				p.Unlock(mu)
				p.Work(5000)
			}
		})
	}
	mustRun(t, m)
	if maxInside != 1 {
		t.Fatalf("max threads in critical section = %d", maxInside)
	}
	if mu.Acquisitions != 40 {
		t.Fatalf("acquisitions = %d, want 40", mu.Acquisitions)
	}
	if mu.Contended == 0 {
		t.Fatal("expected some contention")
	}
}

func TestUnlockByNonOwnerPanics(t *testing.T) {
	// Unlocking a mutex you do not hold is a programming error and
	// panics, matching sync.Mutex semantics.
	m := mustNew(t, testCfg(1, 1))
	mu := m.NewMutex("mu")
	m.Spawn("bad", func(p *Proc) { p.Unlock(mu) })
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "non-owner") {
			t.Fatalf("recover = %v, want non-owner panic", r)
		}
	}()
	_ = m.Run()
}

func TestDeadlockDetection(t *testing.T) {
	m := mustNew(t, testCfg(2, 1))
	s := m.NewSem("never", 0)
	m.Spawn("a", func(p *Proc) { p.SemWait(s) })
	m.Spawn("b", func(p *Proc) { p.SemWait(s) })
	err := m.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
}

// What a blocked thread waits on is built once per primitive, not once
// per wait; the text the deadlock report prints is what it always was.
func TestBlockReasonText(t *testing.T) {
	m := mustNew(t, testCfg(2, 2))
	s := m.NewSem("never", 0)
	bar := m.NewBarrier("gate", 5)
	mu := m.NewMutex("mu")
	m.Spawn("holder", func(p *Proc) { p.Lock(mu); p.SemWait(s) })
	m.Spawn("locker", func(p *Proc) { p.Work(50000); p.Lock(mu) })
	m.Spawn("arriver", func(p *Proc) { p.BarrierWait(bar) })
	err := m.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	want := []string{"holder(sem never)", "locker(mutex mu)", "arriver(barrier gate)"}
	if !reflect.DeepEqual(dl.Blocked, want) {
		t.Fatalf("blocked = %q, want %q", dl.Blocked, want)
	}
}

// A thread blocking on a barrier and being released allocates nothing:
// under DD- and GG-PDES that is every deactivation.
func TestBarrierRoundTripAllocatesNothing(t *testing.T) {
	const rounds = 100
	m := mustNew(t, testCfg(2, 1))
	bar := m.NewBarrier("gate", 2)
	var allocs float64
	m.Spawn("measured", func(p *Proc) {
		// One warm-up call, then rounds measured ones.
		allocs = testing.AllocsPerRun(rounds, func() { p.BarrierWait(bar) })
	})
	m.Spawn("partner", func(p *Proc) {
		for i := 0; i <= rounds; i++ {
			// Arrive late, so that the measured thread is the one that
			// blocks.
			p.Work(20000)
			p.BarrierWait(bar)
		}
	})
	mustRun(t, m)
	if m.Stats().BarrierWaits != 2*(rounds+1) {
		t.Fatalf("barrier waits = %d", m.Stats().BarrierWaits)
	}
	if allocs != 0 {
		t.Fatalf("a barrier round trip allocates %.2f times", allocs)
	}
}

func TestMaxTicksAborts(t *testing.T) {
	cfg := testCfg(1, 1)
	cfg.MaxTicks = 10
	m := mustNew(t, cfg)
	m.Spawn("loop", func(p *Proc) {
		for {
			p.Work(1000)
		}
	})
	err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "MaxTicks") {
		t.Fatalf("err = %v, want MaxTicks error", err)
	}
}

func TestPanicPropagation(t *testing.T) {
	m := mustNew(t, testCfg(1, 1))
	m.Spawn("boom", func(p *Proc) {
		p.Work(100)
		panic("kaboom")
	})
	err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic message", err)
	}
}

func TestRunTwiceErrors(t *testing.T) {
	m := mustNew(t, testCfg(1, 1))
	m.Spawn("w", func(p *Proc) { p.Work(10) })
	mustRun(t, m)
	if err := m.Run(); err == nil {
		t.Fatal("second Run did not error")
	}
}

func TestSpawnAfterRunPanics(t *testing.T) {
	m := mustNew(t, testCfg(1, 1))
	m.Spawn("w", func(p *Proc) { p.Work(10) })
	mustRun(t, m)
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn after Run did not panic")
		}
	}()
	m.Spawn("late", func(p *Proc) {})
}

func TestSetAffinityMigrates(t *testing.T) {
	m := mustNew(t, testCfg(4, 1))
	cfg := m.Config()
	var target *Thread
	target = m.SpawnPinned("target", 0, func(p *Proc) {
		for i := 0; i < 200; i++ {
			p.Work(cfg.TickCycles)
		}
	})
	m.SpawnPinned("mover", 1, func(p *Proc) {
		p.Work(10 * cfg.TickCycles)
		p.SetAffinity(target.id, 3)
	})
	mustRun(t, m)
	if target.Pinned() != 3 || target.core != 3 {
		t.Fatalf("target pinned=%d core=%d, want 3/3", target.Pinned(), target.core)
	}
	if m.Stats().Migrations == 0 {
		t.Fatal("no migration recorded")
	}
}

func TestSetAffinityValidation(t *testing.T) {
	m := mustNew(t, testCfg(2, 1))
	m.Spawn("bad", func(p *Proc) { p.SetAffinity(0, 99) })
	if err := m.Run(); err == nil {
		t.Fatal("invalid SetAffinity did not surface as error")
	}
}

func TestOversubscriptionFairness(t *testing.T) {
	// 16 threads on a 2-core/1-SMT machine: all must finish, and CFS
	// should keep consumed cycles roughly equal while they compete.
	m := mustNew(t, testCfg(2, 1))
	const n = 16
	const work = 200000
	threads := make([]*Thread, n)
	for i := 0; i < n; i++ {
		threads[i] = m.Spawn("w", func(p *Proc) { p.Work(work) })
	}
	mustRun(t, m)
	for i, th := range threads {
		if th.State() != StateExited {
			t.Fatalf("thread %d did not finish", i)
		}
		if th.Cycles() < work {
			t.Fatalf("thread %d cycles = %d", i, th.Cycles())
		}
	}
	if m.Stats().CtxSwitches == 0 {
		t.Fatal("oversubscription produced no context switches")
	}
}

func TestLoadBalancerSpreadsThreads(t *testing.T) {
	// Spawn 4 unpinned long-running threads; initial round-robin puts
	// one per core, but even if they started together the balancer must
	// leave every core busy.
	m := mustNew(t, testCfg(4, 1))
	for i := 0; i < 4; i++ {
		m.Spawn("w", func(p *Proc) { p.Work(1 << 22) })
	}
	mustRun(t, m)
	for c := 0; c < 4; c++ {
		if m.CoreBusyCycles(c) == 0 {
			t.Fatalf("core %d idle for the whole run", c)
		}
	}
}

func TestWallSecondsAndConversions(t *testing.T) {
	cfg := testCfg(1, 1)
	cfg.FreqHz = 1e9
	m := mustNew(t, cfg)
	m.Spawn("w", func(p *Proc) { p.Work(1 << 20) })
	mustRun(t, m)
	wantWall := float64(m.Stats().Ticks) * float64(cfg.TickCycles) / 1e9
	if m.WallSeconds() != wantWall {
		t.Fatalf("WallSeconds = %v, want %v", m.WallSeconds(), wantWall)
	}
	if m.CyclesToSeconds(2e9) != 2.0 {
		t.Fatalf("CyclesToSeconds(2e9) = %v", m.CyclesToSeconds(2e9))
	}
}

func TestThreadStateString(t *testing.T) {
	cases := map[ThreadState]string{
		StateRunnable: "runnable", StateRunning: "running",
		StateBlocked: "blocked", StateExited: "exited", ThreadState(9): "invalid",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("State(%d) = %q, want %q", int(s), s.String(), want)
		}
	}
}

func BenchmarkMachineTicks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, _ := New(testCfg(4, 2))
		for j := 0; j < 16; j++ {
			m.Spawn("w", func(p *Proc) {
				for k := 0; k < 50; k++ {
					p.Work(10000)
				}
			})
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: CFS keeps cycle allocation fair — for arbitrary small
// thread mixes on one core, no two equal-work threads finish with
// wildly different consumed cycles at any point (checked at the end:
// every thread completed its equal work).
func TestQuickCFSFairness(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)%6 + 2
		m, err := New(testCfg(1, 1))
		if err != nil {
			return false
		}
		const work = 200000
		finished := make([]uint64, n)
		for i := 0; i < n; i++ {
			i := i
			m.Spawn("w", func(p *Proc) {
				for done := 0; done < work; done += 5000 {
					p.Work(5000)
				}
				finished[i] = p.NowCycles()
			})
		}
		if err := m.Run(); err != nil {
			return false
		}
		// Equal-work threads on a fair scheduler finish within a few
		// timeslices of each other.
		var min, max uint64
		for i, f := range finished {
			if i == 0 || f < min {
				min = f
			}
			if f > max {
				max = f
			}
		}
		slack := uint64(8 * m.Config().TickCycles)
		return max-min <= slack+max/4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
