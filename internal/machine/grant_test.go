package machine

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// grantCfg is a machine with round numbers, so the expectations below
// can be worked out by hand: a 1000-cycle tick, 10 cycles per machine
// call, and distinct wake / switch / migration penalties.
func grantCfg(cores, smt int) Config {
	return Config{
		Name: "grant", Cores: cores, SMTWidth: smt, FreqHz: 1e9,
		TickCycles: 1000, SMTAggregate: []float64{1.0, 1.5}, OpCycles: 10,
		CtxSwitchCycles: 30, MigrationCycles: 60, WakeCycles: 20,
		PreemptGranularityTicks: 3, MaxTicks: 1000,
	}
}

// TestGrantAccounting pins, with hand-computed expectations, where a
// work segment's cycles land and when the body continues relative to
// the tick grant: strictly inside it, exactly on it, and beyond it.
// Each body logs "<name>:<cycles>@<NowCycles>" right after a call
// returns, so the log is both the side-effect order across threads and
// the clock readings within one.
func TestGrantAccounting(t *testing.T) {
	type logf func(p *Proc, name string)
	cases := []struct {
		name       string
		cores, smt int
		tweak      func(cfg *Config)
		spawn      func(m *Machine, log logf)
		wantLog    string
		wantCycles []uint64
		wantBusy   []uint64
		wantStats  Stats
	}{
		{
			// 490+10 = 500 < 1000: charged within tick 0, and the body
			// goes on in tick 0.
			name: "inside", cores: 1, smt: 1,
			spawn: func(m *Machine, log logf) {
				m.Spawn("a", func(p *Proc) { p.Work(490); log(p, "a") })
			},
			wantLog:    "a:500@0",
			wantCycles: []uint64{500},
			wantBusy:   []uint64{500},
			wantStats:  Stats{Ticks: 1},
		},
		{
			// 990+10 = 1000 == grant: all charged in tick 0, but what the
			// body does next belongs to tick 1.
			name: "exact fit", cores: 1, smt: 1,
			spawn: func(m *Machine, log logf) {
				m.Spawn("a", func(p *Proc) { p.Work(990); log(p, "a") })
			},
			wantLog:    "a:1000@1000",
			wantCycles: []uint64{1000},
			wantBusy:   []uint64{1000},
			wantStats:  Stats{Ticks: 2},
		},
		{
			// 1500 cycles: 1000 in tick 0, 500 in tick 1, where the body
			// goes on with 500 cycles of the tick left (Op fits: 510).
			name: "beyond", cores: 1, smt: 1,
			spawn: func(m *Machine, log logf) {
				m.Spawn("a", func(p *Proc) { p.Work(1490); log(p, "a"); p.Op(); log(p, "a") })
			},
			wantLog:    "a:1500@1000 a:1510@1000",
			wantCycles: []uint64{1510},
			wantBusy:   []uint64{1510},
			wantStats:  Stats{Ticks: 2},
		},
		{
			// 3500 cycles span ticks 0..3.
			name: "several ticks", cores: 1, smt: 1,
			spawn: func(m *Machine, log logf) {
				m.Spawn("a", func(p *Proc) { p.Work(3490); log(p, "a") })
			},
			wantLog:    "a:3500@3000",
			wantCycles: []uint64{3500},
			wantBusy:   []uint64{3500},
			wantStats:  Stats{Ticks: 4},
		},
		{
			// Three 300-cycle segments fit tick 0; the fourth crosses
			// into tick 1 (100 + 200).
			name: "several segments", cores: 1, smt: 1,
			spawn: func(m *Machine, log logf) {
				m.Spawn("a", func(p *Proc) {
					for i := 0; i < 4; i++ {
						p.Work(290)
						log(p, "a")
					}
				})
			},
			wantLog:    "a:300@0 a:600@0 a:900@0 a:1200@1000",
			wantCycles: []uint64{1200},
			wantBusy:   []uint64{1200},
			wantStats:  Stats{Ticks: 2},
		},
		{
			// a blocks in tick 0 (10 cycles); b's post wakes it (+20). In
			// tick 1 a is switched back in (+30) and its Work(90) costs
			// 100+50, all inside the grant.
			name: "wake and switch penalties", cores: 2, smt: 1,
			spawn: func(m *Machine, log logf) {
				s := m.NewSem("s", 0)
				m.SpawnPinned("a", 0, func(p *Proc) { p.SemWait(s); log(p, "a"); p.Work(90); log(p, "a") })
				m.SpawnPinned("b", 1, func(p *Proc) { p.SemPost(s); log(p, "b") })
			},
			wantLog:    "b:10@0 a:10@1000 a:160@1000",
			wantCycles: []uint64{160, 10},
			wantBusy:   []uint64{160, 10},
			wantStats:  Stats{Ticks: 2, SemWaits: 1, SemPosts: 1, Wakeups: 1, CtxSwitches: 1},
		},
		{
			// a moves itself to core 1 (10 cycles on core 0, +60); in
			// tick 1 core 1 switches it in (+30) and Work(90) costs
			// 100+90 there.
			name: "migration penalty", cores: 2, smt: 1,
			spawn: func(m *Machine, log logf) {
				m.Spawn("a", func(p *Proc) { p.SetAffinity(0, 1); log(p, "a"); p.Work(90); log(p, "a") })
			},
			wantLog:    "a:10@1000 a:200@1000",
			wantCycles: []uint64{200},
			wantBusy:   []uint64{10, 190},
			wantStats:  Stats{Ticks: 2, Migrations: 1, CtxSwitches: 1},
		},
		{
			// Two contexts share a core: 1000*1.5/2 = 750 cycles each. a's
			// 750 is an exact fit; b's 710 is inside and its next 110
			// crosses (40 + 70).
			name: "smt share k=2", cores: 1, smt: 2,
			spawn: func(m *Machine, log logf) {
				m.Spawn("a", func(p *Proc) { p.Work(740); log(p, "a") })
				m.Spawn("b", func(p *Proc) { p.Work(700); log(p, "b"); p.Work(100); log(p, "b") })
			},
			wantLog:    "b:710@0 a:750@1000 b:820@1000",
			wantCycles: []uint64{750, 820},
			wantBusy:   []uint64{1570},
			wantStats:  Stats{Ticks: 2},
		},
		{
			// Shared-state order at an exact-fit boundary: a's first
			// segment and b's second both end exactly on the grant, so a1
			// and b2 happen in tick 1, after everything of tick 0.
			name: "exact fit interleaving", cores: 2, smt: 1,
			spawn: func(m *Machine, log logf) {
				m.Spawn("a", func(p *Proc) { log(p, "a"); p.Work(990); log(p, "a"); p.Work(90); log(p, "a") })
				m.Spawn("b", func(p *Proc) { log(p, "b"); p.Work(490); log(p, "b"); p.Work(490); log(p, "b") })
			},
			wantLog:    "a:0@0 b:0@0 b:500@0 a:1000@1000 a:1100@1000 b:1000@1000",
			wantCycles: []uint64{1100, 1000},
			wantBusy:   []uint64{1100, 1000},
			wantStats:  Stats{Ticks: 2},
		},
		// WorkN(c, n): up to n Work(c) calls charged as one. The name
		// logged after it carries the count it returned.
		{
			// Five 100-cycle segments end at 500 < 1000: all five.
			name: "workn all inside", cores: 1, smt: 1,
			spawn: func(m *Machine, log logf) {
				m.Spawn("a", func(p *Proc) { log(p, worked("a", p.WorkN(90, 5))) })
			},
			wantLog:    "a=5:500@0",
			wantCycles: []uint64{500},
			wantBusy:   []uint64{500},
			wantStats:  Stats{Ticks: 1},
		},
		{
			// The tenth segment would end exactly on the grant, and what
			// follows an exact fit belongs to the next tick: nine are
			// charged, and the tenth, issued as Work, goes to the scheduler.
			name: "workn exact fit excluded", cores: 1, smt: 1,
			spawn: func(m *Machine, log logf) {
				m.Spawn("a", func(p *Proc) { log(p, worked("a", p.WorkN(90, 10))); p.Work(90); log(p, "a") })
			},
			wantLog:    "a=9:900@0 a:1000@1000",
			wantCycles: []uint64{1000},
			wantBusy:   []uint64{1000},
			wantStats:  Stats{Ticks: 2},
		},
		{
			// As in "wake and switch penalties": a comes back in tick 1
			// owing 20+30 cycles, which ride on the first segment, so only
			// (1000-50-1)/100 = 9 of the 20 fit: 950 cycles.
			name: "workn penalty on the first segment", cores: 2, smt: 1,
			spawn: func(m *Machine, log logf) {
				s := m.NewSem("s", 0)
				m.SpawnPinned("a", 0, func(p *Proc) { p.SemWait(s); log(p, "a"); log(p, worked("a", p.WorkN(90, 20))) })
				m.SpawnPinned("b", 1, func(p *Proc) { p.SemPost(s); log(p, "b") })
			},
			wantLog:    "b:10@0 a:10@1000 a=9:960@1000",
			wantCycles: []uint64{960, 10},
			wantBusy:   []uint64{960, 10},
			wantStats:  Stats{Ticks: 2, SemWaits: 1, SemPosts: 1, Wakeups: 1, CtxSwitches: 1},
		},
		{
			// Room for nine, asked for three, twice.
			name: "workn fewer than fit", cores: 1, smt: 1,
			spawn: func(m *Machine, log logf) {
				m.Spawn("a", func(p *Proc) { log(p, worked("a", p.WorkN(90, 3))); log(p, worked("a", p.WorkN(90, 3))) })
			},
			wantLog:    "a=3:300@0 a=3:600@0",
			wantCycles: []uint64{600},
			wantBusy:   []uint64{600},
			wantStats:  Stats{Ticks: 1},
		},
		{
			// With a 2000-cycle context switch a comes back owing 2020
			// cycles, more than a whole grant: nothing fits, WorkN charges
			// nothing and leaves the debt where it was. The Work(90) after
			// it pays 100+2020 over ticks 1..3.
			name: "workn grant within the penalty", cores: 2, smt: 1,
			tweak: func(cfg *Config) { cfg.CtxSwitchCycles = 2000 },
			spawn: func(m *Machine, log logf) {
				s := m.NewSem("s", 0)
				m.SpawnPinned("a", 0, func(p *Proc) {
					p.SemWait(s)
					log(p, worked("a", p.WorkN(90, 5)))
					p.Work(90)
					log(p, "a")
				})
				m.SpawnPinned("b", 1, func(p *Proc) { p.SemPost(s); log(p, "b") })
			},
			wantLog:    "b:10@0 a=0:10@1000 a:2130@3000",
			wantCycles: []uint64{2130, 10},
			wantBusy:   []uint64{2130, 10},
			wantStats:  Stats{Ticks: 4, SemWaits: 1, SemPosts: 1, Wakeups: 1, CtxSwitches: 1},
		},
		{
			// Two contexts, 750 cycles each: seven of a's 100-cycle
			// segments fit, four of b's 150-cycle ones (the fifth would be
			// an exact fit and is paid through the scheduler).
			name: "workn smt share k=2", cores: 1, smt: 2,
			spawn: func(m *Machine, log logf) {
				m.Spawn("a", func(p *Proc) { log(p, worked("a", p.WorkN(90, 10))) })
				m.Spawn("b", func(p *Proc) { log(p, worked("b", p.WorkN(140, 10))); p.Work(140); log(p, "b") })
			},
			wantLog:    "a=7:700@0 b=4:600@0 b:750@1000",
			wantCycles: []uint64{700, 750},
			wantBusy:   []uint64{1450},
			wantStats:  Stats{Ticks: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := grantCfg(tc.cores, tc.smt)
			if tc.tweak != nil {
				tc.tweak(&cfg)
			}
			m := mustNew(t, cfg)
			var log []string
			tc.spawn(m, func(p *Proc, name string) {
				log = append(log, fmt.Sprintf("%s:%d@%d", name, p.t.cycles, p.NowCycles()))
			})
			mustRun(t, m)
			if got := strings.Join(log, " "); got != tc.wantLog {
				t.Errorf("log = %q, want %q", got, tc.wantLog)
			}
			for i, want := range tc.wantCycles {
				if got := m.threads[i].cycles; got != want {
					t.Errorf("thread %d cycles = %d, want %d", i, got, want)
				}
			}
			for i, want := range tc.wantBusy {
				if got := m.CoreBusyCycles(i); got != want {
					t.Errorf("core %d busy = %d, want %d", i, got, want)
				}
			}
			if got := m.Stats(); !reflect.DeepEqual(got, tc.wantStats) {
				t.Errorf("stats = %+v, want %+v", got, tc.wantStats)
			}
		})
	}
}

// worked names a WorkN log entry after the count it returned.
func worked(name string, k int) string { return fmt.Sprintf("%s=%d", name, k) }

// settledGoroutines waits for goroutines that are on their way out and
// returns the count.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// goroutineBaseline is the count to hold a run against. Goroutines of
// whatever ran just before — the previous subtest's own, for one — may
// still be on their way out, so it waits, as settledGoroutines does,
// until the count has stopped falling.
func goroutineBaseline() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		was := n
		if n = runtime.NumGoroutine(); n >= was {
			break
		}
	}
	return n
}

// TestFailedRunsLeakNoGoroutines checks that every way a run can end
// early takes the threads' goroutines with it.
func TestFailedRunsLeakNoGoroutines(t *testing.T) {
	spin := func(p *Proc) {
		for {
			p.Work(100)
		}
	}
	cases := []struct {
		name  string
		setup func(cfg *Config)
		spawn func(m *Machine)
		run   func(m *Machine) error
		want  string
	}{
		{
			name: "body panic",
			spawn: func(m *Machine) {
				m.Spawn("spin", spin)
				m.Spawn("boom", func(p *Proc) { p.Work(5000); panic("kaboom") })
			},
			want: "kaboom",
		},
		{
			name: "deadlock",
			spawn: func(m *Machine) {
				s := m.NewSem("never", 0)
				m.Spawn("a", func(p *Proc) { p.SemWait(s) })
				m.Spawn("b", func(p *Proc) { p.Work(5000); p.SemWait(s) })
			},
			want: "deadlock",
		},
		{
			name:  "max ticks",
			setup: func(cfg *Config) { cfg.MaxTicks = 10 },
			spawn: func(m *Machine) { m.Spawn("a", spin); m.Spawn("b", spin) },
			want:  "MaxTicks",
		},
		{
			name:  "context cancel",
			spawn: func(m *Machine) { m.Spawn("a", spin); m.Spawn("b", spin) },
			run: func(m *Machine) error {
				ctx, cancel := context.WithCancel(context.Background())
				m.SetOnCancel(func() {})
				cancel()
				return m.RunContext(ctx)
			},
			want: "context canceled",
		},
		{
			// One context, and the first thread panics in tick 0: the
			// other two never get to run.
			name: "threads that never ran",
			spawn: func(m *Machine) {
				m.Spawn("boom", func(p *Proc) { panic("early") })
				m.Spawn("b", spin)
				m.Spawn("c", spin)
			},
			want: "early",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := goroutineBaseline()
			cfg := grantCfg(1, 1)
			cfg.MaxTicks = 1 << 20
			if tc.setup != nil {
				tc.setup(&cfg)
			}
			m := mustNew(t, cfg)
			tc.spawn(m)
			run := tc.run
			if run == nil {
				run = (*Machine).Run
			}
			err := run(m)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
			// Only growth is a leak: a goroutine the baseline still counted
			// may have gone since.
			if got := settledGoroutines(base); got > base {
				t.Fatalf("%d goroutines after the run, %d before it", got, base)
			}
		})
	}
}

// TestSteadyStateRunAllocatesNothing is the over-subscribed steady
// state: 128 threads on 16 contexts, every tick re-queueing preempted
// threads. Once the run queues have grown to size, neither enqueue nor
// anything else in the machine may allocate. MemStats.Mallocs is
// process-wide and the runtime's own goroutines allocate now and then
// (one window in ten read 6 under -race), but they only ever add: the
// steady state is cut into consecutive windows of the same run and the
// quietest must read 0, which an allocation per enqueue, in every
// window, still fails.
func TestSteadyStateRunAllocatesNothing(t *testing.T) {
	cfg := KNL7230()
	cfg.Cores, cfg.SMTWidth = 8, 2
	m := mustNew(t, cfg)
	const warm, window, windows = 200, 200, 5
	var marks [windows + 1]runtime.MemStats
	for i := 0; i < 128; i++ {
		m.Spawn("w", func(p *Proc) {
			for k := 0; k <= warm+window*windows; k++ {
				p.Work(5000)
				if p.ID() == 0 && k >= warm && (k-warm)%window == 0 {
					runtime.ReadMemStats(&marks[(k-warm)/window])
				}
			}
		})
	}
	mustRun(t, m)
	if m.Stats().Preempts == 0 {
		t.Fatal("no preemptions: the run queues were never exercised")
	}
	var perWindow [windows]uint64
	for i := range perWindow {
		perWindow[i] = marks[i+1].Mallocs - marks[i].Mallocs
	}
	if n := slices.Min(perWindow[:]); n != 0 {
		t.Fatalf("allocations per steady-state window of an over-subscribed run %v, want a window with 0", perWindow)
	}
}

// The machine's three unit costs, so `make bench` sees the layer
// without bench/: a work segment charged inside the grant, a segment
// that needs the scheduler (one coroutine switch each way), and a
// semaphore ping-pong between two cores (block, wake, switch in).

func BenchmarkProcWorkInGrant(b *testing.B) {
	cfg := testCfg(1, 1)
	cfg.MaxTicks = 0
	m, _ := New(cfg)
	n := b.N
	m.Spawn("w", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Op()
		}
	})
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkHandoff(b *testing.B) {
	cfg := testCfg(1, 1)
	cfg.MaxTicks = 0
	m, _ := New(cfg)
	n := b.N
	m.Spawn("w", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Yield()
		}
	})
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSemPingPong(b *testing.B) {
	cfg := testCfg(2, 1)
	cfg.MaxTicks = 0
	m, _ := New(cfg)
	ping, pong := m.NewSem("ping", 0), m.NewSem("pong", 0)
	n := b.N
	m.SpawnPinned("a", 0, func(p *Proc) {
		for i := 0; i < n; i++ {
			p.SemPost(ping)
			p.SemWait(pong)
		}
	})
	m.SpawnPinned("b", 1, func(p *Proc) {
		for i := 0; i < n; i++ {
			p.SemWait(ping)
			p.SemPost(pong)
		}
	})
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}
