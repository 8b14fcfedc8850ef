package core

import (
	"fmt"
	"reflect"
	"testing"

	"ggpdes/internal/gvt"
	"ggpdes/internal/machine"
	"ggpdes/internal/models"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/trace"
	"ggpdes/internal/tw"
)

// neverFaults is a fault injector that never fires. A configured
// injector is consulted every iteration, so threadBody executes every
// iteration for it: the arm the skipping run is compared against.
type neverFaults struct{}

func (neverFaults) Stalled(int) bool { return false }

// skipCase is one configuration of the skip ≡ execute matrix.
type skipCase struct {
	system    System
	kind      gvt.Kind
	affinity  Affinity
	cores     int // × 2 SMT contexts
	threads   int
	imbalance int
	window    tw.VT
}

func (c skipCase) String() string {
	return fmt.Sprintf("%v/%v/%v/%dx%d/imb%d/win%v",
		c.system, c.kind, c.affinity, c.threads, c.cores*2, c.imbalance, c.window)
}

// skipPrint is everything a run leaves behind that anything reads: the
// machine's counters and clocks, every thread's and core's cycles,
// every peer's statistics, the scheduler's and the GVT algorithm's
// state, every LP, the telemetry registry and the trace.
type skipPrint struct {
	Machine       machine.Stats
	WallSeconds   float64
	ThreadCycles  []uint64
	ThreadStates  []machine.ThreadState
	CoreBusy      []uint64
	Peers         []tw.PeerStats
	Sched         SchedulingStats
	ZeroCounters  []int
	WantDeactive  []bool
	NumActive     int
	Participants  int
	Rounds        uint64
	GVT           tw.VT
	PeakUncommit  int
	LPStates      []tw.State
	LPLVTs        []tw.VT
	Metrics       telemetry.MetricsState
	Records       []trace.Record
	TraceDropped  uint64
	ExecutedIters uint64
	SkippedIters  uint64
}

// buildSkipCase assembles c's machine, engine and runner with a shared
// registry and trace recorder attached; the run is m.Run.
func buildSkipCase(tb testing.TB, c skipCase, seed uint64, faults ThreadFaultInjector) (*machine.Machine, *tw.Engine, *Runner, *telemetry.Registry, *trace.Recorder) {
	tb.Helper()
	mcfg := machine.Small()
	mcfg.Cores = c.cores
	mcfg.MaxTicks = 1 << 22
	m, err := machine.New(mcfg)
	if err != nil {
		tb.Fatal(err)
	}
	const endTime = 40
	model, err := models.NewPHOLD(models.PHOLDConfig{
		Threads: c.threads, LPsPerThread: 2, Imbalance: c.imbalance, EndTime: endTime,
	})
	if err != nil {
		tb.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	rec := trace.New(0)
	rec.Clock = m.NowCycles
	m.SetTrace(rec)
	m.SetTelemetry(reg)
	eng, err := tw.NewEngine(tw.Config{
		NumThreads: c.threads, Model: model, EndTime: endTime, Seed: seed,
		OptimismWindow: c.window, Trace: rec, Telemetry: reg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r, err := NewRunner(Config{
		Machine: m, Engine: eng, System: c.system, GVTKind: c.kind, Affinity: c.affinity,
		GVTFrequency: 20, ZeroCounterThreshold: 60,
		Trace: rec, Telemetry: reg, Faults: faults,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m, eng, r, reg, rec
}

func runSkipCase(t *testing.T, c skipCase, seed uint64, faults ThreadFaultInjector) skipPrint {
	t.Helper()
	m, eng, r, reg, rec := buildSkipCase(t, c, seed, faults)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !eng.Done() {
		t.Fatalf("simulation incomplete, GVT=%v", eng.GVT())
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	pr := skipPrint{
		Machine: m.Stats(), WallSeconds: m.WallSeconds(),
		Sched: r.SchedulingStats(), NumActive: r.NumActive(),
		Participants: r.alg.Participants(), Rounds: r.alg.Rounds(),
		GVT: eng.GVT(), PeakUncommit: eng.PeakUncommittedEvents(),
		Metrics: reg.Snapshot(), Records: rec.Records(), TraceDropped: rec.Dropped(),
	}
	pr.ExecutedIters, pr.SkippedIters = r.LoopIterations()
	for _, th := range m.Threads() {
		pr.ThreadCycles = append(pr.ThreadCycles, th.Cycles())
		pr.ThreadStates = append(pr.ThreadStates, th.State())
	}
	for core := 0; core < c.cores; core++ {
		pr.CoreBusy = append(pr.CoreBusy, m.CoreBusyCycles(core))
	}
	for _, p := range eng.Peers() {
		pr.Peers = append(pr.Peers, p.Stats)
	}
	if d := r.demand; d != nil {
		for _, th := range d.threads {
			pr.ZeroCounters = append(pr.ZeroCounters, th.zeroCounter)
			pr.WantDeactive = append(pr.WantDeactive, th.wantDeactivate)
		}
	}
	for _, lp := range eng.LPs() {
		pr.LPStates = append(pr.LPStates, lp.State())
		pr.LPLVTs = append(pr.LPLVTs, lp.LVT())
	}
	return pr
}

// skipMatrix crosses every system × GVT × affinity combination with
// four shapes of run, so that each of the things the skip's arithmetic
// depends on varies somewhere: one thread per context and eight (CFS
// preemption, switch penalties riding on the first booked flush), a
// balanced model behind an optimism window and a 1-16 imbalanced one
// with and without.
func skipMatrix() []skipCase {
	shapes := []skipCase{
		{cores: 8, threads: 16, imbalance: 1, window: 10},
		{cores: 2, threads: 16, imbalance: 16, window: 0},
		{cores: 2, threads: 32, imbalance: 16, window: 10},
		{cores: 8, threads: 16, imbalance: 4, window: 0},
	}
	var cases []skipCase
	for _, sys := range []System{Baseline, DDPDES, GGPDES} {
		for _, kind := range []gvt.Kind{gvt.Barrier, gvt.WaitFree} {
			for _, aff := range []Affinity{AffinityNone, AffinityConstant, AffinityDynamic} {
				if aff == AffinityDynamic && sys != GGPDES {
					continue
				}
				for _, c := range shapes {
					c.system, c.kind, c.affinity = sys, kind, aff
					cases = append(cases, c)
				}
			}
		}
	}
	return cases
}

// TestSkipAheadMatchesExecution is the skip's oracle: over a matrix of
// configurations, a run that books its idle iterations arithmetically
// and a run that executes every one of them (because a fault injector
// that never fires is configured) leave exactly the same state behind —
// not just the same results, every cycle count on every thread and
// core, every scheduler counter, every metric and every trace record.
func TestSkipAheadMatchesExecution(t *testing.T) {
	var totalSkipped uint64
	for _, c := range skipMatrix() {
		for _, seed := range []uint64{42, 7} {
			t.Run(fmt.Sprintf("%v/seed%d", c, seed), func(t *testing.T) {
				skip := runSkipCase(t, c, seed, nil)
				exec := runSkipCase(t, c, seed, neverFaults{})
				if skip.SkippedIters == 0 {
					t.Fatal("vacuous case: the skipping run skipped nothing")
				}
				if exec.SkippedIters != 0 {
					t.Fatalf("the executing run skipped %d iterations", exec.SkippedIters)
				}
				if got, want := skip.ExecutedIters+skip.SkippedIters, exec.ExecutedIters; got != want {
					t.Errorf("executed %d + skipped %d = %d iterations, the executing run made %d",
						skip.ExecutedIters, skip.SkippedIters, got, want)
				}
				totalSkipped += skip.SkippedIters
				skip.ExecutedIters, skip.SkippedIters = 0, 0
				exec.ExecutedIters, exec.SkippedIters = 0, 0
				sv, ev := reflect.ValueOf(skip), reflect.ValueOf(exec)
				for i := 0; i < sv.NumField(); i++ {
					if !reflect.DeepEqual(sv.Field(i).Interface(), ev.Field(i).Interface()) {
						t.Errorf("%s differs:\nskipping:  %+v\nexecuting: %+v",
							sv.Type().Field(i).Name, sv.Field(i).Interface(), ev.Field(i).Interface())
					}
				}
			})
		}
	}
	t.Logf("%d iterations skipped over the matrix", totalSkipped)
}

// BenchmarkIdlePoll is the layer's unit cost, so `make bench` sees it
// without bench/: host nanoseconds per simulated main-loop iteration of
// a run that mostly polls (1-16 imbalanced PHOLD under Baseline with the
// wait-free GVT: 15 of 16 threads have nothing to do at any time), with
// the idle iterations booked arithmetically and with every one of them
// executed, which is what a never-firing fault injector makes of a run.
func BenchmarkIdlePoll(b *testing.B) {
	c := skipCase{system: Baseline, kind: gvt.WaitFree, affinity: AffinityConstant, cores: 8, threads: 16, imbalance: 16, window: 10}
	arms := []struct {
		name   string
		faults ThreadFaultInjector
	}{{"skipping", nil}, {"executing", neverFaults{}}}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			var executed, skipped uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, _, r, _, _ := buildSkipCase(b, c, 42, arm.faults)
				b.StartTimer()
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
				e, s := r.LoopIterations()
				executed, skipped = executed+e, skipped+s
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(executed+skipped), "ns/sim-iter")
			b.ReportMetric(float64(executed)/float64(b.N), "executed/run")
			b.ReportMetric(float64(skipped)/float64(b.N), "skipped/run")
		})
	}
}
