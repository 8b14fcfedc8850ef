package ggpdes

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// quickCfg returns a small, fast configuration for API tests.
func quickCfg() Config {
	return Config{
		Model:                PHOLD{LPsPerThread: 4, Imbalance: 2},
		Threads:              8,
		System:               GGPDES,
		GVT:                  WaitFree,
		EndTime:              30,
		Machine:              SmallMachine(),
		GVTFrequency:         20,
		ZeroCounterThreshold: 60,
	}
}

func TestRunValidation(t *testing.T) {
	cases := []Config{
		{},                                       // no model
		{Model: PHOLD{}, Threads: 0, EndTime: 1}, // no threads
		{Model: PHOLD{}, Threads: 1, EndTime: 0}, // no end time
		{Model: PHOLD{LPsPerThread: 1, Imbalance: 3}, Threads: 4, EndTime: 1, Machine: SmallMachine()}, // bad imbalance
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunQuickstart(t *testing.T) {
	res, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.CommittedEvents == 0 || res.CommittedEventRate <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	if res.FinalGVT < 30 {
		t.Fatalf("simulation incomplete: GVT %v", res.FinalGVT)
	}
	if res.WallClockSeconds <= 0 || res.TotalCycles == 0 {
		t.Fatal("machine metrics missing")
	}
	if res.GVTRounds == 0 || res.GVTCPUSeconds <= 0 {
		t.Fatal("GVT metrics missing")
	}
	if res.FinalGVTFrequency != 20 {
		t.Fatalf("FinalGVTFrequency = %d, want the configured 20", res.FinalGVTFrequency)
	}
	if res.PeakUncommittedEvents <= 0 {
		t.Fatal("no memory accounting")
	}
}

// Results' JSON form is a contract: the serving layer caches it and the
// benchmark's result digests hash it, key order included. Its top-level
// keys are pinned here, in the order they are written, so a change shows
// up in tier 1 and not first as a digest mismatch. LazyReused and
// LazyCancelled are always 0 and stay for this reason alone.
func TestResultsJSONShape(t *testing.T) {
	data, err := json.Marshal(&Results{})
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"CommittedEvents", "CommittedEventRate", "ProcessedEvents", "RolledBackEvents",
		"Rollbacks", "Stragglers", "AntiMessages", "LazyReused", "LazyCancelled",
		"WallClockSeconds", "GVTCPUSeconds", "GVTRounds", "TotalCycles",
		"Deactivations", "Activations", "LockContention", "Repins",
		"ContextSwitches", "Migrations", "CrossNodeMigrations", "Preempts",
		"PeakUncommittedEvents", "FinalGVT", "FinalGVTFrequency", "TraceSummary", "InactiveFraction",
		"RollbackDepth", "GVTRoundLatencyCycles", "CommitBatch", "DescheduleSpanCycles",
		"Counters", "Gauges", "Histograms",
	}
	if strings.Join(keys, " ") != strings.Join(want, " ") {
		t.Errorf("Results JSON keys\n got %q\nwant %q", keys, want)
	}
}

func TestResultsDerivedMetrics(t *testing.T) {
	res, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.GVTCPUSecondsPerRound() <= 0 {
		t.Fatal("per-round GVT time missing")
	}
	if e := res.Efficiency(); e <= 0 || e > 1 {
		t.Fatalf("efficiency = %v", e)
	}
	zero := &Results{}
	if zero.GVTCPUSecondsPerRound() != 0 || zero.Efficiency() != 0 {
		t.Fatal("zero-value derived metrics should be 0")
	}
}

func TestAllModelsRunThroughAPI(t *testing.T) {
	cfgs := []Config{
		{Model: PHOLD{LPsPerThread: 4}, Threads: 4, EndTime: 20},
		{Model: Epidemics{LPsPerThread: 8, LockdownGroups: 4, ContactRate: 3, TransmissionProb: 0.5}, Threads: 4, EndTime: 20},
		{Model: Traffic{LPsPerThread: 4, CenterStartEvents: 6}, Threads: 4, EndTime: 10},
	}
	for _, cfg := range cfgs {
		cfg.Machine = SmallMachine()
		cfg.GVTFrequency = 20
		cfg.ZeroCounterThreshold = 60
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Model.Name(), err)
		}
		if res.CommittedEvents == 0 {
			t.Fatalf("%s committed nothing", cfg.Model.Name())
		}
	}
}

func TestModelNames(t *testing.T) {
	cases := map[string]Model{
		"phold":               PHOLD{},
		"phold-1-4":           PHOLD{Imbalance: 4},
		"phold-1-8-nonlinear": PHOLD{Imbalance: 8, NonLinear: true},
		"epidemics-3-4":       Epidemics{},
		"epidemics-7-8":       Epidemics{LockdownGroups: 8},
		"traffic-0.35":        Traffic{},
		"traffic-0.50":        Traffic{DensityGradient: 0.5},
	}
	for want, m := range cases {
		if got := m.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if Baseline.String() != "baseline" || GGPDES.String() != "gg-pdes" {
		t.Fatal("system strings wrong")
	}
	if Barrier.String() != "barrier" || WaitFree.String() != "waitfree" {
		t.Fatal("gvt strings wrong")
	}
	if NoAffinity.String() != "none" || DynamicAffinity.String() != "dynamic" {
		t.Fatal("affinity strings wrong")
	}
}

func TestMachinePresets(t *testing.T) {
	knl := KNL7230()
	if knl.Cores != 64 || knl.SMTWidth != 4 {
		t.Fatalf("KNL preset wrong: %+v", knl)
	}
	small := SmallMachine()
	if small.Cores != 4 || small.SMTWidth != 2 {
		t.Fatalf("small preset wrong: %+v", small)
	}
	// Custom SMT wider than the KNL curve extends it.
	cfg, err := Machine{Cores: 2, SMTWidth: 8}.build()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.SMTAggregate) != 8 {
		t.Fatalf("SMT curve not extended: %v", cfg.SMTAggregate)
	}
}

// Machine.FreqHz only converts cycles to seconds: every clock runs the
// same simulation, cycle for cycle, and reports its wall time as cycles
// over the clock, so the committed event rate scales with the clock. 0
// is the default, 1.3 GHz, the clock quickCfg's machine names.
func TestMachineClockOnlyScalesReports(t *testing.T) {
	ref, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	const refHz = 1.3e9
	if ref.WallClockSeconds <= 0 || ref.CommittedEventRate <= 0 {
		t.Fatalf("reference run reports %v s and %v events/s", ref.WallClockSeconds, ref.CommittedEventRate)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
	for _, tc := range []struct {
		name     string
		freq, hz float64
	}{
		{"default", 0, refHz},
		{"0.65GHz", 0.65e9, 0.65e9},
		{"2.6GHz", 2.6e9, 2.6e9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg()
			cfg.Machine.FreqHz = tc.freq
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalCycles != ref.TotalCycles || res.CommittedEvents != ref.CommittedEvents ||
				res.ProcessedEvents != ref.ProcessedEvents || res.Rollbacks != ref.Rollbacks {
				t.Fatalf("the clock moved the simulation: %d cycles, %d committed, %d processed, %d rollbacks; at %v Hz %d, %d, %d, %d",
					res.TotalCycles, res.CommittedEvents, res.ProcessedEvents, res.Rollbacks,
					refHz, ref.TotalCycles, ref.CommittedEvents, ref.ProcessedEvents, ref.Rollbacks)
			}
			if !near(res.WallClockSeconds*tc.hz, ref.WallClockSeconds*refHz) {
				t.Errorf("wall clock %v s at %v Hz, %v s at %v Hz: not the same cycles", res.WallClockSeconds, tc.hz, ref.WallClockSeconds, refHz)
			}
			if !near(res.CommittedEventRate*refHz, ref.CommittedEventRate*tc.hz) {
				t.Errorf("committed event rate %v at %v Hz, %v at %v Hz: does not scale with the clock", res.CommittedEventRate, tc.hz, ref.CommittedEventRate, refHz)
			}
		})
	}
}

func TestDeterministicAPIRuns(t *testing.T) {
	a, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.CommittedEvents != b.CommittedEvents || a.WallClockSeconds != b.WallClockSeconds ||
		a.TotalCycles != b.TotalCycles {
		t.Fatalf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestSeedChangesTrajectory(t *testing.T) {
	cfg := quickCfg()
	cfg.Seed = 1
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CommittedEvents == b.CommittedEvents && a.TotalCycles == b.TotalCycles {
		t.Fatal("different seeds produced identical runs")
	}
}

// The headline claim, miniaturized: on an imbalanced model, GG-PDES
// (Async) must beat Baseline-Async in committed event rate and execute
// fewer total cycles.
func TestGGBeatsBaselineAsyncOnImbalance(t *testing.T) {
	run := func(sys System) *Results {
		cfg := Config{
			Model:                PHOLD{LPsPerThread: 4, Imbalance: 4},
			Threads:              16,
			System:               sys,
			GVT:                  WaitFree,
			EndTime:              60,
			Machine:              SmallMachine(),
			GVTFrequency:         20,
			ZeroCounterThreshold: 60,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(Baseline)
	gg := run(GGPDES)
	if gg.Deactivations == 0 {
		t.Fatal("GG never deactivated")
	}
	if gg.TotalCycles >= base.TotalCycles {
		t.Fatalf("GG cycles %d not below baseline %d", gg.TotalCycles, base.TotalCycles)
	}
	if gg.CommittedEventRate <= base.CommittedEventRate {
		t.Fatalf("GG rate %.0f not above baseline %.0f", gg.CommittedEventRate, base.CommittedEventRate)
	}
}

func TestTraceRecordsRun(t *testing.T) {
	var csv bytes.Buffer
	cfg := quickCfg()
	cfg.Model = PHOLD{LPsPerThread: 4, Imbalance: 4}
	cfg.Threads = 16
	cfg.EndTime = 60
	cfg.Trace = &TraceOptions{CSV: &csv}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceSummary == "" {
		t.Fatal("no trace summary")
	}
	for _, want := range []string{"gvt updates", "deactivations"} {
		if !strings.Contains(res.TraceSummary, want) {
			t.Fatalf("summary %q missing %q", res.TraceSummary, want)
		}
	}
	if res.Deactivations > 0 && res.InactiveFraction <= 0 {
		t.Fatalf("deactivations %d but inactive fraction %v", res.Deactivations, res.InactiveFraction)
	}
	out := csv.String()
	if !strings.Contains(out, "gvt,") || !strings.Contains(out, "deactivate,") {
		t.Fatalf("csv missing records:\n%.300s", out)
	}
}

// TestSteadyStateAllocsPerEvent is the allocation regression guard for
// the pooled hot path: the *marginal* heap allocations per additional
// committed event — measured by differencing two runs of the same
// configuration at different end times, so engine construction and
// pool warm-up cancel out — must stay below a small budget. Before
// event/snapshot pooling this figure was ~15 allocs/event; with the
// freelists warm it was ~0.3 while every pool miss was a heap object,
// and is ~0.023 with misses carved from chunks (what remains is
// freelist, history and chunk growth as the uncommitted watermark
// wanders). The budget is about twice that: slack for toolchain noise
// while still catching any reintroduced per-event allocation.
func TestSteadyStateAllocsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short")
	}
	const budget = 0.05
	cfg := Config{
		Model: PHOLD{LPsPerThread: 4, Imbalance: 1}, Threads: 16,
		System: GGPDES, GVT: WaitFree, Affinity: ConstantAffinity,
		Machine:      Machine{Cores: 8, SMTWidth: 2, FreqHz: 1.3e9},
		GVTFrequency: 40, ZeroCounterThreshold: 400,
		OptimismWindow: 10, Seed: 1,
	}
	probe := func(end float64) (allocs float64, committed uint64) {
		cfg.EndTime = end
		allocs = testing.AllocsPerRun(2, func() {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			committed = res.CommittedEvents
		})
		return allocs, committed
	}
	shortAllocs, shortEvents := probe(20)
	longAllocs, longEvents := probe(120)
	if longEvents <= shortEvents {
		t.Fatalf("longer run committed fewer events: %d vs %d", longEvents, shortEvents)
	}
	perEvent := (longAllocs - shortAllocs) / float64(longEvents-shortEvents)
	t.Logf("steady-state allocations: %.3f allocs/committed event (budget %.2f)", perEvent, budget)
	if perEvent > budget {
		t.Fatalf("steady-state allocations regressed: %.3f allocs/event exceeds budget %.2f "+
			"(pooled hot path should be allocation-free; see internal/tw/pool.go)", perEvent, budget)
	}
}
