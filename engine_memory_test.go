package ggpdes

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ggpdes/internal/checkpoint"
	"ggpdes/internal/tw"
)

// The two benchmark configs (bench/ggperf/w_sim.go) the engine's memory
// work is sized on: phold-sync is all event work with a small in-flight
// set, traffic-oversub-rollback completes nine GVT rounds with 77k
// events uncommitted at peak, so a third of its allocations and nearly
// half of its snapshots miss the pools.
func benchPholdSyncCfg() Config {
	return Config{
		Model: PHOLD{LPsPerThread: 16}, Threads: 16, System: Baseline, GVT: Barrier,
		Affinity: ConstantAffinity, Machine: Machine{Cores: 8, SMTWidth: 2, FreqHz: 1.3e9}, EndTime: 400,
		GVTFrequency: 40, ZeroCounterThreshold: 400, OptimismWindow: 10,
	}
}

func benchTrafficCfg() Config {
	return Config{
		Model: Traffic{LPsPerThread: 2}, Threads: 128, System: GGPDES, GVT: WaitFree,
		Affinity: DynamicAffinity, Machine: Machine{Cores: 8, SMTWidth: 2, FreqHz: 1.3e9}, EndTime: 16,
		GVTFrequency: 40, ZeroCounterThreshold: 400,
	}
}

// diffResults reports every Results field on which a and b differ.
func diffResults(t *testing.T, aName, bName string, a, b *Results) {
	t.Helper()
	if reflect.DeepEqual(a, b) {
		return
	}
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < av.NumField(); i++ {
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			t.Errorf("Results.%s differs:\n%s: %+v\n%s: %+v", av.Type().Field(i).Name,
				aName, av.Field(i).Interface(), bName, bv.Field(i).Interface())
		}
	}
}

// TestPoolCountersUnchanged pins the six pool counters of the two
// benchmark configs at seed 1 to the values they had before misses were
// served from chunks (counted at 29616d4): a miss, a hit and a recycle
// are counted where they always were, whatever memory sits behind them.
func TestPoolCountersUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want map[string]uint64
	}{
		{"traffic-oversub-rollback", benchTrafficCfg(), map[string]uint64{
			"tw.pool.event_hit": 170731, "tw.pool.event_miss": 89489, "tw.pool.event_recycled": 250226,
			"tw.pool.state_hit": 101198, "tw.pool.state_miss": 81370, "tw.pool.state_recycled": 182568,
		}},
		{"phold-sync", benchPholdSyncCfg(), map[string]uint64{
			"tw.pool.event_hit": 144849, "tw.pool.event_miss": 5162, "tw.pool.event_recycled": 149710,
			"tw.pool.state_hit": 121689, "tw.pool.state_miss": 4425, "tw.pool.state_recycled": 126114,
		}},
	} {
		cfg := tc.cfg
		cfg.Seed = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for name, want := range tc.want {
			if got := res.Counters[name]; got != want {
				t.Errorf("%s: %s = %d, want %d", tc.name, name, got, want)
			}
		}
	}
}

// The uncommitted-peak gauge is published where the pool counters are
// flushed, at fossil collection and at teardown, not at every new
// high-water mark (77,028 of them in a traffic run, each a lock); the
// run's gauge still reads its peak, on a plain run, a checkpointed one
// and one resumed from its middle snapshot.
func TestUncommittedPeakGaugeReadsThePeak(t *testing.T) {
	dir := t.TempDir()
	traffic := benchTrafficCfg()
	traffic.Seed = 1
	runs := map[string]func() (*Results, error){
		"traffic-oversub-rollback": func() (*Results, error) { return Run(traffic) },
		"epidemics-ckpt-resume":    func() (*Results, error) { return Run(ckptBenchCfg(dir)) },
		"resumed": func() (*Results, error) {
			return Resume(filepath.Join(dir, checkpoint.FileName((len(listCheckpoints(t, dir))+1)/2)))
		},
	}
	for _, name := range []string{"traffic-oversub-rollback", "epidemics-ckpt-resume", "resumed"} {
		res, err := runs[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, ok := res.Gauges[tw.MetricUncommittedPeak]
		if !ok || got != float64(res.PeakUncommittedEvents) || got == 0 {
			t.Errorf("%s: gauge %s = %v (present %t), PeakUncommittedEvents %d",
				name, tw.MetricUncommittedPeak, got, ok, res.PeakUncommittedEvents)
		}
	}
}

// TestHeapHoldsTheQueueKindsReading pins the final reading of the test
// that held the splay tree, the binary heap and the calendar queue to
// identical Results on the benchmark's engine-bound, rollback-bound and
// checkpointed shapes at seed 7 (DESIGN.md §5). The three agreed, so
// the heap-only engine must still reproduce what all three read.
func TestHeapHoldsTheQueueKindsReading(t *testing.T) {
	for _, tc := range []struct {
		name                                       string
		cfg                                        func(dir string) Config
		committed, processed, rollbacks, hit, miss uint64
	}{
		{"phold-sync", func(string) Config { return benchPholdSyncCfg() }, 102389, 122181, 14700, 137296, 4933},
		{"traffic-oversub-rollback", func(string) Config { return benchTrafficCfg() }, 108163, 179946, 6476, 165073, 89836},
		{"epidemics-ckpt-resume", ckptBenchCfg, 15094, 33586, 6656, 19891, 36013},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t.TempDir())
			cfg.Seed = 7
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := [5]uint64{res.CommittedEvents, res.ProcessedEvents, res.Rollbacks,
				res.Counters[tw.MetricPoolEventHit], res.Counters[tw.MetricPoolEventMiss]}
			if want := [5]uint64{tc.committed, tc.processed, tc.rollbacks, tc.hit, tc.miss}; got != want {
				t.Fatalf("committed / processed / rollbacks / event-pool hits / misses = %v, want %v", got, want)
			}
		})
	}
}

// TestRunAllocsPerCommittedEvent is the benchmark's
// allocs_per_committed_event (whole-Run mallocs over committed events,
// from runtime.MemStats) as a tier-1 tripwire. The benchmark's runs are
// all warm-up — a pool only hands back what fossil collection has fed
// it — so what a pool miss costs is what a run costs: with one heap
// object per missed event, snapshot, first send and queue node these
// read 2.96 and 0.22; with misses carved from chunks 0.17 and 0.05;
// with each LP's history linked through its events and the snapshots
// in one store per peer, so that no history or freelist grows a slice
// per LP, 0.140 and 0.021; with one store per engine behind the same
// counts 0.102 and 0.016. The ceilings are about 1.25 times 0.140 and
// 0.021.
func TestRunAllocsPerCommittedEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short")
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		ceiling float64
	}{
		{"traffic-oversub-rollback", benchTrafficCfg(), 0.175},
		{"phold-sync", benchPholdSyncCfg(), 0.027},
	} {
		cfg := tc.cfg
		cfg.Seed = 1
		var res *Results
		var err error
		mallocs := mallocsDuring(func() { res, err = Run(cfg) })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		perEvent := float64(mallocs) / float64(res.CommittedEvents)
		t.Logf("%s: %.3f allocations per committed event (ceiling %.3f)", tc.name, perEvent, tc.ceiling)
		if perEvent > tc.ceiling {
			t.Errorf("%s: %.3f allocations per committed event exceeds %.3f: a pool miss or a history reaches the allocator again (internal/tw/pool.go, lp.go)",
				tc.name, perEvent, tc.ceiling)
		}
	}
}

// mallocsDuring is the number of heap objects the process allocated
// while f ran.
func mallocsDuring(f func()) uint64 {
	mallocs, _ := allocDuring(f)
	return mallocs
}

// allocDuring is the number of heap objects, and of bytes, the process
// allocated while f ran.
func allocDuring(f func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// runAndResumeMiddle makes the benchmark's epidemics-ckpt-resume call
// pair in dir — a checkpointed Run of its config, then Resume from the
// middle snapshot — and returns the committed events of both.
func runAndResumeMiddle(t *testing.T, dir string) uint64 {
	full, err := Run(ckptBenchCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(filepath.Join(dir, checkpoint.FileName((len(listCheckpoints(t, dir))+1)/2)))
	if err != nil {
		t.Fatal(err)
	}
	return full.CommittedEvents + resumed.CommittedEvents
}

// TestCheckpointedRunAllocsPerCommittedEvent is the same tripwire for
// the benchmark's epidemics-ckpt-resume workload, by the benchmark's
// definition: the mallocs of a checkpointed Run and of Resume from its
// middle snapshot, over the committed events of both. A boundary that
// rebuilds what the quiesced engine still holds shows here first. With
// every segment decoding its LP states into fresh objects and building
// its own telemetry registry, a heap array per household snapshot and
// every multi-send list grown by the allocator, this read 3.13 (3.22 in
// the benchmark, whose loop allocates a little itself) and the same
// config without checkpoints 2.17; with the states riding the spare set
// and one registry per run 2.15, with the household's agents inside its
// state 1.55 and 1.37, with send windows carved from a per-peer chunk
// 1.07 and 0.96, with the histories linked through their events and
// one snapshot store per peer 0.57 and 0.32, with the pending heaps
// handed over sorted and a boundary's arrays reused 0.49 and 0.31, and
// with one store per engine 0.45 and 0.27. The ceilings are about 1.25
// times 0.49 and 0.31.
func TestCheckpointedRunAllocsPerCommittedEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short")
	}
	const ckptCeiling, plainCeiling = 0.62, 0.4
	dir := t.TempDir()
	cfg := ckptBenchCfg(dir)
	var committed uint64
	mallocs := mallocsDuring(func() { committed = runAndResumeMiddle(t, dir) })
	perEvent := float64(mallocs) / float64(committed)
	t.Logf("checkpointed run + resume: %.3f allocations per committed event (ceiling %.2f)", perEvent, ckptCeiling)
	if perEvent > ckptCeiling {
		t.Errorf("checkpointed run + resume: %.3f allocations per committed event exceeds %.2f: a boundary rebuilds what the engine it quiesced still holds (internal/tw/spare.go, the registry in run.go)",
			perEvent, ckptCeiling)
	}
	cfg.Checkpoint = nil
	var plain *Results
	mallocs = mallocsDuring(func() {
		var err error
		if plain, err = Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	perEvent = float64(mallocs) / float64(plain.CommittedEvents)
	t.Logf("plain epidemics run: %.3f allocations per committed event (ceiling %.2f)", perEvent, plainCeiling)
	if perEvent > plainCeiling {
		t.Errorf("plain epidemics run: %.3f allocations per committed event exceeds %.2f: a household snapshot or a send list reaches the allocator again (internal/models/epidemics.go, appendSent in internal/tw/pool.go)",
			perEvent, plainCeiling)
	}
}

// TestCheckpointedRunBytesPerCommittedEvent is the byte tripwire beside
// the count: the bytes a checkpointed Run of the benchmark's config and
// Resume from its middle snapshot allocate, over the committed events of
// both. A boundary that allocates afresh what the previous one left
// behind — record and LP state arrays, a pending heap pushed again, an
// encode buffer per file — shows here although it is a few large
// objects and the count hardly moves. With every boundary popping its
// heap, copying the events into records and pushing them back, and
// allocating its capture and its file's bytes anew, this read 538
// bytes; with the heap handed over sorted and the capture, the arrays
// and the encode buffer reused, 332; with one pool store per engine,
// 267. The ceiling is about 1.25 times 332.
func TestCheckpointedRunBytesPerCommittedEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short")
	}
	const ceiling = 415.0
	var committed uint64
	_, bytes := allocDuring(func() { committed = runAndResumeMiddle(t, t.TempDir()) })
	perEvent := float64(bytes) / float64(committed)
	t.Logf("checkpointed run + resume: %.0f bytes allocated per committed event (ceiling %.0f)", perEvent, ceiling)
	if perEvent > ceiling {
		t.Errorf("checkpointed run + resume: %.0f bytes allocated per committed event exceeds %.0f: a boundary allocates again what the one before it left behind (internal/tw/spare.go, the writer in run.go)",
			perEvent, ceiling)
	}
}
