package ggpdes

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ggpdes/internal/checkpoint"
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

// lazyTrafficCfg is a small Traffic run under lazy cancellation, the
// one engine path neither benchmark config takes.
func lazyTrafficCfg() Config {
	return Config{
		Model: Traffic{LPsPerThread: 4, CenterStartEvents: 6}, Threads: 4, System: DDPDES, GVT: Barrier,
		EndTime: 12, GVTFrequency: 20, ZeroCounterThreshold: 100, LazyCancellation: true,
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

// TestQueueKindsIdenticalResults holds the three pending-set structures
// to each other: (Ts, Seq) is a total order, so a splay tree, a binary
// heap and a calendar queue that are each correct return the same
// Results — every count, cycle, histogram percentile and pool counter —
// on the benchmark's engine-bound, rollback-bound and checkpointed
// shapes and under lazy cancellation. Three independent structures
// vouch for each other's ordering rule.
func TestQueueKindsIdenticalResults(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"phold-sync", benchPholdSyncCfg()},
		{"traffic-oversub-rollback", benchTrafficCfg()},
		{"epidemics-ckpt-resume", ckptBenchCfg(t.TempDir())},
		{"traffic-lazy", lazyTrafficCfg()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = 7
			var splay *Results
			for _, q := range []Queue{SplayQueue, HeapQueue, CalendarQueue} {
				cfg.Queue = q
				if cfg.Checkpoint != nil {
					cfg.Checkpoint = &CheckpointOptions{Every: cfg.Checkpoint.Every, Dir: t.TempDir()}
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%v: %v", q, err)
				}
				if q == SplayQueue {
					splay = res
					if res.CommittedEvents == 0 || res.Rollbacks == 0 || res.Counters["tw.pool.event_hit"] == 0 {
						t.Fatalf("vacuous comparison: %d committed, %d rollbacks, %d pool hits",
							res.CommittedEvents, res.Rollbacks, res.Counters["tw.pool.event_hit"])
					}
					continue
				}
				diffResults(t, "splay", q.String(), splay, res)
			}
		})
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

// TestRunAllocsPerCommittedEvent is the benchmark's
// allocs_per_committed_event (whole-Run mallocs over committed events,
// from runtime.MemStats) as a tier-1 tripwire. The benchmark's runs are
// all warm-up — a pool only hands back what fossil collection has fed
// it — so what a pool miss costs is what a run costs: with one heap
// object per missed event, snapshot, first send and queue node these
// read 2.96 and 0.22; with misses carved from chunks 0.17 and 0.05;
// with each KP's history linked through its events and the snapshots
// in one store per peer, so that no history or freelist grows a slice
// per LP, 0.140 and 0.021. The ceilings are about 1.25 times that.
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
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
// one snapshot store per peer 0.57 and 0.32. The ceilings are about
// 1.25 times that.
func TestCheckpointedRunAllocsPerCommittedEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short")
	}
	const ckptCeiling, plainCeiling = 0.72, 0.4
	dir := t.TempDir()
	cfg := ckptBenchCfg(dir)
	var committed uint64
	mallocs := mallocsDuring(func() {
		full, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := Resume(filepath.Join(dir, checkpoint.FileName((len(listCheckpoints(t, dir))+1)/2)))
		if err != nil {
			t.Fatal(err)
		}
		committed = full.CommittedEvents + resumed.CommittedEvents
	})
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
