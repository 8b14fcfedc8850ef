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
// counts 0.102 and 0.016, and 0.104 and 0.016 with stores that never
// copy. What was left was construction and growth: a telemetry cell per
// (metric, thread), an InitCtx and a state per LP, a Thread, Proc, Sem,
// Acc and Peer each apart, two objects per snapshot chunk, 64-event
// chunks and input queues grown by append. With those carved from slabs
// and blocks, one-object chunks of up to 1,024 and input queues given
// room, 0.0263 and 0.0046. The ceilings are about 1.25 times that.
// Each config runs once unmeasured first, as a benchmark process's runs
// follow others: a cold first Run also paid what a process allocates
// only once, and read up to 0.0288 and 0.0058 when the test ran alone.
func TestRunAllocsPerCommittedEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short")
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		ceiling float64
	}{
		{"traffic-oversub-rollback", benchTrafficCfg(), 0.033},
		{"phold-sync", benchPholdSyncCfg(), 0.006},
	} {
		cfg := tc.cfg
		cfg.Seed = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mallocs := mallocsDuring(func() { res, err = Run(cfg) })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		perEvent := float64(mallocs) / float64(res.CommittedEvents)
		t.Logf("%s: %.4f allocations per committed event (ceiling %.3f)", tc.name, perEvent, tc.ceiling)
		if perEvent > tc.ceiling {
			t.Errorf("%s: %.3f allocations per committed event exceeds %.3f: a pool miss or a history reaches the allocator again (internal/tw/pool.go, lp.go)",
				tc.name, perEvent, tc.ceiling)
		}
	}
}

// TestRunBytesPerCommittedEvent is the byte tripwire beside the count
// for the traffic config: the bytes a whole Run allocates over its
// committed events. The run is all warm-up — 77k events in flight at
// peak, and every one of them carved once — so this reads what an
// in-flight event costs: with a 152-byte Event, a sent-list slot inside
// it and stores that doubled by copying, 216 bytes (23.4 MB a run);
// with a 120-byte Event, a sent list linked through the events and
// stores that never copy, 146 (15.8 MB); with 1,024-event chunks,
// whole pages with no size-class slack, and construction carved from
// slabs, 140. The ceiling is about 1.25 times 140.
func TestRunBytesPerCommittedEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short")
	}
	const ceiling = 175.0
	cfg := benchTrafficCfg()
	cfg.Seed = 1
	var res *Results
	var err error
	_, bytes := allocDuring(func() { res, err = Run(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	perEvent := float64(bytes) / float64(res.CommittedEvents)
	t.Logf("traffic-oversub-rollback: %.0f bytes allocated per committed event (ceiling %.0f)", perEvent, ceiling)
	if perEvent > ceiling {
		t.Errorf("traffic-oversub-rollback: %.0f bytes allocated per committed event exceeds %.0f: an in-flight event costs more than its 120 bytes and its snapshot again — a larger Event, a send list or a store array that grows by copying (internal/tw/event.go, pool.go)",
			perEvent, ceiling)
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

// warmPair is the benchmark's epidemics-ckpt-resume call pair measured
// the second time a process makes it: the heap objects and bytes the
// second pair allocates, and the committed events of both its calls.
// The first pair pays what a process allocates only once — the JSON
// codec's type cache, reflect's array types — so that the reading does
// not depend on which tests ran before it.
func warmPair(t *testing.T) (mallocs, bytes, committed uint64) {
	runAndResumeMiddle(t, t.TempDir())
	dir := t.TempDir()
	mallocs, bytes = allocDuring(func() { committed = runAndResumeMiddle(t, dir) })
	return mallocs, bytes, committed
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
// handed over sorted and a boundary's arrays reused 0.49 and 0.31, with
// one store per engine 0.45 and 0.27, and with send lists linked
// through the events and stores that never copy 0.47 and 0.26, and with
// the LP states, telemetry cells, machine threads and peers carved from
// slabs, one-object snapshot chunks of up to 1,024 and input queues
// given room 0.25 and 0.036 — 0.28 when the pair was the process's
// first, which is why it is now measured warm (warmPair): 0.250 on a
// warm pair. With every segment's machine starting on the previous
// one's parked coroutines and queues, and Resume decoding its LP states
// into one block, 0.120, alone and in the package run alike. The
// ceilings are about 1.25 times 0.120 and 0.036.
func TestCheckpointedRunAllocsPerCommittedEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short")
	}
	const ckptCeiling, plainCeiling = 0.15, 0.045
	mallocs, _, committed := warmPair(t)
	perEvent := float64(mallocs) / float64(committed)
	t.Logf("checkpointed run + resume: %.4f allocations per committed event (ceiling %.3f)", perEvent, ckptCeiling)
	if perEvent > ckptCeiling {
		t.Errorf("checkpointed run + resume: %.3f allocations per committed event exceeds %.2f: a boundary rebuilds what the engine or machine it finished still holds (internal/tw/spare.go, machine.Spare, the registry in run.go)",
			perEvent, ckptCeiling)
	}
	cfg := ckptBenchCfg("")
	cfg.Checkpoint = nil
	var plain *Results
	mallocs = mallocsDuring(func() {
		var err error
		if plain, err = Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	perEvent = float64(mallocs) / float64(plain.CommittedEvents)
	t.Logf("plain epidemics run: %.4f allocations per committed event (ceiling %.3f)", perEvent, plainCeiling)
	if perEvent > plainCeiling {
		t.Errorf("plain epidemics run: %.3f allocations per committed event exceeds %.2f: a household snapshot or a store array reaches the allocator again (internal/models/epidemics.go, internal/tw/pool.go)",
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
// 267; with a 120-byte Event and stores that never copy, 219; with
// construction carved from slabs, 218; measured warm, with the
// coroutines riding and Resume's states decoded into one block, 216.
// The ceiling is about 1.25 times 218.
func TestCheckpointedRunBytesPerCommittedEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short")
	}
	const ceiling = 273.0
	_, bytes, committed := warmPair(t)
	perEvent := float64(bytes) / float64(committed)
	t.Logf("checkpointed run + resume: %.0f bytes allocated per committed event (ceiling %.0f)", perEvent, ceiling)
	if perEvent > ceiling {
		t.Errorf("checkpointed run + resume: %.0f bytes allocated per committed event exceeds %.0f: a boundary allocates again what the one before it left behind (internal/tw/spare.go, the writer in run.go)",
			perEvent, ceiling)
	}
}

// TestPaperPointConstructionAllocs is the construction tripwire: the
// machine, engine and runner of the paper-scale point (make
// paper-point: 1,024 threads on 64x4 contexts, 1-4 PHOLD with 128 LPs
// a thread, Baseline with the wait-free GVT) built as a run's segment
// is. Everything built once per thread or per LP — the peers and their
// heaps and input queues, the telemetry cells, the machine's threads,
// the LP states, the context InitLP is handed — comes from a slab or a
// block, so the heap objects per thread are a small constant. With an
// InitCtx and a state per LP, a cell per (metric, thread) and a Thread,
// Proc and Peer each apart this read 282 per thread (288,813 objects);
// with the slabs it reads 2.66 (2,722 objects: the 1,024 thread names,
// 548 cell blocks, 141 spines, the 128 chunks the 131,072 starting
// events are carved from). The ceiling is 1.5 times that.
func TestPaperPointConstructionAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short")
	}
	const ceiling = 4.0
	cfg := Config{
		Model: PHOLD{LPsPerThread: 128, Imbalance: 4}, Threads: 1024, System: Baseline, GVT: WaitFree,
		Machine: Machine{Cores: 64, SMTWidth: 4, FreqHz: 1.3e9}, EndTime: 30,
		GVTFrequency: 200, OptimismWindow: 10, Seed: 1,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	rs := &runState{cfg: cfg}
	var err error
	mallocs := mallocsDuring(func() { _, err = rs.buildSegment() })
	if err != nil {
		t.Fatal(err)
	}
	perThread := float64(mallocs) / float64(cfg.Threads)
	t.Logf("paper point: %d heap objects to build machine, engine and runner, %.2f per thread (ceiling %.0f)", mallocs, perThread, ceiling)
	if perThread > ceiling {
		t.Errorf("paper point: building machine, engine and runner allocates %.2f heap objects per thread, more than %.0f: something built per thread or per LP is allocated one by one again (internal/slab and its users, tw.NewEngine's InitCtx)",
			perThread, ceiling)
	}
}
