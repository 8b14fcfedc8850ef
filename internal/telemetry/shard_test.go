package telemetry

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestShardCountersMergeBySum(t *testing.T) {
	r := NewRegistry()
	r.Counter("tw.rollbacks").Add(5) // base cell
	for tid := 0; tid < 4; tid++ {
		r.Shard(tid).Counter("tw.rollbacks").Add(uint64(tid + 1))
	}
	if got := r.Counters()["tw.rollbacks"]; got != 5+1+2+3+4 {
		t.Fatalf("merged counter = %d, want 15", got)
	}
}

func TestShardGaugesMergeByMaxAmongSet(t *testing.T) {
	r := NewRegistry()
	r.Shard(0).Gauge("tw.uncommitted_peak").Max(3)
	r.Shard(2).Gauge("tw.uncommitted_peak").Max(9)
	// tid 1 registered but never set: must not drag the max to 0.
	_ = r.Shard(1).Gauge("tw.uncommitted_peak")
	if got := r.Gauges()["tw.uncommitted_peak"]; got != 9 {
		t.Fatalf("merged gauge = %g, want 9", got)
	}
	st := r.Snapshot().Gauges["tw.uncommitted_peak"]
	if !st.Set || st.Value != 9 {
		t.Fatalf("snapshot gauge = %+v, want {9 true}", st)
	}
}

func TestUnsetGaugeOmitted(t *testing.T) {
	r := NewRegistry()
	_ = r.Gauge("tw.uncommitted_peak")
	_ = r.Shard(3).Gauge("serve.jobs_in_flight")
	if g := r.Gauges(); len(g) != 0 {
		t.Fatalf("Gauges() reports unset gauges: %v", g)
	}
	for name, st := range r.Snapshot().Gauges {
		if st.Set {
			t.Fatalf("snapshot marks unset gauge %q as set", name)
		}
	}
}

// TestShardHistogramMergeExact proves the bucket-wise merge is exact:
// a sharded registry and an unsharded one fed the same observations
// produce identical summaries, which is why determinism-smoke output
// is unaffected by sharding.
func TestShardHistogramMergeExact(t *testing.T) {
	sharded, flat := NewRegistry(), NewRegistry()
	vals := []float64{0, 1, 3, 7, 7, 120, 4096, 1e9}
	for i, v := range vals {
		sharded.Shard(i % 3).Histogram("tw.rollback_depth").Observe(v)
		flat.Histogram("tw.rollback_depth").Observe(v)
	}
	got := sharded.Histograms()["tw.rollback_depth"]
	want := flat.Histograms()["tw.rollback_depth"]
	if got != want {
		t.Fatalf("merged summary diverges from unsharded:\n got %+v\nwant %+v", got, want)
	}
}

func TestShardingDisabledRoutesToBaseCells(t *testing.T) {
	r := NewRegistry()
	r.SetSharding(false)
	a := r.Shard(0).Counter("tw.rollbacks")
	b := r.Shard(7).Counter("tw.rollbacks")
	if a != b || a != r.Counter("tw.rollbacks") {
		t.Fatal("with sharding off, all shard handles must alias the base cell")
	}
}

// Shard cells are carved from blocks the registry owns, and the
// contract holds across blocks: a handle looked up again after later
// blocks were started is the same pointer, two tids' cells for one name
// are at least cellLine bytes apart (a counter or gauge cell is exactly
// one cellLine), and with sharding off every shard resolves to the base
// cells.
func TestShardCellsFromBlocksKeepTheirContract(t *testing.T) {
	r := NewRegistry()
	c0, g0, h0 := r.Shard(0).Counter("tw.rollbacks"), r.Shard(0).Gauge("tw.uncommitted_peak"), r.Shard(0).Histogram("tw.rollback_depth")
	const tids = 4 * cellBlockMax
	for tid := 0; tid < tids; tid++ {
		sh := r.Shard(tid)
		sh.Counter("tw.rollbacks").Add(uint64(tid))
		sh.Counter("tw.anti_messages").Inc()
		sh.Gauge("tw.uncommitted_peak").Max(float64(tid))
		sh.Histogram("tw.rollback_depth").Observe(float64(tid))
	}
	if r.Shard(0).Counter("tw.rollbacks") != c0 || r.Shard(0).Gauge("tw.uncommitted_peak") != g0 ||
		r.Shard(0).Histogram("tw.rollback_depth") != h0 {
		t.Fatal("a handle moved after later blocks were carved")
	}
	apart := func(a, b unsafe.Pointer) bool {
		d := int64(uintptr(a)) - int64(uintptr(b))
		return d >= cellLine || d <= -cellLine
	}
	for tid := 1; tid < tids; tid++ {
		a, b := r.Shard(tid-1), r.Shard(tid)
		if !apart(unsafe.Pointer(a.Counter("tw.rollbacks")), unsafe.Pointer(b.Counter("tw.rollbacks"))) ||
			!apart(unsafe.Pointer(a.Gauge("tw.uncommitted_peak")), unsafe.Pointer(b.Gauge("tw.uncommitted_peak"))) ||
			!apart(unsafe.Pointer(a.Histogram("tw.rollback_depth")), unsafe.Pointer(b.Histogram("tw.rollback_depth"))) {
			t.Fatalf("tids %d and %d: cells for one name less than %d bytes apart", tid-1, tid, cellLine)
		}
	}
	if unsafe.Sizeof(counterCell{}) != cellLine || unsafe.Sizeof(gaugeCell{}) != cellLine {
		t.Fatalf("counter and gauge cells are %d and %d bytes, want %d", unsafe.Sizeof(counterCell{}), unsafe.Sizeof(gaugeCell{}), cellLine)
	}
	if got, want := r.Counters()["tw.rollbacks"], uint64(tids*(tids-1)/2); got != want {
		t.Fatalf("merged counter over %d blocks = %d, want %d", tids/cellBlockMax, got, want)
	}
	if got := r.Histograms()["tw.rollback_depth"].Count; got != tids {
		t.Fatalf("merged histogram counts %d observations, want %d", got, tids)
	}

	off := NewRegistry()
	off.SetSharding(false)
	if off.Shard(3).Counter("tw.rollbacks") != off.Counter("tw.rollbacks") ||
		off.Shard(5).Gauge("tw.uncommitted_peak") != off.Gauge("tw.uncommitted_peak") ||
		off.Shard(7).Histogram("tw.rollback_depth") != off.Histogram("tw.rollback_depth") {
		t.Fatal("with sharding off, shard handles must resolve to the base cells")
	}
}

func TestNilAndZeroShardSafe(t *testing.T) {
	var r *Registry
	s := r.Shard(3)
	s.Counter("x.y").Inc()
	s.Gauge("x.y").Set(1)
	s.Histogram("x.y").Observe(1)
	var zero Shard
	zero.Counter("x.y").Inc()
	if got := r.Shard(-4).tid; got != 0 {
		t.Fatalf("negative tid clamped to %d, want 0", got)
	}
}

func TestShardHandleStableAcrossSpineGrowth(t *testing.T) {
	r := NewRegistry()
	c0 := r.Shard(0).Counter("tw.rollbacks")
	c0.Inc()
	// Growing the spine far past tid 0 must not move tid 0's cell.
	_ = r.Shard(63).Counter("tw.rollbacks")
	c0.Inc()
	if got := r.Counters()["tw.rollbacks"]; got != 2 {
		t.Fatalf("counter lost an increment across spine growth: %d", got)
	}
	if c0 != r.Shard(0).Counter("tw.rollbacks") {
		t.Fatal("re-acquired handle differs from the original")
	}
}

func TestConcurrentShardsAndScrapes(t *testing.T) {
	r := NewRegistry()
	const threads, iters = 8, 2000
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() { // scraper racing the writers
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
				runtime.Gosched()
			}
		}
	}()
	var writers sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		writers.Add(1)
		go func(tid int) {
			defer writers.Done()
			sh := r.Shard(tid)
			for i := 0; i < iters; i++ {
				sh.Counter("tw.rollbacks").Inc()
				sh.Gauge("tw.uncommitted_peak").Max(float64(i))
				sh.Histogram("tw.rollback_depth").Observe(float64(i % 64))
			}
		}(tid)
	}
	writers.Wait()
	close(stop)
	scraper.Wait()
	if got := r.Counters()["tw.rollbacks"]; got != uint64(threads*iters) {
		t.Fatalf("merged counter = %d, want %d", got, threads*iters)
	}
	if got := r.Snapshot().Histograms["tw.rollback_depth"].Count; got != uint64(threads*iters) {
		t.Fatalf("merged histogram count = %d, want %d", got, threads*iters)
	}
}

// benchmarkRegistry drives every parallel worker through its own (or
// the shared) cell set — the contention A/B the benchmark reports as
// telemetry.counter_inc_ns_sharded / _shared.
func benchmarkRegistry(b *testing.B, sharded bool) {
	r := NewRegistry()
	r.SetSharding(sharded)
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		sh := r.Shard(int(next.Add(1) - 1))
		c := sh.Counter("tw.rollbacks")
		h := sh.Histogram("tw.rollback_depth")
		i := 0
		for pb.Next() {
			c.Inc()
			if i%16 == 0 {
				h.Observe(float64(i & 63))
			}
			i++
		}
	})
}

func BenchmarkRegistrySharded(b *testing.B) { benchmarkRegistry(b, true) }
func BenchmarkRegistryShared(b *testing.B)  { benchmarkRegistry(b, false) }

// A checkpointed run records every segment into one registry, while a
// run resumed from a boundary starts a fresh one from that boundary's
// export; Resume ≡ uninterrupted needs the two to read the same ever
// after. They do for what a run records — sharded counters and
// histograms, gauges set on the registry itself — which this holds
// across three boundaries; a gauge *lowered* on a shard would not be
// (merged gauges take the maximum, and the restart has forgotten which
// shard held it), and no producer does that.
func TestRecordingOnEqualsRestartingFromTheExport(t *testing.T) {
	segment := func(r *Registry, k int) {
		for tid := 0; tid < 4; tid++ {
			sh := r.Shard(tid)
			sh.Counter("tw.rollbacks").Add(uint64(k*10 + tid))
			for v := 1; v <= 3+tid; v++ {
				sh.Histogram("tw.rollback_depth").Observe(float64(v * (k + 1) * (tid + 2)))
			}
		}
		r.Counter("gvt.rounds").Add(2)
		r.Gauge("tw.uncommitted_peak").Set(float64(100 + 7*k))
		r.Gauge("dist.workers_connected").Set(float64(3 - k%2)) // goes down too
	}
	kept := NewRegistry()
	segment(kept, 0)
	for k := 1; k <= 3; k++ {
		restarted := NewRegistry()
		restarted.Import(kept.Export())
		segment(kept, k)
		segment(restarted, k)
		if want, got := kept.Export(), restarted.Export(); !reflect.DeepEqual(want, got) {
			t.Fatalf("after segment %d the kept registry and the one restarted from the boundary differ:\nkept      %+v\nrestarted %+v", k, want, got)
		}
		if want, got := kept.Histograms(), restarted.Histograms(); !reflect.DeepEqual(want, got) {
			t.Fatalf("after segment %d histogram summaries differ:\nkept      %+v\nrestarted %+v", k, want, got)
		}
	}
}
