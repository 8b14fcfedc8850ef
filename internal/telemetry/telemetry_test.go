package telemetry

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d", c.Value())
	}
	var g Gauge
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	g.Max(2)
	if g.Value() != 3.5 {
		t.Fatal("Max lowered the gauge")
	}
	g.Max(7)
	if g.Value() != 7 {
		t.Fatal("Max did not raise the gauge")
	}
}

func TestGaugeMaxFromZero(t *testing.T) {
	var g Gauge
	g.Max(-5)
	if g.Value() != -5 {
		t.Fatalf("first Max should set unconditionally, got %v", g.Value())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Summary()
	if s.Count != 0 || s.Mean != 0 || s.P50 != 0 || s.P99 != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if h.quantile(0.5) != 0 {
		t.Fatal("empty quantile not zero")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Observe(42)
	s := h.Summary()
	if s.Count != 1 || s.Mean != 42 || s.Min != 42 || s.Max != 42 {
		t.Fatalf("summary = %+v", s)
	}
	// All quantiles clamp to the single observation.
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if v := h.quantile(q); v != 42 {
			t.Fatalf("q%.2f = %v, want 42", q, v)
		}
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	p50, p95, p99 := h.quantile(0.5), h.quantile(0.95), h.quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles not ordered: %v %v %v", p50, p95, p99)
	}
	// Log buckets are exact to a factor of two.
	if p50 < 250 || p50 > 1000 {
		t.Fatalf("p50 = %v, out of range for uniform 1..1000", p50)
	}
	if p99 < 500 || p99 > 1000 {
		t.Fatalf("p99 = %v", p99)
	}
	if m := h.Mean(); math.Abs(m-500.5) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
}

func TestHistogramNegativeAndNaNClamped(t *testing.T) {
	var h Histogram
	h.Observe(-100)
	h.Observe(math.NaN())
	if h.Count() != 2 || h.Sum() != 0 || h.Summary().Max != 0 {
		t.Fatalf("clamping failed: %+v", h.Summary())
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[float64]int{0: 0, 0.5: 0, 1: 1, 1.9: 1, 2: 2, 3: 2, 4: 3, 1 << 20: 21}
	for v, want := range cases {
		if got := bucketOf(v); got != want {
			t.Errorf("bucketOf(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c1.Inc()
	if r.Counter("a") != c1 {
		t.Fatal("counter not shared by name")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("histogram not shared by name")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge not shared by name")
	}
	if r.Counters()["a"] != 1 {
		t.Fatalf("snapshot = %v", r.Counters())
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(1)
	if r.Counters() != nil || r.Gauges() != nil || r.Histograms() != nil {
		t.Fatal("nil registry snapshots should be nil")
	}
	if err := r.WriteText(nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("tw.anti_messages").Add(3)
	r.Gauge("tw.uncommitted_peak").Set(12)
	r.Histogram("tw.rollback_depth").Observe(4)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"counter", "tw.anti_messages", "gauge", "histogram", "p95"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump %q missing %q", out, want)
		}
	}
}

// The serving layer shares one registry across worker goroutines, so
// every metric type must tolerate concurrent recording and snapshots.
func TestConcurrentRegistryAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Max(float64(j))
				r.Histogram("h").Observe(float64(j))
				if j%100 == 0 {
					r.Counters()
					r.Histograms()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 999 {
		t.Fatalf("gauge = %v, want 999", got)
	}
}

// ExportTo refills one state in place: it reads as Export does, keeps
// each histogram's Counts array, drops what the registry does not hold,
// and allocates nothing once the registry has stopped growing.
func TestExportToRefillsInPlace(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Shard(2).Counter("c").Inc()
	r.Gauge("g").Set(1.5)
	r.Shard(1).Histogram("h").Observe(9)
	st := MetricsState{
		Counters:   map[string]uint64{"stale": 1},
		Gauges:     map[string]GaugeState{"stale": {Set: true}},
		Histograms: map[string]HistogramState{"stale": {Counts: []uint64{4}, Count: 1}},
	}
	for round := 0; round < 2; round++ {
		r.ExportTo(&st)
		if want := r.Export(); !reflect.DeepEqual(st, want) {
			t.Fatalf("round %d: ExportTo read\n%+v\nExport reads\n%+v", round, st, want)
		}
		r.Histogram("h").Observe(1)
	}
	counts := &st.Histograms["h"].Counts[0]
	if n := testing.AllocsPerRun(10, func() { r.ExportTo(&st) }); n != 0 {
		t.Errorf("ExportTo into a filled state: %v allocations, want 0", n)
	}
	if &st.Histograms["h"].Counts[0] != counts {
		t.Error("ExportTo replaced a histogram's Counts array")
	}
	var nilReg *Registry
	nilReg.ExportTo(&st)
	if len(st.Counters)+len(st.Gauges)+len(st.Histograms) != 0 {
		t.Errorf("a nil registry's ExportTo left %+v", st)
	}
}
