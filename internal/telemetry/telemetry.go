// Package telemetry is the run-time metrics layer: counters, gauges
// and log-bucketed histograms collected in a Registry. Every subsystem
// (the Time Warp engine, the schedulers, the simulated machine)
// registers its metrics here; the public API surfaces percentile
// summaries through Results and the commands dump or export them.
//
// Recording is allocation-free after registration and goroutine-safe:
// counters are atomic and gauges/histograms take a short uncontended
// mutex, so a registry may be shared across concurrent simulations
// (the serving layer's job metrics) as well as used from the
// serialized simulated machine. Hot producers take per-thread Shard
// views (see shard.go) whose cells are cache-line padded, so parallel
// recording never contends on a shared line; every read-side accessor
// merges the shards back into the totals an unsharded registry would
// report. All accessors are nil-receiver safe: a producer constructed
// without a registry still gets working (but unreported) metric
// handles, so instrumentation sites never need nil checks.
package telemetry

import (
	"fmt"
	"io"
	"maps"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-value-wins instantaneous measurement.
type Gauge struct {
	mu  sync.Mutex
	v   float64
	set bool
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v, g.set = v, true
	g.mu.Unlock()
}

// Max records v only if it exceeds the current value (high-water mark).
func (g *Gauge) Max(v float64) {
	g.mu.Lock()
	if !g.set || v > g.v {
		g.v, g.set = v, true
	}
	g.mu.Unlock()
}

// Value returns the last recorded value (0 before any Set).
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// histBuckets is the bucket count: bucket k holds values in
// [2^(k-1), 2^k) for k >= 1 and bucket 0 holds values below 1, covering
// the full uint64 range with one comparison per observation.
const histBuckets = 65

// Histogram is a log2-bucketed distribution of non-negative values
// (cycle counts, event counts). Percentiles interpolate linearly within
// the hit bucket, which is exact to a factor of two — ample for the
// order-of-magnitude questions run telemetry answers.
type Histogram struct {
	mu       sync.Mutex
	counts   [histBuckets]uint64
	count    uint64
	sum      float64
	min, max float64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	u := uint64(v)
	if u == 0 {
		return 0
	}
	return bits.Len64(u)
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketOf(v)]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.mean()
}

func (h *Histogram) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// quantile returns the q-th quantile (q in [0,1]) by linear
// interpolation within the containing log bucket, clamped to the
// observed min/max, and 0 for an empty histogram. The caller holds h.mu
// or the only reference to h.
func (h *Histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.count)
	var cum float64
	for b, n := range h.counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= target {
			lo, hi := bucketBounds(b)
			frac := (target - cum) / float64(n)
			v := lo + frac*(hi-lo)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum = next
	}
	return h.max
}

// bucketBounds returns the value range [lo, hi) of bucket b.
func bucketBounds(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 1
	}
	return math.Ldexp(1, b-1), math.Ldexp(1, b)
}

// Summary is a compact digest of a histogram.
type Summary struct {
	// Count is the number of observations; Sum their total.
	Count uint64
	Sum   float64
	// Mean, Min and Max are exact; P50/P95/P99 are log-bucket
	// interpolations.
	Mean, Min, Max float64
	P50, P95, P99  float64
}

// Summary digests the histogram.
func (h *Histogram) Summary() Summary {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Summary{
		Count: h.count,
		Sum:   h.sum,
		Mean:  h.mean(),
		Min:   h.min,
		Max:   h.max,
		P50:   h.quantile(0.50),
		P95:   h.quantile(0.95),
		P99:   h.quantile(0.99),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// Registry is a named collection of metrics. Names are flat,
// dot-separated strings ("tw.rollback_depth"). Accessors get-or-create,
// so independent subsystems can share a metric by name.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	// Per-thread shard cells, carved from blocks (see shard.go).
	// shardsOff routes Shard handles at the shared base cells instead
	// (the contention benchmark's A/B arm).
	counterCells cellSet[counterCell]
	gaugeCells   cellSet[gaugeCell]
	histCells    cellSet[histCell]
	shardsOff    bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     map[string]*Counter{},
		gauges:       map[string]*Gauge{},
		histograms:   map[string]*Histogram{},
		counterCells: newCellSet[counterCell](),
		gaugeCells:   newCellSet[gaugeCell](),
		histCells:    newCellSet[histCell](),
	}
}

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns a fresh unregistered counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counterLocked(name)
}

func (r *Registry) counterLocked(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. On a nil
// registry it returns a fresh unregistered gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gaugeLocked(name)
}

func (r *Registry) gaugeLocked(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. On a
// nil registry it returns a fresh unregistered histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histogramLocked(name)
}

func (r *Registry) histogramLocked(name string) *Histogram {
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Counters returns a name -> value snapshot of all counters, shard
// cells merged in.
func (r *Registry) Counters() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.counterValuesLocked(nil)
}

// Gauges returns a name -> value snapshot of the gauges that have been
// set (shard cells merged by maximum). Gauges that were registered but
// never recorded are omitted rather than reported as a misleading 0;
// callers that need the set flag itself use Snapshot.
func (r *Registry) Gauges() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	states := r.gaugeStatesLocked(nil)
	out := make(map[string]float64, len(states))
	for name, st := range states {
		if st.Set {
			out[name] = st.Value
		}
	}
	return out
}

// Histograms returns a name -> summary snapshot of all histograms,
// shard cells merged bucket-wise.
func (r *Registry) Histograms() map[string]Summary {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	states := r.histStatesLocked(nil)
	out := make(map[string]Summary, len(states))
	for name, st := range states {
		out[name] = summaryFromState(st)
	}
	return out
}

// GaugeState is the raw serializable state of a Gauge.
type GaugeState struct {
	Value float64 `json:"value"`
	Set   bool    `json:"set"`
}

// HistogramState is the raw serializable state of a Histogram. Counts
// holds every log2 bucket, including zeros, so the import side never
// guesses at the bucket layout.
type HistogramState struct {
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    float64  `json:"sum"`
	Min    float64  `json:"min"`
	Max    float64  `json:"max"`
}

// MetricsState is a lossless export of a registry: unlike the Summary
// snapshots it preserves raw bucket counts, so a registry restored from
// it continues observing as if it had recorded every original value.
// It is the telemetry half of a run checkpoint.
type MetricsState struct {
	Counters   map[string]uint64         `json:"counters,omitempty"`
	Gauges     map[string]GaugeState     `json:"gauges,omitempty"`
	Histograms map[string]HistogramState `json:"histograms,omitempty"`
}

// Export captures the registry's full raw state with shard cells
// merged in: counters summed, gauges merged by maximum set value,
// histogram buckets added. The merge is lossless for counters and
// histograms — importing the export into a fresh registry reproduces
// the merged totals exactly.
func (r *Registry) Export() MetricsState {
	var st MetricsState
	if r != nil {
		r.ExportTo(&st)
	}
	return st
}

// ExportTo is Export into st: it clears st's maps and refills them,
// reusing each histogram's Counts array, so an export into the same
// state allocates nothing once the registry has stopped growing. The
// caller must hold st's previous export unread by anyone else.
func (r *Registry) ExportTo(st *MetricsState) {
	clear(st.Counters)
	clear(st.Gauges)
	for name, hs := range st.Histograms {
		st.Histograms[name] = HistogramState{Counts: hs.Counts[:0]}
	}
	if r != nil {
		r.mu.RLock()
		defer r.mu.RUnlock()
		st.Counters, st.Gauges = r.counterValuesLocked(st.Counters), r.gaugeStatesLocked(st.Gauges)
		st.Histograms = r.histStatesLocked(st.Histograms)
	}
	// What is still empty is a name r does not have.
	maps.DeleteFunc(st.Histograms, func(_ string, hs HistogramState) bool { return len(hs.Counts) == 0 })
}

// Snapshot is the merged-on-read view of the registry: every base and
// shard cell folded into one MetricsState. It is Export under the
// name the observability plane uses — the exposition endpoint and the
// stats API render from a Snapshot.
func (r *Registry) Snapshot() MetricsState { return r.Export() }

// Import merges an exported state into the registry: counters add,
// gauges adopt the imported value (if it was ever set), histograms
// merge bucket-wise. Importing into a fresh registry reproduces the
// exported one exactly; metrics recorded afterwards accumulate on top,
// which is how a resumed run continues its predecessor's telemetry.
func (r *Registry) Import(st MetricsState) {
	if r == nil {
		return
	}
	for name, v := range st.Counters {
		r.Counter(name).Add(v)
	}
	for name, gs := range st.Gauges {
		if gs.Set {
			r.Gauge(name).Set(gs.Value)
		}
	}
	for name, hs := range st.Histograms {
		h := r.Histogram(name)
		h.mu.Lock()
		for i, n := range hs.Counts {
			if i < histBuckets {
				h.counts[i] += n
			}
		}
		if hs.Count > 0 {
			if h.count == 0 || hs.Min < h.min {
				h.min = hs.Min
			}
			if hs.Max > h.max {
				h.max = hs.Max
			}
			h.count += hs.Count
			h.sum += hs.Sum
		}
		h.mu.Unlock()
	}
}

// WriteText dumps every metric in name order, one per line, shard
// cells merged in. Never-set gauges are skipped, like everywhere else.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	var lines []string
	for name, v := range r.counterValuesLocked(nil) {
		lines = append(lines, fmt.Sprintf("counter   %-32s %d", name, v))
	}
	for name, st := range r.gaugeStatesLocked(nil) {
		if st.Set {
			lines = append(lines, fmt.Sprintf("gauge     %-32s %g", name, st.Value))
		}
	}
	for name, st := range r.histStatesLocked(nil) {
		lines = append(lines, fmt.Sprintf("histogram %-32s %s", name, summaryFromState(st)))
	}
	r.mu.RUnlock()
	sort.Strings(lines)
	_, err := io.WriteString(w, strings.Join(lines, "\n")+"\n")
	return err
}
