package telemetry

import (
	"slices"

	"ggpdes/internal/slab"
)

// Per-thread metric sharding. A Registry hands out Shard views keyed
// by thread id; each shard's Counter/Gauge/Histogram resolves to a
// private, cache-line-padded cell for that (name, tid) pair, so worker
// threads recording concurrently never bounce a cache line between
// cores. Reads (Counters, Gauges, Histograms, Export/Snapshot,
// WriteText, the OpenMetrics exposition) merge the base cells and all
// shard cells, so consumers see exactly the totals an unsharded
// registry would have produced:
//
//   - counters add across shards;
//   - gauges merge by taking the maximum value among set shards
//     (gauges in this codebase are high-water marks);
//   - histograms merge bucket-wise, which is exact — the merged
//     Summary is identical to one histogram having observed every
//     value.
//
// Shard handles keep the ordinary atomic/mutex metric operations: a
// registry may still be shared across concurrently running jobs (the
// serving layer), where two runs can legitimately hand the same tid to
// different goroutines. The win of sharding is eliminating cross-
// thread cache-line sharing, not eliminating atomics.
//
// The cells are not allocated one by one: a run of 128 threads asks
// for about 2,200 of them. Each kind's cells are carved from blocks the
// registry owns (cellSet), which are never moved or freed, so a handle
// stays valid for the registry's life; a counter or gauge cell is one
// cellLine, so two cells in a block share no line either.

// cellLine is the padding target: two 64-byte cache lines, covering
// the adjacent-line prefetcher on common x86 parts.
const cellLine = 128

// counterCell is a Counter padded out to its own cache line(s).
type counterCell struct {
	Counter
	_ [cellLine - 8]byte
}

// gaugeCell is a Gauge padded out to its own cache line(s). The Gauge
// struct is 24 bytes (8-byte mutex, 8-byte float, flag + padding).
type gaugeCell struct {
	Gauge
	_ [cellLine - 24]byte
}

// histCell is a per-shard Histogram. The struct already spans many
// cache lines (65 buckets), so it gets no pad.
type histCell struct {
	Histogram
}

// Shard is a per-thread view of a Registry. The zero Shard (and any
// Shard from a nil Registry) hands out fresh unregistered handles,
// preserving the package's nil-receiver-safe contract.
type Shard struct {
	r   *Registry
	tid int
}

// Shard returns the per-thread view for tid. Negative tids are
// clamped to 0. Safe on a nil registry.
func (r *Registry) Shard(tid int) Shard {
	if tid < 0 {
		tid = 0
	}
	return Shard{r: r, tid: tid}
}

// SetSharding toggles whether Shard handles resolve to private
// per-thread cells (the default) or to the shared base cells — the
// pre-sharding behaviour, kept as the A/B arm of the contention
// benchmark. Call it before any handles are acquired; handles already
// handed out keep pointing at whichever cell they resolved to.
func (r *Registry) SetSharding(enabled bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.shardsOff = !enabled
	r.mu.Unlock()
}

// Counter returns the shard's private counter for name, creating it on
// first use.
func (s Shard) Counter(name string) *Counter {
	if s.r == nil {
		return &Counter{}
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.r.shardsOff {
		return s.r.counterLocked(name)
	}
	return &s.r.counterCells.get(name, s.tid).Counter
}

// Gauge returns the shard's private gauge for name, creating it on
// first use.
func (s Shard) Gauge(name string) *Gauge {
	if s.r == nil {
		return &Gauge{}
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.r.shardsOff {
		return s.r.gaugeLocked(name)
	}
	return &s.r.gaugeCells.get(name, s.tid).Gauge
}

// Histogram returns the shard's private histogram for name, creating
// it on first use.
func (s Shard) Histogram(name string) *Histogram {
	if s.r == nil {
		return &Histogram{}
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.r.shardsOff {
		return s.r.histogramLocked(name)
	}
	return &s.r.histCells.get(name, s.tid).Histogram
}

// cellSet is one kind's shard cells: per name a spine indexed by tid,
// nil where a tid never touched the name, which grows by at least
// spineMin slots, and the cells themselves, carved from the registry's
// blocks of up to cellBlockMax.
type cellSet[C any] struct {
	byName map[string][]*C
	cells  slab.Slab[C]
}

const (
	cellBlockMax = 32
	spineMin     = 16
)

func newCellSet[C any]() cellSet[C] {
	return cellSet[C]{byName: map[string][]*C{}, cells: slab.Slab[C]{Max: cellBlockMax}}
}

// get returns the cell for (name, tid), carving it on first use.
func (s *cellSet[C]) get(name string, tid int) *C {
	spine := s.byName[name]
	if len(spine) <= tid {
		spine = slices.Grow(spine, max(tid+1-len(spine), spineMin))[:tid+1]
		s.byName[name] = spine
	}
	if spine[tid] == nil {
		spine[tid] = s.cells.New()
	}
	return spine[tid]
}

// Merged reads. All helpers require r.mu held (read lock suffices:
// the maps and spines are only mutated under the write lock, and the
// cells themselves are internally synchronized).

// counterValuesLocked returns the merged name -> value view: base
// counters plus every shard cell, in out when it is not nil (and
// empty), else in a new map. So do the two below.
func (r *Registry) counterValuesLocked(out map[string]uint64) map[string]uint64 {
	if out == nil {
		out = make(map[string]uint64, len(r.counters)+len(r.counterCells.byName))
	}
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, cells := range r.counterCells.byName {
		v := out[name]
		for _, cell := range cells {
			if cell != nil {
				v += cell.Value()
			}
		}
		out[name] = v
	}
	return out
}

// gaugeStatesLocked returns the merged name -> GaugeState view. A
// merged gauge is set iff any contributing cell is set; its value is
// the maximum among set cells (high-water semantics).
func (r *Registry) gaugeStatesLocked(out map[string]GaugeState) map[string]GaugeState {
	if out == nil {
		out = make(map[string]GaugeState, len(r.gauges)+len(r.gaugeCells.byName))
	}
	merge := func(name string, g *Gauge) {
		g.mu.Lock()
		v, set := g.v, g.set
		g.mu.Unlock()
		st := out[name]
		if set && (!st.Set || v > st.Value) {
			st.Value, st.Set = v, true
		}
		out[name] = st
	}
	for name, g := range r.gauges {
		merge(name, g)
	}
	for name, cells := range r.gaugeCells.byName {
		if _, ok := out[name]; !ok {
			out[name] = GaugeState{}
		}
		for _, cell := range cells {
			if cell != nil {
				merge(name, &cell.Gauge)
			}
		}
	}
	return out
}

// histStatesLocked returns the merged name -> HistogramState view,
// bucket-wise exact across base and shard cells. An entry out holds
// already, with no count and no buckets, lends its Counts array.
func (r *Registry) histStatesLocked(out map[string]HistogramState) map[string]HistogramState {
	if out == nil {
		out = make(map[string]HistogramState, len(r.histograms)+len(r.histCells.byName))
	}
	merge := func(name string, h *Histogram) {
		st := out[name]
		if len(st.Counts) == 0 {
			st.Counts = append(st.Counts, make([]uint64, histBuckets)...)
		}
		h.mu.Lock()
		for i, n := range h.counts {
			st.Counts[i] += n
		}
		if h.count > 0 {
			if st.Count == 0 || h.min < st.Min {
				st.Min = h.min
			}
			if h.max > st.Max {
				st.Max = h.max
			}
			st.Count += h.count
			st.Sum += h.sum
		}
		h.mu.Unlock()
		out[name] = st
	}
	for name, h := range r.histograms {
		merge(name, h)
	}
	for name, cells := range r.histCells.byName {
		if st := out[name]; len(st.Counts) == 0 {
			out[name] = HistogramState{Counts: append(st.Counts, make([]uint64, histBuckets)...)}
		}
		for _, cell := range cells {
			if cell != nil {
				merge(name, &cell.Histogram)
			}
		}
	}
	return out
}

// summaryFromState digests a raw histogram state exactly as
// Histogram.Summary would for a histogram holding that state.
func summaryFromState(st HistogramState) Summary {
	var h Histogram
	copy(h.counts[:], st.Counts)
	h.count, h.sum, h.min, h.max = st.Count, st.Sum, st.Min, st.Max
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
