// Package span is the benchmark's in-memory tracer. ggperf records one
// span at every call it makes into a layer of the program under test —
// from outside, the program itself is not instrumented — and derives
// the per-layer ledger from them: a layer's self time is its span's
// duration minus the part of that interval its child spans cover.
//
// Spans live in memory until the benchmark ends and are then written
// as Chrome trace-event JSON (open in ui.perfetto.dev). A nil *Tracer
// is valid and records nothing, so untraced runs pay one nil check per
// call site.
package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// ID names a recorded span; 0 is "no span" (a root's parent, and what
// a nil Tracer hands out).
type ID int32

// Span is one timed interval. Start and End are nanoseconds since the
// tracer was created.
type Span struct {
	Name       string
	Start, End int64
	// Parent is the span that caused this one (0 for a root).
	Parent ID
	// Op is the operation the span belongs to: the workload iteration
	// or job number. Every span of one operation shares it.
	Op int64
	// Lane is the display track: spans recorded by different
	// goroutines use different lanes so they nest in the viewer.
	Lane int32
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer collects spans from any number of goroutines.
type Tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []Span
	counts map[string]int64
}

// New returns an empty tracer whose clock starts now.
func New() *Tracer {
	return &Tracer{t0: time.Now(), counts: map[string]int64{}}
}

// Now is the tracer clock: nanoseconds since New.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// At places a wall-clock reading on the tracer clock. Timestamps the
// program under test reports (job submitted/started/finished) arrive
// this way.
func (t *Tracer) At(wall time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(wall.Sub(t.t0))
}

// Start opens a span and returns its ID; close it with End.
func (t *Tracer) Start(name string, parent ID, op int64, lane int32) ID {
	if t == nil {
		return 0
	}
	now := t.Now()
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: now, Parent: parent, Op: op, Lane: lane})
	id := ID(len(t.spans))
	t.mu.Unlock()
	return id
}

// End closes a span opened by Start.
func (t *Tracer) End(id ID) {
	if t == nil || id == 0 {
		return
	}
	now := t.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add records a span whose bounds were measured elsewhere, clamped
// into its parent so a reconstructed leg can never stick out of the
// call that contains it.
func (t *Tracer) Add(name string, parent ID, op int64, lane int32, start, end int64) ID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent != 0 {
		p := t.spans[parent-1]
		start = clamp(start, p.Start, p.End)
		end = clamp(end, p.Start, p.End)
	}
	if end < start {
		end = start
	}
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end, Parent: parent, Op: op, Lane: lane})
	return ID(len(t.spans))
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Count adds n to a named counter, recorded at the same boundary as
// the spans so ratios are measured where the work happens.
func (t *Tracer) Count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// Counts returns a copy of the counters.
func (t *Tracer) Counts() map[string]int64 {
	out := map[string]int64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// Spans returns a copy of everything recorded so far; span i has ID
// i+1.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns, for each span, its duration minus the part of it
// covered by the union of its direct children. Overlapping children
// (a server-side leg reconstructed inside a client call) are counted
// once.
func SelfTimes(spans []Span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			p := int(s.Parent) - 1
			children[p] = append(children[p], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := clamp(spans[k].Start, s.Start, s.End), clamp(spans[k].End, s.Start, s.End)
			if lo < edge {
				lo = edge
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.Dur() - covered
	}
	return self
}

// Validate checks the structure the ledger arithmetic relies on: every
// parent exists and was recorded first, no child lies outside its
// parent, and a child carries its parent's operation id.
func Validate(spans []Span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q ends before it starts", i+1, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if int(s.Parent) > i {
			return fmt.Errorf("span %d %q names parent %d, which is not recorded before it", i+1, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%d,%d] lies outside its parent %q [%d,%d]",
				i+1, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Op != p.Op {
			return fmt.Errorf("span %d %q has operation %d, its parent %q has %d", i+1, s.Name, s.Op, p.Name, p.Op)
		}
	}
	return nil
}

// chromeEvent is one "complete" event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the spans of operations below maxOps (all when
// maxOps <= 0) as Chrome trace-event JSON. The cap keeps the file
// small enough to open: the metrics use every span, the picture needs
// only the first few operations.
func WriteChrome(w io.Writer, spans []Span, maxOps int64) error {
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		if maxOps > 0 && s.Op >= maxOps {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur()) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": i + 1, "parent": s.Parent, "op": s.Op},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
