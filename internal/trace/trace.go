// Package trace records simulation-run events — GVT progression,
// rollbacks, demand-driven scheduling transitions, affinity repins,
// commits, anti-messages, machine migrations and preemptions — for
// post-run analysis, mirroring the instrumentation layers PDES engines
// like ROSS ship with. Recording is allocation-light (one flat record
// slice, optionally managed as a ring) and safe on the simulated
// machine because execution is serialized.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Kind tags a trace record.
type Kind uint8

// Record kinds.
const (
	// KindGVT: a GVT publication. Value = new GVT.
	KindGVT Kind = iota
	// KindRound: a completed GVT round. Aux = participants.
	KindRound
	// KindRollback: a rollback episode. Aux = events undone.
	KindRollback
	// KindDeactivate: thread scheduled out.
	KindDeactivate
	// KindActivate: thread scheduled back in.
	KindActivate
	// KindRepin: dynamic affinity pinned the thread. Aux = core.
	KindRepin
	// KindCommit: a fossil-collection pass committed events. Value =
	// the GVT it collected below, Aux = events committed.
	KindCommit
	// KindAntiMessage: an anti-message was sent. Value = target
	// timestamp, Aux = destination LP.
	KindAntiMessage
	// KindMigration: the machine moved the thread between cores. Aux =
	// destination core.
	KindMigration
	// KindPreempt: the machine preempted the running thread. Aux = core
	// it was preempted on.
	KindPreempt
)

// NumKinds is the number of defined record kinds.
const NumKinds = 10

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindGVT:
		return "gvt"
	case KindRound:
		return "round"
	case KindRollback:
		return "rollback"
	case KindDeactivate:
		return "deactivate"
	case KindActivate:
		return "activate"
	case KindRepin:
		return "repin"
	case KindCommit:
		return "commit"
	case KindAntiMessage:
		return "antimessage"
	case KindMigration:
		return "migration"
	case KindPreempt:
		return "preempt"
	default:
		return "unknown"
	}
}

// Record is one trace event.
type Record struct {
	// Kind tags the record.
	Kind Kind
	// WallCycles is the machine wall-clock at recording time.
	WallCycles uint64
	// Thread is the acting simulation thread (-1 when global).
	Thread int
	// Value is kind-specific (GVT value, etc.).
	Value float64
	// Aux is kind-specific (rollback depth, core id, participants).
	Aux int64
}

// Recorder accumulates records up to a limit. In the default mode
// records past the limit are dropped (keep-oldest); in ring mode the
// oldest records are overwritten instead (keep-newest), so long runs
// retain the tail where the interesting behaviour usually is. Dropped
// reports the lost count in both modes.
type Recorder struct {
	// Clock supplies the machine wall-clock; nil records zero times.
	Clock func() uint64

	records []Record
	limit   int
	ring    bool
	// start indexes the oldest record once a ring has wrapped.
	start   int
	dropped uint64
}

// defaultLimit is the retained-record cap when none is given.
const defaultLimit = 1 << 20

// New returns a recorder keeping at most limit records (<=0 selects
// 1<<20); further records are counted as dropped.
func New(limit int) *Recorder {
	if limit <= 0 {
		limit = defaultLimit
	}
	return &Recorder{limit: limit}
}

// NewRing returns a recorder that keeps the newest limit records
// (<=0 selects 1<<20), overwriting the oldest once full; overwritten
// records are counted as dropped.
func NewRing(limit int) *Recorder {
	r := New(limit)
	r.ring = true
	return r
}

// Ring reports whether the recorder retains newest (ring) or oldest
// records.
func (r *Recorder) Ring() bool { return r.ring }

// Add appends a record, stamping the wall clock.
func (r *Recorder) Add(kind Kind, thread int, value float64, aux int64) {
	if len(r.records) >= r.limit && !r.ring {
		r.dropped++
		return
	}
	var now uint64
	if r.Clock != nil {
		now = r.Clock()
	}
	rec := Record{Kind: kind, WallCycles: now, Thread: thread, Value: value, Aux: aux}
	if len(r.records) >= r.limit {
		// Ring overwrite: the slot at start holds the oldest record.
		r.records[r.start] = rec
		r.start++
		if r.start == r.limit {
			r.start = 0
		}
		r.dropped++
		return
	}
	r.records = append(r.records, rec)
}

// Len returns the number of retained records.
func (r *Recorder) Len() int { return len(r.records) }

// forEach visits retained records in recording order (handles ring
// wrap-around without allocating).
func (r *Recorder) forEach(fn func(*Record)) {
	for i := r.start; i < len(r.records); i++ {
		fn(&r.records[i])
	}
	for i := 0; i < r.start; i++ {
		fn(&r.records[i])
	}
}

// Records returns all retained records in recording order.
func (r *Recorder) Records() []Record {
	if r.start == 0 {
		return r.records
	}
	out := make([]Record, 0, len(r.records))
	out = append(out, r.records[r.start:]...)
	out = append(out, r.records[:r.start]...)
	return out
}

// Dropped reports how many records hit the limit (default mode) or were
// overwritten (ring mode).
func (r *Recorder) Dropped() uint64 { return r.dropped }

// CountKind returns how many records of the kind were retained.
func (r *Recorder) CountKind(k Kind) int {
	n := 0
	r.forEach(func(rec *Record) {
		if rec.Kind == k {
			n++
		}
	})
	return n
}

// SumAux returns the sum of Aux over records of the kind.
func (r *Recorder) SumAux(k Kind) int64 {
	var sum int64
	r.forEach(func(rec *Record) {
		if rec.Kind == k {
			sum += rec.Aux
		}
	})
	return sum
}

// Interval is a half-open [Start, End) span in machine wall cycles.
type Interval struct {
	Start, End uint64
}

// InactiveIntervals reconstructs, per thread, the spans during which it
// was de-scheduled, from Deactivate/Activate pairs. endCycles closes
// intervals still open at the end of the run. Malformed streams (as
// ring-truncated traces produce) degrade safely: a
// repeated Deactivate keeps the earliest open start, an Activate with
// no matching Deactivate is ignored, a pair whose stamps run backwards
// is dropped, and the returned spans per thread are always sorted,
// non-overlapping and well-formed (Start <= End).
func (r *Recorder) InactiveIntervals(threads int, endCycles uint64) [][]Interval {
	out := make([][]Interval, threads)
	open := make(map[int]uint64)
	r.forEach(func(rec *Record) {
		if rec.Thread < 0 || rec.Thread >= threads {
			return
		}
		switch rec.Kind {
		case KindDeactivate:
			if _, dup := open[rec.Thread]; dup {
				return // double-deactivate: keep the earliest start
			}
			open[rec.Thread] = rec.WallCycles
		case KindActivate:
			start, ok := open[rec.Thread]
			if !ok {
				return // activate without a matching deactivate
			}
			delete(open, rec.Thread)
			if rec.WallCycles < start {
				return // stamps run backwards: drop the pair
			}
			out[rec.Thread] = append(out[rec.Thread], Interval{start, rec.WallCycles})
		}
	})
	for tid, start := range open {
		if endCycles >= start {
			out[tid] = append(out[tid], Interval{start, endCycles})
		}
	}
	for tid, iv := range out {
		out[tid] = normalizeIntervals(iv)
	}
	return out
}

// normalizeIntervals sorts spans and resolves overlaps (possible only
// in malformed streams) by clamping each span's start to its
// predecessor's end; spans emptied by clamping are removed.
func normalizeIntervals(iv []Interval) []Interval {
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	keep := iv[:0]
	for _, in := range iv {
		if len(keep) > 0 && in.Start < keep[len(keep)-1].End {
			in.Start = keep[len(keep)-1].End
			if in.End < in.Start {
				continue
			}
		}
		keep = append(keep, in)
	}
	return keep
}

// InactiveFraction returns the fraction of total thread-time spent
// de-scheduled across all threads, given the run length.
func (r *Recorder) InactiveFraction(threads int, endCycles uint64) float64 {
	if threads == 0 || endCycles == 0 {
		return 0
	}
	var inactive uint64
	for _, iv := range r.InactiveIntervals(threads, endCycles) {
		for _, i := range iv {
			inactive += i.End - i.Start
		}
	}
	return float64(inactive) / (float64(endCycles) * float64(threads))
}

// MeanRollbackDepth returns the average events undone per rollback.
func (r *Recorder) MeanRollbackDepth() float64 {
	n := r.CountKind(KindRollback)
	if n == 0 {
		return 0
	}
	return float64(r.SumAux(KindRollback)) / float64(n)
}

// WriteCSV emits all records as kind,wall_cycles,thread,value,aux rows.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "kind,wall_cycles,thread,value,aux"); err != nil {
		return err
	}
	var werr error
	r.forEach(func(rec *Record) {
		if werr != nil {
			return
		}
		_, werr = fmt.Fprintf(w, "%s,%d,%d,%g,%d\n",
			rec.Kind, rec.WallCycles, rec.Thread, rec.Value, rec.Aux)
	})
	return werr
}

// Summary renders a one-paragraph digest of the trace.
func (r *Recorder) Summary(threads int, endCycles uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d records", len(r.records))
	if r.dropped > 0 {
		if r.ring {
			fmt.Fprintf(&b, " (ring, %d overwritten)", r.dropped)
		} else {
			fmt.Fprintf(&b, " (+%d dropped)", r.dropped)
		}
	}
	fmt.Fprintf(&b, "; gvt updates %d, rounds %d", r.CountKind(KindGVT), r.CountKind(KindRound))
	fmt.Fprintf(&b, "; rollbacks %d (mean depth %.1f)", r.CountKind(KindRollback), r.MeanRollbackDepth())
	fmt.Fprintf(&b, "; deactivations %d, activations %d, repins %d",
		r.CountKind(KindDeactivate), r.CountKind(KindActivate), r.CountKind(KindRepin))
	if n := r.CountKind(KindCommit); n > 0 {
		fmt.Fprintf(&b, "; commits %d (%d events)", n, r.SumAux(KindCommit))
	}
	if n := r.CountKind(KindAntiMessage); n > 0 {
		fmt.Fprintf(&b, "; anti-messages %d", n)
	}
	if n := r.CountKind(KindMigration); n > 0 {
		fmt.Fprintf(&b, "; migrations %d", n)
	}
	if n := r.CountKind(KindPreempt); n > 0 {
		fmt.Fprintf(&b, "; preemptions %d", n)
	}
	if threads > 0 && endCycles > 0 {
		fmt.Fprintf(&b, "; de-scheduled %.1f%% of thread-time", r.InactiveFraction(threads, endCycles)*100)
	}
	return b.String()
}
