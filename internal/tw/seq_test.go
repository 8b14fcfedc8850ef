package tw

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ggpdes/internal/pq"
)

// seqRun is the sequential reference executor: the model run as one
// global event list, with no speculation, no rollback and no memory
// recycling, against which the Time Warp engine's committed trajectory
// is checked (oracle_test.go, and tw_test.go's adversarial schedules).
// Its LPs are seeded exactly as newEngineShell seeds the engine's,
// InitLP runs on them in LP-id order, and every event below the end
// time executes once, in (Ts, Src, per-source send count) order: the
// engine breaks a timestamp tie by its global sequence number, which
// speculation makes depend on the schedule, so an exact tie between two
// events for one LP is a difference the oracle reports rather than
// imitates. Events at or after the end time are never executed, so
// they are not kept either.
//
// Events sit in one slab, reused through a free list, and the queue is
// a heap of slab indices, so that a run allocates as its pending set
// grows and not per event.
type seqRun struct {
	slab []Event
	free []int32
	heap *pq.BinHeap[int32]
	// sent counts the events each LP has scheduled: the tiebreak after
	// the source, stored in the event's Seq.
	sent []uint64
	end  VT
}

// schedule enqueues an event on behalf of LP src; it is how InitCtx and
// EventCtx reach the executor in place of an engine.
func (s *seqRun) schedule(src, dst int, ts VT, kind uint8, a, b int64) {
	if dst < 0 || dst >= len(s.sent) {
		panic(fmt.Sprintf("tw: event for unknown LP %d", dst))
	}
	s.sent[src]++
	if ts >= s.end {
		return
	}
	var i int32
	if n := len(s.free); n > 0 {
		i, s.free = s.free[n-1], s.free[:n-1]
	} else {
		i = int32(len(s.slab))
		s.slab = append(s.slab, Event{})
	}
	s.slab[i] = Event{Ts: ts, Seq: s.sent[src], Src: src, Dst: dst, Kind: kind, A: a, B: b}
	s.heap.Push(i)
}

// before orders slab events by (Ts, Src, per-source send count).
func (s *seqRun) before(i, j int32) bool {
	a, b := &s.slab[i], &s.slab[j]
	if a.Ts != b.Ts {
		return a.Ts < b.Ts
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// runSequential runs model on threads × LPsPerThread LPs seeded with
// seed until no event below end is left, calling onExec, when non-nil,
// after each event executes, and returns the LPs by id.
func runSequential(model Model, threads int, seed uint64, end VT, onExec func(*Event)) ([]*LP, error) {
	per := model.LPsPerThread()
	if threads <= 0 || per <= 0 {
		return nil, errors.New("tw: sequential run needs positive thread and LP counts")
	}
	lps := make([]LP, threads*per)
	ptrs := make([]*LP, len(lps))
	s := &seqRun{sent: make([]uint64, len(lps)), end: end}
	s.heap = pq.NewHeap(s.before, func(i int32) float64 { return s.slab[i].Ts })
	for id := range lps {
		lp := &lps[id]
		lp.ID, lp.Owner = id, id/per
		lp.rand.Seed(seed, uint64(id)+1)
		ptrs[id] = lp
	}
	for _, lp := range ptrs {
		model.InitLP(&InitCtx{lp: lp, seq: s}, lp)
		if lp.state == nil {
			return nil, fmt.Errorf("tw: model left LP %d without state", lp.ID)
		}
	}
	var ev Event
	var ctx EventCtx
	for {
		i, ok := s.heap.Pop()
		if !ok {
			return ptrs, nil
		}
		ev = s.slab[i]
		s.free = append(s.free, i)
		lp := ptrs[ev.Dst]
		lp.clvt = ev.Ts
		ctx = EventCtx{lp: lp, ev: &ev, seq: s}
		model.OnEvent(&ctx)
		if onExec != nil {
			onExec(&ev)
		}
	}
}

// commit is what the oracle compares of one event.
type commit struct {
	Ts   VT
	Src  int
	Kind uint8
	A, B int64
}

// outcome is what a run leaves for the oracle to compare: every LP's
// committed (Ts, Src, Kind, A, B) sequence, final state and LVT, and
// the committed total.
type outcome struct {
	Commits   [][]commit
	States    []State
	LVTs      []VT
	Committed uint64
}

func newOutcome(n int) *outcome { return &outcome{Commits: make([][]commit, n)} }

// Record appends ev to its LP's committed sequence; it is an engine's
// onCommit and the sequential executor's onExec.
func (o *outcome) Record(ev *Event) {
	o.Commits[ev.Dst] = append(o.Commits[ev.Dst], commit{ev.Ts, ev.Src, ev.Kind, ev.A, ev.B})
	o.Committed++
}

// Finish takes the final states and LVTs of lps.
func (o *outcome) Finish(lps []*LP) {
	for _, lp := range lps {
		o.States = append(o.States, lp.State())
		o.LVTs = append(o.LVTs, lp.LVT())
	}
}

// LVTBelow is the timestamp of LP id's last commit below v, or 0 when
// it has none: the LVT of an engine quiesced onto GVT v, whose
// fossil collection committed exactly the events below v.
func (o *outcome) LVTBelow(id int, v VT) VT {
	cs := o.Commits[id]
	if i := sort.Search(len(cs), func(i int) bool { return cs[i].Ts >= v }); i > 0 {
		return cs[i-1].Ts
	}
	return 0
}

// sequentialOutcome runs model on the reference executor.
func sequentialOutcome(model Model, threads int, seed uint64, end VT) (*outcome, error) {
	o := newOutcome(threads * model.LPsPerThread())
	lps, err := runSequential(model, threads, seed, end, o.Record)
	if err != nil {
		return nil, err
	}
	if o.Committed == 0 {
		return nil, errors.New("tw: the sequential run executed nothing")
	}
	o.Finish(lps)
	return o, nil
}

// Diff reports every way got differs from o, the sequential run's
// outcome.
func (o *outcome) Diff(t testing.TB, got *outcome) {
	t.Helper()
	if got.Committed != o.Committed {
		t.Errorf("committed %d events, the sequential run %d", got.Committed, o.Committed)
	}
	for id, w := range o.Commits {
		if g := got.Commits[id]; !reflect.DeepEqual(g, w) {
			t.Errorf("LP %d committed %d events, the sequential run %d; first difference at %d",
				id, len(g), len(w), firstDifference(g, w))
		}
		if got.LVTs[id] != o.LVTs[id] {
			t.Errorf("LP %d LVT %v, the sequential run %v", id, got.LVTs[id], o.LVTs[id])
		}
		if !reflect.DeepEqual(got.States[id], o.States[id]) {
			t.Errorf("LP %d final state %+v, the sequential run %+v", id, got.States[id], o.States[id])
		}
	}
}

func firstDifference(a, b []commit) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
