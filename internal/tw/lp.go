package tw

import "ggpdes/internal/rng"

// LP is a logical process: a simulated component with its own state,
// local virtual time, and rollback history. LPs are served by exactly
// one simulation thread (Peer).
//
// The history is intrusive: the LP's speculatively executed events are
// linked through their own prev/next fields in ascending (Ts, Seq)
// order, from head (the oldest, the first to be fossil collected) to
// last (the newest, the first to be rolled back), so an execution, a
// rollback step and a commit each cost O(1) and no history ever grows
// a slice. last's key is kept in the LP itself: the straggler test
// every drained event takes reads the LP and not the event.
type LP struct {
	// ID is the global LP id.
	ID int
	// Owner is the id of the simulation thread serving this LP.
	Owner int

	state State
	rand  rng.Stream
	lvt   VT
	// head and last are the history's ends, nil when it is empty; n
	// counts the events between them. lastTs and lastSeq are last's
	// (Ts, Seq) while there is a last.
	head, last *Event
	n          int
	lastTs     VT
	lastSeq    uint64
	// pooled counts the copy-state snapshots this LP has released and
	// not yet taken back: what decides whether its next snapshot is a
	// pool hit or a miss. The snapshots themselves are recycled through
	// the engine's one store (see pool.go).
	pooled int
}

// straggles reports whether ev orders before the LP's most recent
// uncommitted execution: executing it requires a rollback first.
func (lp *LP) straggles(ev *Event) bool {
	return lp.last != nil && (ev.Ts < lp.lastTs || ev.Ts == lp.lastTs && ev.Seq < lp.lastSeq)
}

// push appends a just-executed event, which must not straggle.
func (lp *LP) push(ev *Event) {
	ev.prev = lp.last
	if lp.last == nil {
		lp.head = ev
	} else {
		lp.last.next = ev
	}
	lp.last = ev
	lp.n++
	lp.lastTs, lp.lastSeq = ev.Ts, ev.Seq
}

// pop unlinks and returns the newest event; the history must not be
// empty.
func (lp *LP) pop() *Event {
	ev := lp.last
	lp.last, ev.prev = ev.prev, nil
	lp.n--
	if lp.last == nil {
		lp.head = nil
	} else {
		lp.last.next = nil
		lp.lastTs, lp.lastSeq = lp.last.Ts, lp.last.Seq
	}
	return ev
}

// shift unlinks and returns the oldest event; the history must not be
// empty.
func (lp *LP) shift() *Event {
	ev := lp.head
	lp.head, ev.next = ev.next, nil
	lp.n--
	if lp.head == nil {
		lp.last = nil
	} else {
		lp.head.prev = nil
	}
	return ev
}

// State returns the LP's current model state. Models must treat it as
// read-only outside OnEvent for this LP.
func (lp *LP) State() State { return lp.state }

// SetState replaces the LP's state; models call it during InitLP.
func (lp *LP) SetState(s State) { lp.state = s }

// LVT returns the LP's local virtual time (timestamp of the last
// processed event).
func (lp *LP) LVT() VT { return lp.lvt }

// Rand returns the LP's random stream (valid after engine init).
func (lp *LP) Rand() *rng.Stream { return &lp.rand }
