package tw

import "ggpdes/internal/rng"

// KP is a kernel process, ROSS's rollback-granularity unit: a group of
// LPs on one simulation thread sharing a single processed-event list.
// Larger KPs shrink per-LP bookkeeping and speed fossil collection but
// roll back every member LP when any one of them straggles — the
// classic granularity trade-off (ablated in the benchmarks).
//
// The list is intrusive: the member LPs' speculatively executed events
// are linked through their own prev/next fields in ascending (Ts, Seq)
// order, from head (the oldest, the first to be fossil collected) to
// last (the newest, the first to be rolled back), so an execution, a
// rollback step and a commit each cost O(1) and no history ever grows
// a slice. last's key is kept in the KP itself: the straggler test
// every drained event takes reads the KP and not the event.
type KP struct {
	// ID is the KP id within its peer.
	ID int
	// Owner is the simulation thread id.
	Owner int
	// head and last are the history's ends, nil when it is empty; n
	// counts the events between them. lastTs and lastSeq are last's
	// (Ts, Seq) while there is a last.
	head, last *Event
	n          int
	lastTs     VT
	lastSeq    uint64
}

// straggles reports whether ev orders before the KP's most recent
// uncommitted execution: executing it requires a rollback first.
func (kp *KP) straggles(ev *Event) bool {
	return kp.last != nil && (ev.Ts < kp.lastTs || ev.Ts == kp.lastTs && ev.Seq < kp.lastSeq)
}

// push appends a just-executed event, which must not straggle.
func (kp *KP) push(ev *Event) {
	ev.prev = kp.last
	if kp.last == nil {
		kp.head = ev
	} else {
		kp.last.next = ev
	}
	kp.last = ev
	kp.n++
	kp.lastTs, kp.lastSeq = ev.Ts, ev.Seq
}

// pop unlinks and returns the newest event; the history must not be
// empty.
func (kp *KP) pop() *Event {
	ev := kp.last
	kp.last, ev.prev = ev.prev, nil
	kp.n--
	if kp.last == nil {
		kp.head = nil
	} else {
		kp.last.next = nil
		kp.lastTs, kp.lastSeq = kp.last.Ts, kp.last.Seq
	}
	return ev
}

// shift unlinks and returns the oldest event; the history must not be
// empty.
func (kp *KP) shift() *Event {
	ev := kp.head
	kp.head, ev.next = ev.next, nil
	kp.n--
	if kp.head == nil {
		kp.last = nil
	} else {
		kp.head.prev = nil
	}
	return ev
}

// UncommittedEvents reports how many processed events await commit.
func (kp *KP) UncommittedEvents() int { return kp.n }

// LP is a logical process: a simulated component with its own state,
// local virtual time, and rollback history shared through its KP. LPs
// are served by exactly one simulation thread (Peer).
type LP struct {
	// ID is the global LP id.
	ID int
	// Owner is the id of the simulation thread serving this LP.
	Owner int

	state State
	rand  rng.Stream
	lvt   VT
	kp    *KP
	// pooled counts the copy-state snapshots this LP has released and
	// not yet taken back: what decides whether its next snapshot is a
	// pool hit or a miss. The snapshots themselves are recycled through
	// the peer's one store (see pool.go).
	pooled int
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

// KP returns the kernel process this LP belongs to.
func (lp *LP) KP() *KP { return lp.kp }
