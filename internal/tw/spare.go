package tw

import (
	"reflect"

	"ggpdes/internal/pq"
)

// Spare memory. A checkpointed run builds a fresh engine at every
// boundary, and a fresh engine starts with an empty store and empty
// arrays: for the first rounds of every segment each send, snapshot and
// queue insert is a heap allocation, while everything the previous
// engine had becomes garbage. Capture therefore hands what the quiesced
// engine already has to a spare set that rides on the returned
// EngineState, and an engine built from that state adopts it:
//
//   - each peer's pending heap, sorted by the quiesce and still holding
//     the capture's pending events, which the successor takes as it is
//     instead of turning the records back into events and pushing them;
//   - the live LP states, the very objects encodeLPs has just
//     serialized, which the successor installs where it would otherwise
//     decode the bytes back into copies of them, and the LP slab they
//     sat in, cleared and re-seeded;
//   - the engine's store (pool.go) as it is — its dead events, with the
//     cancelled events the quiesce removed from the heaps poisoned and
//     added, its dead snapshots, the uncarved rest of its chunks — and
//     each peer's emptied quiesce array and input queue;
//   - the capture itself, the arena its LP states are slices of and the
//     array its pending records are, which the successor's own capture
//     writes over once its caller has said nothing reads them any more
//     (Engine.ReleaseStart).
//
// The store is one set of memory for the whole engine, so a thread
// group whose load has moved elsewhere holds none of it: what one
// segment needed the next takes, whichever threads need it then. The
// store's arrays keep the length the largest set grew, 8 or 16 bytes an
// entry, for the rest of the run.
//
// pool.go's rule stands: recycling reuses memory, never logic — and the
// committed cut's state is data, not logic. The successor is a fresh
// Engine with fresh Peers and freshly seeded LPs. The pending events
// are exactly the capture's records, which it checks; they are neither
// pool hits nor misses, as they never were. The store sits behind every
// logical count by construction: the successor's peers and LPs start
// at zero, so each allocation counts the miss exactly as it would
// have, and only its memory comes from the predecessor. So the pool
// counters, and with them Results, cannot tell an engine that adopted a
// spare set from one that did not — which they must not, because Resume
// builds the same segment from a file and has none
// (TestCaptureContinuation, TestStatesRideTheSpareSet). The set is
// unexported, never serialized, taken by the first engine built from
// the state, and ignored whole — so that engine decodes its states and
// pushes its records — unless its model type, thread count and LP
// count are the harvested one's (fits). The engine that adopts it keeps
// the set and fills it again at its own capture.
type spareMemory struct {
	// model is the harvested engine's model type: states a model of
	// another type did not create are of no use to it, live or dead.
	model reflect.Type
	peers []sparePeer
	mem   memStore
	// live holds the LP states at the committed cut, by LP id; lps is
	// the slab the LPs were, and lpPtrs their pointers, by LP id.
	live   []State
	lps    []LP
	lpPtrs []*LP
	// state is the capture the set rides on, arena the bytes its LP
	// states are slices of and records the array its pending records are.
	state   *EngineState
	arena   []byte
	records []EventRecord
}

type sparePeer struct {
	pending  *pq.BinHeap[*Event] // sorted, holding the capture's pending events
	quiesced []*Event            // empty, for the successor's quiesce
	inq      []*Event            // empty, for the successor's input queue
}

// harvestSpare collects the quiesced, captured engine's reusable memory
// into the spare set it adopted, or a new one, and returns it; st is the
// capture, arena its LP state bytes and records its pending records.
// The engine must not be used afterwards.
func (e *Engine) harvestSpare(st *EngineState, arena []byte, records []EventRecord) *spareMemory {
	sp := e.spare
	e.spare = nil
	if sp == nil {
		sp = &spareMemory{peers: make([]sparePeer, len(e.peers)), live: make([]State, len(e.lps))}
	}
	sp.model = reflect.TypeOf(e.cfg.Model)
	sp.lps, sp.lpPtrs = e.lpSlab, e.lps
	sp.state, sp.arena, sp.records = st, arena, records
	for i, p := range e.peers {
		for _, ev := range p.quiesced {
			e.mem.putEvent(ev)
		}
		clear(p.quiesced)
		// The pending heap stays the engine's too: it may still be
		// checked, but the successor pops from it.
		sp.peers[i] = sparePeer{pending: p.pending, quiesced: p.quiesced[:0], inq: p.inq[:0]}
		p.quiesced, p.inq = nil, nil
	}
	sp.mem, e.mem = e.mem, memStore{}
	for i, lp := range e.lps {
		sp.live[i], lp.state = lp.state, nil
	}
	return sp
}

// fits reports whether the set was harvested from an engine of cfg's
// shape — the same model type, so every state in it is one cfg's model
// could have created, and the same thread and LP counts. A nil set
// fits nothing.
func (sp *spareMemory) fits(cfg Config) bool {
	return sp != nil && sp.model == reflect.TypeOf(cfg.Model) &&
		len(sp.peers) == cfg.NumThreads && len(sp.live) == cfg.NumThreads*cfg.Model.LPsPerThread()
}

// adoptSpare hands a predecessor's spare memory, which fits, to a
// freshly built engine, whose peers and LPs newEngineShell has already
// given the pending heaps and the LP slab: the LP states, the store and
// the arrays as they are. The engine keeps the set for its own capture
// to fill again.
func (e *Engine) adoptSpare(sp *spareMemory) {
	for i, p := range e.peers {
		s := &sp.peers[i]
		p.quiesced, p.inq = s.quiesced, s.inq
		*s = sparePeer{}
	}
	e.mem, sp.mem = sp.mem, memStore{}
	for i, lp := range e.lps {
		lp.state = sp.live[i]
	}
	e.spare = sp
}
