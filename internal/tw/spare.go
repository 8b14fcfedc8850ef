package tw

import (
	"reflect"

	"ggpdes/internal/pq"
)

// Spare memory. A checkpointed run builds a fresh engine at every
// boundary, and a fresh engine starts with cold pools and empty arrays:
// for the first rounds of every segment each send, snapshot and queue
// insert is a heap allocation, while everything the previous engine had
// becomes garbage. Capture therefore hands what the quiesced engine
// already has to a spare set that rides on the returned EngineState,
// and an engine built from that state adopts it:
//
//   - each peer's pending heap, sorted by the quiesce and still holding
//     the capture's pending events, which the successor takes as it is
//     instead of turning the records back into events and pushing them;
//   - the live LP states, the very objects encodeLPs has just
//     serialized, which the successor installs where it would otherwise
//     decode the bytes back into copies of them, and the LP slab they
//     sat in, cleared and re-seeded;
//   - per peer, the dead memory: the freelist and the cancelled events
//     the quiesce removed from the heap (poisoned), the snapshots in the
//     peer's store, the uncarved rest of its event, snapshot and
//     sent-list chunks, and the emptied freelist, spare-event and
//     quiesce arrays, which rotate, and input queue;
//   - the capture itself, the arena its LP states are slices of and the
//     array its pending records are, which the successor's own capture
//     writes over once its caller has said nothing reads them any more
//     (Engine.ReleaseStart).
//
// Only memory the engine itself used is passed on: spare memory it
// adopted and never took is dropped, so a thread whose load has moved
// elsewhere keeps its high-water mark for one segment, not for the rest
// of the run (carrying everything read +2 MB of live heap on the
// epidemics benchmark, whose active region shifts from thread group to
// thread group). The arrays are the exception: each is the peer's own
// and keeps the length its largest set grew, 8 or 16 bytes an entry,
// for the rest of the run.
//
// pool.go's rule stands: recycling reuses memory, never logic — and the
// committed cut's state is data, not logic. The successor is a fresh
// Engine with fresh Peers and freshly seeded LPs. The pending events
// are exactly the capture's records, which it checks; they are neither
// pool hits nor misses, as they never were. Everything else in the set
// but the live states and the arrays sits behind the pools' miss path,
// not in the pools: allocEvent finds its freelist empty and
// acquireSnapshot its LP's count at zero, each counts the miss exactly
// as it would have, and only then takes spare memory where it used to
// call the allocator. So the pool counters, and with them Results,
// cannot tell an engine that adopted a spare set from one that did not
// — which they must not, because Resume builds the same segment from a
// file and has none (TestCaptureContinuation, TestStatesRideTheSpareSet).
// Spare events are poisoned like freelisted ones while they wait and
// reset the same way when taken; CheckInvariants sweeps them. The set
// is unexported, never serialized, taken by the first engine built from
// the state, and ignored whole — so that engine decodes its states and
// pushes its records — unless the engine pools and its model type,
// thread count and LP count are the harvested one's (fits). The engine
// that adopts it keeps the set and fills it again at its own capture.
type spareMemory struct {
	// model is the harvested engine's model type: states a model of
	// another type did not create are of no use to it, live or dead.
	model reflect.Type
	peers []sparePeer
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
	events   []*Event            // poisoned: the freelist and the cancelled events
	free     []*Event            // empty, for the successor's freelist
	quiesced []*Event            // empty, for the successor's quiesce
	inq      []*Event            // empty, for the successor's input queue
	states   []StateCopier       // the peer's snapshot store: dead, of its pooled state type
	// The uncarved rest of the peer's chunks (pool.go).
	eventChunk    []Event
	eventChunkLen int
	stateChunk    stateChunk
	sentChunk     []*Event
}

// harvestSpare collects the quiesced, captured engine's reusable memory
// into the spare set it adopted, or a new one, and returns it; st is the
// capture, arena its LP state bytes and records its pending records.
// The engine must not be used afterwards.
func (e *Engine) harvestSpare(st *EngineState, arena []byte, records []EventRecord) *spareMemory {
	if e.cfg.DisablePooling {
		return nil
	}
	sp := e.spare
	e.spare = nil
	if sp == nil {
		sp = &spareMemory{peers: make([]sparePeer, len(e.peers)), live: make([]State, len(e.lps))}
	}
	sp.model = reflect.TypeOf(e.cfg.Model)
	sp.lps, sp.lpPtrs = e.lpSlab, e.lps
	sp.state, sp.arena, sp.records = st, arena, records
	for i, p := range e.peers {
		events := p.freeEvents
		for _, ev := range p.quiesced {
			ev.poison()
			events = append(events, ev)
		}
		clear(p.quiesced)
		// Spare events this engine never took are dropped; their array
		// becomes the successor's freelist.
		clear(p.spareEvents)
		// The snapshots this engine released move down over the spare
		// ones it never took, in the same array, which the successor
		// grows its store in.
		kept := copy(p.statePool, p.statePool[p.spareStates:])
		clear(p.statePool[kept:])
		// The pending heap stays the engine's too: it may still be
		// checked, but the successor pops from it.
		sp.peers[i] = sparePeer{
			pending: p.pending, events: events, free: p.spareEvents[:0], quiesced: p.quiesced[:0], inq: p.inq[:0],
			states:     p.statePool[:kept],
			eventChunk: p.eventChunk, eventChunkLen: p.eventChunkLen, stateChunk: p.stateChunk, sentChunk: p.sentChunk,
		}
		p.freeEvents, p.spareEvents, p.quiesced, p.inq = nil, nil, nil, nil
		p.statePool, p.spareStates = nil, 0
		p.eventChunk, p.stateChunk, p.sentChunk = nil, stateChunk{}, nil
	}
	for i, lp := range e.lps {
		sp.live[i], lp.state = lp.state, nil
	}
	return sp
}

// fits reports whether the set was harvested from an engine of cfg's
// shape — the same model type, so every state in it is one cfg's model
// could have created, and the same thread and LP counts — and cfg
// recycles at all. A nil set fits nothing.
func (sp *spareMemory) fits(cfg Config) bool {
	return sp != nil && !cfg.DisablePooling && sp.model == reflect.TypeOf(cfg.Model) &&
		len(sp.peers) == cfg.NumThreads && len(sp.live) == cfg.NumThreads*cfg.Model.LPsPerThread()
}

// adoptSpare hands a predecessor's spare memory, which fits, to a
// freshly built engine, whose peers and LPs newEngineShell has already
// given the pending heaps and the LP slab: the LP states as they are,
// the dead memory behind the pools' miss path, the arrays as they are.
// The engine keeps the set for its own capture to fill again.
func (e *Engine) adoptSpare(sp *spareMemory) {
	for i, p := range e.peers {
		s := &sp.peers[i]
		p.spareEvents, p.freeEvents, p.quiesced, p.inq = s.events, s.free, s.quiesced, s.inq
		p.statePool, p.spareStates = s.states, len(s.states)
		p.eventChunk, p.eventChunkLen, p.stateChunk, p.sentChunk = s.eventChunk, s.eventChunkLen, s.stateChunk, s.sentChunk
		*s = sparePeer{}
	}
	for i, lp := range e.lps {
		lp.state = sp.live[i]
	}
	e.spare = sp
}

// takeSpareEvent returns a zeroed event from the spare set, nil when it
// is used up. The caller has already counted whatever it counts.
func (p *Peer) takeSpareEvent() *Event {
	n := len(p.spareEvents)
	if n == 0 {
		return nil
	}
	ev := p.spareEvents[n-1]
	p.spareEvents[n-1] = nil
	p.spareEvents = p.spareEvents[:n-1]
	if ev.state != statePooled {
		panic("tw: corrupted spare event set: " + ev.String())
	}
	ev.state = StateInQueue
	ev.Ts = 0
	return ev
}
