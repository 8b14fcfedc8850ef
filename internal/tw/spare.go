package tw

import (
	"reflect"
	"slices"

	"ggpdes/internal/pq"
)

// Spare memory. A checkpointed run builds a fresh engine at every
// boundary, and a fresh engine starts with cold pools: for the first
// rounds of every segment each send, snapshot and queue insert is a
// heap allocation, while everything the previous engine had pooled
// becomes garbage. Capture therefore harvests what the quiesced engine
// no longer needs — its events (freelisted or just converted into
// records), the snapshots in its peers' stores, the emptied pending
// queues with their nodes, and the live LP states themselves — into a
// spare set that rides on the returned EngineState, and an engine built
// from that state adopts it. The states are the very objects encodeLPs
// has just serialized: the successor installs them where it would
// otherwise decode the bytes back into copies of them (two objects per
// Epidemics household, a quarter of what a checkpointed run
// allocated). Only memory the engine itself used is passed on: spare
// memory it adopted and never took is dropped, so a thread whose load
// has moved elsewhere keeps its high-water mark for one segment, not
// for the rest of the run (carrying everything read +2 MB of live heap
// on the epidemics benchmark, whose active region shifts from thread
// group to thread group). Everything in the set is per peer but the
// live states, one per LP: the histories are linked through their
// events and the snapshot stores are the peers', so no KP or LP has an
// array to hand on.
//
// pool.go's rule stands: recycling reuses memory, never logic — and the
// committed cut's state is data, not logic. The successor is a fresh
// Engine with fresh Peers, LPs and KPs, and everything in the set but
// the live states sits behind the pools' miss path, not in the pools:
// allocEvent finds its freelist empty and acquireSnapshot its LP's
// count at zero, each counts the miss exactly as it would have, and
// only then takes spare memory where it used to call the allocator. So
// the pool counters, and with them Results, cannot tell an engine that
// adopted a spare set from one that did not — which they must not,
// because Resume builds the same segment from a file and has none
// (TestCaptureContinuation, TestStatesRideTheSpareSet). Spare events
// are poisoned like freelisted ones while they wait and reset the same
// way when taken; CheckInvariants sweeps them. The set is unexported,
// never serialized, taken by the first engine built from the state, and
// ignored whole — so that engine decodes its states — unless the engine
// pools and its model type, thread count and LP count are the harvested
// one's (fits).
type spareMemory struct {
	// model is the harvested engine's model type: states a model of
	// another type did not create are of no use to it, live or dead.
	model reflect.Type
	peers []sparePeer
	// live holds the LP states at the committed cut, by LP id.
	live []State
}

type sparePeer struct {
	events []*Event              // poisoned
	nodes  *pq.SplayTree[*Event] // the emptied pending queue, for its nodes; nil for other kinds
	states []StateCopier         // the peer's snapshot store: dead, of its pooled state type
}

// harvestSpare collects the quiesced, captured engine's reusable
// memory; captured holds, per peer, the quiesced events the capture has
// just converted into records. The engine must not be used afterwards.
func (e *Engine) harvestSpare(captured [][]*Event) *spareMemory {
	if e.cfg.DisablePooling {
		return nil
	}
	sp := &spareMemory{
		model: reflect.TypeOf(e.cfg.Model),
		peers: make([]sparePeer, len(e.peers)),
		live:  make([]State, len(e.lps)),
	}
	for i, p := range e.peers {
		events := slices.Grow(p.freeEvents, len(captured[i]))
		for _, ev := range captured[i] {
			ev.poison()
			events = append(events, ev)
		}
		// The snapshots this engine released move down over the spare
		// ones it never took, in the same array, which the successor
		// grows its store in.
		kept := copy(p.statePool, p.statePool[p.spareStates:])
		clear(p.statePool[kept:])
		nodes, _ := p.pending.(*pq.SplayTree[*Event])
		sp.peers[i] = sparePeer{events: events, nodes: nodes, states: p.statePool[:kept]}
		p.spareEvents, p.freeEvents = nil, nil
		p.statePool, p.spareStates = nil, 0
	}
	for i, lp := range e.lps {
		sp.live[i], lp.state = lp.state, nil
	}
	return sp
}

// fits reports whether the set was harvested from an engine of e's
// shape — the same model type, so every state in it is one e's model
// could have created, and the same thread and LP counts — and e
// recycles at all. A nil set fits nothing.
func (sp *spareMemory) fits(e *Engine) bool {
	return sp != nil && !e.cfg.DisablePooling && sp.model == reflect.TypeOf(e.cfg.Model) &&
		len(sp.peers) == len(e.peers) && len(sp.live) == len(e.lps)
}

// adoptSpare hands a predecessor's spare memory, which fits, to a
// freshly built engine: the LP states as they are, the rest behind the
// pools' miss path.
func (e *Engine) adoptSpare(sp *spareMemory) {
	for i, p := range e.peers {
		s := &sp.peers[i]
		p.spareEvents = s.events
		p.statePool, p.spareStates = s.states, len(s.states)
		if dst, ok := p.pending.(*pq.SplayTree[*Event]); ok && s.nodes != nil {
			dst.AdoptNodes(s.nodes)
		}
	}
	for i, lp := range e.lps {
		lp.state = sp.live[i]
	}
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
