package tw

import (
	"math"
	"reflect"
)

// Event and snapshot memory. Every event send, anti-message and
// copy-state snapshot needs an object. Whether it is a pool hit or a
// miss, and where its memory comes from, are two separate questions.
//
// Counts: PARSIR-style per-thread recycling, kept as logical counts.
// An event allocation is a hit when its peer has freed more events than
// it has taken back (Peer.pooled), and a snapshot is a hit when its LP
// has released more snapshots than it has taken back (LP.pooled). The
// tw.pool.* counters, and with them Results and every bench/golden
// digest, record these counts, so neither may move: counting per engine
// instead, or counting snapshots per peer, moves them all.
//
// Memory: the engine's. The engine keeps one store of dead events, one
// of dead snapshots of its pooled state type, and one set of chunks.
// Every allocation, hit or miss, takes the newest dead object from the
// store and carves only when the store is empty. A pool only hands back
// what fossil collection has already fed it, so a run misses until its
// in-flight set — pending, processed-but-uncommitted, in transit — has
// been built once; the benchmark's traffic-oversub-rollback config at
// seed 1 completes 9 GVT rounds with 77,028 events uncommitted at peak,
// and 89,489 of its 260,220 event allocations and 81,370 of its 182,568
// snapshots miss. That much is warm-up whoever owns the memory. What an
// engine-wide store changes is a moving load: under 1-K imbalanced
// PHOLD only one thread group has traffic in a window, and the active
// group moves on window by window. With a store per thread each
// window's thread carved its in-flight set afresh while the last
// group's dead memory sat unused — 9,940 of gg-async's 10,417 event
// allocations missed against a peak of 674 uncommitted events, and
// every miss was a carve. Behind the same counts the engine now carves
// about as much as its live set (TestMovingLoadCarvesItsLiveSet).
//
// Chunk: a carve takes a slot from a chunk (see carveEvent,
// carveSnapshot), the event's first send lands in a slot of the event
// itself, and a sent list that outgrows that slot takes its windows
// from a chunk too (appendSent: Epidemics' infectious course sends a
// recovery and several contacts per handler, and growslice under send
// was a third of what its runs still allocated). What a carve costs the
// allocator is a chunk every chunkMax objects: whole-run mallocs per
// committed event on that traffic config went 2.96 → 0.17 when chunks
// replaced one heap object per miss. Nothing switches recycling or the
// chunks off: what checks them is the sequential reference executor
// (seq_test.go), whose committed trajectory a pooled run must reproduce
// event for event (oracle_test.go).
//
// Recycling is safe at exactly the points used here because of the
// engine's reference discipline:
//
//   - A committed event can still be referenced by its cause's sent
//     list (the cause may commit later in the same GVT round on another
//     peer), but sent lists are only *dereferenced* during rollback and
//     the cause sits below GVT, where rollback is impossible.
//   - A cancelled event is freed only when a queue lazily drops it; by
//     then the annihilating anti-message has been consumed and the
//     sender removed it from its sent list.
//   - An anti-message is freed as soon as Drain handles it; nothing
//     else ever holds a reference to it.
//
// Freed events carry statePooled and poisoned ordering fields, so a
// use-after-recycle cannot silently order correctly in a queue; the
// state machine panics where a pooled event could flow in, and
// CheckInvariants sweeps all reachable containers (pool leak detection
// in both directions).
//
// Determinism: recycling reuses memory, never logic. Every field is
// reset on free and reassigned on alloc, sequence numbers come from
// the same global counter, and no code path branches on object
// identity. A recycling bug that the poison misses still shows as a
// committed event, a final LP state or an LVT that differs from the
// sequential executor's (TestOracle), or in the top-level
// seed-regression matrix.

// Pool metric names (see the Metric constants in engine.go for the
// engine's other metrics).
const (
	// MetricPoolEventHit / Miss count event allocations by a peer that
	// had freed events to its count vs. not (Peer.pooled); Recycled
	// counts events returned.
	MetricPoolEventHit      = "tw.pool.event_hit"
	MetricPoolEventMiss     = "tw.pool.event_miss"
	MetricPoolEventRecycled = "tw.pool.event_recycled"
	// MetricPoolStateHit / Miss count copy-state snapshots taken by an
	// LP with released snapshots to its count vs. not (LP.pooled);
	// Recycled counts snapshots returned.
	MetricPoolStateHit      = "tw.pool.state_hit"
	MetricPoolStateMiss     = "tw.pool.state_miss"
	MetricPoolStateRecycled = "tw.pool.state_recycled"
)

// poolStats accumulates per-peer pool traffic with plain increments;
// the peer flushes them to telemetry counters at fossil collection so
// the per-event path performs no atomic operations.
type poolStats struct {
	eventHit, eventMiss, eventRecycled uint64
	stateHit, stateMiss, stateRecycled uint64
}

// memStore is the engine's dead memory and the chunks behind it.
type memStore struct {
	events []*Event      // dead and poisoned
	states []StateCopier // dead snapshots of the pooled state type
	// The chunks a carve takes from; eventChunkLen is the length the
	// current event chunk was made with. sentChunk is what a sent list
	// that has outgrown its event's inline slot takes its window from.
	eventChunk    []Event
	eventChunkLen int
	stateChunk    stateChunk
	sentChunk     []*Event
}

// push appends v to a store, doubling its array when it is full:
// append's 1.25x growth past 256 entries leaves about four times the
// store's final size behind as garbage.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, max(2*cap(s), chunkMax)), s...)
	}
	return append(s, v)
}

// allocEvent returns a zeroed event, counted against the peer's
// logical freelist. Callers must assign every field they need; alloc
// clears all of them except the sent backing array, whose capacity is
// the point of recycling.
func (p *Peer) allocEvent() *Event {
	if p.pooled > 0 {
		p.pooled--
		p.pool.eventHit++
	} else {
		p.pool.eventMiss++
	}
	e := p.eng
	m := &e.mem
	n := len(m.events)
	if n == 0 {
		if e.sharded() {
			return &Event{}
		}
		return m.carveEvent()
	}
	ev := m.events[n-1]
	m.events[n-1] = nil
	m.events = m.events[:n-1]
	if ev.state != statePooled {
		panic("tw: corrupted event store: " + ev.String())
	}
	ev.state = StateInQueue
	ev.Ts = 0
	return ev
}

// freeEvent returns a dead event to the engine's store, resetting every
// field and poisoning the ordering key, and counts it on the peer.
func (p *Peer) freeEvent(ev *Event) {
	// A twin materialized from the wire (shard.go) leaves the
	// anti-message resolution table when its lifecycle ends, whether or
	// not its memory is recycled. Anti-messages are never registered.
	if m := p.eng.remoteIdx; m != nil && !ev.Anti {
		delete(m, ev.Seq)
	}
	if ev.state == statePooled {
		panic("tw: double free of event " + ev.String())
	}
	ev.poison()
	p.pooled++
	p.pool.eventRecycled++
	p.eng.mem.events = push(p.eng.mem.events, ev)
}

// poison resets every field of a dead event, keeping only the emptied
// sent backing array, and marks it pooled with an ordering key that
// sorts nowhere valid.
func (ev *Event) poison() {
	clear(ev.sent)
	ev.sent = ev.sent[:0]
	ev.inline[0] = nil // stale once sent has outgrown it
	ev.Ts, ev.state = math.Inf(-1), statePooled
	ev.Seq, ev.Src, ev.Dst, ev.Kind, ev.Anti, ev.Target = 0, 0, 0, 0, false, nil
	ev.A, ev.B = 0, 0
	ev.prev, ev.next = nil, nil
	ev.saved = Snapshot{}
}

// Chunks. An allocation that finds the store empty is served from a
// chunk, so that an engine still growing toward its working set pays
// the allocator once per chunk instead of once per object. Chunk
// lengths double from chunkMin to chunkMax: an engine that needs a
// dozen events holds a dozen-odd, not sixty-four.
//
// A chunk lives as long as any object carved from it, which is why a
// sharded worker engine carves no events: the shadow of a cross-shard
// send and the local copy of a wire anti-message are never freed
// (shard.go) — the collector takes them one by one once their cause
// lets go — and inside a chunk whose other events cycle through the
// store for the rest of the run each would be a slot lost for good,
// 152 bytes per cross-shard send. Snapshots and queue nodes never
// leave their engine, so workers carve those like anyone else.
const (
	chunkMin = 8
	chunkMax = 64
)

func nextChunkLen(prev int) int { return min(max(2*prev, chunkMin), chunkMax) }

// carveEvent returns a zero event from the event chunk, its sent list
// aliasing its own inline array.
func (m *memStore) carveEvent() *Event {
	if len(m.eventChunk) == 0 {
		m.eventChunkLen = nextChunkLen(m.eventChunkLen)
		m.eventChunk = make([]Event, m.eventChunkLen)
	}
	ev := &m.eventChunk[0]
	m.eventChunk = m.eventChunk[1:]
	ev.sent = ev.inline[:0]
	return ev
}

// sentWindowMin is the capacity a sent list gets when it outgrows the
// event's inline slot; sentChunkLen is how many list slots the engine
// asks the allocator for at a time.
const (
	sentWindowMin = 4
	sentChunkLen  = 256
)

// appendSent appends ev to a cause's sent list. A full list takes its
// next window — sentWindowMin slots, then double what it had — from the
// engine's chunk rather than from the allocator, and keeps it across
// recycling like any other backing array. Handlers that send once never
// get here with a full list (the inline slot holds their send).
func (p *Peer) appendSent(list []*Event, ev *Event) []*Event {
	e := p.eng
	if len(list) < cap(list) || e.sharded() {
		return append(list, ev)
	}
	m := &e.mem
	n := max(sentWindowMin, 2*cap(list))
	if len(m.sentChunk) < n {
		m.sentChunk = make([]*Event, max(n, sentChunkLen))
	}
	window := m.sentChunk[:len(list):n]
	m.sentChunk = m.sentChunk[n:]
	copy(window, list)
	clear(list)
	return append(window, ev)
}

// stateChunk is the engine's snapshot chunk: a slice of the element
// type of its pooled state type, built by reflection so that models
// need no allocation hook. Its elements start out as zero values, which
// StateCopier promises CopyFrom can fill.
type stateChunk struct {
	typ       reflect.Type  // the pooled state type (fixStateType); nil when nothing is pooled
	vals      reflect.Value // the current chunk, a []typ.Elem() of length len
	next, len int           // next is the first uncarved element
}

// fixStateType fixes the engine's pooled state type: the type of its
// first LP whose state is a pointer StateCopier. Both engine
// constructors call it once the LP states are in place, before anything
// is acquired or released, so an engine built by InitLP, from a
// capture's spare memory, or from decoded records pools the same type
// from its first event on.
func (e *Engine) fixStateType() {
	for _, lp := range e.lps {
		t := reflect.TypeOf(lp.state)
		if _, ok := lp.state.(StateCopier); ok && t.Kind() == reflect.Pointer {
			e.mem.stateChunk.typ = t
			return
		}
	}
}

// carveSnapshot returns a zero value of the pooled state type from the
// snapshot chunk.
func (m *memStore) carveSnapshot() StateCopier {
	c := &m.stateChunk
	if c.next == c.len {
		c.len = nextChunkLen(c.len)
		c.vals, c.next = reflect.MakeSlice(reflect.SliceOf(c.typ.Elem()), c.len, c.len), 0
	}
	dst := c.vals.Index(c.next).Addr().Interface().(StateCopier)
	c.next++
	return dst
}

// acquireSnapshot returns a deep copy of lp's current state for the
// pre-execution snapshot. Whether it is a hit or a miss is the LP's
// own count (lp.pooled), but the memory is the engine's: a state of the
// pooled type overwrites the newest dead snapshot in the store, else a
// slot carved from the chunk. A state of another type, or one that only
// Clones, is Cloned.
func (p *Peer) acquireSnapshot(lp *LP) State {
	if lp.pooled > 0 {
		lp.pooled--
		p.pool.stateHit++
	} else {
		p.pool.stateMiss++
	}
	m := &p.eng.mem
	if reflect.TypeOf(lp.state) != m.stateChunk.typ {
		return lp.state.Clone()
	}
	var dst StateCopier
	if n := len(m.states); n > 0 {
		dst = m.states[n-1]
		m.states[n-1] = nil
		m.states = m.states[:n-1]
	} else {
		dst = m.carveSnapshot()
	}
	dst.CopyFrom(lp.state)
	return dst
}

// releaseSnapshot takes back a dead state copy (fossil-collected
// snapshot, or the pre-rollback live state a restore displaced). Any
// StateCopier counts as recycled and as a future hit for its LP; only
// one of the pooled type goes into the engine's store, and the rest —
// Clone-only states too — is left for the GC.
func (p *Peer) releaseSnapshot(lp *LP, st State) {
	if st == nil {
		return
	}
	c, ok := st.(StateCopier)
	if !ok {
		return
	}
	lp.pooled++
	p.pool.stateRecycled++
	if m := &p.eng.mem; reflect.TypeOf(st) == m.stateChunk.typ {
		m.states = push(m.states, c)
	}
}

// flushPoolStats folds the accumulated pool traffic into the engine's
// telemetry counters; called at fossil collection (periodic, outside
// the per-event path) and by Engine.FlushPoolStats at run teardown.
func (p *Peer) flushPoolStats() {
	s := &p.pool
	if s.eventHit == 0 && s.eventMiss == 0 && s.eventRecycled == 0 &&
		s.stateHit == 0 && s.stateMiss == 0 && s.stateRecycled == 0 {
		return
	}
	t := &p.tel
	t.poolEventHit.Add(s.eventHit)
	t.poolEventMiss.Add(s.eventMiss)
	t.poolEventRecycled.Add(s.eventRecycled)
	t.poolStateHit.Add(s.stateHit)
	t.poolStateMiss.Add(s.stateMiss)
	t.poolStateRecycled.Add(s.stateRecycled)
	p.poolFlushed.eventHit += s.eventHit
	p.poolFlushed.eventMiss += s.eventMiss
	*s = poolStats{}
}

// FlushPoolStats publishes any pool traffic still buffered in the
// peers, and the uncommitted peak, to the telemetry registry. Run
// teardown calls it so the last partial GVT round is not lost.
func (e *Engine) FlushPoolStats() {
	for _, p := range e.peers {
		p.flushPoolStats()
	}
	e.publishPeak()
}
