package tw

import (
	"math"
	"reflect"
)

// Event and snapshot memory. Every event send, anti-message and
// copy-state snapshot needs an object; where it comes from is decided
// in three steps, cheapest first.
//
// Hit path: the freelists. PARSIR-style per-thread recycling: each Peer
// keeps a freelist of Events whose lifecycle has ended (fossil
// collected, or annihilated and lazily dropped from a queue), and one
// store of the state snapshots its LPs' fossil collections and
// rollbacks returned. A hit pops one, resets it and allocates nothing.
// Whether a snapshot is a hit is still decided per LP — each LP counts
// what it has released and not taken back (LP.pooled), exactly as when
// each LP kept a freelist of its own — because the counters, and with
// them Results, record it; only the memory is shared. Counting per peer
// instead moves tw.pool.state_hit/miss and every bench/golden digest.
//
// Miss path: the freelist is empty (for a snapshot: the LP's count is
// zero). A pool only hands back what fossil
// collection has already fed it, so a run misses until its in-flight
// set — pending, processed-but-uncommitted, in transit — has been built
// once, and short runs are all warm-up. The benchmark's
// traffic-oversub-rollback config at seed 1 completes 9 GVT rounds with
// 77,028 events uncommitted at peak: 89,489 of its 260,220 event
// allocations and 81,370 of its 182,568 snapshots miss (phold-sync, a
// small in-flight set: 5,162 of 150,011 and 4,425 of 126,114). A miss
// is counted, then served from spare memory a predecessor engine left
// behind if there is any (spare.go), and only then from the third step.
//
// Chunk: where a miss used to be one heap object — a 168-byte
// pointer-laden Event, a Clone, and then the first append to the new
// event's sent list — it now carves a slot from a per-peer chunk (see
// carveEvent, carveSnapshot), the event's first send lands in a slot
// of the event itself, and a sent list that outgrows that slot takes
// its windows from a chunk too (appendSent: Epidemics' infectious
// course sends a recovery and several contacts per handler, and
// growslice under send was a third of what its runs still allocated).
// What a miss costs the allocator is a chunk every chunkMax objects:
// whole-run mallocs per committed event on that traffic config went
// 2.96 → 0.17, and the collector has a few hundred
// large typed arrays to mark where it had a quarter of a million small
// objects. The counters cannot tell: they count the miss, not the
// memory behind it, and TestPoolCountersUnchanged pins all six to what
// they read before there were chunks. DisablePooling switches off
// recycling and chunks alike — one object per allocation, nothing ever
// reused — which keeps it the plain-allocator reference every pooling
// test compares against.
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
//     sender removed it from its sent/tentative lists.
//   - An anti-message is freed as soon as Drain handles it; nothing
//     else ever holds a reference to it.
//
// Freed events carry statePooled and poisoned ordering fields, so a
// use-after-recycle cannot silently match a lazy-cancellation
// re-adoption or order correctly in a queue; the state machine panics
// where a pooled event could flow in, and CheckInvariants sweeps all
// reachable containers (pool leak detection in both directions).
//
// Determinism: recycling reuses memory, never logic. Every field is
// reset on free and reassigned on alloc, sequence numbers come from
// the same global counter, and no code path branches on object
// identity — pooled and unpooled runs commit byte-identical
// trajectories (asserted by TestPoolingPreservesTrajectories and the
// top-level seed-regression matrix).

// Pool metric names (see the Metric constants in engine.go for the
// engine's other metrics).
const (
	// MetricPoolEventHit / Miss count event allocations served from a
	// peer freelist vs. not (spare memory, a chunk, or with pooling
	// disabled the heap); Recycled counts events returned.
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

// allocEvent returns a zeroed event, recycling from the peer freelist
// when possible. Callers must assign every field they need; alloc
// clears all of them except the sent/tentative backing arrays, whose
// capacity is the point of recycling.
func (p *Peer) allocEvent() *Event {
	n := len(p.freeEvents)
	if n == 0 {
		p.pool.eventMiss++
		if ev := p.takeSpareEvent(); ev != nil {
			return ev
		}
		if p.eng.cfg.DisablePooling || p.eng.sharded() {
			return &Event{}
		}
		return p.carveEvent()
	}
	ev := p.freeEvents[n-1]
	p.freeEvents[n-1] = nil
	p.freeEvents = p.freeEvents[:n-1]
	if ev.state != statePooled {
		panic("tw: corrupted event freelist: " + ev.String())
	}
	ev.state = StateInQueue
	ev.Ts = 0
	p.pool.eventHit++
	return ev
}

// freeEvent returns a dead event to the peer freelist, resetting every
// field and poisoning the ordering key. With pooling disabled it does
// nothing, preserving the historical allocate-and-drop behaviour.
func (p *Peer) freeEvent(ev *Event) {
	// A twin materialized from the wire (shard.go) leaves the
	// anti-message resolution table when its lifecycle ends, whether or
	// not its memory is recycled. Anti-messages are never registered.
	if m := p.eng.remoteIdx; m != nil && !ev.Anti {
		delete(m, ev.Seq)
	}
	if p.eng.cfg.DisablePooling {
		return
	}
	if ev.state == statePooled {
		panic("tw: double free of event " + ev.String())
	}
	ev.poison()
	p.pool.eventRecycled++
	p.freeEvents = append(p.freeEvents, ev)
}

// poison resets every field of a dead event, keeping only the emptied
// sent/tentative backing arrays, and marks it pooled with an ordering
// key that sorts nowhere valid and matches no re-adoption.
func (ev *Event) poison() {
	clear(ev.sent)
	clear(ev.tentative)
	ev.sent, ev.tentative = ev.sent[:0], ev.tentative[:0]
	ev.inline[0] = nil // stale once sent has outgrown it
	ev.Ts, ev.state = math.Inf(-1), statePooled
	ev.Seq, ev.Src, ev.Dst, ev.Kind, ev.Anti, ev.Target = 0, 0, 0, 0, false, nil
	ev.A, ev.B, ev.undo = 0, 0, 0
	ev.prev, ev.next = nil, nil
	ev.saved = Snapshot{}
}

// Chunks. A miss that finds no spare memory either is served from a
// per-peer chunk, so that a peer still growing toward its working set
// pays the allocator once per chunk instead of once per object. Chunk
// lengths double from chunkMin to chunkMax: a peer that needs a dozen
// events holds a dozen-odd, not sixty-four (a coordinator and two
// worker engines of idle peers each holding fixed 64-slot chunks read
// +15 % peak RSS on the distributed benchmark).
//
// A chunk lives as long as any object carved from it, which is why a
// sharded worker engine carves no events: the shadow of a cross-shard
// send and the local copy of a wire anti-message are never freed
// (shard.go) — the collector takes them one by one once their cause
// lets go — and inside a chunk whose other events cycle through the
// freelist for the rest of the run each would be a slot lost for good,
// 168 bytes per cross-shard send. Snapshots and queue nodes never
// leave their peer, so workers carve those like anyone else.
const (
	chunkMin = 8
	chunkMax = 64
)

func nextChunkLen(prev int) int { return min(max(2*prev, chunkMin), chunkMax) }

// carveEvent returns a zero event from the peer's chunk, its sent list
// aliasing its own inline array.
func (p *Peer) carveEvent() *Event {
	if len(p.eventChunk) == 0 {
		p.eventChunkLen = nextChunkLen(p.eventChunkLen)
		p.eventChunk = make([]Event, p.eventChunkLen)
	}
	ev := &p.eventChunk[0]
	p.eventChunk = p.eventChunk[1:]
	ev.sent = ev.inline[:0]
	return ev
}

// sentWindowMin is the capacity a sent list gets when it outgrows the
// event's inline slot; sentChunkLen is how many list slots a peer asks
// the allocator for at a time.
const (
	sentWindowMin = 4
	sentChunkLen  = 256
)

// appendSent appends ev to a cause's sent list. A full list takes its
// next window — sentWindowMin slots, then double what it had — from the
// peer's chunk rather than from the allocator, and keeps it across
// recycling like any other backing array. Handlers that send once never
// get here with a full list (the inline slot holds their send).
func (p *Peer) appendSent(list []*Event, ev *Event) []*Event {
	if len(list) < cap(list) || p.eng.cfg.DisablePooling || p.eng.sharded() {
		return append(list, ev)
	}
	n := max(sentWindowMin, 2*cap(list))
	if len(p.sentChunk) < n {
		p.sentChunk = make([]*Event, max(n, sentChunkLen))
	}
	window := p.sentChunk[:len(list):n]
	p.sentChunk = p.sentChunk[n:]
	copy(window, list)
	clear(list)
	return append(window, ev)
}

// stateChunk is a peer's snapshot chunk: a slice of the element type
// of the peer's pooled state type, built by reflection so that models
// need no allocation hook. Its elements start out as zero values, which
// StateCopier promises CopyFrom can fill.
type stateChunk struct {
	typ       reflect.Type  // the pooled state type (fixStateType); nil when nothing is pooled
	vals      reflect.Value // the current chunk, a []typ.Elem() of length len
	next, len int           // next is the first uncarved element
}

// fixStateType fixes the peer's pooled state type: the type of its
// first LP whose state is a pointer StateCopier, none with pooling
// disabled. Both engine constructors call it once the LP states are in
// place, before anything is acquired or released, so an engine built
// by InitLP, from a capture's spare memory, or from decoded records
// pools the same type from its first event on.
func (p *Peer) fixStateType() {
	if p.eng.cfg.DisablePooling {
		return
	}
	for _, lp := range p.lps {
		t := reflect.TypeOf(lp.state)
		if _, ok := lp.state.(StateCopier); ok && t.Kind() == reflect.Pointer {
			p.stateChunk.typ = t
			return
		}
	}
}

// carveSnapshot returns a zero value of the pooled state type from the
// peer's chunk.
func (p *Peer) carveSnapshot() StateCopier {
	c := &p.stateChunk
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
// own count (lp.pooled), but the memory is the peer's: a state of the
// pooled type overwrites the newest dead snapshot in the peer's store —
// one this engine released, else one a predecessor engine left behind
// (spare.go) — else a slot carved from the chunk. A state of another
// type, one that only Clones, or any state with pooling disabled is
// Cloned.
func (p *Peer) acquireSnapshot(lp *LP) State {
	if lp.pooled > 0 {
		lp.pooled--
		p.pool.stateHit++
	} else {
		p.pool.stateMiss++
	}
	if reflect.TypeOf(lp.state) != p.stateChunk.typ {
		return lp.state.Clone()
	}
	var dst StateCopier
	if n := len(p.statePool); n > 0 {
		dst = p.statePool[n-1]
		p.statePool[n-1] = nil
		p.statePool = p.statePool[:n-1]
		p.spareStates = min(p.spareStates, n-1)
	} else {
		dst = p.carveSnapshot()
	}
	dst.CopyFrom(lp.state)
	return dst
}

// releaseSnapshot takes back a dead state copy (fossil-collected
// snapshot, or the pre-rollback live state a restore displaced). Any
// StateCopier counts as recycled and as a future hit for its LP; only
// one of the pooled type goes into the peer's store, and the rest —
// Clone-only states too — is left for the GC.
func (p *Peer) releaseSnapshot(lp *LP, st State) {
	if st == nil || p.eng.cfg.DisablePooling {
		return
	}
	c, ok := st.(StateCopier)
	if !ok {
		return
	}
	lp.pooled++
	p.pool.stateRecycled++
	if reflect.TypeOf(st) == p.stateChunk.typ {
		p.statePool = append(p.statePool, c)
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
// peers to the telemetry registry. Run teardown calls it so the last
// partial GVT round is not lost from the counters.
func (e *Engine) FlushPoolStats() {
	for _, p := range e.peers {
		p.flushPoolStats()
	}
}
