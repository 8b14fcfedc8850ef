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
// Memory: the engine's. The engine keeps one store of dead events,
// linked through their own next field, one of dead snapshots of its
// pooled state type, a stack of fixed-size blocks, and one set of
// chunks. Every allocation, hit or miss, takes the newest dead object
// from the store and carves only when the store is empty. Neither store
// is an array that doubles by copying: at traffic's 77k in flight the
// two left about 6 MB of arrays and garbage a run. A pool only hands back
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
// carveSnapshot). A send costs nothing beyond its event: the cause's
// sent list is linked through the sent events' own sib fields (event.go),
// so Epidemics' handlers, which send a recovery and several contacts
// each, grow no list. What a carve costs the allocator is a chunk every
// chunkMax objects: whole-run mallocs per committed event on that
// traffic config went 2.96 → 0.17 when chunks replaced one heap object
// per miss. Nothing switches recycling or the
// chunks off: what checks them is the sequential reference executor
// (seq_test.go), whose committed trajectory a pooled run must reproduce
// event for event (oracle_test.go).
//
// Recycling is safe at exactly the points used here because of the
// engine's reference discipline:
//
//   - A committed event can still be linked into its cause's sent list
//     (the cause may commit later in the same GVT round on another
//     peer), and the list runs on through the event's own sib, which
//     its next life overwrites. But sent lists are only walked during
//     rollback, the cause sits below GVT, where rollback is impossible,
//     and freeing the cause drops the list's head without a walk.
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
// sequential executor's (oracle_test.go: TestOracleGenerated's
// generated configs and the named reproducers).

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

// memStore is the engine's dead memory and the chunks behind it. Dead
// events are linked through their own next field, newest first, so
// freeing or reusing one touches nothing but the event; dead snapshots
// sit on a stack of fixed-size blocks. Neither store grows by copying.
type memStore struct {
	events  *Event // the newest dead event, poisoned; nil when none
	nEvents int    // the events linked from events (CheckInvariants)
	states  snapStack
	// The chunks a carve takes from; eventChunkLen is the length the
	// current event chunk was made with.
	eventChunk    []Event
	eventChunkLen int
	stateChunk    stateChunk
}

// putEvent poisons a dead event and links it into the store.
func (m *memStore) putEvent(ev *Event) {
	ev.poison()
	ev.next, m.events = m.events, ev
	m.nEvents++
}

// snapBlockLen is how many dead snapshots one block of the snapshot
// store holds: 16 KB of interface values.
const snapBlockLen = 1024

// snapStack is the engine's dead snapshots, the newest last, in blocks
// that are never moved or freed: the stack allocates one block per
// snapBlockLen entries it has ever held at once and copies no entry.
// Only its directory of block pointers, 8 bytes a block, grows by
// append.
type snapStack struct {
	blocks []*[snapBlockLen]StateCopier
	n      int
}

func (s *snapStack) push(c StateCopier) {
	if s.n == len(s.blocks)*snapBlockLen {
		s.blocks = append(s.blocks, new([snapBlockLen]StateCopier))
	}
	s.blocks[s.n/snapBlockLen][s.n%snapBlockLen] = c
	s.n++
}

// pop returns the newest dead snapshot, nil when there is none.
func (s *snapStack) pop() StateCopier {
	if s.n == 0 {
		return nil
	}
	s.n--
	b, i := s.blocks[s.n/snapBlockLen], s.n%snapBlockLen
	c := b[i]
	b[i] = nil
	return c
}

// allocEvent returns a zeroed event, counted against the peer's
// logical freelist. Callers must assign every field they need.
func (p *Peer) allocEvent() *Event {
	if p.pooled > 0 {
		p.pooled--
		p.pool.eventHit++
	} else {
		p.pool.eventMiss++
	}
	return p.eng.mem.takeEvent()
}

// takeEvent returns a zeroed event, the newest dead one or one carved
// from the chunk, without counting it on any peer: allocEvent counts
// its own, and a twin or anti-message copy materialized from the wire
// (shard.go) was counted by its sender in another process.
func (m *memStore) takeEvent() *Event {
	ev := m.events
	if ev == nil {
		return m.carveEvent()
	}
	if ev.state != statePooled {
		panic("tw: corrupted event store: " + ev.String())
	}
	m.events, ev.next = ev.next, nil
	m.nEvents--
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
	p.pooled++
	p.pool.eventRecycled++
	p.eng.mem.putEvent(ev)
}

// poison resets every field of a dead event and marks it pooled with
// an ordering key that sorts nowhere valid.
func (ev *Event) poison() {
	ev.Ts, ev.state = math.Inf(-1), statePooled
	ev.Seq, ev.Src, ev.Dst, ev.Kind, ev.Anti, ev.Target = 0, 0, 0, 0, false, nil
	ev.A, ev.B = 0, 0
	ev.prev, ev.next = nil, nil
	ev.saved = Snapshot{}
	ev.sent, ev.sib = nil, nil
}

// Chunks. An allocation that finds the store empty is served from a
// chunk, so that an engine still growing toward its working set pays
// the allocator once per chunk instead of once per object. Chunk
// lengths double from chunkMin to chunkMax: an engine that needs a
// dozen events holds a dozen-odd, not a thousand. A chunk is one heap
// object, of events or of snapshots, and a full event chunk is 1,024 ×
// 120 bytes, exactly 30 pages: a large object, which the allocator
// rounds to pages, with none of the 6 % a 64-event chunk lost to its
// 8 KiB size class (TestEventChunkIsWholePages). Traffic's 77k events
// in flight are about 90 chunks.
//
// A chunk lives as long as any object carved from it, so every event
// carved must come back to the store when it dies, or its slot is lost
// for the rest of the run. A sharded worker engine returns its own
// dead too: the shadow of a cross-shard send and the local copy of an
// anti-message that left by wire go back uncounted when the shadow is
// unsent or GVT passes it (shard.go).
const (
	chunkMin = 8
	chunkMax = 1024
)

func nextChunkLen(prev int) int { return min(max(2*prev, chunkMin), chunkMax) }

// carveEvent returns a zero event from the event chunk.
func (m *memStore) carveEvent() *Event {
	if len(m.eventChunk) == 0 {
		m.eventChunkLen = nextChunkLen(m.eventChunkLen)
		m.eventChunk = make([]Event, m.eventChunkLen)
	}
	ev := &m.eventChunk[0]
	m.eventChunk = m.eventChunk[1:]
	return ev
}

// stateChunk is the engine's snapshot chunk: an array of the element
// type of its pooled state type, built by reflection so that models
// need no allocation hook. Its elements start out as zero values, which
// StateCopier promises CopyFrom can fill.
type stateChunk struct {
	typ       reflect.Type  // the pooled state type (fixStateType); nil when nothing is pooled
	vals      reflect.Value // the current chunk, a [len]typ.Elem(): one heap object
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
// snapshot chunk, which is an array: one heap object, where a slice
// made by reflection is two.
func (m *memStore) carveSnapshot() StateCopier {
	c := &m.stateChunk
	if c.next == c.len {
		c.len = nextChunkLen(c.len)
		c.vals, c.next = reflect.New(reflect.ArrayOf(c.len, c.typ.Elem())).Elem(), 0
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
	dst := m.states.pop()
	if dst == nil {
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
		m.states.push(c)
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
