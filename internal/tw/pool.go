package tw

import "math"

// Event and snapshot recycling. Every event send, anti-message and
// copy-state snapshot used to heap-allocate, which made the engine's
// steady-state throughput GC-bound. PARSIR-style per-thread event
// recycling removes that: each Peer keeps a freelist of Events whose
// lifecycle has ended (fossil collected, or annihilated and lazily
// dropped from a queue), and each LP keeps a freelist of state
// snapshots returned by fossil collection and rollback. In steady
// state the hot loop allocates nothing; the pools are populated by the
// first GVT rounds and then cycle.
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
	// peer freelist vs. the heap; Recycled counts events returned.
	MetricPoolEventHit      = "tw.pool.event_hit"
	MetricPoolEventMiss     = "tw.pool.event_miss"
	MetricPoolEventRecycled = "tw.pool.event_recycled"
	// MetricPoolStateHit / Miss count copy-state snapshots served from
	// an LP freelist vs. Clone; Recycled counts snapshots returned.
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
		return &Event{}
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
	*ev = Event{
		Ts:        math.Inf(-1),
		sent:      ev.sent[:0],
		tentative: ev.tentative[:0],
		state:     statePooled,
	}
}

// acquireSnapshot returns a deep copy of lp's current state for the
// pre-execution snapshot, overwriting a recycled instance when the LP
// freelist has one. The freelist only ever holds states previously
// released by this same LP, so the StateCopier assertion cannot fail.
func (p *Peer) acquireSnapshot(lp *LP) State {
	n := len(lp.statePool)
	if n == 0 {
		p.pool.stateMiss++
		if dst := lp.takeSpareState(); dst != nil {
			dst.(StateCopier).CopyFrom(lp.state)
			return dst
		}
		return lp.state.Clone()
	}
	dst := lp.statePool[n-1]
	lp.statePool[n-1] = nil
	lp.statePool = lp.statePool[:n-1]
	dst.(StateCopier).CopyFrom(lp.state)
	p.pool.stateHit++
	return dst
}

// releaseSnapshot returns a dead state copy (fossil-collected
// snapshot, or the pre-rollback live state a restore displaced) to its
// LP's freelist. States that cannot overwrite themselves in place are
// left for the GC, which keeps pooling transparent for models that
// implement only Clone.
func (p *Peer) releaseSnapshot(lp *LP, st State) {
	if st == nil || p.eng.cfg.DisablePooling {
		return
	}
	if _, ok := st.(StateCopier); !ok {
		return
	}
	lp.statePool = append(lp.statePool, st)
	p.pool.stateRecycled++
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
