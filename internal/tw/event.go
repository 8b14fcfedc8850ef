// Package tw implements an optimistic (Time Warp) parallel discrete
// event simulation engine in the style of multi-threaded shared-memory
// ROSS: logical processes grouped onto simulation threads ("peers"),
// per-thread input queues and timestamp-ordered pending sets, state
// saving, rollback with anti-messages, fossil collection at GVT, and
// batch event processing.
//
// The engine is driven by simulated threads on an internal/machine
// Machine; all CPU costs are charged through the CPU interface so the
// committed-event-rate and CPU-time metrics of the reproduced paper can
// be measured on the simulated processor.
package tw

import "fmt"

// VT is virtual (simulation) time.
type VT = float64

// EventState tracks where an event currently lives.
type EventState uint8

// Event states.
const (
	// StateInQueue: the event sits in the destination thread's input
	// queue, not yet seen by its LP.
	StateInQueue EventState = iota
	// StatePending: the event is in the destination thread's
	// timestamp-ordered pending set.
	StatePending
	// StateProcessed: the event has been (speculatively) executed.
	StateProcessed
	// StateCancelled: the event was annihilated by an anti-message
	// before execution; queues skip it lazily.
	StateCancelled
	// StateCommitted: the event's timestamp fell below GVT and it was
	// fossil collected; it can never be rolled back.
	StateCommitted
	// statePooled: the event has been recycled into the engine's store
	// and must not be referenced by any queue, history or send list.
	// Observing it outside the pool is a use-after-recycle bug; the
	// engine panics wherever a pooled event could flow in, and
	// CheckInvariants sweeps every reachable container for leaks.
	statePooled
)

// String returns the state name.
func (s EventState) String() string {
	switch s {
	case StateInQueue:
		return "in-queue"
	case StatePending:
		return "pending"
	case StateProcessed:
		return "processed"
	case StateCancelled:
		return "cancelled"
	case StateCommitted:
		return "committed"
	case statePooled:
		return "pooled"
	default:
		return "invalid"
	}
}

// Event is a time-stamped message between LPs. Anti-messages are Events
// with Anti set, pointing at the positive event they cancel.
//
// The fields every queue walk, drain and commit reads — the ordering
// key, the destination, the lifecycle state, an anti-message's target —
// come first and share the event's first cache line (TestEventLayout
// pins it); the history links and the rollback bookkeeping only
// execution touches follow.
type Event struct {
	// Ts is the virtual time at which the event takes effect.
	Ts VT
	// Seq is a globally unique, monotonically assigned sequence number
	// used as a deterministic tiebreak for equal timestamps.
	Seq uint64
	// Src and Dst are LP ids.
	Src, Dst int
	// Kind is the model-defined event type.
	Kind uint8
	// Anti marks an anti-message; Target is the event it annihilates.
	Anti   bool
	state  EventState
	Target *Event
	// A and B are model payload words.
	A, B int64

	// prev and next link a processed event into its LP's history (see
	// LP); both are nil everywhere else.
	prev, next *Event
	// saved holds the destination LP state from just before this event
	// was processed, for rollback.
	saved Snapshot
	// sent lists events this event's execution sent, for unsending.
	sent []*Event
	// inline is what a chunk-carved event's sent list starts out
	// aliasing (pool.go), so an event's first send does not reach the
	// allocator; a list that outgrows it moves to a window of the
	// peer's chunk (appendSent) and the slot goes unused. One slot, not
	// two: PHOLD's and Traffic's handlers send one event each.
	inline [1]*Event
}

// State returns the event's lifecycle state.
func (e *Event) State() EventState { return e.state }

// key orders events by (Ts, Seq); Seq breaks ties deterministically.
func (e *Event) before(o *Event) bool {
	if e.Ts != o.Ts {
		return e.Ts < o.Ts
	}
	return e.Seq < o.Seq
}

// String formats the event for diagnostics.
func (e *Event) String() string {
	tag := ""
	if e.Anti {
		tag = " anti"
	}
	return fmt.Sprintf("ev{ts=%.4f seq=%d %d->%d kind=%d%s %s}", e.Ts, e.Seq, e.Src, e.Dst, e.Kind, tag, e.state)
}
