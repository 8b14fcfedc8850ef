package tw

import "ggpdes/internal/rng"

// State is a logical process's model-defined state. Clone must return a
// deep copy; the engine snapshots state before every event execution so
// rollbacks can restore it.
type State interface {
	Clone() State
}

// StateCopier is an optional extension of State that lets the engine
// recycle snapshot memory: instead of Clone allocating a fresh copy per
// event, a dead snapshot from the engine's store is overwritten in
// place. CopyFrom must leave the receiver semantically identical to
// Clone's result (a deep copy of src); it may reuse the receiver's own
// backing storage (slices, maps) when capacities allow. src is always
// the same concrete type as the receiver, but not always the same LP's:
// all LPs share the store, so a receiver last held another LP's state.
//
// A zero value of the state type must be a valid receiver: when the
// store is empty the engine does not Clone a StateCopier whose
// dynamic type is a pointer, it carves a zero value of the pointed-to
// type from the engine's chunk and fills it with CopyFrom (pool.go), so
// CopyFrom may not rely on anything a constructor would have set up.
// Models that implement only Clone still work; they just allocate.
type StateCopier interface {
	State
	// CopyFrom overwrites the receiver with a deep copy of src.
	CopyFrom(src State)
}

// Snapshot couples an LP state copy with its RNG position; restoring
// both makes re-execution after a rollback bit-identical.
type Snapshot struct {
	state State
	rng   rng.State
	lvt   VT
}

// CPU abstracts the simulated processor's cost accounting; the
// machine's Proc satisfies it.
type CPU interface {
	// Work consumes the given number of CPU cycles.
	Work(cycles uint64)
}

// Model defines a simulation application.
type Model interface {
	// LPsPerThread is how many LPs each simulation thread serves.
	LPsPerThread() int
	// InitLP populates lp's initial state and schedules its starting
	// events via ictx.ScheduleInit.
	InitLP(ictx *InitCtx, lp *LP)
	// OnEvent executes one event against its destination LP. All state
	// mutation must go through ctx (reads of lp.State() are fine).
	// ctx is valid only for the duration of the call — the engine
	// reuses it across events; models must not retain it.
	OnEvent(ctx *EventCtx)
}

// scheduler takes a context's sends in place of an engine (seq_test.go).
type scheduler interface {
	schedule(src, dst int, ts VT, kind uint8, a, b int64)
}

// InitCtx is handed to Model.InitLP.
type InitCtx struct {
	eng *Engine
	lp  *LP
	seq scheduler
}

// Engine returns the engine under initialization.
func (ic *InitCtx) Engine() *Engine { return ic.eng }

// ScheduleInit schedules a starting event for dstLP at time ts. Initial
// events carry no rollback bookkeeping (they precede the simulation).
func (ic *InitCtx) ScheduleInit(dstLP int, ts VT, kind uint8, a, b int64) {
	if ic.seq != nil {
		ic.seq.schedule(ic.lp.ID, dstLP, ts, kind, a, b)
		return
	}
	ic.eng.scheduleInit(ic.lp.ID, dstLP, ts, kind, a, b)
}

// EventCtx is handed to Model.OnEvent for each executed event.
type EventCtx struct {
	eng  *Engine
	peer *Peer
	lp   *LP
	ev   *Event
	seq  scheduler
}

// Engine returns the running engine.
func (c *EventCtx) Engine() *Engine { return c.eng }

// LP returns the destination LP.
func (c *EventCtx) LP() *LP { return c.lp }

// Event returns the event being executed.
func (c *EventCtx) Event() *Event { return c.ev }

// Now returns the event's timestamp, the LP's new local virtual time.
func (c *EventCtx) Now() VT { return c.ev.Ts }

// Rand returns the LP's random stream. Its position is part of the
// LP snapshot, so rolled-back draws are replayed identically.
func (c *EventCtx) Rand() *rng.Stream { return &c.lp.rand }

// Send schedules an event for dstLP at absolute time ts, which must be
// strictly in the future of the current event. The send is recorded so
// a rollback of the current event unsends it with an anti-message.
func (c *EventCtx) Send(dstLP int, ts VT, kind uint8, a, b int64) {
	if ts < c.ev.Ts {
		panic("tw: model sent an event into the past")
	}
	if c.seq != nil {
		c.seq.schedule(c.lp.ID, dstLP, ts, kind, a, b)
		return
	}
	c.eng.send(c.peer, c.ev, dstLP, ts, kind, a, b)
}
