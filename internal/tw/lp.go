package tw

import "ggpdes/internal/rng"

// KP is a kernel process, ROSS's rollback-granularity unit: a group of
// LPs on one simulation thread sharing a single processed-event list.
// Larger KPs shrink per-LP bookkeeping and speed fossil collection but
// roll back every member LP when any one of them straggles — the
// classic granularity trade-off (ablated in the benchmarks).
type KP struct {
	// ID is the KP id within its peer.
	ID int
	// Owner is the simulation thread id.
	Owner int
	// processed holds the member LPs' speculatively executed events in
	// ascending (Ts, Seq) order; the prefix below GVT is fossil
	// collected.
	processed []*Event
}

// lastProcessed returns the KP's most recent uncommitted execution.
func (kp *KP) lastProcessed() *Event {
	if len(kp.processed) == 0 {
		return nil
	}
	return kp.processed[len(kp.processed)-1]
}

// UncommittedEvents reports how many processed events await commit.
func (kp *KP) UncommittedEvents() int { return len(kp.processed) }

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
	// statePool recycles copy-state snapshots released by fossil
	// collection and rollback (see pool.go); only populated when the
	// model's state implements StateCopier. spareStates is what the
	// LP's predecessor in a checkpointed run left in its pool (see
	// spare.go).
	statePool   []State
	spareStates []State
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
