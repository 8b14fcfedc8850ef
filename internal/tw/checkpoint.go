package tw

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ggpdes/internal/rng"
)

// Checkpoint support: pausing a run at a GVT publication, quiescing the
// engine onto its canonical committed cut, capturing that cut as plain
// serializable data, and rebuilding an engine from a capture.
//
// The engine cannot snapshot mid-speculation state — live goroutine
// stacks (the simulated threads), pending-heap layouts and freelist
// contents are not serializable, and none of them are part of the
// committed trajectory anyway. Instead a checkpointed run executes as a
// chain of segments: the driver pauses the engine at a GVT round
// boundary, lets the machine wind down through the normal completion
// path, rolls back all speculation (Quiesce), and captures exactly the
// committed state: LP states and RNG positions, the pending events at
// or above GVT, and the cumulative statistics. A fresh engine built
// from the capture continues the run. The driver performs the same
// quiesce/capture/rebuild cycle whether or not the process is actually
// killed at the boundary; what differs is where the rebuild reads the
// capture from — the EngineState itself in a run that lives on, its
// encoding (wire_binary.go) in one that was killed and resumed — and
// TestCaptureContinuation holds the two to the same next capture.

// errNotCheckpointModel is shared by Capture and NewEngineFromState.
var errNotCheckpointModel = errors.New("tw: model does not implement CheckpointModel")

// ErrInvalidState wraps every refusal of NewEngineFromState to build
// from a capture that describes an engine its config cannot be: a
// record of another topology, a time that is not a number or lies
// below GVT, an LP state the model cannot decode. A capture this
// process took never is one; a snapshot file that passed its checksum
// can be.
var ErrInvalidState = errors.New("tw: capture describes an impossible engine")

// CheckpointModel is a Model whose LP states can be serialized. All
// bundled models implement it; checkpointing requires it because LP
// state is opaque to the engine.
type CheckpointModel interface {
	Model
	// EncodeState appends the serialized form of an LP state this model
	// created to dst and returns the extended buffer.
	EncodeState(dst []byte, s State) ([]byte, error)
	// DecodeState rebuilds an LP state from the bytes EncodeState
	// appended; it must not keep a reference to data.
	DecodeState(data []byte) (State, error)
}

// EventRecord is one pending event at the committed cut, reduced to the
// fields that define it. Rollback bookkeeping (snapshots, sent lists)
// is empty for a pending event by construction.
type EventRecord struct {
	Ts   VT     `json:"ts"`
	Seq  uint64 `json:"seq"`
	Src  int    `json:"src"`
	Dst  int    `json:"dst"`
	Kind uint8  `json:"kind"`
	A    int64  `json:"a,omitempty"`
	B    int64  `json:"b,omitempty"`
}

// LPRecord is one logical process at the committed cut.
type LPRecord struct {
	State []byte    `json:"state"`
	Rng   rng.State `json:"rng"`
	LVT   VT        `json:"lvt"`
}

// EngineState is the full Time Warp state at a quiesced GVT boundary —
// everything a fresh engine needs to continue the trajectory.
type EngineState struct {
	// Seq is the global event sequence counter.
	Seq uint64 `json:"seq"`
	// GVT is the published Global Virtual Time of the boundary round.
	GVT VT `json:"gvt"`
	// PeakUncommitted carries the run's speculative-memory high-water
	// mark across segments.
	PeakUncommitted int `json:"peak_uncommitted"`
	// LPs holds every logical process, indexed by LP id.
	LPs []LPRecord `json:"lps"`
	// Pending holds each peer's pending events in (Ts, Seq) order.
	Pending [][]EventRecord `json:"pending"`
	// PeerStats carries each peer's cumulative counters.
	PeerStats []PeerStats `json:"peer_stats"`

	// spare is memory the captured engine no longer needs, for the first
	// engine built from this state to reuse (see spare.go). It is not
	// part of the state: no codec carries it and nothing may depend on
	// its presence.
	spare *spareMemory
}

// Pause makes Done report true so every simulation thread exits its
// main loop at the next iteration — the same wind-down path as normal
// completion. The driver calls it from the OnGVT hook at a checkpoint
// boundary.
func (e *Engine) Pause() { e.paused = true }

// Paused reports whether Pause was called.
func (e *Engine) Paused() bool { return e.paused }

// nopCPU discards cost accounting; quiesce runs after the machine has
// stopped, so its work is not part of the simulated timeline.
type nopCPU struct{}

func (nopCPU) Work(uint64) {}

// Capture quiesces the engine onto its committed cut and serializes it.
// The engine is consumed: every speculative execution is rolled back,
// anti-message traffic is drained to a fixpoint, and the pending sets
// are sorted into the capture. Discard the engine afterwards. After
// ReleaseStart the capture is written over the state the engine was
// built from.
func (e *Engine) Capture() (*EngineState, error) {
	e.quiesce()
	if e.uncommitted != 0 {
		return nil, fmt.Errorf("tw: %d uncommitted events survived quiesce", e.uncommitted)
	}
	cm, ok := e.cfg.Model.(CheckpointModel)
	if !ok {
		return nil, errNotCheckpointModel
	}
	st, arena, records := &EngineState{}, []byte(nil), []EventRecord(nil)
	if sp := e.spare; sp != nil && e.startReleased {
		st, arena, records = sp.state, sp.arena, sp.records
	}
	prev := *st
	*st = EngineState{
		Seq:             e.seq,
		GVT:             e.gvt,
		PeakUncommitted: e.peakUncommitted,
		Pending:         resize(prev.Pending, len(e.peers)),
		PeerStats:       resize(prev.PeerStats, len(e.peers)),
	}
	var err error
	if st.LPs, arena, err = e.encodeLPs(cm, prev.LPs, arena); err != nil {
		return nil, err
	}
	// Every peer's records are a slice of one array, sized up front so
	// that appending never moves it.
	total := 0
	for _, p := range e.peers {
		total += p.pending.Len()
	}
	if records == nil {
		records = make([]EventRecord, 0, total)
	} else {
		records = slices.Grow(records[:0], total)
	}
	for i, p := range e.peers {
		start := len(records)
		if records, err = e.appendPending(records, p); err != nil {
			return nil, err
		}
		st.Pending[i] = records[start:len(records):len(records)]
		st.PeerStats[i] = p.Stats
	}
	st.spare = e.harvestSpare(st, arena, records)
	return st, nil
}

// ReleaseStart tells the engine that nothing reads the EngineState it
// was built from any more — not its caller, not a snapshot writer — so
// that Capture may write over that state, its arrays and its LP state
// bytes instead of allocating new ones. Only a state whose spare set
// the engine adopted is written over; for any other engine the call
// changes nothing.
func (e *Engine) ReleaseStart() { e.startReleased = true }

// resize returns s with length n, reusing its array when it is long
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// encodeLPs serializes every LP into recs, reused when long enough. The
// states are encoded back to back into one arena, arena's array when it
// is large enough or one sized from the first state, and each record's
// State is its slice of it; the arena is returned.
func (e *Engine) encodeLPs(cm CheckpointModel, recs []LPRecord, arena []byte) ([]LPRecord, []byte, error) {
	lps := e.lps
	recs = resize(recs, len(lps))
	arena = arena[:0]
	for i, lp := range lps {
		var err error
		if arena, err = cm.EncodeState(arena, lp.state); err != nil {
			return nil, nil, fmt.Errorf("tw: encoding LP %d state: %w", lp.ID, err)
		}
		if i == 0 && cap(arena) < len(arena)*len(lps) {
			arena = append(make([]byte, 0, len(arena)*len(lps)), arena...)
		}
		// Until the arena stops moving, a record's State only carries its
		// end offset, as its length.
		recs[i] = LPRecord{State: arena, Rng: lp.rand.Save(), LVT: lp.lvt}
	}
	start := 0
	for i := range recs {
		end := len(recs[i].State)
		recs[i].State = arena[start:end:end]
		start = end
	}
	return recs, arena, nil
}

// appendPending appends a peer's sorted pending heap to recs as
// records, validating against the below-GVT invariant and asserting the
// order.
func (e *Engine) appendPending(recs []EventRecord, p *Peer) ([]EventRecord, error) {
	for i := 0; i < p.pending.Len(); i++ {
		ev := p.pending.At(i)
		if ev.Ts < e.gvt {
			return nil, fmt.Errorf("tw: pending event %v below GVT %.6f at capture", ev, e.gvt)
		}
		// The quiesce sorted the heap by (Ts, Seq); assert rather than
		// trust.
		if i > 0 && !p.pending.At(i-1).before(ev) {
			return nil, fmt.Errorf("tw: peer %d pending events not sorted at %v", p.ID, ev)
		}
		recs = append(recs, EventRecord{
			Ts: ev.Ts, Seq: ev.Seq, Src: ev.Src, Dst: ev.Dst,
			Kind: ev.Kind, A: ev.A, B: ev.B,
		})
	}
	return recs, nil
}

// cancelledEvent reports whether ev was annihilated before execution.
func cancelledEvent(ev *Event) bool { return ev.state == StateCancelled }

// quiesce rolls the engine back onto the committed cut of its current
// GVT: every processed-but-uncommitted event is rolled back, the
// resulting anti-message traffic is drained to a fixpoint, and each
// peer's pending heap is left holding exactly its live events, sorted
// by (Ts, Seq), with the cancelled ones moved to its quiesced slice.
func (e *Engine) quiesce() {
	cpu := nopCPU{}
	// Roll back all speculation. Rollbacks unsend (anti-messages into
	// other peers' input queues) and drains can trigger further
	// rollbacks, so iterate to a fixpoint.
	for progress := true; progress; {
		progress = false
		for _, p := range e.peers {
			if len(p.inq) > 0 {
				p.Drain(cpu)
				progress = true
			}
			for _, lp := range p.lps {
				if lp.head != nil {
					p.rollback(lp, lp.head)
					progress = true
				}
			}
		}
	}
	// The sorted heap is (Ts, Seq) order, the canonical order the capture
	// serializes, and still a heap, which the successor takes over.
	for _, p := range e.peers {
		p.quiesced = p.pending.Sort(cancelledEvent, p.quiesced[:0])
	}
	// Clear the per-round send windows and cycle accumulators.
	for _, p := range e.peers {
		p.minSent = math.Inf(1)
		p.acc = 0
	}
}

// NewEngineFromState rebuilds an engine from a capture. cfg must be the
// same configuration the capturing engine ran with (the driver
// guarantees this by storing the config alongside the capture); the
// model is constructed fresh but its InitLP is skipped — LP states and
// pending events come from the capture: decoded from its records, or,
// when the capture still carries the spare memory of the engine it was
// taken from and that fits the new one (spare.go), that engine's own
// state objects and sorted pending heaps, checked against the records.
// A capture that describes an engine cfg cannot be is refused with an
// error wrapping ErrInvalidState. The state itself is only read, and
// may be read by others meanwhile; its spare memory, if it still has
// any, is taken off it.
func NewEngineFromState(cfg Config, st *EngineState) (*Engine, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	cm, ok := cfg.Model.(CheckpointModel)
	if !ok {
		return nil, errNotCheckpointModel
	}
	// The one fork between an in-process boundary and every other way to
	// start a segment: spare memory that fits brings the pending heaps
	// and the LP states with it, and without it the states are decoded
	// and the records pushed.
	sp := st.spare
	st.spare = nil
	if !sp.fits(cfg) {
		sp = nil
	}
	eng, err := newEngineShell(cfg, sp)
	if err != nil {
		return nil, err
	}
	if err := eng.checkState(st); err != nil {
		return nil, err
	}
	eng.seq = st.Seq
	eng.gvt = st.GVT
	eng.peakUncommitted = st.PeakUncommitted
	if sp != nil {
		eng.adoptSpare(sp)
	}
	for i, lp := range eng.lps {
		rec := &st.LPs[i]
		if sp == nil {
			state, err := cm.DecodeState(rec.State)
			if err != nil {
				return nil, fmt.Errorf("%w: decoding LP %d state: %w", ErrInvalidState, lp.ID, err)
			}
			lp.state = state
		}
		lp.rand.Restore(rec.Rng)
		lp.lvt = rec.LVT
	}
	eng.fixStateType()
	for i, p := range eng.peers {
		p.Stats = st.PeerStats[i]
		// Pending events are neither pool hits nor misses — they never
		// were.
		if sp != nil {
			err = p.adoptPending(st.Pending[i])
		} else {
			p.restorePending(st.Pending[i])
		}
		if err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// checkState refuses a capture that describes an engine of another
// shape than eng's, or one no engine can be in: every count must match
// the topology; GVT and every LVT must be numbers; every pending record
// must be for an LP its peer serves, from an LP that exists, at a
// finite time at or above GVT, numbered at most the capture's sequence
// counter, and after the record before it in (Ts, Seq) order. The
// messages name what a snapshot file would have to be fixed in.
func (e *Engine) checkState(st *EngineState) error {
	if len(st.LPs) != len(e.lps) {
		return fmt.Errorf("%w: capture has %d LPs, config builds %d", ErrInvalidState, len(st.LPs), len(e.lps))
	}
	if len(st.Pending) != len(e.peers) || len(st.PeerStats) != len(e.peers) {
		return fmt.Errorf("%w: capture has %d/%d peers, config builds %d",
			ErrInvalidState, len(st.Pending), len(st.PeerStats), len(e.peers))
	}
	finite := func(v VT) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if !finite(st.GVT) {
		return fmt.Errorf("%w: GVT %v", ErrInvalidState, st.GVT)
	}
	for i := range st.LPs {
		if lvt := st.LPs[i].LVT; !finite(lvt) {
			return fmt.Errorf("%w: LP %d LVT %v", ErrInvalidState, i, lvt)
		}
	}
	n := len(e.lps)
	for i, recs := range st.Pending {
		for j := range recs {
			r := &recs[j]
			var why string
			switch {
			case r.Dst < 0 || r.Dst >= n:
				why = "for no LP"
			case e.lps[r.Dst].Owner != i:
				why = fmt.Sprintf("for an LP peer %d serves", e.lps[r.Dst].Owner)
			case r.Src < 0 || r.Src >= n:
				why = "from no LP"
			case !finite(r.Ts):
				why = "at no time"
			case r.Ts < st.GVT:
				why = fmt.Sprintf("below GVT %v", st.GVT)
			case r.Seq > st.Seq:
				why = fmt.Sprintf("beyond sequence %d", st.Seq)
			case j > 0 && (r.Ts < recs[j-1].Ts || r.Ts == recs[j-1].Ts && r.Seq <= recs[j-1].Seq):
				why = "out of (Ts, Seq) order"
			default:
				continue
			}
			return fmt.Errorf("%w: peer %d pending record %d %+v is %s", ErrInvalidState, i, j, *r, why)
		}
	}
	return nil
}

// adoptPending takes the peer's pending heap as the spare set brought
// it — sorted, holding the events the capture's records were made from
// — after checking that it holds exactly recs. It allocates nothing.
func (p *Peer) adoptPending(recs []EventRecord) error {
	h := p.pending
	if h.Len() != len(recs) {
		return fmt.Errorf("%w: peer %d has %d pending records, its engine's heap %d events",
			ErrInvalidState, p.ID, len(recs), h.Len())
	}
	for j := range recs {
		r, ev := &recs[j], h.At(j)
		if ev.state != StatePending || ev.Ts != r.Ts || ev.Seq != r.Seq || ev.Src != r.Src || ev.Dst != r.Dst ||
			ev.Kind != r.Kind || ev.A != r.A || ev.B != r.B {
			return fmt.Errorf("%w: peer %d pending record %d %+v is not its engine's event %v",
				ErrInvalidState, p.ID, j, *r, ev)
		}
	}
	return nil
}

// restorePending turns checked records into events, one slab of them,
// and pushes them into the peer's fresh heap.
func (p *Peer) restorePending(recs []EventRecord) {
	var slab []Event
	if len(recs) > 0 {
		slab = make([]Event, len(recs))
	}
	for j := range recs {
		r, ev := &recs[j], &slab[j]
		ev.Ts, ev.Seq, ev.Src, ev.Dst = r.Ts, r.Seq, r.Src, r.Dst
		ev.Kind, ev.A, ev.B = r.Kind, r.A, r.B
		ev.state = StatePending
		p.pending.Push(ev)
	}
}
