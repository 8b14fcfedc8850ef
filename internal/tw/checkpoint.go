package tw

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"ggpdes/internal/rng"
)

// Checkpoint support: pausing a run at a GVT publication, quiescing the
// engine onto its canonical committed cut, capturing that cut as plain
// serializable data, and rebuilding an engine from a capture.
//
// The engine cannot snapshot mid-speculation state — live goroutine
// stacks (the simulated threads), splay-tree shapes and freelist
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
// fields that define it. Rollback bookkeeping (snapshots, sent lists,
// undo words) is empty for a pending event by construction.
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
// are emptied into the capture. Discard the engine afterwards.
func (e *Engine) Capture() (*EngineState, error) {
	e.quiesce()
	if e.uncommitted != 0 {
		return nil, fmt.Errorf("tw: %d uncommitted events survived quiesce", e.uncommitted)
	}
	cm, ok := e.cfg.Model.(CheckpointModel)
	if !ok {
		return nil, errNotCheckpointModel
	}
	st := &EngineState{
		Seq:             e.seq,
		GVT:             e.gvt,
		PeakUncommitted: e.peakUncommitted,
		Pending:         make([][]EventRecord, len(e.peers)),
		PeerStats:       make([]PeerStats, len(e.peers)),
	}
	lps, err := e.encodeLPs(cm)
	if err != nil {
		return nil, err
	}
	st.LPs = lps
	captured := make([][]*Event, len(e.peers))
	for i, p := range e.peers {
		captured[i] = p.quiesced
		recs, err := e.drainQuiesced(p)
		if err != nil {
			return nil, err
		}
		st.Pending[i] = recs
		st.PeerStats[i] = p.Stats
	}
	st.spare = e.harvestSpare(captured)
	return st, nil
}

// encodeLPs serializes every LP. The states are encoded back to back
// into one arena, sized from the first, and each record's State is its
// slice of it.
func (e *Engine) encodeLPs(cm CheckpointModel) ([]LPRecord, error) {
	lps := e.lps
	recs := make([]LPRecord, len(lps))
	ends := make([]int, len(lps))
	var arena []byte
	for i, lp := range lps {
		var err error
		if arena, err = cm.EncodeState(arena, lp.state); err != nil {
			return nil, fmt.Errorf("tw: encoding LP %d state: %w", lp.ID, err)
		}
		if i == 0 {
			arena = append(make([]byte, 0, len(arena)*len(lps)), arena...)
		}
		ends[i] = len(arena)
		recs[i] = LPRecord{Rng: lp.rand.Save(), LVT: lp.lvt}
	}
	start := 0
	for i, end := range ends {
		recs[i].State = arena[start:end:end]
		start = end
	}
	return recs, nil
}

// drainQuiesced converts and consumes a peer's quiesced slice,
// validating against the below-GVT invariant and asserting pop order.
func (e *Engine) drainQuiesced(p *Peer) ([]EventRecord, error) {
	recs := make([]EventRecord, 0, len(p.quiesced))
	for _, ev := range p.quiesced {
		if ev.state == StateCancelled {
			continue
		}
		if ev.Ts < e.gvt {
			return nil, fmt.Errorf("tw: pending event %v below GVT %.6f at capture", ev, e.gvt)
		}
		recs = append(recs, EventRecord{
			Ts: ev.Ts, Seq: ev.Seq, Src: ev.Src, Dst: ev.Dst,
			Kind: ev.Kind, A: ev.A, B: ev.B,
		})
	}
	// Pop order is already (Ts, Seq); assert rather than trust.
	if !sort.SliceIsSorted(recs, func(a, b int) bool {
		if recs[a].Ts != recs[b].Ts {
			return recs[a].Ts < recs[b].Ts
		}
		return recs[a].Seq < recs[b].Seq
	}) {
		return nil, fmt.Errorf("tw: peer %d pending pop order not sorted", p.ID)
	}
	p.quiesced = nil
	return recs, nil
}

// quiesce rolls the engine back onto the committed cut of its current
// GVT: every processed-but-uncommitted event is rolled back, the
// resulting anti-message traffic is drained to a fixpoint, deferred
// lazy-cancellation sends are flushed, and each peer's pending set is
// emptied (in pop order) into its quiesced scratch slice.
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
			for _, kp := range p.kps {
				if kp.head != nil {
					p.rollback(kp, kp.head)
					progress = true
				}
			}
		}
	}
	// Pop order is (Ts, Seq) — the canonical order the capture
	// serializes.
	for _, p := range e.peers {
		p.quiesced = slices.Grow(p.quiesced[:0], p.pending.Len())
		for {
			ev, ok := p.pending.Pop()
			if !ok {
				break
			}
			p.quiesced = append(p.quiesced, ev)
		}
	}
	// Under lazy cancellation rolled-back events still hold tentative
	// sends awaiting re-adoption; they cannot survive a checkpoint, so
	// annihilate them now. The antis only ever target events already in
	// the quiesced slices (everything pending is there), so the flush
	// stage's drains just mark targets cancelled.
	for progress := true; progress; {
		progress = false
		for _, p := range e.peers {
			for _, ev := range p.quiesced {
				if ev.state != StateCancelled && len(ev.tentative) > 0 {
					p.flushTentative(ev)
					progress = true
				}
			}
			if len(p.inq) > 0 {
				p.Drain(cpu)
				progress = true
			}
		}
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
// model is constructed fresh but its InitLP is skipped — LP states come
// from the capture: decoded from its records, or, when the capture
// still carries the spare memory of the engine it was taken from and
// that fits the new one (spare.go), that engine's own state objects.
// The state itself is only read, and may be read by others meanwhile;
// its spare memory, if it still has any, is taken off it.
func NewEngineFromState(cfg Config, st *EngineState) (*Engine, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	cm, ok := cfg.Model.(CheckpointModel)
	if !ok {
		return nil, errNotCheckpointModel
	}
	eng, err := newEngineShell(cfg)
	if err != nil {
		return nil, err
	}
	if len(st.LPs) != len(eng.lps) {
		return nil, fmt.Errorf("tw: capture has %d LPs, config builds %d", len(st.LPs), len(eng.lps))
	}
	if len(st.Pending) != len(eng.peers) || len(st.PeerStats) != len(eng.peers) {
		return nil, fmt.Errorf("tw: capture has %d/%d peers, config builds %d",
			len(st.Pending), len(st.PeerStats), len(eng.peers))
	}
	eng.seq = st.Seq
	eng.gvt = st.GVT
	eng.peakUncommitted = st.PeakUncommitted
	// The one fork between an in-process boundary and every other way to
	// start a segment: spare memory that fits brings the LP states with
	// it, and without it they are decoded.
	sp := st.spare
	st.spare = nil
	adopted := sp.fits(eng)
	if adopted {
		eng.adoptSpare(sp)
	}
	for i, lp := range eng.lps {
		rec := &st.LPs[i]
		if !adopted {
			state, err := cm.DecodeState(rec.State)
			if err != nil {
				return nil, fmt.Errorf("tw: decoding LP %d state: %w", lp.ID, err)
			}
			lp.state = state
		}
		lp.rand.Restore(rec.Rng)
		lp.lvt = rec.LVT
	}
	for i, p := range eng.peers {
		p.fixStateType()
		p.Stats = st.PeerStats[i]
		// Pending events are neither pool hits nor misses — they never
		// were — and come from the spare set while it lasts, then from
		// one slab.
		var slab []Event
		if n := len(st.Pending[i]) - len(p.spareEvents); n > 0 {
			slab = make([]Event, n)
		}
		for _, r := range st.Pending[i] {
			ev := p.takeSpareEvent()
			if ev == nil {
				ev, slab = &slab[0], slab[1:]
			}
			ev.Ts, ev.Seq, ev.Src, ev.Dst = r.Ts, r.Seq, r.Src, r.Dst
			ev.Kind, ev.A, ev.B = r.Kind, r.A, r.B
			ev.state = StatePending
			if r.Ts < st.GVT {
				return nil, fmt.Errorf("tw: capture holds pending event %v below GVT %.6f", ev, st.GVT)
			}
			if r.Seq > st.Seq {
				return nil, fmt.Errorf("tw: capture holds event %v beyond sequence %d", ev, st.Seq)
			}
			p.pending.Push(ev)
		}
	}
	return eng, nil
}
