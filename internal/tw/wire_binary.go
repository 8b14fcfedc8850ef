package tw

import (
	"encoding/binary"
	"math"
)

// Binary wire encoders for the distributed data plane. internal/dist's
// batched binary frames (see its codec) embed engine-owned structures —
// the Envelope, cross-shard WireEvents, and per-peer statistics — so
// their codecs live here, next to the struct definitions they must
// track field-for-field.
//
// Encoding conventions: unsigned integers are uvarints, signed
// integers are zigzag uvarints, and virtual times are raw little-endian
// IEEE 754 bits — binary floats carry ±Inf natively, so the WireVT
// string workaround is a JSON-only concern. Consume functions return
// the remaining buffer and report failure instead of panicking, so a
// corrupt frame surfaces as a protocol error, not a crash.

// AppendWireUint appends v as a uvarint.
func AppendWireUint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// ConsumeWireUint decodes a uvarint from the front of b.
func ConsumeWireUint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, false
	}
	return v, b[n:], true
}

// AppendWireInt appends v as a zigzag uvarint.
func AppendWireInt(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// ConsumeWireInt decodes a zigzag uvarint from the front of b.
func ConsumeWireInt(b []byte) (int64, []byte, bool) {
	u, rest, ok := ConsumeWireUint(b)
	if !ok {
		return 0, b, false
	}
	return int64(u>>1) ^ -int64(u&1), rest, true
}

// AppendWireF64 appends v as 8 raw little-endian IEEE 754 bytes.
func AppendWireF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// ConsumeWireF64 decodes 8 raw float bytes from the front of b.
func ConsumeWireF64(b []byte) (float64, []byte, bool) {
	if len(b) < 8 {
		return 0, b, false
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:8])), b[8:], true
}

// AppendWireBool appends v as one byte.
func AppendWireBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ConsumeWireBool decodes one boolean byte from the front of b.
func ConsumeWireBool(b []byte) (bool, []byte, bool) {
	if len(b) < 1 {
		return false, b, false
	}
	return b[0] != 0, b[1:], true
}

// AppendWireEnvelope appends the engine-global scalars.
func AppendWireEnvelope(b []byte, env Envelope) []byte {
	b = AppendWireUint(b, env.Seq)
	b = AppendWireF64(b, env.GVT)
	b = AppendWireInt(b, int64(env.Uncommitted))
	return AppendWireInt(b, int64(env.PeakUncommitted))
}

// ConsumeWireEnvelope decodes an Envelope from the front of b.
func ConsumeWireEnvelope(b []byte) (Envelope, []byte, bool) {
	var env Envelope
	var ok bool
	if env.Seq, b, ok = ConsumeWireUint(b); !ok {
		return env, b, false
	}
	if env.GVT, b, ok = ConsumeWireF64(b); !ok {
		return env, b, false
	}
	var v int64
	if v, b, ok = ConsumeWireInt(b); !ok {
		return env, b, false
	}
	env.Uncommitted = int(v)
	if v, b, ok = ConsumeWireInt(b); !ok {
		return env, b, false
	}
	env.PeakUncommitted = int(v)
	return env, b, true
}

// AppendWireEvent appends one cross-shard event or anti-message.
func AppendWireEvent(b []byte, w WireEvent) []byte {
	b = AppendWireF64(b, w.Ts)
	b = AppendWireUint(b, w.Seq)
	b = AppendWireInt(b, int64(w.Src))
	b = AppendWireInt(b, int64(w.Dst))
	b = append(b, w.Kind)
	b = AppendWireInt(b, w.A)
	b = AppendWireInt(b, w.B)
	b = AppendWireBool(b, w.Anti)
	return AppendWireUint(b, w.TargetSeq)
}

// ConsumeWireEvent decodes one WireEvent from the front of b.
func ConsumeWireEvent(b []byte) (WireEvent, []byte, bool) {
	var w WireEvent
	var ok bool
	if w.Ts, b, ok = ConsumeWireF64(b); !ok {
		return w, b, false
	}
	if w.Seq, b, ok = ConsumeWireUint(b); !ok {
		return w, b, false
	}
	var v int64
	if v, b, ok = ConsumeWireInt(b); !ok {
		return w, b, false
	}
	w.Src = int(v)
	if v, b, ok = ConsumeWireInt(b); !ok {
		return w, b, false
	}
	w.Dst = int(v)
	if len(b) < 1 {
		return w, b, false
	}
	w.Kind, b = b[0], b[1:]
	if w.A, b, ok = ConsumeWireInt(b); !ok {
		return w, b, false
	}
	if w.B, b, ok = ConsumeWireInt(b); !ok {
		return w, b, false
	}
	if w.Anti, b, ok = ConsumeWireBool(b); !ok {
		return w, b, false
	}
	if w.TargetSeq, b, ok = ConsumeWireUint(b); !ok {
		return w, b, false
	}
	return w, b, true
}

// AppendWirePeerStats appends one peer's cumulative counters in
// declaration order. Two reserved slots, always 0, sit after Drained
// where the retired lazy-cancellation counters were, so checkpoint
// format v2 keeps its bytes.
func AppendWirePeerStats(b []byte, s PeerStats) []byte {
	b = AppendWireUint(b, s.Processed)
	b = AppendWireUint(b, s.RolledBack)
	b = AppendWireUint(b, s.Committed)
	b = AppendWireUint(b, s.Rollbacks)
	b = AppendWireUint(b, s.Stragglers)
	b = AppendWireUint(b, s.AntiSent)
	b = AppendWireUint(b, s.Annihilated)
	b = AppendWireUint(b, s.Drained)
	b = append(b, 0, 0)
	b = AppendWireUint(b, s.GVTCycles)
	return AppendWireUint(b, s.GVTRounds)
}

// ConsumeWirePeerStats decodes one PeerStats from the front of b. A
// non-zero reserved slot is a failure: no engine that can read it
// wrote one.
func ConsumeWirePeerStats(b []byte) (PeerStats, []byte, bool) {
	var s PeerStats
	var reserved [2]uint64
	fields := []*uint64{
		&s.Processed, &s.RolledBack, &s.Committed, &s.Rollbacks,
		&s.Stragglers, &s.AntiSent, &s.Annihilated, &s.Drained,
		&reserved[0], &reserved[1], &s.GVTCycles, &s.GVTRounds,
	}
	var ok bool
	for _, f := range fields {
		if *f, b, ok = ConsumeWireUint(b); !ok {
			return s, b, false
		}
	}
	return s, b, reserved == [2]uint64{}
}

// Snapshot bodies. A checkpoint file carries the quiesced engine in the
// same conventions as the wire frames above — the snapshot format is
// this codec's second user, and where it lives on if the wire plane
// goes — with two additions a file needs and a frame does not. Every
// slice is prefixed with its length plus one, zero meaning nil, so
// ConsumeEngineState(AppendEngineState(st)) reproduces st exactly: a
// hollow shard's nil pending lists stay nil, which they must, because
// the state travels on to workers whose byte counters tell nil from
// empty. And every count is checked against the bytes that remain
// before anything is allocated, so a hostile length cannot reserve more
// memory than the input is long.

// Minimum encoded sizes, the divisors of those checks.
const (
	minWireLP        = 1 + 8 + 1 + 8                     // empty state, rng state and increment, LVT
	minWireEvent     = 8 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 // Ts, then one byte per remaining field
	minWirePeerStats = 12                                // twelve uvarints
)

// appendWireLen appends a slice length as n+1, or 0 for a nil slice.
func appendWireLen(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return AppendWireUint(b, uint64(n)+1)
}

// consumeWireLen decodes appendWireLen's output, refusing any length
// whose elements, at min bytes each, could not fit in what remains.
func consumeWireLen(b []byte, min int) (n int, isNil bool, rest []byte, ok bool) {
	v, rest, ok := ConsumeWireUint(b)
	if !ok {
		return 0, false, b, false
	}
	if v == 0 {
		return 0, true, rest, true
	}
	if v-1 > uint64(len(rest)/min) {
		return 0, false, b, false
	}
	return int(v - 1), false, rest, true
}

// appendWireU64 appends v as 8 raw little-endian bytes: an RNG state
// word is uniformly random, so a varint would cost ten bytes, not save
// any. (The increment is the stream selector, small for every stream
// the engine seeds, and is a varint.)
func appendWireU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func consumeWireU64(b []byte) (uint64, []byte, bool) {
	if len(b) < 8 {
		return 0, b, false
	}
	return binary.LittleEndian.Uint64(b[:8]), b[8:], true
}

// AppendEngineState appends a quiesced engine state. Pending events go
// through AppendWireEvent with the anti-message fields clear.
func AppendEngineState(b []byte, st *EngineState) []byte {
	b = AppendWireUint(b, st.Seq)
	b = AppendWireF64(b, st.GVT)
	b = AppendWireInt(b, int64(st.PeakUncommitted))
	b = appendWireLen(b, len(st.LPs), st.LPs == nil)
	for i := range st.LPs {
		lp := &st.LPs[i]
		b = appendWireLen(b, len(lp.State), lp.State == nil)
		b = append(b, lp.State...)
		b = appendWireU64(b, lp.Rng.State)
		b = AppendWireUint(b, lp.Rng.Inc)
		b = AppendWireF64(b, lp.LVT)
	}
	b = appendWireLen(b, len(st.Pending), st.Pending == nil)
	for _, evs := range st.Pending {
		b = appendWireLen(b, len(evs), evs == nil)
		for i := range evs {
			r := &evs[i]
			b = AppendWireEvent(b, WireEvent{Ts: r.Ts, Seq: r.Seq, Src: r.Src, Dst: r.Dst, Kind: r.Kind, A: r.A, B: r.B})
		}
	}
	b = appendWireLen(b, len(st.PeerStats), st.PeerStats == nil)
	for _, s := range st.PeerStats {
		b = AppendWirePeerStats(b, s)
	}
	return b
}

// ConsumeEngineState decodes an EngineState from the front of b. The LP
// state bytes alias b; everything else is copied out. A pending event
// that claims to be an anti-message is a failure: none survives a
// quiesce, so none can have been written.
func ConsumeEngineState(b []byte) (*EngineState, []byte, bool) {
	st := &EngineState{}
	var ok, isNil bool
	var n int
	var v int64
	if st.Seq, b, ok = ConsumeWireUint(b); !ok {
		return nil, b, false
	}
	if st.GVT, b, ok = ConsumeWireF64(b); !ok {
		return nil, b, false
	}
	if v, b, ok = ConsumeWireInt(b); !ok {
		return nil, b, false
	}
	st.PeakUncommitted = int(v)

	if n, isNil, b, ok = consumeWireLen(b, minWireLP); !ok {
		return nil, b, false
	}
	if !isNil {
		st.LPs = make([]LPRecord, n)
	}
	for i := range st.LPs {
		lp := &st.LPs[i]
		if n, isNil, b, ok = consumeWireLen(b, 1); !ok {
			return nil, b, false
		}
		if !isNil {
			lp.State, b = b[:n:n], b[n:]
		}
		if lp.Rng.State, b, ok = consumeWireU64(b); !ok {
			return nil, b, false
		}
		if lp.Rng.Inc, b, ok = ConsumeWireUint(b); !ok {
			return nil, b, false
		}
		if lp.LVT, b, ok = ConsumeWireF64(b); !ok {
			return nil, b, false
		}
	}

	if n, isNil, b, ok = consumeWireLen(b, 1); !ok {
		return nil, b, false
	}
	if !isNil {
		st.Pending = make([][]EventRecord, n)
	}
	for i := range st.Pending {
		if n, isNil, b, ok = consumeWireLen(b, minWireEvent); !ok {
			return nil, b, false
		}
		if isNil {
			continue
		}
		evs := make([]EventRecord, n)
		for j := range evs {
			var w WireEvent
			if w, b, ok = ConsumeWireEvent(b); !ok || w.Anti || w.TargetSeq != 0 {
				return nil, b, false
			}
			evs[j] = EventRecord{Ts: w.Ts, Seq: w.Seq, Src: w.Src, Dst: w.Dst, Kind: w.Kind, A: w.A, B: w.B}
		}
		st.Pending[i] = evs
	}

	if n, isNil, b, ok = consumeWireLen(b, minWirePeerStats); !ok {
		return nil, b, false
	}
	if !isNil {
		st.PeerStats = make([]PeerStats, n)
	}
	for i := range st.PeerStats {
		if st.PeerStats[i], b, ok = ConsumeWirePeerStats(b); !ok {
			return nil, b, false
		}
	}
	return st, b, true
}
