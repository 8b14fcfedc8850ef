package dist

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"ggpdes/internal/tw"
)

// byteStream turns a fuzz input into a deterministic value generator;
// exhausted input yields zeros, so every prefix is a valid seed.
type byteStream struct {
	b []byte
	i int
}

func (s *byteStream) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	v := s.b[s.i]
	s.i++
	return v
}

func (s *byteStream) u64() uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v = v<<8 | uint64(s.next())
	}
	return v
}

// vt picks a virtual time including the infinities binary floats must
// carry natively; NaN is excluded (never produced by the engine, and
// NaN != NaN breaks equality checks, not the codec).
func (s *byteStream) vt() float64 {
	switch s.next() % 4 {
	case 0:
		return math.Inf(1)
	case 1:
		return math.Inf(-1)
	case 2:
		return float64(int64(s.u64())) / 256
	default:
		return float64(s.next())
	}
}

// finite is for fields that are plain float64 in JSON (envelope GVT,
// event timestamps), where the engine only ever puts finite values.
func (s *byteStream) finite() float64 {
	return float64(int64(s.u64())) / 256
}

func (s *byteStream) event() tw.WireEvent {
	return tw.WireEvent{
		Ts:        s.finite(),
		Seq:       s.u64(),
		Src:       int(int8(s.next())),
		Dst:       int(int8(s.next())),
		Kind:      s.next(),
		A:         int64(s.u64()),
		B:         int64(s.u64()),
		Anti:      s.next()%2 == 1,
		TargetSeq: s.u64(),
	}
}

func (s *byteStream) events(n int) []tw.WireEvent {
	out := make([]tw.WireEvent, n)
	for i := range out {
		out[i] = s.event()
	}
	return out
}

// batchableOps is every op with a binary form, in a fixed pick order.
var batchableOps = []OpCode{
	OpDrain, OpProcessBatch, OpHasExecWork, OpHasWork, OpInputSize,
	OpLocalMin, OpRemoteMin, OpTakeMinSent, OpPeekMinSent,
	OpFossilCollect, OpInject,
}

// genBatch derives a batch request and a shape-matching reply from the
// stream, exercising every batchable op kind and both envelope states.
func genBatch(s *byteStream) (*BatchMsg, *BatchReply) {
	m := &BatchMsg{Ops: make([]OpRequest, 1+int(s.next()%4))}
	for i := range m.Ops {
		op := &m.Ops[i]
		op.Op = batchableOps[int(s.next())%len(batchableOps)]
		switch op.Op {
		case OpInject:
			op.Events = s.events(1 + int(s.next()%3))
		case OpFossilCollect:
			op.Peer = int(s.next() % 16)
			op.GVT = WireVT(s.vt())
		case OpDrain, OpProcessBatch, OpHasExecWork, OpHasWork, OpInputSize,
			OpLocalMin, OpRemoteMin, OpTakeMinSent, OpPeekMinSent,
			OpCheckInvariants, OpFlushPoolStats, OpMetrics:
			op.Peer = int(s.next() % 16)
		}
	}
	if s.next()%2 == 1 {
		m.Env = &tw.Envelope{
			Seq:             s.u64(),
			GVT:             s.finite(),
			Uncommitted:     int(int8(s.next())),
			PeakUncommitted: int(s.next()),
		}
	}
	r := &BatchReply{Results: make([]OpResult, len(m.Ops))}
	for i := range r.Results {
		res := &r.Results[i]
		switch m.Ops[i].Op {
		case OpDrain, OpProcessBatch, OpFossilCollect:
			res.N = int(int8(s.next()))
			res.Cycles = uint64(s.next())
			res.Worked = s.next()%2 == 1
		case OpLocalMin:
			res.VT = WireVT(s.vt())
			res.Cycles = uint64(s.next())
			res.Worked = s.next()%2 == 1
		case OpInputSize:
			res.N = int(int8(s.next()))
		case OpHasExecWork, OpHasWork:
			res.Flag = s.next()%2 == 1
		case OpRemoteMin, OpTakeMinSent, OpPeekMinSent:
			res.VT = WireVT(s.vt())
		case OpInject, OpCheckInvariants, OpFlushPoolStats, OpMetrics:
		}
	}
	// The protocol couples reply envelope, stats and quiet set to the
	// request envelope; the codec encodes them only under the env flag.
	// The quiet set is sized by the stats, and shards of more than 64
	// peers make it longer than a machine word.
	if m.Env != nil {
		env := *m.Env
		env.Seq++
		r.Env = &env
		r.Stats = make([]tw.PeerStats, 1+int(s.next()%80))
		r.Quiet = make([]byte, tw.QuietSetLen(len(r.Stats)))
		for i := range r.Quiet {
			r.Quiet[i] = s.next()
		}
		for i := range r.Stats {
			r.Stats[i] = tw.PeerStats{
				Processed: s.u64(), RolledBack: s.u64(), Committed: s.u64(),
				Rollbacks: s.u64(), Stragglers: s.u64(), AntiSent: s.u64(),
				Annihilated: s.u64(), Drained: s.u64(),
				GVTCycles: s.u64(), GVTRounds: s.u64(),
			}
		}
	}
	if s.next()%2 == 1 {
		r.Outbox = s.events(1 + int(s.next()%3))
	}
	return m, r
}

// FuzzBinaryFrame checks the binary batch codec two ways: encoding then
// decoding a generated frame is the identity, and raw bytes never panic
// the decoders (corrupt frames must surface as errors).
func FuzzBinaryFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3})
	f.Add([]byte{9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("batched binary protocol"))
	// Enveloped replies carrying a quiet set: one drain over a 3-peer
	// shard (one byte, bits 0 and 2), then over a 72-peer shard (nine
	// bytes). Layout: op count, op pick, peer, env flag, 19 envelope
	// bytes, result (n, cycles, worked), stats count, the set.
	envelope := []byte{1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 9, 0, 1, 2, 3}
	result := []byte{0, 40, 1}
	f.Add(slices.Concat([]byte{0, 0, 1}, envelope, result, []byte{2, 0b101}))
	f.Add(slices.Concat([]byte{0, 0, 5}, envelope, result, []byte{71, 0xff, 0, 0xff, 0, 0xff, 0, 0xff, 0, 0x80}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, r := genBatch(&byteStream{b: data})

		mb, err := AppendBatch(nil, m)
		if err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
		m2, err := DecodeBatch(mb)
		if err != nil {
			t.Fatalf("DecodeBatch: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("batch round trip diverged:\nsent: %+v\ngot:  %+v", m, m2)
		}

		rb, err := AppendBatchReply(nil, r, m.Ops)
		if err != nil {
			t.Fatalf("AppendBatchReply: %v", err)
		}
		r2, err := DecodeBatchReply(rb, m.Ops)
		if err != nil {
			t.Fatalf("DecodeBatchReply: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("reply round trip diverged:\nsent: %+v\ngot:  %+v", r, r2)
		}

		// Corrupt-input hardening: arbitrary bytes may error, never panic.
		if dm, err := DecodeBatch(data); err == nil && dm == nil {
			t.Fatal("DecodeBatch returned nil, nil")
		}
		if dr, err := DecodeBatchReply(data, m.Ops); err == nil && dr == nil {
			t.Fatal("DecodeBatchReply returned nil, nil")
		}
	})
}

// Retiring an op or a kind leaves a blank in its place: every surviving
// one keeps the wire byte a coordinator or worker of another build
// sends for it.
func TestWireValuesPinned(t *testing.T) {
	for op, want := range map[OpCode]uint8{
		OpDrain: 1, OpProcessBatch: 2, OpHasExecWork: 3, OpHasWork: 4,
		OpInputSize: 5, OpLocalMin: 6, OpRemoteMin: 7, OpTakeMinSent: 8,
		OpPeekMinSent: 9, OpFossilCollect: 10, OpInject: 11,
		OpCheckInvariants: 16, OpFlushPoolStats: 17, OpMetrics: 18,
	} {
		if uint8(op) != want {
			t.Errorf("%v = %d, want %d", op, uint8(op), want)
		}
	}
	for kind, want := range map[MsgKind]uint8{
		KindInit: 1, KindOp: 2, KindResult: 3, KindError: 4, KindShutdown: 5,
		KindOpsB: 7, KindResultB: 8,
	} {
		if uint8(kind) != want {
			t.Errorf("%v = %d, want %d", kind, uint8(kind), want)
		}
	}
}
