package dist

import (
	"fmt"
	"slices"

	"ggpdes/internal/tw"
)

// Hand-rolled binary codec for batched hot-path frames (KindOpsB /
// KindResultB). Integers are uvarints (zigzag when signed), virtual
// times raw float64 bits — binary floats carry ±Inf natively, so the
// WireVT string workaround stays a JSON-only concern. Results are
// encoded positionally: the decoder knows each result's shape from the
// op list it sent, so results carry no tags. Only the hot-path ops have
// a binary form; control ops travel as single JSON KindOp frames.

// binVersion guards against coordinator/worker codec skew; bump on any
// layout change. Version 2 added the quiet set to enveloped replies.
const binVersion = 2

const (
	flagEnv = 1 << 0
)

func corrupt(what string) error {
	return fmt.Errorf("dist: corrupt binary frame: %s", what)
}

// AppendBatch encodes a batch request into dst.
func AppendBatch(dst []byte, m *BatchMsg) ([]byte, error) {
	dst = append(dst, binVersion)
	var flags byte
	if m.Env != nil {
		flags |= flagEnv
	}
	dst = append(dst, flags)
	if m.Env != nil {
		dst = tw.AppendWireEnvelope(dst, *m.Env)
	}
	dst = tw.AppendWireUint(dst, uint64(len(m.Ops)))
	for i := range m.Ops {
		op := &m.Ops[i]
		dst = append(dst, byte(op.Op))
		switch op.Op {
		case OpDrain, OpProcessBatch, OpHasExecWork, OpHasWork,
			OpInputSize, OpLocalMin, OpRemoteMin, OpTakeMinSent,
			OpPeekMinSent:
			dst = tw.AppendWireUint(dst, uint64(op.Peer))
		case OpFossilCollect:
			dst = tw.AppendWireUint(dst, uint64(op.Peer))
			dst = tw.AppendWireF64(dst, float64(op.GVT))
		case OpInject:
			dst = tw.AppendWireUint(dst, uint64(len(op.Events)))
			for _, ev := range op.Events {
				dst = tw.AppendWireEvent(dst, ev)
			}
		case OpCheckInvariants, OpFlushPoolStats, OpMetrics:
			return dst, fmt.Errorf("dist: op %v has no binary form", op.Op)
		default:
			return dst, fmt.Errorf("dist: unknown op code %d", uint8(op.Op))
		}
	}
	return dst, nil
}

// DecodeBatch decodes a binary batch request into a fresh BatchMsg.
func DecodeBatch(b []byte) (*BatchMsg, error) {
	m := &BatchMsg{}
	if err := DecodeBatchInto(m, nil, b); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeBatchInto decodes a binary batch request into m, reusing the
// storage m already holds — the Ops array, and the Events array of each
// op slot, which is why an op without events may come back with an
// empty, non-nil Events — and pointing m.Env at env (a fresh Envelope
// when env is nil) when the frame carries one. On error m's contents
// are unspecified.
func DecodeBatchInto(m *BatchMsg, env *tw.Envelope, b []byte) error {
	if len(b) < 2 {
		return corrupt("short batch header")
	}
	if b[0] != binVersion {
		return fmt.Errorf("dist: binary codec version %d, want %d", b[0], binVersion)
	}
	flags := b[1]
	b = b[2:]
	var ok bool
	if m.Env = nil; flags&flagEnv != 0 {
		if m.Env, b, ok = consumeEnvelope(env, b); !ok {
			return corrupt("batch envelope")
		}
	}
	nops, b, ok := tw.ConsumeWireUint(b)
	if !ok || nops > uint64(len(b))+1 {
		return corrupt("batch op count")
	}
	m.Ops = slices.Grow(m.Ops[:0], int(nops))[:nops]
	for i := range m.Ops {
		if len(b) < 1 {
			return corrupt("batch op code")
		}
		op := &m.Ops[i]
		*op = OpRequest{Op: OpCode(b[0]), Events: op.Events[:0]}
		b = b[1:]
		switch op.Op {
		case OpDrain, OpProcessBatch, OpHasExecWork, OpHasWork,
			OpInputSize, OpLocalMin, OpRemoteMin, OpTakeMinSent,
			OpPeekMinSent:
			peer, rest, ok := tw.ConsumeWireUint(b)
			if !ok {
				return corrupt("op peer")
			}
			op.Peer, b = int(peer), rest
		case OpFossilCollect:
			peer, rest, ok := tw.ConsumeWireUint(b)
			if !ok {
				return corrupt("op peer")
			}
			op.Peer, b = int(peer), rest
			gvt, rest, ok := tw.ConsumeWireF64(b)
			if !ok {
				return corrupt("fossil horizon")
			}
			op.GVT, b = WireVT(gvt), rest
		case OpInject:
			var n uint64
			if n, b, ok = tw.ConsumeWireUint(b); !ok || n > uint64(len(b))+1 {
				return corrupt("inject count")
			}
			if op.Events, b, ok = consumeEvents(op.Events, b, int(n)); !ok {
				return corrupt("inject event")
			}
		case OpCheckInvariants, OpFlushPoolStats, OpMetrics:
			return fmt.Errorf("dist: op %v has no binary form", op.Op)
		default:
			return fmt.Errorf("dist: unknown op code %d", uint8(op.Op))
		}
	}
	if len(b) != 0 {
		return corrupt("trailing batch bytes")
	}
	return nil
}

// consumeEnvelope decodes an envelope from the front of b into env (a
// fresh Envelope when env is nil) and returns it.
func consumeEnvelope(env *tw.Envelope, b []byte) (*tw.Envelope, []byte, bool) {
	if env == nil {
		env = new(tw.Envelope)
	}
	var ok bool
	*env, b, ok = tw.ConsumeWireEnvelope(b)
	return env, b, ok
}

// consumeEvents decodes n wire events from the front of b into dst's
// storage.
func consumeEvents(dst []tw.WireEvent, b []byte, n int) ([]tw.WireEvent, []byte, bool) {
	dst = slices.Grow(dst[:0], n)[:n]
	var ok bool
	for i := range dst {
		if dst[i], b, ok = tw.ConsumeWireEvent(b); !ok {
			return dst, b, false
		}
	}
	return dst, b, true
}

// appendResult encodes one op's result; the shape is the op's.
func appendResult(dst []byte, op OpCode, r *OpResult) ([]byte, error) {
	switch op {
	case OpDrain, OpProcessBatch, OpFossilCollect:
		dst = tw.AppendWireInt(dst, int64(r.N))
		dst = tw.AppendWireUint(dst, r.Cycles)
		return tw.AppendWireBool(dst, r.Worked), nil
	case OpLocalMin:
		dst = tw.AppendWireF64(dst, float64(r.VT))
		dst = tw.AppendWireUint(dst, r.Cycles)
		return tw.AppendWireBool(dst, r.Worked), nil
	case OpInputSize:
		return tw.AppendWireInt(dst, int64(r.N)), nil
	case OpHasExecWork, OpHasWork:
		return tw.AppendWireBool(dst, r.Flag), nil
	case OpRemoteMin, OpTakeMinSent, OpPeekMinSent:
		return tw.AppendWireF64(dst, float64(r.VT)), nil
	case OpInject:
		return dst, nil
	case OpCheckInvariants, OpFlushPoolStats, OpMetrics:
		return dst, fmt.Errorf("dist: op %v has no binary form", op)
	default:
		return dst, fmt.Errorf("dist: unknown op code %d", uint8(op))
	}
}

// consumeResult decodes one op's result.
func consumeResult(b []byte, op OpCode, r *OpResult) ([]byte, error) {
	var ok bool
	switch op {
	case OpDrain, OpProcessBatch, OpFossilCollect:
		var n int64
		if n, b, ok = tw.ConsumeWireInt(b); !ok {
			return b, corrupt("result count")
		}
		r.N = int(n)
		if r.Cycles, b, ok = tw.ConsumeWireUint(b); !ok {
			return b, corrupt("result cycles")
		}
		if r.Worked, b, ok = tw.ConsumeWireBool(b); !ok {
			return b, corrupt("result worked flag")
		}
		return b, nil
	case OpLocalMin:
		var vt float64
		if vt, b, ok = tw.ConsumeWireF64(b); !ok {
			return b, corrupt("result virtual time")
		}
		r.VT = WireVT(vt)
		if r.Cycles, b, ok = tw.ConsumeWireUint(b); !ok {
			return b, corrupt("result cycles")
		}
		if r.Worked, b, ok = tw.ConsumeWireBool(b); !ok {
			return b, corrupt("result worked flag")
		}
		return b, nil
	case OpInputSize:
		var n int64
		if n, b, ok = tw.ConsumeWireInt(b); !ok {
			return b, corrupt("result count")
		}
		r.N = int(n)
		return b, nil
	case OpHasExecWork, OpHasWork:
		if r.Flag, b, ok = tw.ConsumeWireBool(b); !ok {
			return b, corrupt("result flag")
		}
		return b, nil
	case OpRemoteMin, OpTakeMinSent, OpPeekMinSent:
		var vt float64
		if vt, b, ok = tw.ConsumeWireF64(b); !ok {
			return b, corrupt("result virtual time")
		}
		r.VT = WireVT(vt)
		return b, nil
	case OpInject:
		return b, nil
	case OpCheckInvariants, OpFlushPoolStats, OpMetrics:
		return b, fmt.Errorf("dist: op %v has no binary form", op)
	default:
		return b, fmt.Errorf("dist: unknown op code %d", uint8(op))
	}
}

// AppendBatchReply encodes a batch reply; ops is the request's op list,
// which fixes each result's positional shape.
func AppendBatchReply(dst []byte, r *BatchReply, ops []OpRequest) ([]byte, error) {
	if len(r.Results) != len(ops) {
		return dst, fmt.Errorf("dist: %d results for %d ops", len(r.Results), len(ops))
	}
	dst = append(dst, binVersion)
	var flags byte
	if r.Env != nil {
		flags |= flagEnv
	}
	dst = append(dst, flags)
	if r.Env != nil {
		if len(r.Quiet) != tw.QuietSetLen(len(r.Stats)) {
			return dst, fmt.Errorf("dist: quiet set of %d bytes for %d peers", len(r.Quiet), len(r.Stats))
		}
		dst = tw.AppendWireEnvelope(dst, *r.Env)
		dst = tw.AppendWireUint(dst, uint64(len(r.Stats)))
		for _, s := range r.Stats {
			dst = tw.AppendWirePeerStats(dst, s)
		}
		dst = append(dst, r.Quiet...)
	}
	var err error
	for i := range r.Results {
		if dst, err = appendResult(dst, ops[i].Op, &r.Results[i]); err != nil {
			return dst, err
		}
	}
	dst = tw.AppendWireUint(dst, uint64(len(r.Outbox)))
	for _, ev := range r.Outbox {
		dst = tw.AppendWireEvent(dst, ev)
	}
	return dst, nil
}

// DecodeBatchReply decodes a binary batch reply against the op list
// that produced it, into a fresh BatchReply.
func DecodeBatchReply(b []byte, ops []OpRequest) (*BatchReply, error) {
	r := &BatchReply{}
	if err := decodeBatchReplyInto(r, nil, b, ops); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeBatchReplyInto decodes into r, reusing the storage of every
// slice r already holds and pointing r.Env at env, as DecodeBatchInto
// does. On error r's contents are unspecified.
func decodeBatchReplyInto(r *BatchReply, env *tw.Envelope, b []byte, ops []OpRequest) error {
	if len(b) < 2 {
		return corrupt("short reply header")
	}
	if b[0] != binVersion {
		return fmt.Errorf("dist: binary codec version %d, want %d", b[0], binVersion)
	}
	flags := b[1]
	b = b[2:]
	var ok bool
	r.Env, r.Stats, r.Quiet = nil, r.Stats[:0], r.Quiet[:0]
	if flags&flagEnv != 0 {
		if r.Env, b, ok = consumeEnvelope(env, b); !ok {
			return corrupt("reply envelope")
		}
		var n uint64
		if n, b, ok = tw.ConsumeWireUint(b); !ok || n > uint64(len(b))+1 {
			return corrupt("stats count")
		}
		r.Stats = slices.Grow(r.Stats[:0], int(n))[:n]
		for i := range r.Stats {
			if r.Stats[i], b, ok = tw.ConsumeWirePeerStats(b); !ok {
				return corrupt("peer stats")
			}
		}
		q := tw.QuietSetLen(int(n))
		if len(b) < q {
			return corrupt("quiet set")
		}
		r.Quiet = append(r.Quiet, b[:q]...)
		b = b[q:]
	}
	r.Results = slices.Grow(r.Results[:0], len(ops))[:len(ops)]
	clear(r.Results)
	var err error
	for i := range r.Results {
		if b, err = consumeResult(b, ops[i].Op, &r.Results[i]); err != nil {
			return err
		}
	}
	n, b, ok := tw.ConsumeWireUint(b)
	if !ok || n > uint64(len(b))+1 {
		return corrupt("outbox count")
	}
	if r.Outbox, b, ok = consumeEvents(r.Outbox, b, int(n)); !ok {
		return corrupt("outbox event")
	}
	if len(b) != 0 {
		return corrupt("trailing reply bytes")
	}
	return nil
}
