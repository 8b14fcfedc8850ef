// Package dist is the wire protocol of distributed Time Warp runs: a
// coordinator process drives the unmodified machine, scheduler and GVT
// algorithm over a hollow engine and forwards every peer operation to
// the worker process hosting the real shard (see internal/tw's shard
// support for the control/data split that makes the trajectory
// byte-identical to an in-process run).
//
// Framing is a 4-byte big-endian length followed by a 1-byte message
// kind and a payload. There is one data plane. Hot-path operations —
// drain/process, the GVT minima, fossil collection and cross-shard
// injects — travel as coalesced binary batches (KindOpsB answered by
// KindResultB, see codec.go). Control operations — init, invariants,
// pool flushes, metrics, shutdown — are rare,
// carry structured payloads that already have JSON codecs, and travel
// as single JSON frames (KindInit/KindOp/KindShutdown answered by
// KindResult). JSON round-trips floats exactly and matches the repo's
// other wire surfaces (configs, checkpoints).
//
// The protocol is a strict request/response alternation on one
// connection: the worker answers every frame with exactly one result
// frame or KindError. Synchronous round trips are the point, not a
// limitation — each frame's operations must complete before the
// coordinator runs the next one, or the global interleaving (and with
// it the trajectory) would diverge from the in-process run.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"ggpdes/internal/telemetry"
	"ggpdes/internal/tw"
)

// ErrWorkerLost marks a coordinator-side transport failure: the worker
// connection broke mid-run, which fails the distributed run.
var ErrWorkerLost = errors.New("dist: worker connection lost")

// Metric names the distributed layer registers.
const (
	// MetricMsgsSent / MetricMsgsReceived count protocol messages from
	// the coordinator's point of view.
	MetricMsgsSent     = "dist.msgs_sent"
	MetricMsgsReceived = "dist.msgs_received"
	// MetricBytesSent / MetricBytesReceived count framed wire bytes.
	MetricBytesSent     = "dist.bytes_sent"
	MetricBytesReceived = "dist.bytes_received"
	// MetricEventsRelayed / MetricAntisRelayed count cross-shard
	// positive events and anti-messages the coordinator relayed.
	MetricEventsRelayed = "dist.events_relayed"
	MetricAntisRelayed  = "dist.antis_relayed"
	// MetricGVTRounds counts distributed Mattern-cut completions (cut 2
	// of every GVT round observed by the coordinator).
	MetricGVTRounds = "dist.gvt_rounds"
	// MetricBatches counts coalesced op-batch frames sent;
	// MetricOpsCoalesced counts the round trips they saved (ops per
	// batch beyond the first).
	MetricBatches      = "dist.batches"
	MetricOpsCoalesced = "dist.ops_coalesced"
	// MetricReadsCached counts pure queries answered from the
	// coordinator's per-shard read cache without any frame at all.
	MetricReadsCached = "dist.reads_cached"
	// MetricPollsElided counts drain+process polls of peers the worker
	// reported quiet, answered by the coordinator without any frame.
	MetricPollsElided = "dist.polls_elided"
	// MetricWorkersConnected gauges the worker processes currently
	// attached to the coordinator.
	MetricWorkersConnected = "dist.workers.connected"
)

// MsgKind tags a protocol frame.
type MsgKind uint8

const (
	// KindInit carries an InitMsg; the worker builds its shard engine.
	KindInit MsgKind = iota + 1
	// KindOp carries an OpRequest; the worker runs one engine operation.
	KindOp
	// KindResult carries a response payload (InitMsg and KindShutdown
	// are acknowledged with an empty one, KindOp with an OpResponse).
	KindResult
	// KindError carries an ErrorMsg; the request it answers failed.
	KindError
	// KindShutdown asks the worker to acknowledge and exit its serve
	// loop cleanly.
	KindShutdown
	// Kind byte 6 is retired (it tagged a JSON-encoded op batch); the
	// blank keeps the binary kinds' wire values where they were.
	_
	// KindOpsB carries a binary-encoded BatchMsg (see codec.go): a
	// coalesced run of hot-path ops the worker executes in order,
	// answered with KindResultB.
	KindOpsB
	// KindResultB carries a binary-encoded BatchReply.
	KindResultB
)

// String returns the kind's wire-table name.
func (k MsgKind) String() string {
	switch k {
	case KindInit:
		return "init"
	case KindOp:
		return "op"
	case KindResult:
		return "result"
	case KindError:
		return "error"
	case KindShutdown:
		return "shutdown"
	case KindOpsB:
		return "ops_binary"
	case KindResultB:
		return "result_binary"
	default:
		return fmt.Sprintf("MsgKind(%d)", uint8(k))
	}
}

// OpCode selects the engine operation a KindOp frame forwards.
type OpCode uint8

const (
	// Peer-scoped operations mirror tw.Peer's public surface; the
	// request names the peer and threads the coordinator's Envelope.
	OpDrain OpCode = iota + 1
	OpProcessBatch
	OpHasExecWork
	OpHasWork
	OpInputSize
	OpLocalMin
	OpRemoteMin
	OpTakeMinSent
	OpPeekMinSent
	OpFossilCollect
	// Worker-scoped operations act on the whole shard. OpInject relays
	// cross-shard wire events (no envelope — injection touches no
	// engine-global scalars); the rest are the end of the run's
	// invariant/metrics sweep.
	OpInject
	// Op bytes 12 to 15 are retired (they drove the distributed
	// checkpoint's quiesce and capture); the blanks keep the surviving
	// ops' wire values where they were.
	_
	_
	_
	_
	OpCheckInvariants
	OpFlushPoolStats
	OpMetrics
	// Op byte 19 is retired too (it fetched per-peer series probes);
	// nothing follows it, so no blank is needed to hold a value.
)

// String returns the op's wire-table name.
func (o OpCode) String() string {
	switch o {
	case OpDrain:
		return "drain"
	case OpProcessBatch:
		return "process_batch"
	case OpHasExecWork:
		return "has_exec_work"
	case OpHasWork:
		return "has_work"
	case OpInputSize:
		return "input_size"
	case OpLocalMin:
		return "local_min"
	case OpRemoteMin:
		return "remote_min"
	case OpTakeMinSent:
		return "take_min_sent"
	case OpPeekMinSent:
		return "peek_min_sent"
	case OpFossilCollect:
		return "fossil_collect"
	case OpInject:
		return "inject"
	case OpCheckInvariants:
		return "check_invariants"
	case OpFlushPoolStats:
		return "flush_pool_stats"
	case OpMetrics:
		return "metrics"
	default:
		return fmt.Sprintf("OpCode(%d)", uint8(o))
	}
}

// WireVT is a virtual time on the wire. Virtual times travel only in
// binary batch frames, as raw float64 bits — several engine minimum
// operations legitimately return +Inf ("nothing pending"), which the
// binary form carries natively and JSON numbers cannot.
type WireVT float64

// InitMsg tells a worker which shard of which run it hosts. Config is
// the run configuration in its canonical JSON wire form (the root
// package owns the codec); CacheKey lets the worker verify the decoded
// config hashes back, exactly like checkpoint restore does.
type InitMsg struct {
	Config   json.RawMessage `json:"config"`
	CacheKey string          `json:"cache_key"`
	// Shard is this worker's index; Workers the total count.
	Shard   int `json:"shard"`
	Workers int `json:"workers"`
	// Lo and Hi bound the worker's peer range [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// OpRequest is one forwarded engine operation: a control op travelling
// alone as a JSON KindOp frame, or a hot-path op inside a BatchMsg.
type OpRequest struct {
	Op OpCode `json:"op"`
	// Env threads the coordinator's engine-global scalars through a
	// control op. Batched ops share their BatchMsg's envelope instead.
	Env *tw.Envelope `json:"env,omitempty"`

	// The remaining fields belong to hot-path ops, which have a binary
	// form only. Peer names the target of peer-scoped ops, GVT is
	// OpFossilCollect's collection horizon, Events carries OpInject's
	// relayed wire events.
	Peer   int            `json:"-"`
	GVT    WireVT         `json:"-"`
	Events []tw.WireEvent `json:"-"`
}

// OpResponse is the result of one control op. Env and Stats ride on
// every enveloped op so the coordinator can mirror the worker's state
// before the next operation.
type OpResponse struct {
	// Env returns the engine-global scalars after the operation.
	Env *tw.Envelope `json:"env,omitempty"`
	// Stats returns every shard peer's cumulative counters.
	Stats []tw.PeerStats `json:"stats,omitempty"`
	// Outbox carries cross-shard sends the operation produced, in
	// production order.
	Outbox []tw.WireEvent `json:"outbox,omitempty"`
	// Metrics is OpMetrics' worker registry export.
	Metrics *telemetry.MetricsState `json:"metrics,omitempty"`
}

// ErrorMsg is a KindError payload.
type ErrorMsg struct {
	Error string `json:"error"`
}

// BatchMsg is a KindOpsB payload: a coalesced run of operations the
// worker executes in order. The envelope rides once per batch and is
// applied before the first op — nothing coordinator-side runs between
// the batch's ops, so per-op re-application would install the same
// values. Per-op Env fields are unused inside a batch.
type BatchMsg struct {
	// Env threads the coordinator's engine-global scalars; nil for
	// inject-only batches, which touch none of them.
	Env *tw.Envelope
	Ops []OpRequest
}

// OpResult is one batched operation's result: the op-specific value
// (N for counts and sizes, Flag for predicates, VT for minima) plus its
// individual CPU charge — Worked reports whether it charged at all —
// so the coordinator can mirror each constituent charge in execution
// order.
type OpResult struct {
	N      int
	Flag   bool
	VT     WireVT
	Cycles uint64
	Worked bool
}

// BatchReply answers a batch: per-op results in execution order, the
// final envelope, statistics and quiet set (exactly when the request
// carried an envelope), and the combined outbox in production order
// across the whole batch.
type BatchReply struct {
	Env   *tw.Envelope
	Stats []tw.PeerStats
	// Quiet is the shard's quiet set after the batch, one bit per entry
	// of Stats (tw.Engine.AppendQuietSet): the peers whose polls the
	// coordinator may answer itself until it next hears from, or queues
	// anything toward, this worker.
	Quiet   []byte
	Results []OpResult
	Outbox  []tw.WireEvent
}

// PureRead reports whether an op leaves every observable value of the
// worker's shard unchanged: repeating it immediately is a provable
// no-op. Pure reads do not invalidate the coordinator's read cache.
// (Drain-side cleanup of already-cancelled queue heads does not count
// as a change — it never alters a subsequent result, only reclaims
// storage, and the first post-mutation read always goes to the wire.)
func PureRead(op OpCode) bool {
	switch op {
	case OpHasExecWork, OpHasWork, OpInputSize, OpRemoteMin,
		OpPeekMinSent:
		return true
	case OpDrain, OpProcessBatch, OpLocalMin, OpTakeMinSent,
		OpFossilCollect, OpInject, OpCheckInvariants, OpFlushPoolStats,
		OpMetrics:
		return false
	default:
		return false
	}
}

// maxFrame bounds a frame's payload; anything larger is protocol
// corruption, not data.
const maxFrame = 1 << 28

// AppendMsg appends one framed message (header plus body) to dst, so a
// caller with a scratch buffer issues a single Write per frame.
func AppendMsg(dst []byte, kind MsgKind, body []byte) ([]byte, error) {
	if len(body)+1 > maxFrame {
		return dst, fmt.Errorf("dist: %v payload of %d bytes exceeds frame limit", kind, len(body))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)+1))
	dst = append(dst, byte(kind))
	return append(dst, body...), nil
}

// MarshalBody encodes a frame payload as JSON; a nil payload becomes
// an empty object.
func MarshalBody(kind MsgKind, payload any) ([]byte, error) {
	if payload == nil {
		return []byte("{}"), nil
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding %v payload: %w", kind, err)
	}
	return body, nil
}

// WriteMsg frames and writes one message in a single Write call and
// returns the bytes written. A nil payload writes an empty object.
func WriteMsg(w io.Writer, kind MsgKind, payload any) (int, error) {
	body, err := MarshalBody(kind, payload)
	if err != nil {
		return 0, err
	}
	return WriteRawMsg(w, kind, body)
}

// WriteRawMsg frames and writes one message with a pre-encoded body in
// a single Write call.
func WriteRawMsg(w io.Writer, kind MsgKind, body []byte) (int, error) {
	frame, err := AppendMsg(make([]byte, 0, 5+len(body)), kind, body)
	if err != nil {
		return 0, err
	}
	return w.Write(frame)
}

// ReadMsg reads one framed message and returns its kind, payload bytes
// and total wire size. The payload is freshly allocated; loops should
// prefer ReadMsgBuf with a reusable scratch buffer.
func ReadMsg(r io.Reader) (MsgKind, []byte, int, error) {
	kind, body, n, _, err := ReadMsgBuf(r, nil)
	return kind, body, n, err
}

// ReadMsgBuf reads one framed message into buf (grown as needed) and
// returns the kind, the payload slice aliasing buf, the total wire
// size, and the possibly-grown buffer for the caller to reuse. The
// payload is valid until the next ReadMsgBuf call with the same
// buffer. The header and the payload are read separately, so hand it a
// buffered reader to get one read of the connection per frame.
func ReadMsgBuf(r io.Reader, buf []byte) (MsgKind, []byte, int, []byte, error) {
	// The header is parsed out of buf before the payload overwrites it:
	// an array of its own would escape through r and cost an allocation
	// per frame.
	const hdrLen = 5
	if cap(buf) < hdrLen {
		buf = make([]byte, hdrLen)
	}
	hdr := buf[:hdrLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, 0, buf, err
	}
	n, kind := binary.BigEndian.Uint32(hdr[:4]), MsgKind(hdr[4])
	if n < 1 || n > maxFrame {
		return 0, nil, 0, buf, fmt.Errorf("dist: frame length %d out of range", n)
	}
	if cap(buf) < int(n-1) {
		buf = make([]byte, n-1)
	}
	body := buf[:n-1]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, 0, buf, err
	}
	return kind, body, hdrLen + len(body), buf, nil
}
