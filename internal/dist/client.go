package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"ggpdes/internal/telemetry"
	"ggpdes/internal/tw"
)

// Client is the coordinator's connection to one worker process: a
// synchronous call/response channel with wire telemetry. It is not
// goroutine-safe — the machine serializes all engine operations, which
// is exactly what keeps the distributed trajectory deterministic.
type Client struct {
	w io.Writer
	// r buffers the connection so a response frame, header and payload,
	// arrives in one read. The strict request/response alternation means
	// it never holds bytes past the frame being read.
	r *bufio.Reader

	// wbuf and rbuf are reusable frame scratch buffers: one assembled
	// Write per request, zero per-frame read allocations. bbuf holds
	// binary batch payloads before framing; reply and env are the storage
	// every CallBatch decodes into.
	wbuf, rbuf, bbuf []byte
	reply            BatchReply
	env              tw.Envelope

	msgsSent      *telemetry.Counter
	msgsReceived  *telemetry.Counter
	bytesSent     *telemetry.Counter
	bytesReceived *telemetry.Counter
	eventsRelayed *telemetry.Counter
	antisRelayed  *telemetry.Counter
	batches       *telemetry.Counter
	opsCoalesced  *telemetry.Counter
}

// NewClient wraps a worker connection; wire counters register in reg
// (nil-safe, like all telemetry).
func NewClient(rw io.ReadWriter, reg *telemetry.Registry) *Client {
	return &Client{
		w:             rw,
		r:             bufio.NewReader(rw),
		msgsSent:      reg.Counter(MetricMsgsSent),
		msgsReceived:  reg.Counter(MetricMsgsReceived),
		bytesSent:     reg.Counter(MetricBytesSent),
		bytesReceived: reg.Counter(MetricBytesReceived),
		eventsRelayed: reg.Counter(MetricEventsRelayed),
		antisRelayed:  reg.Counter(MetricAntisRelayed),
		batches:       reg.Counter(MetricBatches),
		opsCoalesced:  reg.Counter(MetricOpsCoalesced),
	}
}

// RemoteError is a failure the worker reported in answer to a request:
// the connection is intact, and repeating the request would
// deterministically hit the same error.
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "dist: worker: " + e.Msg }

// send frames kind+body into the write scratch buffer and ships it in
// one Write call.
func (c *Client) send(kind MsgKind, body []byte) error {
	frame, err := AppendMsg(c.wbuf[:0], kind, body)
	if cap(frame) > cap(c.wbuf) {
		c.wbuf = frame
	}
	if err != nil {
		return fmt.Errorf("%w: framing %v: %v", ErrWorkerLost, kind, err)
	}
	n, err := c.w.Write(frame)
	c.bytesSent.Add(uint64(n))
	if err != nil {
		return fmt.Errorf("%w: sending %v: %v", ErrWorkerLost, kind, err)
	}
	c.msgsSent.Inc()
	return nil
}

// receive reads one response frame into the read scratch buffer. The
// returned payload is valid until the next receive.
func (c *Client) receive(kind MsgKind) (MsgKind, []byte, error) {
	rk, body, rn, buf, err := ReadMsgBuf(c.r, c.rbuf)
	c.rbuf = buf
	c.bytesReceived.Add(uint64(rn))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: awaiting %v response: %v", ErrWorkerLost, kind, err)
	}
	c.msgsReceived.Inc()
	if rk == KindError {
		var em ErrorMsg
		if jerr := json.Unmarshal(body, &em); jerr != nil || em.Error == "" {
			em.Error = fmt.Sprintf("malformed error response to %v", kind)
		}
		return 0, nil, &RemoteError{Msg: em.Error}
	}
	return rk, body, nil
}

// Call sends one request and decodes the worker's response into reply
// (which may be nil for acknowledgement-only calls). Transport
// failures wrap ErrWorkerLost; worker-reported failures come back as
// *RemoteError.
func (c *Client) Call(kind MsgKind, payload, reply any) error {
	body, err := MarshalBody(kind, payload)
	if err != nil {
		return err
	}
	if err := c.send(kind, body); err != nil {
		return err
	}
	rk, rbody, err := c.receive(kind)
	if err != nil {
		return err
	}
	if rk != KindResult {
		return fmt.Errorf("%w: %v response to %v", ErrWorkerLost, rk, kind)
	}
	if reply == nil {
		return nil
	}
	if err := json.Unmarshal(rbody, reply); err != nil {
		return fmt.Errorf("%w: decoding %v response: %v", ErrWorkerLost, kind, err)
	}
	return nil
}

// CallBatch ships one coalesced op batch as a binary KindOpsB frame and
// decodes the KindResultB reply. The ops slice must outlive the call —
// replies are decoded positionally against it. The reply is the
// client's own storage, valid until the next CallBatch.
func (c *Client) CallBatch(m *BatchMsg) (*BatchReply, error) {
	body, err := AppendBatch(c.bbuf[:0], m)
	if cap(body) > cap(c.bbuf) {
		c.bbuf = body
	}
	if err != nil {
		return nil, fmt.Errorf("dist: encoding batch: %w", err)
	}
	if err := c.send(KindOpsB, body); err != nil {
		return nil, err
	}
	c.batches.Inc()
	if len(m.Ops) > 1 {
		c.opsCoalesced.Add(uint64(len(m.Ops) - 1))
	}
	rk, rbody, err := c.receive(KindOpsB)
	if err != nil {
		return nil, err
	}
	if rk != KindResultB {
		return nil, fmt.Errorf("%w: %v response to %v", ErrWorkerLost, rk, KindOpsB)
	}
	if err := decodeBatchReplyInto(&c.reply, &c.env, rbody, m.Ops); err != nil {
		return nil, fmt.Errorf("%w: decoding %v response: %v", ErrWorkerLost, KindOpsB, err)
	}
	return &c.reply, nil
}

// CountRelayed books relayed cross-shard traffic into the wire
// counters.
func (c *Client) CountRelayed(events []tw.WireEvent) {
	var pos, anti uint64
	for _, w := range events {
		if w.Anti {
			anti++
		} else {
			pos++
		}
	}
	c.eventsRelayed.Add(pos)
	c.antisRelayed.Add(anti)
}

// IsRemote reports whether err is a worker-reported (non-retryable)
// failure.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}
