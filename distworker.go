package ggpdes

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"

	"ggpdes/internal/dist"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/tw"
)

// Worker side of a distributed run. A worker process hosts one shard
// of the engine and executes forwarded operations in the exact order
// the coordinator sends them; it runs no machine, scheduler or GVT
// algorithm of its own. See internal/dist for the protocol and
// internal/tw's shard support for the control/data split.

// recordCPU is the worker-side stand-in for the coordinator's
// simulated-CPU accumulator: it records how many cycles one forwarded
// operation charged, and whether it charged at all, so the coordinator
// can mirror the charge onto the real accumulator. Multiple Work calls
// within one operation collapse into a single coordinator-side call,
// which is equivalent — both sides accumulate.
type recordCPU struct {
	cycles uint64
	worked bool
}

// Work implements tw.CPU.
func (c *recordCPU) Work(cycles uint64) {
	c.cycles += cycles
	c.worked = true
}

func (c *recordCPU) reset() { c.cycles, c.worked = 0, false }

// workerShard is one initialized shard: a full-topology engine whose
// peers outside [lo, hi) are foreign, plus the worker's private
// telemetry registry (fresh per Init; the coordinator imports its
// export at segment boundaries, so counters must hold segment deltas
// only).
type workerShard struct {
	eng    *tw.Engine
	reg    *telemetry.Registry
	lo, hi int
	cpu    recordCPU
	// reply and env are the storage every batch reply is built in.
	reply dist.BatchReply
	env   tw.Envelope
}

// newWorkerShard decodes an InitMsg into a live shard engine. The
// embedded config must hash back to the coordinator's cache key — the
// same lossy-codec guard checkpoint restore applies.
func newWorkerShard(init *dist.InitMsg) (*workerShard, error) {
	var cfg Config
	if err := json.Unmarshal(init.Config, &cfg); err != nil {
		return nil, fmt.Errorf("decoding config: %v", err)
	}
	key, err := cfg.CacheKey()
	if err != nil {
		return nil, fmt.Errorf("hashing config: %v", err)
	}
	if key != init.CacheKey {
		return nil, fmt.Errorf("config hashes to %s, coordinator sent %s", key, init.CacheKey)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1 // mirror RunContext's default
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if init.Workers <= 0 || init.Shard < 0 || init.Shard >= init.Workers {
		return nil, fmt.Errorf("shard %d of %d workers out of range", init.Shard, init.Workers)
	}
	if init.Lo < 0 || init.Hi > cfg.Threads || init.Lo >= init.Hi {
		return nil, fmt.Errorf("peer range [%d, %d) outside threads [0, %d)", init.Lo, init.Hi, cfg.Threads)
	}
	reg := telemetry.NewRegistry()
	twCfg, err := cfg.twConfig(reg)
	if err != nil {
		return nil, err
	}
	eng, err := tw.NewEngine(twCfg)
	if err != nil {
		return nil, err
	}
	if err := eng.Shardify(init.Lo, init.Hi); err != nil {
		return nil, err
	}
	return &workerShard{eng: eng, reg: reg, lo: init.Lo, hi: init.Hi}, nil
}

// peer resolves a peer-scoped request's target, rejecting peers the
// shard does not own.
func (ws *workerShard) peer(i int) (*tw.Peer, error) {
	if i < ws.lo || i >= ws.hi {
		return nil, fmt.Errorf("peer %d outside shard [%d, %d)", i, ws.lo, ws.hi)
	}
	return ws.eng.Peer(i), nil
}

// shardStats appends every shard peer's cumulative counters to dst. All
// of them ride on every enveloped response: inject traffic can mutate
// peers other than the request's target.
func (ws *workerShard) shardStats(dst []tw.PeerStats) []tw.PeerStats {
	for i := ws.lo; i < ws.hi; i++ {
		dst = append(dst, ws.eng.Peer(i).Stats)
	}
	return dst
}

// execOne executes one hot-path operation of a batch, recording its
// result and individual CPU charge.
func (ws *workerShard) execOne(req *dist.OpRequest, res *dist.OpResult) error {
	ws.cpu.reset()
	var p *tw.Peer // every hot-path op but OpInject is peer-scoped
	if req.Op != dist.OpInject {
		var err error
		if p, err = ws.peer(req.Peer); err != nil {
			return err
		}
	}
	switch req.Op {
	case dist.OpDrain:
		res.N = p.Drain(&ws.cpu)
	case dist.OpProcessBatch:
		res.N = p.ProcessBatch(&ws.cpu)
	case dist.OpHasExecWork:
		res.Flag = p.HasExecutableWork()
	case dist.OpHasWork:
		res.Flag = p.HasWork()
	case dist.OpInputSize:
		res.N = p.InputSize()
	case dist.OpLocalMin:
		res.VT = dist.WireVT(p.LocalMin(&ws.cpu))
	case dist.OpRemoteMin:
		res.VT = dist.WireVT(p.RemoteMin())
	case dist.OpTakeMinSent:
		res.VT = dist.WireVT(p.TakeMinSent())
	case dist.OpPeekMinSent:
		res.VT = dist.WireVT(p.PeekMinSent())
	case dist.OpFossilCollect:
		res.N = p.FossilCollect(&ws.cpu, tw.VT(req.GVT))
	case dist.OpInject:
		for _, w := range req.Events {
			if err := ws.eng.InjectRemote(w); err != nil {
				return err
			}
		}
	case dist.OpCheckInvariants, dist.OpFlushPoolStats, dist.OpMetrics:
		return fmt.Errorf("control op in a batch frame")
	default:
		return fmt.Errorf("unknown op code %d", uint8(req.Op))
	}
	res.Cycles, res.Worked = ws.cpu.cycles, ws.cpu.worked
	return nil
}

// executeBatch runs a coalesced op run in order. The envelope applies
// once before the first op — nothing coordinator-side runs between the
// batch's operations, so there is nothing to re-apply — and the reply
// carries the final envelope, statistics and quiet set exactly when the
// request carried an envelope. The quiet set is computed over the whole
// shard after the last op, because any op may dirty any same-shard
// peer. The outbox is taken once at the end: it accrues across the
// batch in production order, which is the relay order the coordinator
// must preserve. The reply is the shard's own storage, valid until the
// next batch.
func (ws *workerShard) executeBatch(m *dist.BatchMsg) (*dist.BatchReply, error) {
	if m.Env != nil {
		ws.eng.ApplyEnvelope(*m.Env)
	}
	reply := &ws.reply
	reply.Results = slices.Grow(reply.Results[:0], len(m.Ops))[:len(m.Ops)]
	clear(reply.Results)
	for i := range m.Ops {
		if err := ws.execOne(&m.Ops[i], &reply.Results[i]); err != nil {
			return nil, fmt.Errorf("%v: %w", m.Ops[i].Op, err)
		}
	}
	reply.Env, reply.Stats, reply.Quiet = nil, reply.Stats[:0], reply.Quiet[:0]
	if m.Env != nil {
		ws.env = ws.eng.EnvelopeOut()
		reply.Env = &ws.env
		reply.Stats = ws.shardStats(reply.Stats)
		reply.Quiet = ws.eng.AppendQuietSet(reply.Quiet)
	}
	reply.Outbox = ws.eng.TakeOutbox()
	return reply, nil
}

// handle executes one control operation. The protocol rule is that the
// response carries Env and Stats exactly when the request carried an
// Envelope.
func (ws *workerShard) handle(req *dist.OpRequest) (*dist.OpResponse, error) {
	if req.Env != nil {
		ws.eng.ApplyEnvelope(*req.Env)
	}
	resp := &dist.OpResponse{}
	switch req.Op {
	case dist.OpCheckInvariants:
		if err := ws.eng.CheckInvariants(); err != nil {
			return nil, err
		}
	case dist.OpFlushPoolStats:
		ws.eng.FlushPoolStats()
	case dist.OpMetrics:
		st := ws.reg.Export()
		resp.Metrics = &st
	case dist.OpDrain, dist.OpProcessBatch, dist.OpHasExecWork,
		dist.OpHasWork, dist.OpInputSize, dist.OpLocalMin,
		dist.OpRemoteMin, dist.OpTakeMinSent, dist.OpPeekMinSent,
		dist.OpFossilCollect, dist.OpInject:
		return nil, fmt.Errorf("hot-path op outside a batch frame")
	default:
		return nil, fmt.Errorf("unknown op code %d", uint8(req.Op))
	}
	if req.Env != nil {
		env := ws.eng.EnvelopeOut()
		resp.Env = &env
		resp.Stats = ws.shardStats(nil)
	}
	resp.Outbox = ws.eng.TakeOutbox()
	return resp, nil
}

// ServeWorkerConn serves one coordinator connection until a clean
// shutdown (returns nil) or a transport failure (returns the error;
// the listener keeps accepting for the next coordinator). Worker-side
// operation failures are answered with
// KindError and do not end the connection — the coordinator decides
// whether they are fatal.
func ServeWorkerConn(rw io.ReadWriter) error {
	var ws *workerShard
	// br buffers the connection so a request frame, header and payload,
	// arrives in one read; the strict request/response alternation means
	// it never holds bytes past the frame being read. rbuf is the
	// reusable frame read buffer, msg and msgEnv the storage batch
	// requests decode into, pbuf and fbuf the binary reply payload and
	// frame scratch buffers. One Write per response, no per-frame
	// allocations on the hot path.
	br := bufio.NewReader(rw)
	var rbuf, pbuf, fbuf []byte
	var msg dist.BatchMsg
	var msgEnv tw.Envelope
	// Every answer helper returns only the failure to write the answer.
	fail := func(format string, args ...any) error {
		_, err := dist.WriteMsg(rw, dist.KindError, &dist.ErrorMsg{Error: fmt.Sprintf(format, args...)})
		return err
	}
	result := func(payload any) error {
		_, err := dist.WriteMsg(rw, dist.KindResult, payload)
		return err
	}
	batchResult := func(reply *dist.BatchReply, ops []dist.OpRequest) error {
		payload, err := dist.AppendBatchReply(pbuf[:0], reply, ops)
		if cap(payload) > cap(pbuf) {
			pbuf = payload
		}
		if err != nil {
			return fail("encoding batch reply: %v", err)
		}
		frame, err := dist.AppendMsg(fbuf[:0], dist.KindResultB, payload)
		if cap(frame) > cap(fbuf) {
			fbuf = frame
		}
		if err != nil {
			return fail("framing batch reply: %v", err)
		}
		_, err = rw.Write(frame)
		return err
	}
	// answer serves one frame; done reports a clean shutdown.
	answer := func(kind dist.MsgKind, body []byte) (done bool, werr error) {
		switch kind {
		case dist.KindInit:
			var init dist.InitMsg
			if err := json.Unmarshal(body, &init); err != nil {
				return false, fail("decoding init: %v", err)
			}
			nws, err := newWorkerShard(&init)
			if err != nil {
				return false, fail("init: %v", err)
			}
			ws = nws
			return false, result(nil)
		case dist.KindOp:
			if ws == nil {
				return false, fail("op before init")
			}
			var req dist.OpRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return false, fail("decoding op: %v", err)
			}
			resp, err := ws.handle(&req)
			if err != nil {
				return false, fail("%v: %v", req.Op, err)
			}
			return false, result(resp)
		case dist.KindOpsB:
			if ws == nil {
				return false, fail("op batch before init")
			}
			if err := dist.DecodeBatchInto(&msg, &msgEnv, body); err != nil {
				return false, fail("decoding binary batch: %v", err)
			}
			reply, err := ws.executeBatch(&msg)
			if err != nil {
				return false, fail("batch: %v", err)
			}
			return false, batchResult(reply, msg.Ops)
		case dist.KindShutdown:
			return true, result(nil)
		case dist.KindResult, dist.KindResultB, dist.KindError:
			return false, fail("unexpected %v frame from coordinator", kind)
		default:
			return false, fail("unknown frame kind %d", uint8(kind))
		}
	}
	for {
		kind, body, _, buf, err := dist.ReadMsgBuf(br, rbuf)
		rbuf = buf
		if err != nil {
			return fmt.Errorf("ggpdes: worker: reading frame: %w", err)
		}
		if done, werr := answer(kind, body); done || werr != nil {
			return werr
		}
	}
}

// ListenAndServeWorker accepts coordinator connections one at a time
// until a coordinator asks for a clean shutdown. A dropped connection
// (a coordinator that failed or was killed) keeps the listener alive
// for the next coordinator, which initializes the shard afresh.
func ListenAndServeWorker(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		err = ServeWorkerConn(conn)
		conn.Close()
		if err == nil {
			return nil
		}
	}
}
