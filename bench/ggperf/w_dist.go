package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ggpdes"
	"ggpdes/bench/span"
	"ggpdes/internal/dist"
)

// pholdDist is workload 5: the BENCH_PR8 config (PHOLD, 16 threads x
// 8 LPs, GG-PDES-Async, GVT every 10 iterations) run in process and
// then sharded across 2 workers. The workers are
// ggpdes.ListenAndServeWorker goroutines behind loopback TCP listeners
// inside this process: three processes on two cores would measure the
// OS scheduler, so this is a lower bound on the cross-process cost.
// Like workloads 1-4 it runs on one P (see singleP in run.go): the
// coordinator and the two workers take turns, and what is timed is
// framing, codec, socket calls and the bridge, not the wake-up of an
// idle CPU.
//
// The benchmark owns both ends of every connection, which is how the
// wire is measured from outside: the coordinator end times write ->
// reply-read-complete (dist.rtt), the worker end times request-read ->
// reply-write (dist.worker_busy).
type pholdDist struct {
	simLoop
	workers   int
	listeners []net.Listener
	served    sync.WaitGroup

	// tr is the tracer of the phase being measured (nil untraced); the
	// connection wrappers read it at dial/accept time.
	tr atomic.Pointer[span.Tracer]
	// open is the round trip each worker is answering.
	open []atomic.Pointer[openRTT]
	// wire keeps each model seed's dist.* counters, which are scrubbed
	// from the Results before the comparison with the in-process run;
	// reported sums the frames the Results of a traced phase claim, to
	// be held against the frames the wrapped connections saw.
	wire     [modelSeeds]map[string]uint64
	reported uint64

	capMu    sync.Mutex
	captured []framePair
}

// openRTT is a round trip in flight.
type openRTT struct {
	id span.ID
	op int64
}

// framePair is one captured request frame and its reply.
type framePair struct{ req, resp []byte }

// maxCaptured bounds the frames kept for the codec replay.
const maxCaptured = 4096

func newPholdDist() workload { return &pholdDist{} }

const (
	callInProc = "in-process"
	callDist   = "distributed"
)

func (w *pholdDist) setup(env *runEnv) error {
	w.init(env)
	w.headline = callDist
	w.workers = 2
	cfg := ggpdes.Config{
		Model: ggpdes.PHOLD{LPsPerThread: 8}, Threads: 16,
		System: ggpdes.GGPDES, GVT: ggpdes.WaitFree, Affinity: ggpdes.ConstantAffinity,
		Machine: ggpdes.Machine{Cores: 16, SMTWidth: 2}, EndTime: 60,
		GVTFrequency: 10, ZeroCounterThreshold: 60,
	}
	if env.scale == scaleTiny {
		cfg.Model, cfg.Threads, cfg.Machine, cfg.EndTime = ggpdes.PHOLD{LPsPerThread: 2}, 4, tinyMachine(), 20
	}
	w.open = make([]atomic.Pointer[openRTT], w.workers)
	for i := 0; i < w.workers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.close()
			return err
		}
		w.listeners = append(w.listeners, ln)
		w.served.Add(1)
		go w.serve(i, ln)
	}
	run := runCfg(cfg)
	w.calls = []simCall{
		{name: callInProc, endTime: cfg.EndTime,
			run: func(k int) (*ggpdes.Results, error) { return run(env.modelSeed(k)) }},
		{name: callDist, endTime: cfg.EndTime, primary: true,
			run: func(k int) (*ggpdes.Results, error) {
				c := cfg
				c.Seed = env.modelSeed(k)
				return ggpdes.RunDistributed(context.Background(), c, ggpdes.DistOptions{Workers: w.workers, Dial: w.dial})
			},
			post: w.scrub},
	}
	w.check = func(_ int, res map[string]*ggpdes.Results) error {
		if !reflect.DeepEqual(res[callInProc], res[callDist]) {
			return errors.New("distributed Results (dist.* scrubbed) differ from the in-process run")
		}
		return nil
	}
	return nil
}

// serve keeps worker i answering coordinators until its listener is
// closed. ListenAndServeWorker returns after each clean shutdown —
// the end of every RunDistributed — so it is called again.
func (w *pholdDist) serve(i int, ln net.Listener) {
	defer w.served.Done()
	wrapped := &tracedListener{Listener: ln, w: w, worker: i}
	for {
		if err := ggpdes.ListenAndServeWorker(wrapped); err != nil {
			return
		}
	}
}

func (w *pholdDist) dial(shard int) (io.ReadWriteCloser, error) {
	conn, err := net.Dial("tcp", w.listeners[shard].Addr().String())
	if err != nil {
		return nil, err
	}
	tr := w.tr.Load()
	if tr == nil {
		return conn, nil
	}
	return &coordConn{Conn: conn, w: w, tr: tr, worker: shard}, nil
}

// scrub moves the dist.* wire metrics, which only the distributed run
// has, out of the Results (as dist_test.go does); everything left must
// equal the in-process run.
func (w *pholdDist) scrub(k int, res *ggpdes.Results) {
	wire := map[string]uint64{}
	for name, v := range res.Counters {
		if strings.HasPrefix(name, "dist.") {
			wire[name] = v
			delete(res.Counters, name)
		}
	}
	for name := range res.Gauges {
		if strings.HasPrefix(name, "dist.") {
			delete(res.Gauges, name)
		}
	}
	for name := range res.Metrics.Counters {
		if strings.HasPrefix(name, "dist.") {
			delete(res.Metrics.Counters, name)
		}
	}
	for name := range res.Metrics.Gauges {
		if strings.HasPrefix(name, "dist.") {
			delete(res.Metrics.Gauges, name)
		}
	}
	w.wire[k] = wire
	if w.tr.Load() != nil {
		w.reported += wire[dist.MetricMsgsSent]
	}
}

func (w *pholdDist) measure(b budget, tr *span.Tracer) *phase {
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	w.reported = 0
	p := w.simLoop.measure(b, tr)
	// The instrument checks itself: every frame the program counted
	// must have passed through a wrapped connection.
	if seen := uint64(tr.Counts()["dist.frames"]); tr != nil && p.failed == 0 && seen != w.reported {
		p.fail("wrapped connections saw %d frames, the runs' Results report %d", seen, w.reported)
	}
	return p
}

func (w *pholdDist) endToEnd(p *phase) map[string]valued {
	out := w.simLoop.endToEnd(p)
	if base := p.med(callInProc); base > 0 {
		out["dist_slowdown_ratio"] = scalar(p.med(callDist) / base)
	}
	return out
}

func (w *pholdDist) layers(p *phase, tr *span.Tracer) map[string]float64 {
	out := map[string]float64{}
	for k, wire := range w.wire {
		if wire == nil {
			continue
		}
		out["dist.frames"] = float64(wire[dist.MetricMsgsSent])
		out["dist.batches"] = float64(wire[dist.MetricBatches])
		out["dist.bytes_sent"] = float64(wire[dist.MetricBytesSent])
		out["dist.ops_coalesced"] = float64(wire[dist.MetricOpsCoalesced])
		out["dist.reads_cached"] = float64(wire[dist.MetricReadsCached])
		if res := w.last[callDist][k]; res != nil && res.CommittedEvents > 0 {
			out["dist.bytes_per_committed_event"] = float64(wire[dist.MetricBytesSent]) / float64(res.CommittedEvents)
		}
		break
	}
	spans := tr.Spans()
	self := span.SelfTimes(spans)
	var rtt, busy []float64
	var callNS, callSelfNS int64
	for i, s := range spans {
		switch s.Name {
		case "dist.rtt":
			rtt = append(rtt, float64(s.Dur())/1e3)
		case "dist.worker_busy":
			busy = append(busy, float64(s.Dur())/1e3)
		case callDist:
			callNS += s.Dur()
			callSelfNS += self[i]
		}
	}
	if len(rtt) > 0 {
		s := sorted(rtt)
		out["dist.rtt_us_p50"] = quantileSorted(s, 0.5)
		out["dist.rtt_us_p95"] = quantileSorted(s, 0.95)
	}
	if len(busy) > 0 {
		out["dist.worker_busy_us_p50"] = median(busy)
	}
	if callNS > 0 {
		out["dist.coord_self_share"] = float64(callSelfNS) / float64(callNS)
		out["dist.wire_wait_share"] = 1 - float64(callSelfNS)/float64(callNS)
	}
	w.replayCodec(out)
	return out
}

// replayCodec re-parses the captured frames with dist.ReadMsgBuf and
// runs the binary batch frames back through the codec, timing each
// direction on its own.
func (w *pholdDist) replayCodec(out map[string]float64) {
	type decoded struct {
		reqBody, respBody []byte
		msg               *dist.BatchMsg
		reply             *dist.BatchReply
	}
	w.capMu.Lock()
	pairs := w.captured
	w.capMu.Unlock()
	var frames []decoded
	for _, p := range pairs {
		rk, reqBody, _, _, err := dist.ReadMsgBuf(bytes.NewReader(p.req), nil)
		if err != nil || rk != dist.KindOpsB {
			continue
		}
		pk, respBody, _, _, err := dist.ReadMsgBuf(bytes.NewReader(p.resp), nil)
		if err != nil || pk != dist.KindResultB {
			continue
		}
		msg, err := dist.DecodeBatch(reqBody)
		if err != nil {
			continue
		}
		reply, err := dist.DecodeBatchReply(respBody, msg.Ops)
		if err != nil {
			continue
		}
		frames = append(frames, decoded{reqBody, respBody, msg, reply})
	}
	if len(frames) == 0 {
		return
	}
	const rounds = 20
	var scratch []byte
	perFrame := func(f func(d *decoded)) float64 {
		t := time.Now()
		for r := 0; r < rounds; r++ {
			for i := range frames {
				f(&frames[i])
			}
		}
		return float64(time.Since(t).Nanoseconds()) / float64(rounds*len(frames))
	}
	out["dist.encode_batch_ns"] = perFrame(func(d *decoded) { scratch, _ = dist.AppendBatch(scratch[:0], d.msg) })
	out["dist.decode_batch_ns"] = perFrame(func(d *decoded) { _, _ = dist.DecodeBatch(d.reqBody) })
	out["dist.encode_reply_ns"] = perFrame(func(d *decoded) { scratch, _ = dist.AppendBatchReply(scratch[:0], d.reply, d.msg.Ops) })
	out["dist.decode_reply_ns"] = perFrame(func(d *decoded) { _, _ = dist.DecodeBatchReply(d.respBody, d.msg.Ops) })
}

func (w *pholdDist) close() {
	for _, ln := range w.listeners {
		ln.Close()
	}
	w.served.Wait()
	w.listeners = nil
}

// frameReader follows internal/dist's framing (4-byte big-endian
// length, 1 kind byte, body) across Read calls and reports when a
// whole frame has arrived.
type frameReader struct {
	hdr     [5]byte
	hdrN    int
	bodyRem int
	// keep, when set, accumulates the frame's bytes for capture.
	keep  bool
	frame []byte
}

// feed consumes freshly read bytes and reports how many frames they
// completed.
func (f *frameReader) feed(b []byte) (completed int) {
	for len(b) > 0 {
		if f.hdrN < len(f.hdr) {
			n := copy(f.hdr[f.hdrN:], b)
			f.hdrN += n
			if f.keep {
				f.frame = append(f.frame, b[:n]...)
			}
			b = b[n:]
			if f.hdrN < len(f.hdr) {
				return completed
			}
			f.bodyRem = int(binary.BigEndian.Uint32(f.hdr[:4])) - 1
		} else {
			n := min(f.bodyRem, len(b))
			f.bodyRem -= n
			if f.keep {
				f.frame = append(f.frame, b[:n]...)
			}
			b = b[n:]
		}
		if f.hdrN == len(f.hdr) && f.bodyRem <= 0 {
			completed++
			f.hdrN = 0
		}
	}
	return completed
}

// coordConn is the coordinator's end of a worker connection.
type coordConn struct {
	net.Conn
	w      *pholdDist
	tr     *span.Tracer
	worker int
	in     frameReader
	cur    *openRTT
	req    []byte
}

func (c *coordConn) Write(p []byte) (int, error) {
	// internal/dist ships one frame per Write and waits for the reply,
	// so a Write opens a round trip.
	if c.cur == nil {
		l := &c.w.simLoop
		c.cur = &openRTT{id: c.tr.Start("dist.rtt", l.curSpan, l.curOp, 0), op: l.curOp}
		c.tr.Count("dist.frames", 1)
		c.w.open[c.worker].Store(c.cur)
		c.in.keep = c.worker == 0 && c.capturing()
		if c.in.keep {
			c.req = append(c.req[:0], p...)
			c.in.frame = c.in.frame[:0]
		}
	}
	return c.Conn.Write(p)
}

func (c *coordConn) capturing() bool {
	c.w.capMu.Lock()
	defer c.w.capMu.Unlock()
	return len(c.w.captured) < maxCaptured
}

func (c *coordConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.cur != nil && c.in.feed(p[:n]) > 0 {
		c.tr.End(c.cur.id)
		c.cur = nil
		if c.in.keep {
			c.w.capMu.Lock()
			c.w.captured = append(c.w.captured, framePair{req: bytes.Clone(c.req), resp: bytes.Clone(c.in.frame)})
			c.w.capMu.Unlock()
		}
	}
	return n, err
}

// tracedListener wraps accepted connections while a traced phase is
// being measured.
type tracedListener struct {
	net.Listener
	w      *pholdDist
	worker int
}

func (l *tracedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tr := l.w.tr.Load()
	if tr == nil {
		return conn, nil
	}
	return &workerConn{Conn: conn, w: l.w, tr: tr, worker: l.worker}, nil
}

// workerConn is a worker's end of the connection. Its busy span ends
// just before the reply is written, so it always closes inside the
// coordinator's round trip.
type workerConn struct {
	net.Conn
	w      *pholdDist
	tr     *span.Tracer
	worker int
	in     frameReader
	busy   span.ID
}

func (c *workerConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.in.feed(p[:n]) > 0 {
		if rtt := c.w.open[c.worker].Load(); rtt != nil {
			c.busy = c.tr.Start("dist.worker_busy", rtt.id, rtt.op, int32(1+c.worker))
		}
	}
	return n, err
}

func (c *workerConn) Write(p []byte) (int, error) {
	if c.busy != 0 {
		c.tr.End(c.busy)
		c.busy = 0
	}
	return c.Conn.Write(p)
}
