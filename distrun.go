package ggpdes

import (
	"context"
	"fmt"
	"io"
	"math"

	"ggpdes/internal/core"
	"ggpdes/internal/dist"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/tw"
)

// Distributed Time Warp: the coordinator side. RunDistributed executes
// one simulation with its LP shards hosted in worker processes,
// producing Results byte-identical to RunContext on the same Config.
//
// The coordinator runs the unmodified machine, scheduler and GVT
// algorithm over a hollow engine; every peer operation forwards
// synchronously to the worker hosting the real shard (internal/tw's
// control/data split), so the global interleaving of engine operations
// — and with it the trajectory — matches the in-process run by
// construction. The GVT algorithm's two cuts over the forwarded
// LocalMin/TakeMinSent reductions form a Mattern-style distributed GVT:
// cut one collects each shard's local minimum, cut two accounts for
// in-flight sends via the minimum-sent-timestamp reduction, and the
// coordinator publishes the combined minimum.

// WorkerDialer connects the coordinator to worker process shard,
// returning a stream that speaks internal/dist's framed protocol
// (typically a TCP connection to a goroutine or process serving
// ListenAndServeWorker).
type WorkerDialer func(shard int) (io.ReadWriteCloser, error)

// DistOptions configures a distributed run.
type DistOptions struct {
	// Workers is the number of worker processes; Config.Threads must
	// divide evenly across them (the block LP-to-thread mapping shards
	// peers in contiguous ranges).
	Workers int
	// Dial connects to a worker shard.
	Dial WorkerDialer
}

// RunDistributed executes one simulation sharded across worker
// processes. The Config is the in-process one; checkpointing, chaos
// injection, tracing, series recording and external telemetry
// registries are in-process-only features and are rejected. The run is
// one attempt: a lost worker connection fails it with an error wrapping
// dist.ErrWorkerLost.
func RunDistributed(ctx context.Context, cfg Config, opts DistOptions) (*Results, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dfail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidConfig, fmt.Sprintf(format, args...))
	}
	if opts.Workers < 1 {
		return nil, dfail("distributed run needs at least 1 worker, got %d", opts.Workers)
	}
	if opts.Dial == nil {
		return nil, dfail("distributed run needs a worker dialer")
	}
	if cfg.Threads%opts.Workers != 0 {
		return nil, dfail("%d threads do not shard evenly across %d workers", cfg.Threads, opts.Workers)
	}
	if cfg.Checkpoint != nil {
		return nil, dfail("checkpointing is in-process only")
	}
	if cfg.Chaos != nil {
		return nil, dfail("chaos injection is in-process only")
	}
	if cfg.Trace != nil {
		return nil, dfail("tracing is in-process only")
	}
	if cfg.Series != nil {
		return nil, dfail("series recording is in-process only")
	}
	if cfg.Telemetry != nil {
		return nil, dfail("external telemetry registries are in-process only (worker registries must start empty)")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	d := &distRun{
		rs:         &runState{cfg: cfg},
		dial:       opts.Dial,
		workers:    opts.Workers,
		threadsPer: cfg.Threads / opts.Workers,
		conns:      make([]io.ReadWriteCloser, opts.Workers),
	}
	d.rs.dist = d
	defer d.shutdownWorkers()
	return d.run(ctx)
}

// distRun drives one distributed run. The segment loop is runState's;
// distRun supplies the steps runState calls on it (see runState.dist).
type distRun struct {
	rs   *runState
	dial WorkerDialer

	workers    int
	threadsPer int
	conns      []io.ReadWriteCloser
	clients    []*dist.Client

	bridge     *remoteBridge
	cancel     context.CancelCauseFunc // stops the machine on a transport failure
	distRounds *telemetry.Counter
}

// run is the segment loop under a context the bridge can cancel: a
// failed forwarded operation stops the machine and feeds the engine
// inert results until the loop observes the failure.
func (d *distRun) run(ctx context.Context) (*Results, error) {
	if err := d.rs.prepare(); err != nil {
		return nil, err
	}
	ictx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	d.cancel = cancel
	return d.rs.segmentLoop(ictx)
}

// engineBuilt runs once the run's engine exists and before its runner
// does: hollow the engine over a fresh bridge and initialize every
// worker shard.
func (d *distRun) engineBuilt(eng *tw.Engine, reg *telemetry.Registry) error {
	b := &remoteBridge{
		d:           d,
		eng:         eng,
		prefetch:    core.System(d.rs.cfg.System) != core.Baseline,
		drainBase:   eng.Config().Costs.DrainBaseCycles,
		readsCached: reg.Counter(dist.MetricReadsCached),
		pollsElided: reg.Counter(dist.MetricPollsElided),
		pending:     make([][]tw.WireEvent, d.workers),
		cache:       make([]readCache, d.workers),
		quiet:       make([]quietSet, d.workers),
	}
	for i := range b.cache {
		b.cache[i] = newReadCache(d.threadsPer)
	}
	eng.HollowAll(b)
	d.bridge = b
	if err := d.initWorkers(reg); err != nil {
		return err
	}
	d.distRounds = reg.Counter(dist.MetricGVTRounds)
	return nil
}

// onCut is the segment's core.Config.GVTOnCut. Cut two closing is one
// completed Mattern round: every shard's local minimum and in-flight
// send minimum have been reduced through the wire.
func (d *distRun) onCut(cut int, round uint64) {
	if cut == 2 {
		d.distRounds.Inc()
	}
}

// failed reports a transport failure, which fails the run whatever the
// machine concluded.
func (d *distRun) failed() error { return d.bridge.err }

// initWorkers dials every worker and initializes its shard of the run.
func (d *distRun) initWorkers(reg *telemetry.Registry) error {
	rs := d.rs
	d.clients = make([]*dist.Client, d.workers)
	for w := 0; w < d.workers; w++ {
		c, err := d.dial(w)
		if err != nil {
			return fmt.Errorf("%w: dialing worker %d: %v", dist.ErrWorkerLost, w, err)
		}
		d.conns[w] = c
		d.clients[w] = dist.NewClient(c, reg)
		init := &dist.InitMsg{
			Config:   rs.cfgJSON,
			CacheKey: rs.key,
			Shard:    w,
			Workers:  d.workers,
			Lo:       w * d.threadsPer,
			Hi:       (w + 1) * d.threadsPer,
		}
		if err := d.clients[w].Call(dist.KindInit, init, nil); err != nil {
			if !dist.IsRemote(err) {
				d.markLost(w)
			}
			return err
		}
	}
	reg.Gauge(dist.MetricWorkersConnected).Set(float64(d.workers))
	return nil
}

// markLost closes and forgets a lost worker connection, so shutdown
// does not talk to it.
func (d *distRun) markLost(w int) {
	if c := d.conns[w]; c != nil {
		c.Close()
		d.conns[w] = nil
	}
}

// shutdownWorkers asks every still-connected worker to exit cleanly
// and closes the connections. Best-effort: a worker that does not
// acknowledge is simply cut off.
func (d *distRun) shutdownWorkers() {
	for w, c := range d.conns {
		if c == nil {
			continue
		}
		if d.clients != nil && d.clients[w] != nil {
			_ = d.clients[w].Call(dist.KindShutdown, nil, nil)
		}
		c.Close()
		d.conns[w] = nil
	}
}

// finishing runs before Results are assembled: the end-of-run sweep —
// worker invariants, pool flushes, then every worker registry imported
// into the coordinator's in worker order and the master peak gauge
// re-asserted (gauge import is last-wins; only the coordinator's peak is
// globally correct) — after which the workers are shut down and Results
// come from the coordinator's state alone.
func (d *distRun) finishing(seg *segment) error {
	b := d.bridge
	for w := 0; w < d.workers; w++ {
		b.roundTrip(w, dist.OpCheckInvariants)
	}
	if dist.IsRemote(b.err) {
		return fmt.Errorf("ggpdes: engine invariant violated: %w", b.err)
	}
	for w := 0; w < d.workers; w++ {
		b.roundTrip(w, dist.OpFlushPoolStats)
	}
	for w := 0; w < d.workers; w++ {
		if m := b.roundTrip(w, dist.OpMetrics).Metrics; m != nil {
			seg.reg.Import(*m)
		}
	}
	seg.reg.Gauge(tw.MetricUncommittedPeak).Set(float64(seg.eng.PeakUncommittedEvents()))
	if b.err != nil {
		return b.err
	}
	d.shutdownWorkers()
	return nil
}

// remoteBridge is the coordinator's tw.RemoteTransport. Consecutive
// operations against the same worker coalesce into one binary frame
// (the fused methods), pure reads repeat from a coordinator-side cache,
// polls of peers the worker reported quiet are answered without a
// frame, and cross-shard relays queue until the next frame to their
// destination — all without changing the order in which the worker
// observes mutations, so the trajectory stays byte-identical to one
// round trip per operation. Each frame threads the engine-global
// envelope, mirrors worker peer statistics, queues cross-shard traffic
// and charges the caller's simulated CPU; a transport failure cancels
// the machine and feeds inert results until the run loop observes the
// error.
type remoteBridge struct {
	d   *distRun
	eng *tw.Engine
	err error

	prefetch  bool   // piggyback HasExecutableWork on DrainProcess
	drainBase uint64 // what a poll that finds nothing charges

	// pending holds queued cross-shard relays per destination worker;
	// they ride at the head of the next frame to that worker, so the
	// destination's input-queue order still matches production order.
	pending [][]tw.WireEvent
	// cache memoizes pure per-peer reads per worker; any mutation of a
	// worker (op or queued inject) invalidates that worker wholesale.
	cache       []readCache
	readsCached *telemetry.Counter
	// quiet is each worker's last reported quiet set; it lives exactly
	// as long as the read cache's entries do.
	quiet       []quietSet
	pollsElided *telemetry.Counter

	reqs []dist.OpRequest // scratch: op list under construction
	ops  []dist.OpRequest // scratch: frame ops with inject flush prepended
	msg  dist.BatchMsg    // scratch: the frame being sent
	env  tw.Envelope      // scratch: its envelope
}

// quietSet is one worker's quiet set (tw.Peer.Quiet per shard peer) as
// of its last enveloped reply. The worker computes it over its whole
// shard after the batch's last op, so whatever an op did to same-shard
// peers is already in it; the coordinator only has to notice what the
// worker cannot see coming: a relay queued toward it or a control op
// (invalidate drops the set) and a GVT advance, which moves the
// optimism horizon (the set is stamped with the GVT it was computed at
// and ignored at any other).
type quietSet struct {
	bits []byte // empty: no current set
	gvt  tw.VT
}

// readKind indexes the cached pure per-peer reads.
type readKind uint8

const (
	readHasWork readKind = iota
	readHasExec
	readInputSize
	readRemoteMin
	readPeekMinSent
	numReadKinds
)

// readOps is each cached read's wire op; the one table both directions
// (read → op to send, op → entry to fill) go through.
var readOps = [numReadKinds]dist.OpCode{
	readHasWork:     dist.OpHasWork,
	readHasExec:     dist.OpHasExecWork,
	readInputSize:   dist.OpInputSize,
	readRemoteMin:   dist.OpRemoteMin,
	readPeekMinSent: dist.OpPeekMinSent,
}

// readCache memoizes one worker's pure per-peer reads between
// mutations. Every entry is filled from an actual wire read — the
// worker already performed the read's (idempotent) heap cleanup at the
// correct logical point, so replaying the answer locally is a provable
// worker-side no-op. HasExecutableWork additionally depends on the GVT
// horizon, so its entries are GVT-stamped and only served at the same
// GVT they were read at.
type readCache struct {
	valid      []uint8 // per peer: bit k set means vals[k] is current
	vals       [numReadKinds][]dist.OpResult
	hasExecGVT []tw.VT
}

func newReadCache(n int) readCache {
	c := readCache{valid: make([]uint8, n), hasExecGVT: make([]tw.VT, n)}
	for k := range c.vals {
		c.vals[k] = make([]dist.OpResult, n)
	}
	return c
}

// invalidate drops every cached read, and the quiet set, for worker w.
func (b *remoteBridge) invalidate(w int) {
	clear(b.cache[w].valid)
	b.quiet[w].bits = b.quiet[w].bits[:0]
}

// isQuiet reports whether peer is in its worker's quiet set and the set
// is current.
func (b *remoteBridge) isQuiet(peer int) bool {
	q, idx := &b.quiet[peer/b.d.threadsPer], peer%b.d.threadsPer
	return len(q.bits) > 0 && q.gvt == b.eng.GVT() && tw.QuietSetHas(q.bits, idx)
}

// fill caches op's result for worker w when op is one of the cached
// reads; mutating ops cache nothing.
func (b *remoteBridge) fill(w int, op *dist.OpRequest, r *dist.OpResult) {
	for k, read := range readOps {
		if read != op.Op {
			continue
		}
		c, idx := &b.cache[w], op.Peer%b.d.threadsPer
		c.vals[k][idx] = *r
		c.valid[idx] |= 1 << k
		if readKind(k) == readHasExec {
			c.hasExecGVT[idx] = b.eng.GVT()
		}
		return
	}
}

// cached returns peer's memoized read of kind k, if still good.
func (b *remoteBridge) cached(k readKind, peer int) (dist.OpResult, bool) {
	c, idx := &b.cache[peer/b.d.threadsPer], peer%b.d.threadsPer
	if c.valid[idx]&(1<<k) == 0 || (k == readHasExec && c.hasExecGVT[idx] != b.eng.GVT()) {
		return dist.OpResult{}, false
	}
	return c.vals[k][idx], true
}

// read answers a pure per-peer read from the cache, or over the wire
// (which refills the cache) on a miss.
func (b *remoteBridge) read(k readKind, peer int) dist.OpResult {
	if r, ok := b.cached(k, peer); ok {
		b.readsCached.Inc()
		return r
	}
	return b.frame(peer, nil, readOps[k])[0]
}

func (b *remoteBridge) fail(w int, err error) {
	if b.err == nil {
		b.err = err
		b.d.cancel(err)
	}
	if !dist.IsRemote(err) {
		b.d.markLost(w)
	}
}

// mirror installs a reply's engine-global envelope and shard peer
// statistics on the coordinator's engine; a reply missing either fails
// the transport.
func (b *remoteBridge) mirror(w int, env *tw.Envelope, stats []tw.PeerStats) bool {
	if env == nil || len(stats) != b.d.threadsPer {
		b.fail(w, fmt.Errorf("%w: malformed response from worker %d", dist.ErrWorkerLost, w))
		return false
	}
	b.eng.ApplyEnvelope(*env)
	lo := w * b.d.threadsPer
	for i, s := range stats {
		p := b.eng.Peer(lo + i)
		// GVT accounting is coordinator-side (the gvt layer charges
		// hollow peers directly); worker copies are stale zeros.
		gc, gr := p.Stats.GVTCycles, p.Stats.GVTRounds
		p.Stats = s
		p.Stats.GVTCycles, p.Stats.GVTRounds = gc, gr
	}
	return true
}

// sendOps ships one coalesced frame to worker w: any queued inject
// relays ride at the head, then ops, with the engine envelope attached
// iff a non-inject op is present (an inject-only flush must not echo a
// stale envelope back). Results come back positionally: charged cycles
// mirror onto cpu in op order, pure reads refill the cache (after any
// mutation in the frame invalidates it), an enveloped reply's quiet set
// replaces the worker's previous one, and the worker's outbox is
// queued toward its destinations. Returns one result per op, valid
// until the next frame to w; inert results — zero counts, false flags,
// +Inf virtual times, so the GVT layer winds the run down monotonically
// while cancellation propagates — after a failure.
func (b *remoteBridge) sendOps(w int, ops []dist.OpRequest, cpu tw.CPU) []dist.OpResult {
	inert := func() []dist.OpResult {
		out := make([]dist.OpResult, len(ops))
		for i := range out {
			out[i].VT = dist.WireVT(math.Inf(1))
		}
		return out
	}
	if b.err != nil {
		return inert()
	}
	m := &b.msg
	m.Ops, m.Env = ops, nil
	head := 0
	if evs := b.pending[w]; len(evs) > 0 {
		head = 1
		b.ops = append(b.ops[:0], dist.OpRequest{Op: dist.OpInject, Events: evs})
		b.ops = append(b.ops, ops...)
		m.Ops = b.ops
	}
	if len(ops) > 0 {
		b.env = b.eng.EnvelopeOut()
		m.Env = &b.env
	}
	reply, err := b.d.clients[w].CallBatch(m)
	if head == 1 {
		b.pending[w] = b.pending[w][:0]
	}
	if err != nil {
		b.fail(w, err)
		return inert()
	}
	if len(reply.Results) != len(m.Ops) {
		b.fail(w, fmt.Errorf("%w: %d results for %d ops from worker %d",
			dist.ErrWorkerLost, len(reply.Results), len(m.Ops), w))
		return inert()
	}
	if m.Env != nil && !b.mirror(w, reply.Env, reply.Stats) {
		return inert()
	}
	mutated := head == 1
	for i := range ops {
		if !dist.PureRead(ops[i].Op) {
			mutated = true
		}
	}
	if mutated {
		b.invalidate(w)
	}
	if m.Env != nil {
		q := &b.quiet[w]
		q.bits, q.gvt = append(q.bits[:0], reply.Quiet...), reply.Env.GVT
	}
	results := reply.Results[head:]
	for i := range results {
		r := &results[i]
		if cpu != nil && r.Worked {
			cpu.Work(r.Cycles)
		}
		b.fill(w, &ops[i], r)
	}
	b.relay(reply.Outbox)
	return results
}

// roundTrip performs one control op (invariants, pool flush, metrics)
// against worker w as a JSON KindOp frame, threading
// the engine envelope both ways. Queued injects flush first so the
// worker sees them in order, and mutating ops invalidate the read
// cache. After a failure the response is empty and b.err is set.
func (b *remoteBridge) roundTrip(w int, op dist.OpCode) *dist.OpResponse {
	if len(b.pending[w]) > 0 {
		b.sendOps(w, nil, nil)
	}
	if b.err != nil {
		return &dist.OpResponse{}
	}
	if !dist.PureRead(op) {
		b.invalidate(w)
	}
	env := b.eng.EnvelopeOut()
	var resp dist.OpResponse
	if err := b.d.clients[w].Call(dist.KindOp, &dist.OpRequest{Op: op, Env: &env}, &resp); err != nil {
		b.fail(w, err)
		return &dist.OpResponse{}
	}
	if !b.mirror(w, resp.Env, resp.Stats) {
		return &dist.OpResponse{}
	}
	b.relay(resp.Outbox)
	return &resp
}

// relay queues cross-shard wire events toward their destination workers
// in production order; each run is delivered at the head of the next
// frame to its worker. Since only per-destination order is observable
// (each worker sees its own input stream), deferring delivery to the
// moment before the worker next acts is indistinguishable from
// immediate delivery.
func (b *remoteBridge) relay(events []tw.WireEvent) {
	lps := b.eng.LPs()
	for i := 0; i < len(events); {
		w := lps[events[i].Dst].Owner / b.d.threadsPer
		j := i + 1
		for j < len(events) && lps[events[j].Dst].Owner/b.d.threadsPer == w {
			j++
		}
		b.pending[w] = append(b.pending[w], events[i:j]...)
		b.invalidate(w)
		b.d.clients[w].CountRelayed(events[i:j])
		i = j
	}
}

// InputSize implements tw.RemoteTransport.
func (b *remoteBridge) InputSize(peer int) int { return b.read(readInputSize, peer).N }

// HasWork implements tw.RemoteTransport.
func (b *remoteBridge) HasWork(peer int) bool { return b.read(readHasWork, peer).Flag }

// HasExecutableWork implements tw.RemoteTransport. Cached entries are
// only good at the GVT horizon they were read at; a quiet peer has
// none, which is as good as a cached answer.
func (b *remoteBridge) HasExecutableWork(peer int) bool {
	if b.isQuiet(peer) {
		b.readsCached.Inc()
		return false
	}
	return b.read(readHasExec, peer).Flag
}

// RemoteMin implements tw.RemoteTransport.
func (b *remoteBridge) RemoteMin(peer int) tw.VT { return tw.VT(b.read(readRemoteMin, peer).VT) }

// PeekMinSent implements tw.RemoteTransport.
func (b *remoteBridge) PeekMinSent(peer int) tw.VT { return tw.VT(b.read(readPeekMinSent, peer).VT) }

// Drain implements tw.RemoteTransport.
func (b *remoteBridge) Drain(peer int, cpu tw.CPU) int {
	return b.frame(peer, cpu, dist.OpDrain)[0].N
}

// ProcessBatch implements tw.RemoteTransport.
func (b *remoteBridge) ProcessBatch(peer int, cpu tw.CPU) int {
	return b.frame(peer, cpu, dist.OpProcessBatch)[0].N
}

// LocalMin implements tw.RemoteTransport. Never cached: it charges the
// caller's simulated CPU, so every call must reach the worker.
func (b *remoteBridge) LocalMin(peer int, cpu tw.CPU) tw.VT {
	return tw.VT(b.frame(peer, cpu, dist.OpLocalMin)[0].VT)
}

// TakeMinSent implements tw.RemoteTransport.
func (b *remoteBridge) TakeMinSent(peer int) tw.VT {
	return tw.VT(b.frame(peer, nil, dist.OpTakeMinSent)[0].VT)
}

// FossilCollect implements tw.RemoteTransport.
func (b *remoteBridge) FossilCollect(peer int, cpu tw.CPU, gvtAt tw.VT) int {
	b.reqs = append(b.reqs[:0], dist.OpRequest{Op: dist.OpFossilCollect, Peer: peer, GVT: dist.WireVT(gvtAt)})
	return b.sendOps(peer/b.d.threadsPer, b.reqs, cpu)[0].N
}

// frame ships ops against one peer as one coalesced frame.
func (b *remoteBridge) frame(peer int, cpu tw.CPU, ops ...dist.OpCode) []dist.OpResult {
	b.reqs = b.reqs[:0]
	for _, op := range ops {
		b.reqs = append(b.reqs, dist.OpRequest{Op: op, Peer: peer})
	}
	return b.sendOps(peer/b.d.threadsPer, b.reqs, cpu)
}

// DrainProcess implements tw.RemoteTransport: the scheduler hot loop's
// Drain+ProcessBatch pair as one frame. For schedulers that poll
// HasExecutableWork immediately after (gg/dd ReadMessageCount), a
// prefetch of it rides along and lands in the cache. Polling a quiet
// peer needs no frame: its Drain finds nothing and charges the base
// cost, its ProcessBatch finds nothing and charges nothing, and neither
// changes anything on the worker.
func (b *remoteBridge) DrainProcess(peer int, cpu tw.CPU) (int, int) {
	if b.isQuiet(peer) {
		b.pollsElided.Inc()
		cpu.Work(b.drainBase)
		return 0, 0
	}
	var rs []dist.OpResult
	if b.prefetch {
		rs = b.frame(peer, cpu, dist.OpDrain, dist.OpProcessBatch, dist.OpHasExecWork)
	} else {
		rs = b.frame(peer, cpu, dist.OpDrain, dist.OpProcessBatch)
	}
	return rs[0].N, rs[1].N
}

// DrainLocalMin implements tw.RemoteTransport: the barrier GVT's
// Drain+LocalMin pair as one frame.
func (b *remoteBridge) DrainLocalMin(peer int, cpu tw.CPU) (int, tw.VT) {
	rs := b.frame(peer, cpu, dist.OpDrain, dist.OpLocalMin)
	return rs[0].N, tw.VT(rs[1].VT)
}

// CutMins implements tw.RemoteTransport: the wait-free GVT send cut's
// TakeMinSent+LocalMin pair as one frame.
func (b *remoteBridge) CutMins(peer int, cpu tw.CPU) (tw.VT, tw.VT) {
	rs := b.frame(peer, cpu, dist.OpTakeMinSent, dist.OpLocalMin)
	return tw.VT(rs[0].VT), tw.VT(rs[1].VT)
}

// ScanMins implements tw.RemoteTransport: the GVT reduce loops'
// RemoteMin+PeekMinSent pair. Between mutations both minima come
// straight from the cache — the common case when many cutless threads
// scan the same peers in one reduction.
func (b *remoteBridge) ScanMins(peer int) (tw.VT, tw.VT) {
	remote, okR := b.cached(readRemoteMin, peer)
	sent, okS := b.cached(readPeekMinSent, peer)
	if okR && okS {
		b.readsCached.Add(2)
		return tw.VT(remote.VT), tw.VT(sent.VT)
	}
	rs := b.frame(peer, nil, dist.OpRemoteMin, dist.OpPeekMinSent)
	return tw.VT(rs[0].VT), tw.VT(rs[1].VT)
}
