package ggpdes

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"path/filepath"
	"time"

	"ggpdes/internal/chaos"
	"ggpdes/internal/checkpoint"
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
// (typically a TCP connection to a ggworker process).
type WorkerDialer func(shard int) (io.ReadWriteCloser, error)

// DistOptions configures a distributed run.
type DistOptions struct {
	// Workers is the number of worker processes; Config.Threads must
	// divide evenly across them (the block LP-to-thread mapping shards
	// peers in contiguous ranges).
	Workers int
	// Dial connects to a worker shard, and is re-invoked to replace a
	// lost connection.
	Dial WorkerDialer
	// MaxAttempts bounds run attempts when a worker connection is lost:
	// each retry re-dials lost workers and resumes the current segment
	// from its start state (the victim from its per-shard checkpoint
	// when Config.Checkpoint has a directory). 0 or 1 means no retries.
	MaxAttempts int
	// RetryBackoff is the pause before a retry attempt.
	RetryBackoff time.Duration
	// CrashRate is the per-attempt probability of one injected worker
	// crash (seeded fault injection for recovery testing); the crash
	// point and victim derive deterministically from the config cache
	// key and attempt number, and the final attempt never crashes.
	CrashRate float64
	// ChaosSeed seeds crash planning (0 = Config.Seed).
	ChaosSeed uint64
}

// RunDistributed executes one simulation sharded across worker
// processes. The Config is the in-process one; chaos injection,
// tracing and external telemetry registries are in-process-only
// features and are rejected.
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
	if cfg.Chaos != nil {
		return nil, dfail("chaos injection is in-process only (use DistOptions.CrashRate for worker faults)")
	}
	if cfg.Trace != nil {
		return nil, dfail("tracing is in-process only")
	}
	if cfg.Telemetry != nil {
		return nil, dfail("external telemetry registries are in-process only (worker registries must start empty)")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	d := &distRun{
		rs:          &runState{cfg: cfg},
		opts:        opts,
		workers:     opts.Workers,
		threadsPer:  cfg.Threads / opts.Workers,
		conns:       make([]io.ReadWriteCloser, opts.Workers),
		attempt:     1,
		maxAttempts: max(opts.MaxAttempts, 1),
	}
	d.rs.dist = d
	defer d.shutdownWorkers()
	return d.run(ctx)
}

// distRun drives one distributed run across its segments and retry
// attempts. The segment loop is runState's; distRun supplies the steps
// runState calls on it (see runState.dist) and the retry loop around
// each segment.
type distRun struct {
	rs   *runState
	opts DistOptions

	workers    int
	threadsPer int
	conns      []io.ReadWriteCloser
	clients    []*dist.Client

	attempt     int
	maxAttempts int
	crashes     *chaos.WorkerCrashes

	// Current segment attempt.
	reg        *telemetry.Registry // for the connected gauge
	bridge     *remoteBridge
	cancel     context.CancelCauseFunc // stops the machine on a transport failure
	distRounds *telemetry.Counter
	crashArmed bool // an injected crash is planned and has not fired
	victim     int
	crashAt    float64
	// segPoints buffers the attempt's series points; they commit into
	// rs.series only when the segment completes, so a retried attempt
	// leaves no trace.
	segPoints []SeriesPoint
}

func (d *distRun) run(ctx context.Context) (*Results, error) {
	rs := d.rs
	if err := rs.prepare(); err != nil {
		return nil, err
	}
	if d.opts.CrashRate > 0 {
		seed := d.opts.ChaosSeed
		if seed == 0 {
			seed = rs.cfg.Seed
		}
		d.crashes = chaos.NewWorkerCrashes(seed, d.opts.CrashRate)
	}
	return rs.finishWrites(d.attempts(ctx))
}

// attempts is the segment loop with the worker-loss retry around each
// segment.
func (d *distRun) attempts(ctx context.Context) (*Results, error) {
	rs := d.rs
	for {
		// The continuation state a retry must restore: everything a
		// failed segment attempt may have mutated before its boundary
		// commit.
		engine, metrics := rs.engine, rs.metrics
		rounds, prevGVT, prevWall := rs.rounds, rs.prevGVT, rs.prevWall
		res, err := d.segment(ctx)
		if err == nil {
			if res != nil {
				return res, nil
			}
			continue
		}
		if !errors.Is(err, dist.ErrWorkerLost) || d.attempt >= d.maxAttempts {
			return nil, err
		}
		d.attempt++
		// The run's own registry has the failed attempt in it (reusing it
		// read gvt.rounds 7 for 5 and core.deactivations 10 for 8 in
		// TestDistributedWorkerCrashRecovery): the retry builds another
		// from the boundary's export.
		rs.engine, rs.metrics, rs.reg = engine, metrics, nil
		rs.rounds, rs.prevGVT, rs.prevWall = rounds, prevGVT, prevWall
		d.segPoints = d.segPoints[:0]
		if d.opts.RetryBackoff > 0 {
			t := time.NewTimer(d.opts.RetryBackoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctxError(ctx, context.Cause(ctx))
			}
		}
	}
}

// segment runs one segment attempt under a context the bridge can
// cancel: a failed forwarded operation stops the machine and feeds the
// engine inert results until the loop observes the failure.
func (d *distRun) segment(ctx context.Context) (*Results, error) {
	ictx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	d.cancel = cancel
	return d.rs.runSegment(ictx)
}

// engineBuilt runs once a segment's engine exists and before its runner
// does: hollow the engine over a fresh bridge and (re)initialize every
// worker shard from state (the segment's start state; nil for a fresh
// run).
func (d *distRun) engineBuilt(eng *tw.Engine, reg *telemetry.Registry, state *tw.EngineState) error {
	d.reg = reg
	d.planCrash()
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
	if err := d.initWorkers(reg, state); err != nil {
		return err
	}
	d.distRounds = reg.Counter(dist.MetricGVTRounds)
	return nil
}

// onGVT runs on every GVT publication, after sampling and progress:
// fire the attempt's planned crash once GVT reaches its crash point.
func (d *distRun) onGVT(v tw.VT) {
	if d.crashArmed && float64(v) >= d.crashAt {
		d.crashArmed = false
		if c := d.conns[d.victim]; c != nil {
			c.Close()
		}
	}
}

// onCut is the segment's core.Config.GVTOnCut. Cut two closing is one
// completed Mattern round: every shard's local minimum and in-flight
// send minimum have been reduced through the wire.
func (d *distRun) onCut(cut int, round uint64) {
	if cut == 2 {
		d.distRounds.Inc()
	}
}

// samplePoint completes and records a series point in place of
// eng.FillSeriesPoint and rs.series.Append: the per-thread half comes
// from one probe per worker, the totals from the coordinator's mirrored
// statistics.
func (d *distRun) samplePoint(eng *tw.Engine, pt SeriesPoint) {
	b := d.bridge
	tw.FillSeriesTotals(&pt, eng.TotalStats(), eng.UncommittedEvents())
	pt.ThreadLVTs = make([]float64, d.rs.cfg.Threads)
	var hits, misses uint64
	queued := 0
	for w := 0; w < d.workers; w++ {
		resp := b.roundTrip(w, dist.OpSeriesProbe)
		if b.err != nil {
			return
		}
		for i, pr := range resp.Probes {
			pt.ThreadLVTs[w*d.threadsPer+i] = pr.LVT
			queued += pr.Queued
			hits += pr.PoolHits
			misses += pr.PoolMisses
		}
	}
	tw.FinishSeriesPoint(&pt, queued, hits, misses)
	d.segPoints = append(d.segPoints, pt)
}

// failed reports a transport failure, which voids the segment attempt
// whatever the machine concluded.
func (d *distRun) failed() error { return d.bridge.err }

// initWorkers (re)dials lost workers and initializes every shard for
// the coming segment. A redialed worker restores from its per-shard
// checkpoint file when one exists; everyone else restores from the
// coordinator's in-memory segment-start state (the two are the same
// projection, persisted vs. not).
func (d *distRun) initWorkers(reg *telemetry.Registry, segState *tw.EngineState) error {
	rs := d.rs
	d.clients = make([]*dist.Client, d.workers)
	for w := 0; w < d.workers; w++ {
		lo, hi := w*d.threadsPer, (w+1)*d.threadsPer
		redialed := d.conns[w] == nil
		if redialed {
			c, err := d.opts.Dial(w)
			if err != nil {
				return fmt.Errorf("%w: dialing worker %d: %v", dist.ErrWorkerLost, w, err)
			}
			d.conns[w] = c
		}
		d.clients[w] = dist.NewClient(d.conns[w], reg)
		st := shardStateFor(segState, lo, hi)
		if redialed && rs.persisting() && rs.segments > 0 {
			var err error
			if st, err = d.readShardFile(w); err != nil {
				return err
			}
		}
		init := &dist.InitMsg{
			Config:   rs.cfgJSON,
			CacheKey: rs.key,
			Shard:    w,
			Workers:  d.workers,
			Lo:       lo,
			Hi:       hi,
			State:    st,
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

// planCrash decides whether this attempt injects a worker crash, and
// where. The victim and crash point derive from the cache key and
// attempt number, so a run is reproducible given the same options; the
// final permitted attempt never crashes.
func (d *distRun) planCrash() {
	d.crashArmed = false
	if d.crashes == nil || d.attempt >= d.maxAttempts {
		return
	}
	crash, frac := d.crashes.Plan(d.rs.key, d.attempt)
	if !crash {
		return
	}
	h := fnv.New64a()
	io.WriteString(h, d.rs.key)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(d.attempt))
	h.Write(buf[:])
	d.crashArmed, d.victim, d.crashAt = true, int(h.Sum64()%uint64(d.workers)), frac*d.rs.cfg.EndTime
}

// markLost closes and forgets a worker connection and downgrades the
// connected gauge; the next buildSegment redials.
func (d *distRun) markLost(w int) {
	if c := d.conns[w]; c != nil {
		c.Close()
		d.conns[w] = nil
	}
	connected := 0
	for _, c := range d.conns {
		if c != nil {
			connected++
		}
	}
	d.reg.Gauge(dist.MetricWorkersConnected).Set(float64(connected))
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

// readShardFile restores one worker's slice of the last committed
// checkpoint from its per-shard file, which the writer may still be
// working on.
func (d *distRun) readShardFile(w int) (*tw.EngineState, error) {
	if err := d.rs.waitWriter(); err != nil {
		return nil, err
	}
	path := filepath.Join(d.rs.cfg.Checkpoint.Dir, checkpoint.ShardFileName(d.rs.segments, w))
	snap, err := checkpoint.Read(path)
	if err != nil {
		return nil, err
	}
	if snap.CacheKey != d.rs.key {
		return nil, fmt.Errorf("%w: shard checkpoint %s recorded cache key %s, run has %s",
			ErrCheckpointCorrupt, path, snap.CacheKey, d.rs.key)
	}
	return snap.Engine, nil
}

// shardStateFor projects a full engine state onto one shard: pending
// events outside [lo, hi) are zeroed (their owning workers hold them),
// everything else — LP records, sequence counter, statistics — rides
// along whole, keeping worker engines in exact global correspondence.
func shardStateFor(est *tw.EngineState, lo, hi int) *tw.EngineState {
	if est == nil {
		return nil
	}
	out := *est
	out.Pending = make([][]tw.EventRecord, len(est.Pending))
	for i := lo; i < hi && i < len(est.Pending); i++ {
		out.Pending[i] = est.Pending[i]
	}
	return &out
}

// capture replaces eng.Capture at a checkpoint boundary. It reproduces
// the in-process quiesce/capture cycle across workers: the three
// quiesce stages loop over workers in peer order with outbox relays
// between passes (an interleaving identical to the in-process
// fixpoint), then each shard's capture overlays into one full-width
// EngineState under the coordinator's master scalars. The workers'
// metrics fold into the coordinator registry before the snapshot
// exports it.
func (d *distRun) capture(seg *segment) (*tw.EngineState, error) {
	b := d.bridge
	// untilQuiet repeats a quiesce stage over every worker until a full
	// pass makes no progress.
	untilQuiet := func(op dist.OpCode) {
		for progress := true; progress && b.err == nil; {
			progress = false
			for w := 0; w < d.workers; w++ {
				if b.roundTrip(w, op).Flag {
					progress = true
				}
			}
		}
	}
	untilQuiet(dist.OpQuiescePass)
	for w := 0; w < d.workers; w++ {
		b.roundTrip(w, dist.OpQuiesceDump)
	}
	untilQuiet(dist.OpQuiesceFlush)
	if b.err != nil {
		return nil, b.err
	}
	if n := seg.eng.UncommittedEvents(); n != 0 {
		return nil, fmt.Errorf("ggpdes: distributed quiesce left %d uncommitted events", n)
	}
	env := seg.eng.EnvelopeOut()
	est := &tw.EngineState{
		Seq:             env.Seq,
		GVT:             seg.eng.GVT(),
		PeakUncommitted: seg.eng.PeakUncommittedEvents(),
		LPs:             make([]tw.LPRecord, seg.eng.NumLPs()),
		Pending:         make([][]tw.EventRecord, d.rs.cfg.Threads),
		PeerStats:       make([]tw.PeerStats, d.rs.cfg.Threads),
	}
	for w := 0; w < d.workers; w++ {
		sh := b.roundTrip(w, dist.OpCaptureShard).Shard
		if b.err != nil {
			return nil, b.err
		}
		if sh == nil {
			return nil, fmt.Errorf("ggpdes: worker %d returned no shard capture", w)
		}
		copy(est.LPs[sh.LPLo:], sh.LPs)
		for i, pend := range sh.Pending {
			est.Pending[sh.PeerLo+i] = pend
		}
	}
	for i, p := range seg.eng.Peers() {
		est.PeerStats[i] = p.Stats
	}
	return est, d.foldWorkerMetrics(seg)
}

// commitPoints moves the completed segment's buffered series points
// into the run's series, at its boundary or at the end of the run.
func (d *distRun) commitPoints() {
	for _, pt := range d.segPoints {
		d.rs.series.Append(pt)
	}
	d.segPoints = d.segPoints[:0]
}

// foldWorkerMetrics flushes worker pools and imports every worker
// registry into the coordinator's, in worker order, then re-asserts
// the master peak gauge (gauge import is last-wins; only the
// coordinator's peak is globally correct).
func (d *distRun) foldWorkerMetrics(seg *segment) error {
	b := d.bridge
	for w := 0; w < d.workers; w++ {
		b.roundTrip(w, dist.OpFlushPoolStats)
	}
	for w := 0; w < d.workers; w++ {
		if m := b.roundTrip(w, dist.OpMetrics).Metrics; m != nil {
			seg.reg.Import(*m)
		}
	}
	seg.reg.Gauge(tw.MetricUncommittedPeak).Set(float64(seg.eng.PeakUncommittedEvents()))
	return b.err
}

// appendShardFiles appends each worker's slice of the boundary's
// snapshot, written next to the full one so a redialed worker can
// restore without the coordinator resending its state in memory.
func (d *distRun) appendShardFiles(files []snapshotFile, est *tw.EngineState) []snapshotFile {
	rs := d.rs
	for w := 0; w < d.workers; w++ {
		lo, hi := w*d.threadsPer, (w+1)*d.threadsPer
		files = append(files, snapshotFile{checkpoint.ShardFileName(rs.segments, w), &checkpoint.Snapshot{
			Config:   rs.cfgJSON,
			CacheKey: rs.key,
			Segments: rs.segments,
			Engine:   shardStateFor(est, lo, hi),
		}})
	}
	return files
}

// finishing runs before Results are assembled: the end-of-run sweep —
// worker invariants, pool flushes, metrics imports — after which the
// workers are shut down and Results come from the coordinator's state
// alone.
func (d *distRun) finishing(seg *segment) error {
	b := d.bridge
	for w := 0; w < d.workers; w++ {
		b.roundTrip(w, dist.OpCheckInvariants)
	}
	if dist.IsRemote(b.err) {
		return fmt.Errorf("ggpdes: engine invariant violated: %w", b.err)
	}
	if err := d.foldWorkerMetrics(seg); err != nil {
		return err
	}
	d.commitPoints()
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

// roundTrip performs one control op (quiesce, capture, invariants,
// metrics, probes) against worker w as a JSON KindOp frame, threading
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
