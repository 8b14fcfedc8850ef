package tw

import "ggpdes/internal/telemetry"

// PeerProbe is one thread's contribution to a per-GVT-round series
// point: its local virtual time, queue depth and the event-pool traffic
// of its engine so far — counted on the peer, not read back from the
// telemetry registry, whose cells outlive an engine when the registry
// is the caller's. In-process series recording folds probes straight
// into the point; a distributed coordinator fetches each shard's probes
// over the wire and assembles the same point (see FillSeriesTotals /
// FinishSeriesPoint).
type PeerProbe struct {
	LVT        float64 `json:"lvt"`
	Queued     int     `json:"queued"`
	PoolHits   uint64  `json:"pool_hits"`
	PoolMisses uint64  `json:"pool_misses"`
}

// Probe reads the peer's series contribution; pure reads, no simulated
// cycles, no allocation.
func (p *Peer) Probe() PeerProbe {
	lvt := 0.0
	for _, lp := range p.lps {
		if lp.lvt > lvt {
			lvt = lp.lvt
		}
	}
	return PeerProbe{
		LVT:        lvt,
		Queued:     p.pending.Len() + len(p.inq),
		PoolHits:   p.poolFlushed.eventHit + p.pool.eventHit,
		PoolMisses: p.poolFlushed.eventMiss + p.pool.eventMiss,
	}
}

// ProbeShard returns probes for the locally hosted peers — the whole
// engine unless Shardify narrowed the range.
func (e *Engine) ProbeShard() []PeerProbe {
	out := make([]PeerProbe, 0, e.shardHi-e.shardLo)
	for _, p := range e.peers[e.shardLo:e.shardHi] {
		out = append(out, p.Probe())
	}
	return out
}

// FillSeriesTotals populates the cumulative-total fields of a series
// point from engine-wide statistics.
func FillSeriesTotals(pt *telemetry.SeriesPoint, s PeerStats, uncommitted int) {
	pt.Processed = s.Processed
	pt.Committed = s.Committed
	pt.RolledBack = s.RolledBack
	pt.Rollbacks = s.Rollbacks
	if done := s.Committed + s.RolledBack; done > 0 {
		pt.CommitRatio = float64(s.Committed) / float64(done)
	}
	pt.Uncommitted = uncommitted
}

// FinishSeriesPoint derives the queue/pool aggregates and the
// virtual-time-horizon statistics from the per-thread LVTs already
// stored in pt.ThreadLVTs. Horizon width w is the LVT spread,
// roughness w² the mean squared deviation from the mean (Korniss et
// al.) — the signal that predicts rollback behaviour and that a future
// adaptive-optimism throttle will act on.
func FinishSeriesPoint(pt *telemetry.SeriesPoint, queued int, hits, misses uint64) {
	pt.QueueDepth = queued
	if hits+misses > 0 {
		pt.PoolHitRate = float64(hits) / float64(hits+misses)
	}
	min, max, sum := pt.ThreadLVTs[0], pt.ThreadLVTs[0], 0.0
	for _, v := range pt.ThreadLVTs {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	mean := sum / float64(len(pt.ThreadLVTs))
	var rough float64
	for _, v := range pt.ThreadLVTs {
		d := v - mean
		rough += d * d
	}
	pt.MinLVT, pt.MaxLVT, pt.MeanLVT = min, max, mean
	pt.HorizonWidth = max - min
	pt.HorizonRoughness = rough / float64(len(pt.ThreadLVTs))
}

// FillSeriesPoint populates the engine-derived fields of a per-GVT-
// round series point: per-thread LVTs and the virtual-time-horizon
// statistics over them, cumulative event totals, the speculation
// window and queue depths, and the event-pool hit rate. It only reads
// engine state — no simulated cycles are charged — so series
// recording cannot perturb a trajectory. Called from the run loop's
// OnGVT hook, where the machine has serialized all thread execution.
func (e *Engine) FillSeriesPoint(pt *telemetry.SeriesPoint) {
	FillSeriesTotals(pt, e.TotalStats(), e.uncommitted)

	// Per-thread local virtual time: the latest timestamp each thread
	// has executed (the maximum over its LPs). A thread that has not
	// executed yet sits at 0, the simulation start.
	if cap(pt.ThreadLVTs) < len(e.peers) {
		pt.ThreadLVTs = make([]float64, len(e.peers))
	}
	pt.ThreadLVTs = pt.ThreadLVTs[:len(e.peers)]
	var hits, misses uint64
	queued := 0
	for i, p := range e.peers {
		pr := p.Probe()
		pt.ThreadLVTs[i] = pr.LVT
		queued += pr.Queued
		hits += pr.PoolHits
		misses += pr.PoolMisses
	}
	FinishSeriesPoint(pt, queued, hits, misses)
}
