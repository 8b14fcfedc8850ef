package tw

import "ggpdes/internal/telemetry"

// FillSeriesPoint populates the engine-derived fields of a per-GVT-
// round series point: per-thread LVTs and the virtual-time-horizon
// statistics over them, cumulative event totals, the speculation
// window and queue depths, and the event-pool hit rate. It only reads
// engine state — no simulated cycles are charged — so series
// recording cannot perturb a trajectory. Called from the run loop's
// OnGVT hook, where the machine has serialized all thread execution.
func (e *Engine) FillSeriesPoint(pt *telemetry.SeriesPoint) {
	s := e.TotalStats()
	pt.Processed = s.Processed
	pt.Committed = s.Committed
	pt.RolledBack = s.RolledBack
	pt.Rollbacks = s.Rollbacks
	if done := s.Committed + s.RolledBack; done > 0 {
		pt.CommitRatio = float64(s.Committed) / float64(done)
	}
	pt.Uncommitted = e.uncommitted

	// Per-thread local virtual time: the latest timestamp each thread
	// has executed (the maximum over its LPs). A thread that has not
	// executed yet sits at 0, the simulation start. Pool traffic is
	// counted on the peer, not read back from the telemetry registry,
	// whose cells outlive an engine when the registry is the caller's.
	if cap(pt.ThreadLVTs) < len(e.peers) {
		pt.ThreadLVTs = make([]float64, len(e.peers))
	}
	pt.ThreadLVTs = pt.ThreadLVTs[:len(e.peers)]
	var hits, misses uint64
	queued := 0
	for i, p := range e.peers {
		lvt := 0.0
		for _, lp := range p.lps {
			if lp.lvt > lvt {
				lvt = lp.lvt
			}
		}
		pt.ThreadLVTs[i] = lvt
		queued += p.pending.Len() + len(p.inq)
		hits += p.poolFlushed.eventHit + p.pool.eventHit
		misses += p.poolFlushed.eventMiss + p.pool.eventMiss
	}
	pt.QueueDepth = queued
	if hits+misses > 0 {
		pt.PoolHitRate = float64(hits) / float64(hits+misses)
	}

	// Horizon width w is the LVT spread, roughness w² the mean squared
	// deviation from the mean (Korniss et al.) — the signal that
	// predicts rollback behaviour and that a future adaptive-optimism
	// throttle will act on.
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
