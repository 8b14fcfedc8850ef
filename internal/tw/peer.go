package tw

// Where the host time of an event-bound run goes, and what was done
// about it. Since the machine charges work inside the grant and idle
// polling is booked arithmetically (internal/machine/thread.go has
// those tables), a run is tw, pq and the model. The benchmark's
// traffic-oversub-rollback config at seed 1 — Traffic, 128 threads on
// 8x2 contexts, GG-PDES, EndTime 16: nine GVT rounds, 77,028 events
// uncommitted at peak, so 89,489 of 260,220 event allocations and
// 81,370 of 182,568 snapshots miss the pools — looped 60 times in one
// process on one P (go tool pprof -top -cum, the frames that matter),
// first with every pool miss a heap object and every queue comparison
// a closure call that follows two event pointers: 160.5 ms, 319,929
// mallocs and 27.9 MB a run,
//
//	     flat  flat%        cum   cum%
//	    0.49s  5.04%      4.44s 45.68%  tw.(*Peer).ProcessBatch
//	    0.04s  0.41%      2.53s 26.03%  models.(*Traffic).OnEvent
//	    0.20s  2.06%      2.17s 22.33%  tw.(*Peer).Drain
//	    0.09s  0.93%      1.75s 18.00%  pq.(*SplayTree).Push
//	    0.16s  1.65%      1.72s 17.70%  tw.(*Engine).send
//	    0.56s  5.76%      1.49s 15.33%  pq.(*SplayTree).splay
//	    0.05s  0.51%      1.35s 13.89%  runtime.mallocgc
//	        0     0%      1.14s 11.73%  runtime.gcBgMarkWorker
//	    0.09s  0.93%      0.77s  7.92%  gcWriteBarrier
//	    0.24s  2.47%      0.77s  7.92%  tw.(*Peer).FossilCollect
//	    0.73s  7.51%      0.73s  7.51%  tw.(*Event).before (inline)
//	    0.20s  2.06%      0.71s  7.30%  tw.(*Peer).peekLive
//	    0.13s  1.34%      0.68s  7.00%  tw.(*Peer).allocEvent
//	    0.17s  1.75%      0.68s  7.00%  tw.(*Peer).freeEvent
//	    0.09s  0.93%      0.62s  6.38%  tw.newPendingQueue.func1
//	    0.07s  0.72%      0.45s  4.63%  tw.(*Event).poison (inline)
//	    0.01s  0.10%      0.45s  4.63%  runtime.growslice
//
// (mallocgc + gcBgMarkWorker + gcWriteBarrier 33.5 % of 9.72 s — 30.8 %
// in a second sample: a third of the run is memory management) and then
// with a miss carved from a per-peer chunk (pool.go), the ordering key
// in the queue node (internal/pq), and an event that is reset field by
// field with its hot fields in one cache line (event.go) — the same
// events, the same trajectory, the same pool counters: 108.8 ms, 18,720
// mallocs and 27.6 MB a run,
//
//	     flat  flat%        cum   cum%
//	    0.44s  6.60%      3.30s 49.48%  tw.(*Peer).ProcessBatch
//	    0.05s  0.75%      1.61s 24.14%  models.(*Traffic).OnEvent
//	    0.16s  2.40%      1.13s 16.94%  tw.(*Peer).Drain
//	    0.12s  1.80%      0.93s 13.94%  tw.(*Engine).send
//	    0.08s  1.20%      0.86s 12.89%  pq.(*SplayTree).Push
//	    0.30s  4.50%      0.73s 10.94%  tw.(*Peer).FossilCollect
//	    0.26s  3.90%      0.67s 10.04%  pq.(*SplayTree).splay
//	    0.39s  5.85%      0.65s  9.75%  tw.(*Peer).peekLive
//	        0     0%      0.53s  7.95%  runtime.mallocgc
//	    0.07s  1.05%      0.49s  7.35%  tw.(*Peer).freeEvent
//	        0     0%      0.48s  7.20%  runtime.gcBgMarkWorker
//	    0.05s  0.75%      0.44s  6.60%  gcWriteBarrier
//	    0.10s  1.50%      0.39s  5.85%  tw.(*Peer).allocEvent
//	    0.17s  2.55%      0.34s  5.10%  tw.(*Event).poison
//	    0.28s  4.20%      0.30s  4.50%  pq.(*entry).before (inline)
//	    0.03s  0.45%      0.29s  4.35%  tw.(*Peer).carveEvent (inline)
//	    0.02s  0.30%      0.22s  3.30%  tw.(*Peer).carveSnapshot
//	        0     0%      0.22s  3.30%  runtime.growslice
//	    0.20s  3.00%      0.20s  3.00%  tw.(*Event).before (inline)
//
// (the three memory frames 21.7 % of 6.67 s, 21.5 % in the second
// sample: 3.26 s of them became 1.45 s). The phold-sync config — PHOLD,
// 16 threads x 16 LPs, barrier GVT, EndTime 400: 55 rounds, a small
// in-flight set, 5,162 and 4,425 misses — looped 250 times, the frames
// that moved, 35.9 ms and 23,046 mallocs a run before, 25.5 ms and
// 4,962 after:
//
//	                                    before            after
//	pq.(*SplayTree).Push                1.49s 16.78%      0.97s 15.28%
//	pq.(*SplayTree).splay               1.23s 13.85%      0.72s 11.34%
//	tw.(*Event).before (flat)           0.55s  6.19%      0.22s  3.46%   (what is left is Drain's and peekLive's own comparisons)
//	tw.newPendingQueue.func1, the less  0.48s  5.41%          —          (runs on exact ties only)
//	pq.(*entry).before (flat)               —             0.34s  5.35%
//	tw.(*Peer).FossilCollect            1.04s 11.71%      0.61s  9.61%
//	tw.(*Peer).freeEvent                0.79s  8.90%      0.26s  4.09%
//	tw.(*Event).poison                  0.70s  7.88%      0.14s  2.20%   (a 168-byte literal built and copied over the event, then field by field)
//	runtime.mallocgc                    0.33s  3.72%      0.12s  1.89%
//
// Piece by piece, each added to the one before (host ms a run, median
// [quartiles] of 14 alternations of the four binaries, 2-vCPU box, one
// P):
//
//	                                    traffic-oversub-rollback    phold-sync
//	parent                              160.7 [154.7, 168.0]        34.0 [32.4, 42.1]
//	+ chunks behind the miss path       130.4 [122.8, 143.5]        36.8 [33.6, 40.6]
//	+ the key in the queue node         127.2 [122.4, 132.5]        32.4 [31.8, 36.3]
//	+ poison by field, hot-field layout 120.7 [117.3, 123.7]        32.5 [30.7, 35.5]
//
// The chunks are the traffic run's gain (it is all misses) and nothing
// on phold-sync, which hardly misses; the key in the node is
// phold-sync's (a deeper tree, more comparisons per event) and little
// on traffic; the event's own reset and layout show on traffic, where
// every rolled-back event is freed and taken again. Each reads better
// on one of the two, so all three stayed. The layers on their own, go
// test -bench, same box, parent -> change, medians of three
// alternations:
//
//	BenchmarkPoolMiss/chunks            160 ns, 4 allocs -> 107 ns, 0 allocs   (an event, its first send, a snapshot, cold)
//	BenchmarkPoolMiss/unpooled          141 ns, 4 allocs -> 132 ns, 4 allocs   (the reference arm: one object per allocation; it left with the pooling switch)
//	BenchmarkPoolRecycle                 94 ns -> 65 ns                        (free + realloc over 32k events: poison)
//	BenchmarkHold/splay/prio/n32        114 -> 90 ns    n256 162 -> 133    n4096 283 -> 219
//	BenchmarkHold/heap/prio/n32          73 -> 66       n256 109 -> 80     n4096 166 -> 131
//	BenchmarkHold/calendar/prio/n32      69 -> 66       n256  71 -> 69     n4096  82 -> 84
//	BenchmarkHold/splay/nil/n256        166 -> 176      heap/nil/n256 109 -> 138
//
// (without a priority function a comparison now checks two zero
// priorities before it calls less: the engine always passes one, and
// the nil rows are there so that this cost is a number). The per-layer
// ledger's own hold driver keeps its queue at one size while the items
// close in on each other, which leaves a calendar queue with a stale
// width and a few crowded buckets; with 16-byte entries the sorted
// insert and the pop's copy read 306 -> 333 ns there, so buckets are now
// kept minimum-last (a pop shortens the slice) and searched by
// bisection: 104 ns, 276 -> 105 in the ledger's own
// pq.calendar.hold_ns_op_n256, the well-tuned rows above unchanged.
//
// The profiles above ran on the splay tree, then the engine's queue.
// Since then the pending set is the binary heap, which was faster at
// every measured point with identical Results (DESIGN.md §5): its
// entries sit in one array instead of pointer-linked nodes, whose link
// stores were two thirds of the write-barrier time left above. What is
// left, in this profile's order: Drain still pushes once per
// event where it could insert a sorted run, peekLive walks what it
// could index, the collector still marks every event the heap points
// to, and FossilCollect visits the history head of every LP the peer
// serves, an idle one's too. Index-addressed slabs, per-LP time buckets
// and a fossil pass over busy LPs only are on ROADMAP item 10's engine
// list.
//
// Since then, too, the memory behind the pools is the engine's, not
// each peer's (pool.go): hits and misses are counted where they were,
// but an allocation carves only when the engine's one store is empty.
// Where the load moves from thread group to thread group, each group
// no longer carves its own in-flight set: the phold-imbalanced-async
// benchmark's gg-async call, one P, went from 2.71 MB, 2,090 mallocs
// and 0.9 GC cycles a run to 0.35 MB, 1,200 and 0.1, and traffic from
// 24.4 MB and 14,947 mallocs to 23.3 MB and 11,057. The uncommitted-peak
// gauge, which took its lock at every new high-water mark (0.8 % of
// the traffic profile above), is set where the pool counters are
// flushed.

import (
	"fmt"
	"math"

	"ggpdes/internal/pq"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/trace"
)

// PeerStats counts a simulation thread's work.
type PeerStats struct {
	// Processed counts event executions, including re-executions after
	// rollback.
	Processed uint64
	// RolledBack counts event executions undone by rollbacks.
	RolledBack uint64
	// Committed counts events fossil collected below GVT; these are the
	// events the committed event rate is computed from.
	Committed uint64
	// Rollbacks counts rollback episodes; Stragglers counts the ones
	// triggered by late positive events (the rest are anti-messages).
	Rollbacks, Stragglers uint64
	// AntiSent and Annihilated count anti-message traffic.
	AntiSent, Annihilated uint64
	// Drained counts input-queue entries moved to the pending set.
	Drained uint64
	// GVTCycles is CPU cycles spent inside GVT computation, filled in
	// by the GVT layer; GVTRounds counts completed rounds.
	GVTCycles uint64
	GVTRounds uint64
}

// Peer is one simulation thread's engine state: the set of LPs it
// serves, its input queue, and its timestamp-ordered pending events.
// It corresponds to a "PE"/worker thread in multi-threaded ROSS.
type Peer struct {
	// ID is the simulation thread id.
	ID  int
	eng *Engine

	lps     []*LP
	inq     []*Event
	pending *pq.BinHeap[*Event]

	// pooled counts the events this peer has freed and not yet taken
	// back: what decides whether its next allocation is a pool hit or a
	// miss. The events themselves go to the engine's one store (see
	// pool.go). pool accumulates the peer's traffic counters between
	// telemetry flushes and poolFlushed keeps the event hits and misses
	// already flushed, for Probe.
	pooled      int
	pool        poolStats
	poolFlushed poolStats

	// evCtx is the reusable model-callback context for forward
	// execution. Models must not retain an EventCtx beyond the callback
	// (documented on Model), so reuse is safe.
	evCtx EventCtx

	// acc accumulates cycles (sends, anti-messages) charged at the end
	// of the enclosing operation.
	acc uint64
	// minSent tracks the smallest timestamp sent since the last GVT
	// cut; +Inf when none.
	minSent VT
	// quiesced receives the cancelled events the quiesce for a
	// checkpoint capture removes from the pending heap (checkpoint.go),
	// on their way to the engine's store (spare.go).
	quiesced []*Event

	// tel holds this thread's private shard of the telemetry registry;
	// recording here never shares a cache line with another thread.
	tel peerTelemetry

	// foreign marks a peer hosted by another worker process in a
	// distributed run: it holds no event state and sends routed to it
	// are collected as wire events instead (see shard.go).
	foreign bool
	// shadows is the newest of the live shadows this peer's sends to
	// foreign peers left, linked through prev and next (shard.go).
	shadows *Event

	// Stats is exported for the harness; do not mutate externally.
	Stats PeerStats
}

// peerTelemetry caches per-thread shard handles so hot paths skip
// registry lookups; handles from a nil registry record but report
// nothing. Reads merge all peers' shards back into the per-run totals
// (telemetry.Registry.Snapshot).
type peerTelemetry struct {
	rollbackDepth *telemetry.Histogram
	commitBatch   *telemetry.Histogram
	antiSent      *telemetry.Counter
	rollbacks     *telemetry.Counter
	committed     *telemetry.Counter

	poolEventHit      *telemetry.Counter
	poolEventMiss     *telemetry.Counter
	poolEventRecycled *telemetry.Counter
	poolStateHit      *telemetry.Counter
	poolStateMiss     *telemetry.Counter
	poolStateRecycled *telemetry.Counter
}

// pendingPerLP is the pending-heap room a fresh engine gives a peer per
// LP it serves, and inqRoom its input queue's, so that neither grows by
// doubling through the first rounds of the run. What arrives between
// two drains does not scale with the LPs a peer serves: the 99th
// percentile of a drain is 41 events on the traffic benchmark (2 LPs a
// peer), 24 on phold-sync (16) and 34 on epidemics (64).
const (
	pendingPerLP = 8
	inqRoom      = 32
)

// newPendingQueues builds n empty pending sets with room for room
// events each, from one slab.
func newPendingQueues(n, room int) []pq.BinHeap[*Event] {
	return pq.NewHeaps(n, room, func(a, b *Event) bool { return a.before(b) }, func(e *Event) float64 { return e.Ts })
}

// newPeer fills in p, a zero Peer in the engine's slab of them.
func newPeer(p *Peer, id int, eng *Engine) {
	sh := eng.cfg.Telemetry.Shard(id)
	*p = Peer{
		ID:      id,
		eng:     eng,
		minSent: math.Inf(1),
		tel: peerTelemetry{
			rollbackDepth: sh.Histogram(MetricRollbackDepth),
			commitBatch:   sh.Histogram(MetricCommitBatch),
			antiSent:      sh.Counter(MetricAntiMessages),
			rollbacks:     sh.Counter(MetricRollbacks),
			committed:     sh.Counter(MetricCommittedEvents),

			poolEventHit:      sh.Counter(MetricPoolEventHit),
			poolEventMiss:     sh.Counter(MetricPoolEventMiss),
			poolEventRecycled: sh.Counter(MetricPoolEventRecycled),
			poolStateHit:      sh.Counter(MetricPoolStateHit),
			poolStateMiss:     sh.Counter(MetricPoolStateMiss),
			poolStateRecycled: sh.Counter(MetricPoolStateRecycled),
		},
	}
}

// LPs returns the LPs served by this peer.
func (p *Peer) LPs() []*LP { return p.lps }

// InputSize returns the number of entries in the input queue. Other
// threads read it for activity detection (demand-driven scheduling) —
// safe because machine execution is serialized.
func (p *Peer) InputSize() int {
	if r := p.eng.remote; r != nil {
		return r.InputSize(p.ID)
	}
	return len(p.inq)
}

// HasWork reports whether the peer has any unconsumed input or live
// pending events before the simulation end time, executable or not.
func (p *Peer) HasWork() bool {
	if r := p.eng.remote; r != nil {
		return r.HasWork(p.ID)
	}
	if len(p.inq) > 0 {
		return true
	}
	return p.peekLive() != nil
}

// HasExecutableWork reports whether the peer could make progress right
// now: input to drain, or a live pending event within the optimism
// horizon. Demand-driven scheduling keys on this — a thread whose only
// work lies beyond GVT + OptimismWindow can safely de-schedule, because
// the pseudo-controller's activation scan wakes it once GVT advances
// far enough.
func (p *Peer) HasExecutableWork() bool {
	if r := p.eng.remote; r != nil {
		return r.HasExecutableWork(p.ID)
	}
	if len(p.inq) > 0 {
		return true
	}
	ev := p.peekLive()
	return ev != nil && ev.Ts <= p.eng.horizon()
}

// Quiet reports whether polling the peer is certain to find nothing to
// do and to change nothing: the input queue is empty, no send or
// rollback cycles wait to be charged, and the pending head is absent,
// or live and beyond the optimism horizon or at/after the end time.
// For a quiet peer DrainProcess returns (0, 0) having charged exactly
// Costs.DrainBaseCycles and HasExecutableWork is false. Quiet itself
// has no side effects: a cancelled head, which the next poll would pop
// and recycle, simply counts as not quiet. A distributed worker reports
// its shard's quiet peers with every reply (AppendQuietSet) so the
// coordinator can answer their polls without a round trip.
//
// Quiet reads the peer's own queues, so on the coordinator's hollow
// peers, which are empty by construction whatever the shard behind them
// is doing, it answers false: what is known there about a remote peer
// is the transport's business (the bridge's quiet sets), and a caller
// that skips polls on Quiet's word must keep polling.
func (p *Peer) Quiet() bool {
	if p.eng.remote != nil || len(p.inq) > 0 || p.acc != 0 {
		return false
	}
	ev, ok := p.pending.Peek()
	if !ok {
		return true
	}
	return ev.state != StateCancelled && (ev.Ts >= p.eng.cfg.EndTime || ev.Ts > p.eng.horizon())
}

// peekLive returns the first pending event that is neither cancelled
// nor at/after the simulation end time, lazily dropping (and
// recycling) cancelled entries; nil if none.
func (p *Peer) peekLive() *Event {
	for {
		ev, ok := p.pending.Peek()
		if !ok {
			return nil
		}
		if ev.state == StateCancelled {
			p.pending.Pop()
			// The annihilating anti has been consumed and the sender
			// dropped its references; the queue held the last one.
			p.freeEvent(ev)
			continue
		}
		if ev.Ts >= p.eng.cfg.EndTime {
			return nil
		}
		return ev
	}
}

// Drain moves all input-queue entries into the pending set, handling
// anti-messages and rolling back stragglers. It returns the number of
// entries consumed and charges the corresponding CPU cycles.
func (p *Peer) Drain(cpu CPU) int {
	if r := p.eng.remote; r != nil {
		return r.Drain(p.ID, cpu)
	}
	costs := &p.eng.cfg.Costs
	cycles := costs.DrainBaseCycles
	// Handling an anti-message can roll an LP back, whose unsends may
	// append further anti-messages to our own input queue; iterate by
	// index so entries appended mid-drain are consumed too.
	n := 0
	for i := 0; i < len(p.inq); i++ {
		ev := p.inq[i]
		p.inq[i] = nil
		n++
		cycles += costs.DrainPerEventCycles
		p.Stats.Drained++
		switch {
		case ev.Anti:
			p.handleAnti(ev)
			// Nothing else ever references an anti-message; recycle it
			// the moment it is consumed.
			p.freeEvent(ev)
		case ev.state == StateCancelled:
			// Annihilated while still in our queue; drop (already
			// counted when the anti-message cancelled it) and recycle.
			p.freeEvent(ev)
		default:
			if lp := p.eng.lps[ev.Dst]; lp.straggles(ev) {
				p.Stats.Stragglers++
				p.rollback(lp, ev)
			}
			ev.state = StatePending
			p.pending.Push(ev)
		}
	}
	p.inq = p.inq[:0]
	cycles += p.takeAcc()
	cpu.Work(cycles)
	return n
}

// handleAnti annihilates the anti-message's target, rolling the
// destination LP back first if the target was already executed.
func (p *Peer) handleAnti(anti *Event) {
	target := anti.Target
	switch target.state {
	case StateInQueue, StatePending:
		target.state = StateCancelled
		p.Stats.Annihilated++
	case StateProcessed:
		lp := p.eng.lps[target.Dst]
		p.rollback(lp, target)
		// The rollback re-queued the target as pending; annihilate it.
		if target.state != StatePending {
			panic(fmt.Sprintf("tw: rollback did not requeue anti target %v", target))
		}
		target.state = StateCancelled
		p.Stats.Annihilated++
	case StateCancelled, StateCommitted, statePooled:
		// statePooled here means the target was recycled while an anti
		// for it was still in flight — a use-after-recycle bug.
		panic(fmt.Sprintf("tw: anti-message for %v in impossible state", target))
	}
}

// rollback undoes every processed event of the LP at or after upto,
// restoring each event's snapshot in reverse order, unsending their
// sends, and re-queueing them as pending.
func (p *Peer) rollback(lp *LP, upto *Event) int {
	costs := &p.eng.cfg.Costs
	count := 0
	for lp.last != nil && !lp.last.before(upto) {
		last := lp.pop()
		p.unsend(last.sent, last.Dst)
		last.sent = nil
		// The snapshot becomes the live state; the displaced live state
		// is dead and feeds the snapshot pool.
		p.releaseSnapshot(lp, lp.state)
		lp.state = last.saved.state
		lp.rand.Seek(last.saved.pos)
		last.saved = Snapshot{}
		last.state = StatePending
		p.pending.Push(last)
		count++
		p.Stats.RolledBack++
		p.eng.uncommitted--
		p.acc += costs.RollbackPerEventCycles
	}
	if count > 0 {
		p.Stats.Rollbacks++
		p.tel.rollbacks.Inc()
		p.tel.rollbackDepth.Observe(float64(count))
		if t := p.eng.cfg.Trace; t != nil {
			t.Add(trace.KindRollback, p.ID, upto.Ts, int64(count))
		}
	}
	return count
}

// sendAnti issues one anti-message for s on behalf of LP src.
func (p *Peer) sendAnti(s *Event, src int) {
	eng := p.eng
	p.acc += eng.cfg.Costs.SendCycles
	p.Stats.AntiSent++
	p.tel.antiSent.Inc()
	if t := eng.cfg.Trace; t != nil {
		t.Add(trace.KindAntiMessage, p.ID, s.Ts, int64(s.Dst))
	}
	p.noteSent(s.Ts)
	anti := p.allocEvent()
	anti.Ts = s.Ts
	anti.Seq = eng.nextSeq()
	anti.Src = src
	anti.Dst = s.Dst
	anti.Anti = true
	anti.Target = s
	dst := eng.peers[eng.lps[s.Dst].Owner]
	if dst.foreign {
		// Cross-shard annihilation: the anti travels by wire, carrying
		// the target's sequence number for the destination shard to
		// resolve against its twin. The local anti was taken only for
		// its sequence number and pool accounting, and s is a shadow
		// that nothing references any more: both go back to the store
		// uncounted (see shard.go).
		eng.outbox = append(eng.outbox, WireEvent{
			Ts: anti.Ts, Seq: anti.Seq, Src: anti.Src, Dst: anti.Dst,
			Anti: true, TargetSeq: s.Seq,
		})
		eng.mem.putEvent(anti)
		p.recycleShadow(s)
	} else {
		dst.inq = append(dst.inq, anti)
	}
}

// unsend issues anti-messages on behalf of LP src for s and the events
// sent before it — a cause's sent list, which is newest first — in the
// order they were sent, unlinking each.
func (p *Peer) unsend(s *Event, src int) {
	if s != nil {
		p.unsend(s.sib, src)
		s.sib = nil
		p.sendAnti(s, src)
	}
}

// ProcessBatch speculatively executes up to the engine's batch size of
// pending events and returns how many ran. With a configured optimism
// window, events beyond GVT + window stay pending until GVT advances.
func (p *Peer) ProcessBatch(cpu CPU) int {
	if r := p.eng.remote; r != nil {
		return r.ProcessBatch(p.ID, cpu)
	}
	eng := p.eng
	costs := &eng.cfg.Costs
	horizon := eng.horizon()
	var cycles uint64
	done := 0
	for done < eng.cfg.BatchSize {
		ev := p.peekLive()
		if ev == nil || ev.Ts > horizon {
			break
		}
		p.pending.Pop()
		lp := eng.lps[ev.Dst]
		if eng.gvt > ev.Ts {
			panic(fmt.Sprintf("tw: event %v below GVT %.4f", ev, eng.gvt))
		}
		if lp.straggles(ev) {
			panic(fmt.Sprintf("tw: out-of-order execution of %v after %v", ev, lp.last))
		}
		ev.saved = Snapshot{state: p.acquireSnapshot(lp), pos: lp.rand.Pos()}
		cycles += costs.EventCycles + costs.StateSaveCycles
		ev.state = StateProcessed
		lp.push(ev)
		eng.noteProcessed(1)
		p.evCtx = EventCtx{eng: eng, peer: p, lp: lp, ev: ev}
		eng.cfg.Model.OnEvent(&p.evCtx)
		p.Stats.Processed++
		done++
	}
	cycles += p.takeAcc()
	if cycles > 0 {
		cpu.Work(cycles)
	}
	return done
}

// LocalMin returns the smallest unprocessed timestamp known to this
// peer: live pending events plus everything still in the input queue.
// +Inf when it has none.
func (p *Peer) LocalMin(cpu CPU) VT {
	if r := p.eng.remote; r != nil {
		return r.LocalMin(p.ID, cpu)
	}
	costs := &p.eng.cfg.Costs
	cycles := costs.LocalMinCycles
	min := math.Inf(1)
	if ev := p.peekLive(); ev != nil {
		min = ev.Ts
	}
	for _, ev := range p.inq {
		cycles += costs.DrainPerEventCycles / 2
		if !ev.Anti && ev.state == StateCancelled {
			continue
		}
		if ev.Ts < min {
			min = ev.Ts
		}
	}
	cpu.Work(cycles)
	return min
}

// RemoteMin returns the peer's smallest unprocessed timestamp (pending
// set plus input queue) without charging this peer — the GVT
// pseudo-controller scans threads that did not contribute a cut
// (de-scheduled or freshly reactivated) on their behalf and pays for
// the walk itself. +Inf when the peer holds nothing live.
func (p *Peer) RemoteMin() VT {
	if r := p.eng.remote; r != nil {
		return r.RemoteMin(p.ID)
	}
	min := math.Inf(1)
	if ev := p.peekLive(); ev != nil {
		min = ev.Ts
	}
	for _, ev := range p.inq {
		if !ev.Anti && ev.state == StateCancelled {
			continue
		}
		if ev.Ts < min {
			min = ev.Ts
		}
	}
	return min
}

// noteSent folds a sent timestamp into the GVT transit-minimum window.
func (p *Peer) noteSent(ts VT) {
	if ts < p.minSent {
		p.minSent = ts
	}
}

// TakeMinSent returns the smallest timestamp sent since the previous
// call and resets the window; used by GVT cuts.
func (p *Peer) TakeMinSent() VT {
	if r := p.eng.remote; r != nil {
		return r.TakeMinSent(p.ID)
	}
	v := p.minSent
	p.minSent = math.Inf(1)
	return v
}

// PeekMinSent returns the window without resetting it. The GVT
// pseudo-controller folds it in for threads that contribute no cut this
// round (reactivated threads processing before their subscription takes
// effect): their sends after a receiver's cut would otherwise be
// invisible to the round.
func (p *Peer) PeekMinSent() VT {
	if r := p.eng.remote; r != nil {
		return r.PeekMinSent(p.ID)
	}
	return p.minSent
}

// FossilCollect commits and frees all processed events strictly below
// gvt, returning the number committed. Committed events and their
// copy-state snapshots feed the freelists: fossil collection is where
// the pools are fed, so a few GVT rounds after startup the send path
// stops allocating.
func (p *Peer) FossilCollect(cpu CPU, gvt VT) int {
	if r := p.eng.remote; r != nil {
		return r.FossilCollect(p.ID, cpu, gvt)
	}
	costs := &p.eng.cfg.Costs
	cycles := costs.FossilBaseCycles
	total := 0
	for _, lp := range p.lps {
		for lp.head != nil && lp.head.Ts < gvt {
			ev := lp.shift()
			ev.state = StateCommitted
			lp.clvt = ev.Ts
			p.eng.cfg.onCommit(ev)
			p.releaseSnapshot(lp, ev.saved.state)
			// A cause whose sent list still runs through ev sits below
			// GVT too and will never walk it again.
			p.freeEvent(ev)
			total++
		}
	}
	// A worker's shadows below gvt have committed causes (shard.go).
	for s := p.shadows; s != nil; {
		next := s.next
		if s.Ts < gvt {
			p.recycleShadow(s)
		}
		s = next
	}
	p.eng.uncommitted -= total
	cycles += uint64(total) * costs.FossilPerEventCycles
	p.flushPoolStats()
	p.eng.publishPeak()
	p.Stats.Committed += uint64(total)
	if total > 0 {
		p.tel.committed.Add(uint64(total))
		p.tel.commitBatch.Observe(float64(total))
		if t := p.eng.cfg.Trace; t != nil {
			t.Add(trace.KindCommit, p.ID, gvt, int64(total))
		}
	}
	cpu.Work(cycles)
	return total
}

// takeAcc returns and clears cycles accumulated by sends/rollbacks.
func (p *Peer) takeAcc() uint64 {
	v := p.acc
	p.acc = 0
	return v
}
