package tw

import (
	"errors"
	"fmt"
	"math"

	"ggpdes/internal/pq"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/trace"
)

// Metric names the engine registers.
const (
	// MetricRollbackDepth is a histogram of events undone per rollback
	// episode.
	MetricRollbackDepth = "tw.rollback_depth"
	// MetricCommitBatch is a histogram of events committed per
	// fossil-collection pass — the per-thread commit granularity.
	MetricCommitBatch = "tw.commit_batch"
	// MetricAntiMessages counts anti-messages sent.
	MetricAntiMessages = "tw.anti_messages"
	// MetricRollbacks counts rollback episodes.
	MetricRollbacks = "tw.rollbacks"
	// MetricCommittedEvents counts fossil-collected events.
	MetricCommittedEvents = "tw.committed_events"
	// MetricUncommittedPeak gauges the high-water mark of
	// processed-but-uncommitted events (state-saving memory demand).
	MetricUncommittedPeak = "tw.uncommitted_peak"
)

// CostModel gives the CPU cycle cost of engine operations on the
// simulated machine. Absolute values set absolute event rates; the
// reproduced comparisons depend only on their relative magnitudes.
type CostModel struct {
	// EventCycles is charged per executed event (model handler work).
	EventCycles uint64
	// StateSaveCycles is charged per pre-execution state snapshot.
	StateSaveCycles uint64
	// SendCycles is charged per event or anti-message enqueued to a
	// destination input queue.
	SendCycles uint64
	// DrainBaseCycles is charged per input-queue poll, even when empty
	// — the cost inactive threads keep paying in baseline systems.
	DrainBaseCycles uint64
	// DrainPerEventCycles is charged per drained entry.
	DrainPerEventCycles uint64
	// RollbackPerEventCycles is charged per rolled-back event (state
	// restore).
	RollbackPerEventCycles uint64
	// LocalMinCycles is charged per GVT local-minimum scan.
	LocalMinCycles uint64
	// FossilBaseCycles and FossilPerEventCycles price fossil collection.
	FossilBaseCycles     uint64
	FossilPerEventCycles uint64
}

// DefaultCosts returns the cost model used throughout the evaluation.
func DefaultCosts() CostModel {
	return CostModel{
		EventCycles:            1200,
		StateSaveCycles:        250,
		SendCycles:             250,
		DrainBaseCycles:        120,
		DrainPerEventCycles:    100,
		RollbackPerEventCycles: 600,
		LocalMinCycles:         150,
		FossilBaseCycles:       100,
		FossilPerEventCycles:   25,
	}
}

// Config configures an Engine.
type Config struct {
	// NumThreads is the number of simulation threads (Peers).
	NumThreads int
	// Model is the simulation application.
	Model Model
	// EndTime is the virtual time at which the simulation completes
	// (simulation ends when GVT reaches it).
	EndTime VT
	// Seed drives all model randomness.
	Seed uint64
	// BatchSize is the number of events processed per main-loop cycle
	// (ROSS uses 8; 0 selects 8).
	BatchSize int
	// Costs is the CPU cost model; zero value selects DefaultCosts.
	Costs CostModel
	// Trace, when non-nil, records GVT publications, rollbacks, commits
	// and anti-messages.
	Trace *trace.Recorder
	// Telemetry, when non-nil, receives the engine's metrics (see the
	// Metric constants).
	Telemetry *telemetry.Registry
	// OnGVT, when non-nil, is invoked after every GVT publication —
	// the hook the per-round series sampler hangs off.
	OnGVT func(VT)
	// OptimismWindow bounds speculation: events beyond GVT +
	// OptimismWindow are not executed until GVT catches up (ROSS's
	// max_opt_lookahead). Zero means unbounded optimism. Bounding
	// tames rollback thrash when demand-driven scheduling hands a
	// freshly woken thread group the whole machine.
	OptimismWindow VT
	// onCommit sees every event FossilCollect commits (oracle_test.go).
	onCommit func(*Event)
}

func (c *Config) fillDefaults() error {
	if c.NumThreads <= 0 {
		return errors.New("tw: NumThreads must be positive")
	}
	if c.Model == nil {
		return errors.New("tw: Model is required")
	}
	if c.EndTime <= 0 {
		return errors.New("tw: EndTime must be positive")
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.BatchSize < 0 {
		return errors.New("tw: BatchSize must be positive")
	}
	if c.Costs == (CostModel{}) {
		c.Costs = DefaultCosts()
	}
	if c.onCommit == nil {
		c.onCommit = func(*Event) {}
	}
	return nil
}

// Engine owns the global simulation structures shared by all
// simulation threads. It performs no synchronization of its own: the
// simulated machine serializes all thread execution.
type Engine struct {
	cfg   Config
	lps   []*LP
	peers []*Peer
	seq   uint64
	gvt   VT
	// lpSlab is the memory of the LPs lps points to.
	lpSlab []LP
	// spare is the spare set this engine adopted (spare.go), which its
	// capture fills again; startReleased says nothing reads the state
	// the set rode on any more, so that the capture may write over it.
	spare         *spareMemory
	startReleased bool
	// mem is the engine's event and snapshot memory (pool.go).
	mem memStore
	// uncommitted counts processed-but-not-fossil-collected events, the
	// state-saving memory the GVT exists to bound (§2.1); peak tracks
	// its high-water mark, and peakDirty says the gauge has not been
	// told the latest one.
	uncommitted     int
	peakUncommitted int
	peakDirty       bool
	// cancelled makes Done report true regardless of GVT, winding the
	// simulation threads down at their next loop iteration.
	cancelled bool
	// paused winds the threads down like cancelled, but marks a clean
	// checkpoint boundary rather than an abort (see checkpoint.go).
	paused bool

	// Distributed sharding (see shard.go). remote, when non-nil, makes
	// every public peer operation forward to the worker hosting the
	// real shard (coordinator role). shardLo/shardHi bound the locally
	// hosted peers — [0, NumThreads) unless Shardify narrowed them.
	// outbox collects cross-shard sends awaiting relay, and remoteIdx
	// maps twin events materialized from the wire by sequence number so
	// relayed anti-messages can find their targets.
	remote    RemoteTransport
	shardLo   int
	shardHi   int
	outbox    []WireEvent
	remoteIdx map[uint64]*Event

	tel engineTelemetry
}

// engineTelemetry caches the engine-global metric handles; handles
// from a nil registry record but report nothing. Per-thread metrics
// (rollbacks, commits, anti-messages, pool traffic) live on each
// Peer's shard handles instead — see peerTelemetry in peer.go.
type engineTelemetry struct {
	uncommittedPeak *telemetry.Gauge
}

// NewEngine builds LPs and peers, asks the model to initialize every
// LP, and distributes starting events.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	eng, err := newEngineShell(cfg, nil)
	if err != nil {
		return nil, err
	}
	// One context for every LP: InitLP is an interface call, so a
	// context per LP would be a heap object per LP.
	ic := &InitCtx{eng: eng}
	for _, lp := range eng.lps {
		ic.lp = lp
		cfg.Model.InitLP(ic, lp)
		if lp.state == nil {
			return nil, fmt.Errorf("tw: model left LP %d without state", lp.ID)
		}
	}
	eng.fixStateType()
	return eng, nil
}

// newEngineShell builds the LP/peer topology for cfg (defaults
// already filled) without running model initialization; NewEngine runs
// InitLP on top, NewEngineFromState restores captured state instead.
// sp is nil or a spare set that fits cfg, whose pending heaps the peers
// take in place of fresh ones and whose LP slab the LPs are seeded in
// (spare.go).
func newEngineShell(cfg Config, sp *spareMemory) (*Engine, error) {
	eng := &Engine{cfg: cfg}
	eng.tel = engineTelemetry{
		uncommittedPeak: cfg.Telemetry.Gauge(MetricUncommittedPeak),
	}
	perThread := cfg.Model.LPsPerThread()
	if perThread <= 0 {
		return nil, errors.New("tw: model reports non-positive LPsPerThread")
	}
	nLPs := perThread * cfg.NumThreads
	eng.shardLo, eng.shardHi = 0, cfg.NumThreads
	eng.peers = make([]*Peer, cfg.NumThreads)
	// The LPs come out of one slab: a checkpointed run builds an
	// engine per segment, and a heap object per LP was most of what
	// that cost. A segment that continues in process clears its
	// predecessor's.
	if sp != nil {
		eng.lpSlab, eng.lps = sp.lps, sp.lpPtrs
		clear(eng.lpSlab)
	} else {
		eng.lpSlab, eng.lps = make([]LP, nLPs), make([]*LP, nLPs)
	}
	// The peers come out of one slab. A fresh engine carves each peer's
	// pending heap, with room for pendingPerLP events per LP, and its
	// input queue, with room for inqRoom, from one slab apiece; a spare
	// set brings its own.
	peers := make([]Peer, cfg.NumThreads)
	var heaps []pq.BinHeap[*Event]
	var inqs []*Event
	if sp == nil {
		heaps, inqs = newPendingQueues(cfg.NumThreads, pendingPerLP*perThread), make([]*Event, cfg.NumThreads*inqRoom)
	}
	lps := eng.lpSlab
	for i := range eng.peers {
		p := &peers[i]
		newPeer(p, i, eng)
		p.lps = eng.lps[i*perThread : (i+1)*perThread : (i+1)*perThread]
		if sp != nil {
			p.pending = sp.peers[i].pending
		} else {
			p.pending, p.inq = &heaps[i], inqs[i*inqRoom:i*inqRoom:(i+1)*inqRoom]
		}
		eng.peers[i] = p
	}
	for id := range lps {
		// Block mapping: thread i serves LPs [i*perThread, (i+1)*perThread),
		// so "the first half of threads" also means the first half of LPs,
		// matching the paper's imbalanced models.
		lp := &lps[id]
		lp.ID, lp.Owner = id, id/perThread
		lp.rand.Seed(cfg.Seed, uint64(id)+1)
		eng.lps[id] = lp
	}
	return eng, nil
}

// Config returns the engine configuration (defaults filled).
func (e *Engine) Config() Config { return e.cfg }

// Peers returns all simulation-thread states, indexed by thread id.
func (e *Engine) Peers() []*Peer { return e.peers }

// Peer returns the peer for thread id.
func (e *Engine) Peer(id int) *Peer { return e.peers[id] }

// LPs returns all logical processes, indexed by LP id.
func (e *Engine) LPs() []*LP { return e.lps }

// PeakUncommittedEvents returns the high-water mark of uncommitted
// events — the run's state-saving memory demand.
func (e *Engine) PeakUncommittedEvents() int { return e.peakUncommitted }

// noteProcessed counts processed events and tracks their high-water
// mark. A rising peak only marks the gauge dirty: a traffic run rises
// 77,028 times, and the gauge takes a lock.
func (e *Engine) noteProcessed(n int) {
	e.uncommitted += n
	if e.uncommitted > e.peakUncommitted {
		e.peakUncommitted = e.uncommitted
		e.peakDirty = true
	}
}

// publishPeak sets the uncommitted-peak gauge if the peak has risen
// since it was last set; fossil collection and FlushPoolStats call it,
// where the pool counters are flushed.
func (e *Engine) publishPeak() {
	if e.peakDirty {
		e.peakDirty = false
		e.tel.uncommittedPeak.Set(float64(e.peakUncommitted))
	}
}

// GVT returns the engine's last published Global Virtual Time.
func (e *Engine) GVT() VT { return e.gvt }

// SetGVT publishes a newly computed GVT. It panics if GVT would move
// backwards — the monotonicity invariant of every GVT algorithm.
func (e *Engine) SetGVT(gvt VT) {
	if gvt < e.gvt {
		panic(fmt.Sprintf("tw: GVT moved backwards: %.6f -> %.6f", e.gvt, gvt))
	}
	e.gvt = gvt
	if e.cfg.Trace != nil {
		e.cfg.Trace.Add(trace.KindGVT, -1, gvt, 0)
	}
	if e.cfg.OnGVT != nil {
		e.cfg.OnGVT(gvt)
	}
}

// Done reports whether the simulation has completed (GVT has reached
// the end time), has been cancelled, or has been paused at a
// checkpoint boundary.
func (e *Engine) Done() bool { return e.cancelled || e.paused || e.gvt >= e.cfg.EndTime }

// Cancel requests early termination: Done becomes true immediately, so
// every simulation thread exits its main loop within one iteration —
// well inside one GVT round. The write is safe from the machine's
// driving goroutine because simulated threads only observe it between
// their serialized execution segments.
func (e *Engine) Cancel() { e.cancelled = true }

// Cancelled reports whether Cancel was called.
func (e *Engine) Cancelled() bool { return e.cancelled }

// EndTime returns the simulation end time.
func (e *Engine) EndTime() VT { return e.cfg.EndTime }

// horizon returns the current speculation bound: GVT + OptimismWindow,
// or +Inf with unbounded optimism.
func (e *Engine) horizon() VT {
	if w := e.cfg.OptimismWindow; w > 0 {
		return e.gvt + w
	}
	return math.Inf(1)
}

// nextSeq assigns the next global event sequence number. Execution is
// machine-serialized, so a plain counter is deterministic.
func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// scheduleInit inserts a starting event directly into the destination
// peer's pending set; initial events precede the simulation and carry
// no rollback bookkeeping.
func (e *Engine) scheduleInit(src, dst int, ts VT, kind uint8, a, b int64) {
	if dst < 0 || dst >= len(e.lps) {
		panic(fmt.Sprintf("tw: initial event for unknown LP %d", dst))
	}
	if ts < 0 {
		panic("tw: initial event with negative timestamp")
	}
	p := e.peers[e.lps[dst].Owner]
	ev := p.allocEvent()
	ev.Ts = ts
	ev.Seq = e.nextSeq()
	ev.Src = src
	ev.Dst = dst
	ev.Kind = kind
	ev.A = a
	ev.B = b
	ev.state = StatePending
	p.pending.Push(ev)
}

// send delivers a model-generated event to the destination peer's
// input queue, recording it on the causing event for anti-messages.
func (e *Engine) send(from *Peer, cause *Event, dst int, ts VT, kind uint8, a, b int64) {
	if dst < 0 || dst >= len(e.lps) {
		panic(fmt.Sprintf("tw: send to unknown LP %d", dst))
	}
	ev := from.allocEvent()
	ev.Ts = ts
	ev.Seq = e.nextSeq()
	ev.Src = cause.Dst
	ev.Dst = dst
	ev.Kind = kind
	ev.A = a
	ev.B = b
	ev.sib, cause.sent = cause.sent, ev
	dstPeer := e.peers[e.lps[dst].Owner]
	if dstPeer == from {
		// Same-thread delivery goes straight to the pending set, as in
		// shared-memory ROSS; the input queue is for remote senders.
		// A send below the destination LP's local virtual time is a
		// straggler handled immediately.
		lp := e.lps[dst]
		if lp.straggles(ev) {
			from.Stats.Stragglers++
			from.rollback(lp, ev)
		}
		ev.state = StatePending
		from.pending.Push(ev)
	} else if dstPeer.foreign {
		// Cross-shard send: the event travels by wire. The local copy
		// stays on the cause's sent list as a shadow — rollback targets
		// it exactly as in-process — and on the sender's shadow list,
		// while the destination shard materializes and owns the live
		// twin (see shard.go).
		e.outbox = append(e.outbox, WireEvent{
			Ts: ev.Ts, Seq: ev.Seq, Src: ev.Src, Dst: ev.Dst,
			Kind: ev.Kind, A: ev.A, B: ev.B,
		})
		from.listShadow(ev)
	} else {
		dstPeer.inq = append(dstPeer.inq, ev)
	}
	from.acc += e.cfg.Costs.SendCycles
	from.noteSent(ts)
}

// TotalStats sums peer statistics.
func (e *Engine) TotalStats() PeerStats {
	var s PeerStats
	for _, p := range e.peers {
		s.Processed += p.Stats.Processed
		s.RolledBack += p.Stats.RolledBack
		s.Committed += p.Stats.Committed
		s.Rollbacks += p.Stats.Rollbacks
		s.Stragglers += p.Stats.Stragglers
		s.AntiSent += p.Stats.AntiSent
		s.Annihilated += p.Stats.Annihilated
		s.Drained += p.Stats.Drained
		s.GVTCycles += p.Stats.GVTCycles
		s.GVTRounds += p.Stats.GVTRounds
	}
	return s
}

// CheckInvariants validates cross-cutting engine invariants; tests call
// it after (and during) runs. It returns the first violation found.
func (e *Engine) CheckInvariants() error {
	// Pool sweep: the store must hold only recycled, unlinked events,
	// and no live container may hold one (use-after-recycle in either
	// direction). The walk stops at the store's count, so an event
	// linked in twice — a cycle — fails it instead of hanging it.
	n := 0
	for ev := e.mem.events; ev != nil; ev = ev.next {
		if n++; n > e.mem.nEvents {
			return fmt.Errorf("store links more events than its count %d", e.mem.nEvents)
		}
		if ev.state != statePooled || ev.prev != nil || ev.sent != nil || ev.sib != nil {
			return fmt.Errorf("store holds live event %v", ev)
		}
	}
	if n != e.mem.nEvents {
		return fmt.Errorf("store links %d events, its count %d", n, e.mem.nEvents)
	}
	histories := 0
	for _, p := range e.peers {
		for _, lp := range p.lps {
			if err := e.checkHistory(lp); err != nil {
				return fmt.Errorf("lp %d %w", lp.ID, err)
			}
			histories += lp.n
		}
		for _, ev := range p.inq {
			if ev != nil && ev.state == statePooled {
				return fmt.Errorf("peer %d input queue holds recycled event %v", p.ID, ev)
			}
		}
		if err := p.checkShadows(); err != nil {
			return fmt.Errorf("peer %d %w", p.ID, err)
		}
	}
	// Every processed event sits in exactly one history. The count a
	// shard or coordinator engine keeps also covers peers hosted in
	// other processes, whose histories it does not hold.
	local := e.remote == nil && !e.sharded()
	if histories > e.uncommitted || local && histories != e.uncommitted {
		return fmt.Errorf("histories hold %d events, uncommitted count %d", histories, e.uncommitted)
	}
	if !math.IsInf(e.gvt, 0) {
		for _, p := range e.peers {
			if ev := p.peekLive(); ev != nil && ev.Ts < e.gvt {
				return fmt.Errorf("peer %d pending event %v below GVT %.6f", p.ID, ev, e.gvt)
			}
		}
	}
	return nil
}

// checkHistory validates an LP's history in both directions: walked
// from head along next it holds lp.n events and ends at last, and every
// event's prev is the one the walk came from, so walking back from last
// visits the same events; they are the LP's own, processed, in
// ascending order; and the inline key is last's.
func (e *Engine) checkHistory(lp *LP) error {
	n := 0
	var prev *Event
	for ev := lp.head; ev != nil; prev, ev = ev, ev.next {
		if n++; n > lp.n {
			return fmt.Errorf("history is longer than its count %d", lp.n)
		}
		if ev.prev != prev {
			return fmt.Errorf("history links disagree at %v", ev)
		}
		if prev != nil && !prev.before(ev) {
			return fmt.Errorf("history order violated at %d: %v !< %v", n-1, prev, ev)
		}
		if ev.state != StateProcessed {
			return fmt.Errorf("history holds %v (state %s)", ev, ev.state)
		}
		if ev.Dst != lp.ID {
			return fmt.Errorf("history holds foreign event %v", ev)
		}
		// The sent lists of events that can still roll back (at or above
		// GVT) must hold only live events: a rollback walks them. Below
		// GVT a list may run through an already-recycled event, which is
		// benign — the reference discipline guarantees it is never
		// walked again.
		if ev.Ts >= e.gvt {
			for s := ev.sent; s != nil; s = s.sib {
				if s.state == statePooled {
					return fmt.Errorf("event %v sent list holds recycled %v", ev, s)
				}
			}
		}
	}
	if n != lp.n || prev != lp.last {
		return fmt.Errorf("history of %d events ends at %v, count %d and last %v", n, prev, lp.n, lp.last)
	}
	if l := lp.last; l != nil && (lp.lastTs != l.Ts || lp.lastSeq != l.Seq) {
		return fmt.Errorf("inline key (%v, %d) is not last's %v", lp.lastTs, lp.lastSeq, l)
	}
	return nil
}
