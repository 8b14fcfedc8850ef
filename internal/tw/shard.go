package tw

import (
	"fmt"
	"math"
)

// Multi-process sharding. A distributed run splits one engine's peers
// across worker processes while keeping the byte-identical-trajectory
// guarantee. The trick is an exact control/data split:
//
//   - The coordinator process runs the unmodified machine, scheduler
//     and GVT algorithm over a "hollow" engine: its peers hold no event
//     state, and every public peer operation forwards over a
//     RemoteTransport to the worker hosting the real shard, at the
//     exact logical point the in-process call would have run. Because
//     machine execution is serialized and each forwarded call completes
//     before the next, the global interleaving of engine operations is
//     identical to the in-process run by construction.
//
//   - Each worker process hosts a full-topology engine whose peers
//     outside its shard are marked foreign: they hold no event state,
//     and sends routed to them are collected as WireEvents (the outbox)
//     for the coordinator to relay instead of being delivered locally.
//
// Engine-global scalars (sequence counter, GVT, uncommitted counts)
// are owned by the coordinator and threaded through every forwarded
// operation as an Envelope, so sequence numbers are assigned in the
// same global order as in-process and worker-side peak tracking sees
// globally correct values.
//
// Cross-shard event identity: a positive send to a foreign peer
// allocates a local shadow event exactly like an in-process send (same
// pool counters, same sequence number) and keeps it on the cause's sent
// list so rollback targets it normally — but the shadow is never
// delivered or freed locally; the destination shard materializes a
// twin from the wire and owns its lifecycle from there. Anti-messages
// travel by TargetSeq; the destination resolves them through
// remoteIdx, its seq-to-twin table.

// RemoteTransport forwards a hollow peer's operations to the worker
// process hosting the real shard. Implementations perform the
// operation remotely, apply the returned Envelope and peer statistics
// to the local engine, relay any produced wire events, and charge cpu
// with exactly the cycles the remote operation charged.
type RemoteTransport interface {
	InputSize(peer int) int
	HasWork(peer int) bool
	HasExecutableWork(peer int) bool
	Drain(peer int, cpu CPU) int
	ProcessBatch(peer int, cpu CPU) int
	LocalMin(peer int, cpu CPU) VT
	RemoteMin(peer int) VT
	TakeMinSent(peer int) VT
	PeekMinSent(peer int) VT
	FossilCollect(peer int, cpu CPU, gvt VT) int

	// Fused pairs (see fused.go): the transport must run the two
	// constituent operations in their in-process order — one coalesced
	// frame for a batching transport, two round trips otherwise.
	DrainProcess(peer int, cpu CPU) (drained, processed int)
	DrainLocalMin(peer int, cpu CPU) (drained int, min VT)
	CutMins(peer int, cpu CPU) (minSent, localMin VT)
	ScanMins(peer int) (remoteMin, peekMinSent VT)
}

// Envelope is the engine-global scalar state threaded through every
// forwarded operation: the coordinator holds the master copy, the
// worker applies it before the operation and returns the updated
// values after. GVT rides along raw — applying it must not re-fire
// publication hooks, which belong to the coordinator.
type Envelope struct {
	Seq             uint64 `json:"seq"`
	GVT             VT     `json:"gvt"`
	Uncommitted     int    `json:"uncommitted"`
	PeakUncommitted int    `json:"peak_uncommitted"`
}

// EnvelopeOut snapshots the engine-global scalars.
func (e *Engine) EnvelopeOut() Envelope {
	return Envelope{
		Seq:             e.seq,
		GVT:             e.gvt,
		Uncommitted:     e.uncommitted,
		PeakUncommitted: e.peakUncommitted,
	}
}

// ApplyEnvelope installs coordinator-owned global scalars without
// firing any publication hooks (trace, OnGVT): those run on the
// coordinator, which owns the canonical run.
func (e *Engine) ApplyEnvelope(env Envelope) {
	e.seq = env.Seq
	e.gvt = env.GVT
	e.uncommitted = env.Uncommitted
	e.peakUncommitted = env.PeakUncommitted
}

// WireEvent is a cross-shard event or anti-message in transit. A
// positive event carries the full payload; an anti-message carries the
// sequence number of the event it annihilates, which the destination
// shard resolves through its remoteIdx table.
type WireEvent struct {
	Ts        VT     `json:"ts"`
	Seq       uint64 `json:"seq"`
	Src       int    `json:"src"`
	Dst       int    `json:"dst"`
	Kind      uint8  `json:"kind,omitempty"`
	A         int64  `json:"a,omitempty"`
	B         int64  `json:"b,omitempty"`
	Anti      bool   `json:"anti,omitempty"`
	TargetSeq uint64 `json:"target_seq,omitempty"`
}

// Shardify marks every peer outside [lo, hi) as foreign on a worker
// engine. Foreign peers drop their event state (the owning worker
// holds the real copies) and zero their pool accounting, so summing
// pool counters across all workers reproduces the in-process totals
// exactly; sends routed to them are collected in the outbox instead of
// delivered. Call it once, directly after NewEngine or
// NewEngineFromState.
func (e *Engine) Shardify(lo, hi int) error {
	if lo < 0 || hi > len(e.peers) || lo >= hi {
		return fmt.Errorf("tw: shard range [%d, %d) outside peers [0, %d)", lo, hi, len(e.peers))
	}
	e.shardLo, e.shardHi = lo, hi
	e.remoteIdx = make(map[uint64]*Event)
	for i, p := range e.peers {
		if i >= lo && i < hi {
			continue
		}
		p.foreign = true
		p.dropEvents()
	}
	return nil
}

// HollowAll turns a coordinator engine into pure control state: every
// peer drops its event state (peers keep their cumulative Stats, which
// the transport maintains from worker responses) and all public peer
// operations forward through rt. The engine keeps ownership of the
// global scalars — GVT publication, Done, sequence numbering.
func (e *Engine) HollowAll(rt RemoteTransport) {
	e.remote = rt
	for _, p := range e.peers {
		p.dropEvents()
	}
}

// sharded reports whether Shardify has handed some of the engine's
// peers to other processes.
func (e *Engine) sharded() bool { return e.shardHi-e.shardLo < len(e.peers) }

// dropEvents discards a peer's event state without recycling anything:
// the authoritative copies live in another process, so freeing here
// would corrupt the pool accounting that the sharded engines keep in
// exact correspondence with an in-process run.
func (p *Peer) dropEvents() {
	p.inq = nil
	p.pending = newPendingQueue(0)
	p.pooled = 0
	p.pool = poolStats{}
	p.quiesced = nil
	p.acc = 0
	p.minSent = math.Inf(1)
}

// TakeOutbox returns and clears the wire events produced by operations
// since the last call, in production order. The caller must relay them
// to their destination shards before running the next operation, so
// destination input-queue order matches the in-process run — and
// because the next operation reuses the returned slice's storage.
func (e *Engine) TakeOutbox() []WireEvent {
	if len(e.outbox) == 0 {
		return nil
	}
	out := e.outbox
	e.outbox = e.outbox[:0]
	return out
}

// AppendQuietSet appends the local shard's quiet set to dst: one bit
// per shard peer in peer order, least significant bit first, set when
// Peer.Quiet holds; QuietSetLen bytes for a shard of that many peers.
func (e *Engine) AppendQuietSet(dst []byte) []byte {
	base := len(dst)
	for i, p := range e.peers[e.shardLo:e.shardHi] {
		if i&7 == 0 {
			dst = append(dst, 0)
		}
		if p.Quiet() {
			dst[base+i>>3] |= 1 << (i & 7)
		}
	}
	return dst
}

// QuietSetLen is the byte length of a quiet set over n peers.
func QuietSetLen(n int) int { return (n + 7) / 8 }

// QuietSetHas reports whether the i-th shard peer is in the quiet set.
func QuietSetHas(set []byte, i int) bool { return set[i>>3]>>(i&7)&1 != 0 }

// InjectRemote materializes a relayed wire event into the owning local
// peer's input queue. Positive events build a twin of the sender-side
// shadow (same identity, zero bookkeeping — exactly what an in-process
// delivery would have enqueued) and register it for future
// anti-message resolution; antis resolve their target through that
// table.
func (e *Engine) InjectRemote(w WireEvent) error {
	if w.Dst < 0 || w.Dst >= len(e.lps) {
		return fmt.Errorf("tw: remote event for unknown LP %d", w.Dst)
	}
	dst := e.peers[e.lps[w.Dst].Owner]
	if dst.foreign {
		return fmt.Errorf("tw: remote event for LP %d routed to foreign peer %d", w.Dst, dst.ID)
	}
	if w.Anti {
		target := e.remoteIdx[w.TargetSeq]
		if target == nil {
			return fmt.Errorf("tw: remote anti-message for unknown event seq %d", w.TargetSeq)
		}
		anti := &Event{Ts: w.Ts, Seq: w.Seq, Src: w.Src, Dst: w.Dst, Anti: true, Target: target}
		dst.inq = append(dst.inq, anti)
		return nil
	}
	ev := &Event{Ts: w.Ts, Seq: w.Seq, Src: w.Src, Dst: w.Dst, Kind: w.Kind, A: w.A, B: w.B}
	if e.remoteIdx == nil {
		e.remoteIdx = make(map[uint64]*Event)
	}
	e.remoteIdx[w.Seq] = ev
	dst.inq = append(dst.inq, ev)
	return nil
}
