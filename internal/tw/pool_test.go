package tw

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"ggpdes/internal/pq"
	"ggpdes/internal/telemetry"
)

// The pooling gold test: recycling event and snapshot memory must not
// change a single bit of the committed trajectory, for every pending
// queue kind, both state-saving modes, and both cancellation policies,
// under a rollback-heavy interleaving.
func TestPoolingPreservesTrajectories(t *testing.T) {
	order := []int{0, 0, 0, 0, 0, 1, 3, 2}
	type combo struct {
		queue  pq.Kind
		saving SavePolicy
		lazy   bool
	}
	run := func(c combo, disable bool) (uint64, []int, []float64, PeerStats) {
		eng, err := NewEngine(Config{
			NumThreads:       4,
			Model:            &reversibleRing{ringModel{lpsPerThread: 4, startPerLP: 2}},
			EndTime:          25,
			Seed:             777,
			QueueKind:        c.queue,
			StateSaving:      c.saving,
			LazyCancellation: c.lazy,
			DisablePooling:   disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		runQuiescent(t, eng, order)
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("%+v disable=%v: %v", c, disable, err)
		}
		committed, counts, sums := collectResults(eng)
		return committed, counts, sums, eng.TotalStats()
	}
	sawRollback, sawRecycle := false, false
	for _, queue := range []pq.Kind{pq.Splay, pq.Heap, pq.Calendar} {
		for _, saving := range []SavePolicy{SaveCopy, SaveReverse} {
			for _, lazy := range []bool{false, true} {
				c := combo{queue, saving, lazy}
				t.Run(fmt.Sprintf("%v-%s-lazy%v", queue, saving, lazy), func(t *testing.T) {
					onCommitted, onCounts, onSums, onStats := run(c, false)
					offCommitted, offCounts, offSums, offStats := run(c, true)
					if onStats.RolledBack > 0 {
						sawRollback = true
					}
					if onCommitted != offCommitted {
						t.Fatalf("pooled committed %d != unpooled %d", onCommitted, offCommitted)
					}
					for i := range onCounts {
						if onCounts[i] != offCounts[i] || math.Abs(onSums[i]-offSums[i]) > 0 {
							t.Fatalf("LP %d pooled state (%d, %v) != unpooled (%d, %v)",
								i, onCounts[i], onSums[i], offCounts[i], offSums[i])
						}
					}
					if onStats != offStats {
						t.Fatalf("pooled stats %+v != unpooled %+v", onStats, offStats)
					}
					if onStats.RolledBack > 0 {
						sawRecycle = true
					}
				})
			}
		}
	}
	if !sawRollback {
		t.Fatal("matrix produced no rollbacks; test exercises nothing")
	}
	_ = sawRecycle
}

// Pool traffic must actually happen: after a run with rollbacks and
// fossil collection, the telemetry counters show recycled events being
// served back out of the freelists.
func TestPoolCountersShowRecycling(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng, err := NewEngine(Config{
		NumThreads: 4,
		Model:      &ringModel{lpsPerThread: 4, startPerLP: 2},
		EndTime:    50,
		Seed:       42,
		Telemetry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	runQuiescent(t, eng, []int{0, 1, 2, 3})
	eng.FlushPoolStats()
	c := reg.Counters()
	if c[MetricPoolEventRecycled] == 0 {
		t.Fatal("no events were recycled")
	}
	if c[MetricPoolEventHit] == 0 {
		t.Fatal("no event allocation was served from a freelist")
	}
	if c[MetricPoolStateRecycled] == 0 || c[MetricPoolStateHit] == 0 {
		t.Fatalf("no snapshot recycling: %v", c)
	}
	if c[MetricPoolEventMiss] == 0 {
		t.Fatal("expected warm-up misses before the pools filled")
	}
}

// With pooling disabled, nothing must enter the freelists and the
// counters must stay zero — the A/B measurement baseline is honest.
func TestDisablePoolingDisables(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng, err := NewEngine(Config{
		NumThreads:     2,
		Model:          &ringModel{lpsPerThread: 2, startPerLP: 2},
		EndTime:        20,
		Seed:           42,
		Telemetry:      reg,
		DisablePooling: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	runQuiescent(t, eng, []int{0, 1})
	eng.FlushPoolStats()
	c := reg.Counters()
	if c[MetricPoolEventHit] != 0 || c[MetricPoolEventRecycled] != 0 ||
		c[MetricPoolStateHit] != 0 || c[MetricPoolStateRecycled] != 0 {
		t.Fatalf("pooling traffic despite DisablePooling: %v", c)
	}
	for _, p := range eng.Peers() {
		if len(p.freeEvents) != 0 {
			t.Fatalf("peer %d freelist non-empty with pooling disabled", p.ID)
		}
		// No chunks either: one object per allocation, so the unpooled
		// arm of every A/B is the plain allocator.
		if p.eventChunk != nil || p.eventChunkLen != 0 || p.stateChunk.typ != nil || p.stateChunk.len != 0 {
			t.Fatalf("peer %d carved from a chunk with pooling disabled", p.ID)
		}
		if ev := p.allocEvent(); cap(ev.sent) != 0 {
			t.Fatalf("peer %d: unpooled event came with a send list", p.ID)
		}
	}
	if c[MetricPoolEventMiss] == 0 || c[MetricPoolStateMiss] == 0 {
		t.Fatalf("vacuous: no misses counted: %v", c)
	}
}

// Double-freeing an event must panic immediately — the poison state
// catches lifecycle bugs at the free site, not at some later corrupted
// reuse.
func TestPoolDoubleFreePanics(t *testing.T) {
	eng := newTestEngine(t, 1, 1, 1, 10)
	p := eng.Peer(0)
	ev := p.allocEvent()
	p.freeEvent(ev)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	p.freeEvent(ev)
}

// A recycled event flowing back into a live structure must be caught:
// allocEvent panics on a corrupted freelist, and CheckInvariants sweeps
// the reachable containers in both directions.
func TestPoolUseAfterRecycleDetected(t *testing.T) {
	t.Run("corrupted-freelist", func(t *testing.T) {
		eng := newTestEngine(t, 1, 1, 1, 10)
		p := eng.Peer(0)
		live := p.allocEvent()
		p.freeEvents = append(p.freeEvents, live) // not via freeEvent: still live
		if err := eng.CheckInvariants(); err == nil {
			t.Fatal("CheckInvariants missed a live event on the freelist")
		}
		defer func() {
			if recover() == nil {
				t.Fatal("allocEvent accepted a live freelist entry")
			}
		}()
		p.allocEvent()
	})
	t.Run("pooled-in-input-queue", func(t *testing.T) {
		eng := newTestEngine(t, 1, 1, 1, 10)
		p := eng.Peer(0)
		ev := p.allocEvent()
		p.freeEvent(ev)
		p.inq = append(p.inq, ev)
		if err := eng.CheckInvariants(); err == nil {
			t.Fatal("CheckInvariants missed a recycled event in the input queue")
		}
	})
}

// Recycled events must come back fully reset: stale payload, undo
// words, targets or send lists leaking across lifetimes would be a
// silent correctness bug, so the pool poisons and clears everything.
func TestPoolResetsRecycledEvents(t *testing.T) {
	eng := newTestEngine(t, 1, 1, 1, 10)
	p := eng.Peer(0)
	ev := p.allocEvent()
	ev.Ts, ev.Seq, ev.Src, ev.Dst, ev.Kind = 3.5, 99, 1, 2, 7
	ev.A, ev.B, ev.undo = 11, 22, 33
	ev.Anti = true
	ev.Target = &Event{}
	ev.sent = append(ev.sent, &Event{})
	ev.tentative = append(ev.tentative, &Event{})
	ev.state = StateInQueue
	p.freeEvent(ev)
	if ev.state != statePooled || !math.IsInf(ev.Ts, -1) {
		t.Fatalf("freed event not poisoned: %v", ev)
	}
	got := p.allocEvent()
	if got != ev {
		t.Fatal("freelist did not return the recycled event")
	}
	if got.Seq != 0 || got.Src != 0 || got.Dst != 0 || got.Kind != 0 ||
		got.A != 0 || got.B != 0 || got.undo != 0 || got.Anti || got.Target != nil {
		t.Fatalf("recycled event carries stale fields: %+v", got)
	}
	if len(got.sent) != 0 || len(got.tentative) != 0 {
		t.Fatal("recycled event carries stale send lists")
	}
	if cap(got.sent) == 0 || cap(got.tentative) == 0 {
		t.Fatal("recycling dropped the send-list backing arrays")
	}
}

// poison resets an event field by field, so a field added to Event and
// forgotten there would leak across lifetimes. Every field of a dirty
// event must be set here (the loop over the type insists), and after
// poison every one must read as a freed event's: the two sentinels, the
// send lists emptied in place with their arrays kept and cleared, and
// zero everywhere else.
func TestPoisonResetsEveryField(t *testing.T) {
	other := &Event{}
	ev := &Event{
		Ts: 3.5, Seq: 99, Src: 1, Dst: 2, Kind: 7, Anti: true, state: StateProcessed,
		Target: other, A: 11, B: 22, undo: 33, prev: other, next: other,
		saved:     Snapshot{state: &ringState{Count: 1}, lvt: 2},
		sent:      []*Event{other, other},
		tentative: []*Event{other},
		inline:    [1]*Event{other},
	}
	v := reflect.ValueOf(ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("the dirty event leaves Event.%s zero: set it here, and reset it in poison", v.Type().Field(i).Name)
		}
	}
	sent, tentative := ev.sent, ev.tentative
	ev.poison()
	for i := 0; i < v.NumField(); i++ {
		switch name := v.Type().Field(i).Name; name {
		case "Ts", "state", "sent", "tentative":
		default:
			if !v.Field(i).IsZero() {
				t.Errorf("poison left Event.%s = %v", name, v.Field(i))
			}
		}
	}
	if !math.IsInf(ev.Ts, -1) || ev.state != statePooled {
		t.Errorf("poisoned event has Ts %v, state %v", ev.Ts, ev.state)
	}
	if len(ev.sent) != 0 || cap(ev.sent) != 2 || len(ev.tentative) != 0 || cap(ev.tentative) != 1 ||
		sent[0] != nil || sent[1] != nil || tentative[0] != nil {
		t.Errorf("send lists not emptied in place: sent %v (cap %d), tentative %v (cap %d)",
			sent, cap(ev.sent), tentative, cap(ev.tentative))
	}
}

// A miss carves from the peer's chunk, and what it carves is an event
// like any other: counted as a miss, poisoned when freed, swept by
// CheckInvariants in both directions, handed back as a hit with its
// send-list capacity, and caught when freed twice.
func TestChunkCarvedEventIsOrdinary(t *testing.T) {
	eng := newTestEngine(t, 1, 1, 1, 10)
	p := eng.Peer(0)
	misses := p.pool.eventMiss
	a, b := p.allocEvent(), p.allocEvent()
	if p.pool.eventMiss != misses+2 || p.pool.eventHit != 0 {
		t.Fatalf("two cold allocations counted %d misses, %d hits", p.pool.eventMiss-misses, p.pool.eventHit)
	}
	if uintptr(unsafe.Pointer(b))-uintptr(unsafe.Pointer(a)) != unsafe.Sizeof(Event{}) {
		t.Fatal("consecutive misses are not neighbours in one chunk")
	}
	if len(a.sent) != 0 || cap(a.sent) != len(a.inline) || &a.sent[:1][0] != &a.inline[0] {
		t.Fatal("a carved event's sent list does not alias its inline array")
	}
	if a.state != StateInQueue || a.Ts != 0 || a.Seq != 0 || a.Target != nil || a.saved != (Snapshot{}) {
		t.Fatalf("carved event is not zero: %+v", a)
	}
	// The first send stays inline; a second moves the list to the heap.
	a.sent = append(a.sent, b)
	if &a.sent[0] != &a.inline[0] {
		t.Fatal("the first send left the inline array")
	}
	a.sent = append(a.sent, b)
	p.freeEvent(a)
	if a.state != statePooled || !math.IsInf(a.Ts, -1) || len(a.sent) != 0 || cap(a.sent) < 2 || a.inline[0] != nil {
		t.Fatalf("freed carved event not poisoned: %+v", a)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	p.inq = append(p.inq, a)
	if err := eng.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants missed a recycled carved event in the input queue")
	}
	p.inq = p.inq[:0]
	if got := p.allocEvent(); got != a || p.pool.eventHit != 1 {
		t.Fatalf("freelist did not hand the carved event back as a hit (%d hits)", p.pool.eventHit)
	}
	p.freeEvent(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double free of a carved event did not panic")
		}
	}()
	p.freeEvent(a)
}

// Chunk lengths double from chunkMin to chunkMax, for events and for
// snapshots, so an idle peer holds a handful of slots and a busy one
// pays the allocator once per chunkMax objects.
func TestChunksGrowGeometrically(t *testing.T) {
	eng := newTestEngine(t, 1, 1, 1, 10)
	p, lp := eng.Peer(0), eng.LPs()[0]
	p.eventChunk, p.eventChunkLen = nil, 0 // forget the chunk the initial event came from
	var eventLens, stateLens []int
	for i := 0; i < chunkMin+2*chunkMin+4*chunkMin+2*chunkMax+1; i++ {
		p.allocEvent()
		if n := p.eventChunkLen; len(eventLens) == 0 || len(p.eventChunk) == n-1 {
			eventLens = append(eventLens, n)
		}
		lp.state.(*ringState).Count = i
		snap := p.acquireSnapshot(lp).(*ringState)
		if snap == lp.state || snap.Count != i {
			t.Fatalf("snapshot %d is %+v", i, snap)
		}
		if c := &p.stateChunk; c.next == 1 {
			stateLens = append(stateLens, c.len)
		}
	}
	want := []int{chunkMin, 2 * chunkMin, 4 * chunkMin, chunkMax, chunkMax, chunkMax}
	if fmt.Sprint(eventLens) != fmt.Sprint(want) || fmt.Sprint(stateLens) != fmt.Sprint(want) {
		t.Fatalf("chunk lengths: events %v, snapshots %v, want %v", eventLens, stateLens, want)
	}
	if allocs := testing.AllocsPerRun(chunkMax-2, func() { p.allocEvent(); p.acquireSnapshot(lp) }); allocs != 0 {
		t.Fatalf("a miss inside a chunk allocates %.2f times", allocs)
	}
}

// A sharded worker engine carves no events: the shadows of its
// cross-shard sends are never freed, and a chunk would keep every one
// of them for as long as any neighbour cycles through the freelist.
// Its snapshots never leave their peer and are carved as usual.
func TestShardedEngineCarvesNoEvents(t *testing.T) {
	eng := newTestEngine(t, 2, 1, 1, 10)
	if err := eng.Shardify(0, 1); err != nil {
		t.Fatal(err)
	}
	p, lp := eng.Peer(0), eng.LPs()[0]
	chunk := len(p.eventChunk)
	a, b := p.allocEvent(), p.allocEvent()
	if len(p.eventChunk) != chunk || cap(a.sent) != 0 || cap(b.sent) != 0 {
		t.Fatal("a sharded engine carved an event from a chunk")
	}
	if p.pool.eventMiss < 2 {
		t.Fatalf("misses not counted: %+v", p.pool)
	}
	first, second := p.acquireSnapshot(lp).(*ringState), p.acquireSnapshot(lp).(*ringState)
	if uintptr(unsafe.Pointer(second))-uintptr(unsafe.Pointer(first)) != unsafe.Sizeof(ringState{}) {
		t.Fatal("a sharded engine's snapshots are not carved from a chunk")
	}
}

// cloneOnly is a state that cannot be overwritten in place.
type cloneOnly struct{ n int }

func (s *cloneOnly) Clone() State { c := *s; return &c }

// otherCopier is a second StateCopier type on the same peer.
type otherCopier struct{ n int }

func (s *otherCopier) Clone() State       { c := *s; return &c }
func (s *otherCopier) CopyFrom(src State) { *s = *src.(*otherCopier) }

// The snapshot chunk serves the peer's pooled state type, fixed when
// the engine is built; a state that only Clones, or one of a second
// type, gets what it always got.
func TestSnapshotChunkFallsBackToClone(t *testing.T) {
	eng := newTestEngine(t, 1, 2, 1, 10)
	p, lp0, lp1 := eng.Peer(0), eng.LPs()[0], eng.LPs()[1]
	lp0.state = &cloneOnly{n: 7}
	if got := p.acquireSnapshot(lp0).(*cloneOnly); got == lp0.state || got.n != 7 {
		t.Fatalf("clone-only snapshot is %+v", got)
	}
	if p.stateChunk.typ != reflect.TypeOf(lp1.state) || p.stateChunk.next != 0 {
		t.Fatal("a clone-only state was carved from the snapshot chunk")
	}
	first := p.acquireSnapshot(lp1).(*ringState)
	lp0.state = &otherCopier{n: 9}
	other := p.acquireSnapshot(lp0)
	second := p.acquireSnapshot(lp1).(*ringState)
	if o, ok := other.(*otherCopier); !ok || o == lp0.state || o.n != 9 || p.stateChunk.typ != reflect.TypeOf(first) {
		t.Fatalf("second state type: got %T, chunk serves %v", other, p.stateChunk.typ)
	}
	if uintptr(unsafe.Pointer(second))-uintptr(unsafe.Pointer(first)) != unsafe.Sizeof(ringState{}) {
		t.Fatal("the second type's snapshot was carved from the first type's chunk")
	}
	if p.pool.stateMiss != 4 {
		t.Fatalf("four cold snapshots counted %d misses", p.pool.stateMiss)
	}
}

// The fields every queue walk, drain and commit reads sit in the
// event's first 64 bytes, ahead of the history links, and the event is
// as large as it is on purpose: the links took it from 168 to 184
// bytes, and 64 of them fill a 12,288 byte size class to within 5 %.
func TestEventLayout(t *testing.T) {
	var ev Event
	if got := unsafe.Sizeof(ev); got != 184 {
		t.Errorf("Event is %d bytes, want 184", got)
	}
	if unsafe.Offsetof(ev.prev) < 64 {
		t.Errorf("Event.prev starts at byte %d, inside the first cache line", unsafe.Offsetof(ev.prev))
	}
	for name, end := range map[string]uintptr{
		"Ts":     unsafe.Offsetof(ev.Ts) + unsafe.Sizeof(ev.Ts),
		"Seq":    unsafe.Offsetof(ev.Seq) + unsafe.Sizeof(ev.Seq),
		"Dst":    unsafe.Offsetof(ev.Dst) + unsafe.Sizeof(ev.Dst),
		"Kind":   unsafe.Offsetof(ev.Kind) + unsafe.Sizeof(ev.Kind),
		"Anti":   unsafe.Offsetof(ev.Anti) + unsafe.Sizeof(ev.Anti),
		"state":  unsafe.Offsetof(ev.state) + unsafe.Sizeof(ev.state),
		"Target": unsafe.Offsetof(ev.Target) + unsafe.Sizeof(ev.Target),
	} {
		if end > 64 {
			t.Errorf("Event.%s ends at byte %d, outside the first cache line", name, end)
		}
	}
}

// BenchmarkPoolMiss is what one executed event costs a peer whose pools
// are empty — the event it sends, that send's slot in its sent list,
// and the snapshot taken before it ran — from chunks, and from the
// plain allocator DisablePooling keeps as the reference. As in a run,
// what is allocated stays live: each engine serves a few thousand
// misses, a benchmark-scale peer's working set, and is then dropped.
func BenchmarkPoolMiss(b *testing.B) {
	const perEngine = 4096
	for _, arm := range []struct {
		name    string
		disable bool
	}{{"chunks", false}, {"DisablePooling", true}} {
		b.Run(arm.name, func(b *testing.B) {
			var p *Peer
			var lp *LP
			live := make([]*Event, perEngine)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%perEngine == 0 {
					b.StopTimer()
					eng, err := NewEngine(Config{
						NumThreads: 1, Model: &ringModel{lpsPerThread: 1, startPerLP: 1},
						EndTime: 10, Seed: 1, DisablePooling: arm.disable,
					})
					if err != nil {
						b.Fatal(err)
					}
					p, lp = eng.Peer(0), eng.LPs()[0]
					b.StartTimer()
				}
				cause, sent := p.allocEvent(), p.allocEvent()
				cause.sent = append(cause.sent, sent)
				cause.saved.state = p.acquireSnapshot(lp)
				live[i%perEngine] = cause
			}
		})
	}
}

// BenchmarkPoolRecycle is the hit path: free an event and take one
// back, over a working set of events that does not fit the cache — what
// fossil collection and the next send do once the pools are warm, and
// where poison's cost shows.
func BenchmarkPoolRecycle(b *testing.B) {
	eng, err := NewEngine(Config{NumThreads: 1, Model: &ringModel{lpsPerThread: 1, startPerLP: 1}, EndTime: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := eng.Peer(0)
	const n = 1 << 15
	evs := make([]*Event, n)
	for i := range evs {
		evs[i] = p.allocEvent()
		evs[i].sent = append(evs[i].sent, evs[0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := (i * 7919) & (n - 1)
		p.freeEvent(evs[k])
		ev := p.allocEvent()
		ev.sent = append(ev.sent, evs[0])
		evs[k] = ev
	}
}
