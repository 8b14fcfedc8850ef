package tw

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"ggpdes/internal/telemetry"
)

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
// allocEvent panics on a corrupted store, and CheckInvariants sweeps
// the reachable containers in both directions.
func TestPoolUseAfterRecycleDetected(t *testing.T) {
	t.Run("corrupted-freelist", func(t *testing.T) {
		eng := newTestEngine(t, 1, 1, 1, 10)
		p := eng.Peer(0)
		live := p.allocEvent()
		eng.mem.events = append(eng.mem.events, live) // not via freeEvent: still live
		if err := eng.CheckInvariants(); err == nil {
			t.Fatal("CheckInvariants missed a live event in the store")
		}
		defer func() {
			if recover() == nil {
				t.Fatal("allocEvent accepted a live store entry")
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

// Recycled events must come back fully reset: stale payload, targets or send lists leaking across lifetimes would be a
// silent correctness bug, so the pool poisons and clears everything.
func TestPoolResetsRecycledEvents(t *testing.T) {
	eng := newTestEngine(t, 1, 1, 1, 10)
	p := eng.Peer(0)
	ev := p.allocEvent()
	ev.Ts, ev.Seq, ev.Src, ev.Dst, ev.Kind = 3.5, 99, 1, 2, 7
	ev.A, ev.B = 11, 22
	ev.Anti = true
	ev.Target = &Event{}
	ev.sent = append(ev.sent, &Event{})
	ev.state = StateInQueue
	p.freeEvent(ev)
	if ev.state != statePooled || !math.IsInf(ev.Ts, -1) {
		t.Fatalf("freed event not poisoned: %v", ev)
	}
	got := p.allocEvent()
	if got != ev {
		t.Fatal("the store did not return the recycled event")
	}
	if got.Seq != 0 || got.Src != 0 || got.Dst != 0 || got.Kind != 0 ||
		got.A != 0 || got.B != 0 || got.Anti || got.Target != nil {
		t.Fatalf("recycled event carries stale fields: %+v", got)
	}
	if len(got.sent) != 0 {
		t.Fatal("recycled event carries a stale send list")
	}
	if cap(got.sent) == 0 {
		t.Fatal("recycling dropped the send-list backing array")
	}
}

// poison resets an event field by field, so a field added to Event and
// forgotten there would leak across lifetimes. Every field of a dirty
// event must be set here (the loop over the type insists), and after
// poison every one must read as a freed event's: the two sentinels, the
// send list emptied in place with its array kept and cleared, and zero
// everywhere else.
func TestPoisonResetsEveryField(t *testing.T) {
	other := &Event{}
	ev := &Event{
		Ts: 3.5, Seq: 99, Src: 1, Dst: 2, Kind: 7, Anti: true, state: StateProcessed,
		Target: other, A: 11, B: 22, prev: other, next: other,
		saved:  Snapshot{state: &ringState{Count: 1}, lvt: 2},
		sent:   []*Event{other, other},
		inline: [1]*Event{other},
	}
	v := reflect.ValueOf(ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("the dirty event leaves Event.%s zero: set it here, and reset it in poison", v.Type().Field(i).Name)
		}
	}
	sent := ev.sent
	ev.poison()
	for i := 0; i < v.NumField(); i++ {
		switch name := v.Type().Field(i).Name; name {
		case "Ts", "state", "sent":
		default:
			if !v.Field(i).IsZero() {
				t.Errorf("poison left Event.%s = %v", name, v.Field(i))
			}
		}
	}
	if !math.IsInf(ev.Ts, -1) || ev.state != statePooled {
		t.Errorf("poisoned event has Ts %v, state %v", ev.Ts, ev.state)
	}
	if len(ev.sent) != 0 || cap(ev.sent) != 2 || sent[0] != nil || sent[1] != nil {
		t.Errorf("send list not emptied in place: %v (cap %d)", sent, cap(ev.sent))
	}
}

// A miss carves from the engine's chunk, and what it carves is an event
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
		t.Fatalf("the store did not hand the carved event back as a hit (%d hits)", p.pool.eventHit)
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
// snapshots, so an idle engine holds a handful of slots and a busy one
// pays the allocator once per chunkMax objects.
func TestChunksGrowGeometrically(t *testing.T) {
	eng := newTestEngine(t, 1, 1, 1, 10)
	p, lp, m := eng.Peer(0), eng.LPs()[0], &eng.mem
	m.eventChunk, m.eventChunkLen = nil, 0 // forget the chunk the initial event came from
	var eventLens, stateLens []int
	for i := 0; i < chunkMin+2*chunkMin+4*chunkMin+2*chunkMax+1; i++ {
		p.allocEvent()
		if n := m.eventChunkLen; len(eventLens) == 0 || len(m.eventChunk) == n-1 {
			eventLens = append(eventLens, n)
		}
		lp.state.(*ringState).Count = i
		snap := p.acquireSnapshot(lp).(*ringState)
		if snap == lp.state || snap.Count != i {
			t.Fatalf("snapshot %d is %+v", i, snap)
		}
		if c := &m.stateChunk; c.next == 1 {
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

// movingModel moves its load from thread to thread, the way 1-K
// imbalanced PHOLD does under a moving active group, without its
// randomness: token k lives on LP k of one peer, steps one time unit
// per event, and crosses to LP k of the next peer every window time
// units. Each LP only ever receives its own token's events, in time
// order, so nothing straggles and nothing is ever cancelled.
type movingModel struct{ tokens, window int }

type movingState struct{ n int }

func (s *movingState) Clone() State       { c := *s; return &c }
func (s *movingState) CopyFrom(src State) { *s = *src.(*movingState) }

func (m *movingModel) LPsPerThread() int { return m.tokens }

func (m *movingModel) InitLP(ic *InitCtx, lp *LP) {
	lp.SetState(&movingState{})
	if lp.ID < m.tokens {
		ic.ScheduleInit(lp.ID, 0.01*float64(lp.ID+1), 0, 0, 0)
	}
}

func (m *movingModel) OnEvent(ctx *EventCtx) {
	ctx.LP().State().(*movingState).n++
	next := ctx.Now() + 1
	peer := int(next) / m.window % (len(ctx.Engine().LPs()) / m.tokens)
	ctx.Send(peer*m.tokens+ctx.LP().ID%m.tokens, next, 0, 0, 0)
}

// Under a moving load the engine carves about its live set, not its
// live set once per thread group. The bound: an allocation carves only
// when the store is empty, so at every carve each object carved so far
// is live — pending, in an input queue, or processed and uncommitted.
// Here every event sends exactly one, so at most the tokens' events are
// pending or in transit while the others sit in histories: the carved
// events are at most peak uncommitted + tokens, and a snapshot is live
// only in a history, so the carved snapshots are at most peak
// uncommitted. A chunk is carved whole, so the memory behind them is
// at most one chunk more. Each peer still counts its own hits and
// misses — every thread group that takes the load misses as it always
// did — so the counters show far more misses than carved events. With a
// store per peer each of the eight groups carved its own in-flight set:
// 8 x (peak + tokens) and a chunk each.
func TestMovingLoadCarvesItsLiveSet(t *testing.T) {
	const peers, tokens, window = 8, 16, 10
	eng, err := NewEngine(Config{
		NumThreads: peers, Model: &movingModel{tokens: tokens, window: window},
		EndTime: 2*peers*window + 5, Seed: 1, BatchSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	cpu := &fakeCPU{}
	for round := 0; !eng.Done(); round++ {
		if round == 10_000 {
			t.Fatal("the run does not finish")
		}
		for _, p := range eng.peers {
			p.DrainProcess(cpu)
		}
		gvt := eng.EndTime()
		for _, p := range eng.peers {
			sent, local := p.CutMins(cpu)
			gvt = min(gvt, sent, local)
		}
		eng.SetGVT(gvt)
		for _, p := range eng.peers {
			p.FossilCollect(cpu, gvt)
		}
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Pooled objects never leave the engine: every one it carved is now
	// in its store or still live.
	m := &eng.mem
	events, states := map[*Event]bool{}, map[State]bool{}
	for _, ev := range m.events {
		events[ev] = true
	}
	for _, s := range m.states {
		states[s] = true
	}
	var misses uint64
	for _, p := range eng.peers {
		if p.Stats.Processed == 0 {
			t.Fatalf("the load never reached peer %d", p.ID)
		}
		misses += p.poolFlushed.eventMiss + p.pool.eventMiss
		for _, ev := range p.inq {
			events[ev] = true
		}
		for i := 0; i < p.pending.Len(); i++ {
			events[p.pending.At(i)] = true
		}
		for _, lp := range p.lps {
			for ev := lp.head; ev != nil; ev = ev.next {
				events[ev], states[ev.saved.state] = true, true
			}
		}
	}
	peak := eng.PeakUncommittedEvents()
	carvedEvents := len(events) + len(m.eventChunk)
	carvedStates := len(states) + m.stateChunk.len - m.stateChunk.next
	t.Logf("peak uncommitted %d, %d tokens: carved %d event slots and %d snapshot slots, counted %d event misses",
		peak, tokens, carvedEvents, carvedStates, misses)
	if carvedEvents > peak+tokens+chunkMax {
		t.Errorf("carved %d event slots, want at most peak uncommitted %d + %d tokens + a chunk of %d",
			carvedEvents, peak, tokens, chunkMax)
	}
	if carvedStates > peak+chunkMax {
		t.Errorf("carved %d snapshot slots, want at most peak uncommitted %d + a chunk of %d", carvedStates, peak, chunkMax)
	}
	if misses < 2*uint64(carvedEvents) {
		t.Errorf("counted %d event misses against %d carved slots: the counts follow the memory", misses, carvedEvents)
	}
}

// A sharded worker engine carves no events: the shadows of its
// cross-shard sends are never freed, and a chunk would keep every one
// of them for as long as any neighbour cycles through the store. Its
// snapshots never leave their engine and are carved as usual.
func TestShardedEngineCarvesNoEvents(t *testing.T) {
	eng := newTestEngine(t, 2, 1, 1, 10)
	if err := eng.Shardify(0, 1); err != nil {
		t.Fatal(err)
	}
	p, lp := eng.Peer(0), eng.LPs()[0]
	chunk := len(eng.mem.eventChunk)
	a, b := p.allocEvent(), p.allocEvent()
	if len(eng.mem.eventChunk) != chunk || cap(a.sent) != 0 || cap(b.sent) != 0 {
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

// The snapshot chunk serves the engine's pooled state type, fixed when
// the engine is built; a state that only Clones, or one of a second
// type, gets what it always got.
func TestSnapshotChunkFallsBackToClone(t *testing.T) {
	eng := newTestEngine(t, 1, 2, 1, 10)
	p, lp0, lp1 := eng.Peer(0), eng.LPs()[0], eng.LPs()[1]
	lp0.state = &cloneOnly{n: 7}
	if got := p.acquireSnapshot(lp0).(*cloneOnly); got == lp0.state || got.n != 7 {
		t.Fatalf("clone-only snapshot is %+v", got)
	}
	if c := &eng.mem.stateChunk; c.typ != reflect.TypeOf(lp1.state) || c.next != 0 {
		t.Fatal("a clone-only state was carved from the snapshot chunk")
	}
	first := p.acquireSnapshot(lp1).(*ringState)
	lp0.state = &otherCopier{n: 9}
	other := p.acquireSnapshot(lp0)
	second := p.acquireSnapshot(lp1).(*ringState)
	if o, ok := other.(*otherCopier); !ok || o == lp0.state || o.n != 9 || eng.mem.stateChunk.typ != reflect.TypeOf(first) {
		t.Fatalf("second state type: got %T, chunk serves %v", other, eng.mem.stateChunk.typ)
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
// bytes, retiring lazy cancellation's tentative list took it to 160,
// and retiring reverse computation's undo word to 152, so a 64-event
// chunk is exactly a 9,728 byte size class.
func TestEventLayout(t *testing.T) {
	var ev Event
	if got := unsafe.Sizeof(ev); got != 152 {
		t.Errorf("Event is %d bytes, want 152", got)
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
// and the snapshot taken before it ran — from chunks. As in a run,
// what is allocated stays live: each engine serves a few thousand
// misses, a benchmark-scale peer's working set, and is then dropped.
func BenchmarkPoolMiss(b *testing.B) {
	const perEngine = 4096
	b.Run("chunks", func(b *testing.B) {
		var p *Peer
		var lp *LP
		live := make([]*Event, perEngine)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%perEngine == 0 {
				b.StopTimer()
				eng, err := NewEngine(Config{
					NumThreads: 1, Model: &ringModel{lpsPerThread: 1, startPerLP: 1},
					EndTime: 10, Seed: 1,
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
