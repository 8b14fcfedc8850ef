package tw

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"ggpdes/internal/telemetry"
)

// deadEvents lists the store's dead events, newest first.
func (m *memStore) deadEvents() []*Event {
	var evs []*Event
	for ev := m.events; ev != nil && len(evs) < m.nEvents; ev = ev.next {
		evs = append(evs, ev)
	}
	return evs
}

// deadStates lists the store's dead snapshots, newest first.
func (m *memStore) deadStates() []StateCopier {
	var sts []StateCopier
	for i := m.states.n - 1; i >= 0; i-- {
		sts = append(sts, m.states.blocks[i/snapBlockLen][i%snapBlockLen])
	}
	return sts
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
		live.next, eng.mem.events = eng.mem.events, live // not via freeEvent: still live
		eng.mem.nEvents++
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
	t.Run("linked-twice", func(t *testing.T) {
		eng := newTestEngine(t, 1, 1, 1, 10)
		p := eng.Peer(0)
		ev := p.allocEvent()
		p.freeEvent(ev)
		eng.mem.putEvent(ev) // a second time: ev now links to itself
		done := make(chan error, 1)
		go func() { done <- eng.CheckInvariants() }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("CheckInvariants missed an event linked into the store twice")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("CheckInvariants does not return on a cyclic store")
		}
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

// A rollback unsends in the order the sends were made: the cause's sent
// list is newest first, and unsend recurses to its oldest event before
// it sends any anti-message. The
// order shows in the anti-messages' sequence numbers and their places
// in the receiving input queue; walked newest first, no oracle case and
// only one count pinned at seed 7 (TestHeapHoldsTheQueueKindsReading)
// noticed.
func TestUnsendFollowsSendOrder(t *testing.T) {
	eng := newTestEngine(t, 2, 1, 0, 100)
	p, lp, dst := eng.Peer(0), eng.LPs()[0], eng.Peer(1)
	cause := p.allocEvent()
	cause.Ts, cause.Seq, cause.state = 1, eng.nextSeq(), StateProcessed
	cause.saved.state = p.acquireSnapshot(lp)
	lp.push(cause)
	eng.noteProcessed(1)
	for i := 0; i < 4; i++ {
		eng.send(p, cause, 1, VT(2+i), 0, int64(i), 0)
	}
	sent := append([]*Event(nil), dst.inq...)
	if p.rollback(lp, cause) != 1 || cause.sent != nil {
		t.Fatal("the rollback did not undo the cause and empty its sent list")
	}
	antis := dst.inq[len(sent):]
	if len(sent) != 4 || len(antis) != 4 {
		t.Fatalf("%d sends and %d anti-messages in the input queue, want 4 and 4", len(sent), len(antis))
	}
	for i, anti := range antis {
		if !anti.Anti || anti.Target != sent[i] || sent[i].sib != nil || i > 0 && anti.Seq <= antis[i-1].Seq {
			t.Fatalf("anti-message %d is %v for %v (sib %v), want one for send %d in send order", i, anti, anti.Target, sent[i].sib, i)
		}
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Recycled events must come back fully reset: stale payload, targets or
// send-list links leaking across lifetimes would be a silent
// correctness bug, so the pool poisons and clears everything.
func TestPoolResetsRecycledEvents(t *testing.T) {
	eng := newTestEngine(t, 1, 1, 1, 10)
	p := eng.Peer(0)
	ev := p.allocEvent()
	ev.Ts, ev.Seq, ev.Src, ev.Dst, ev.Kind = 3.5, 99, 1, 2, 7
	ev.A, ev.B = 11, 22
	ev.Anti = true
	ev.Target = &Event{}
	ev.sent, ev.sib = &Event{}, &Event{}
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
	if got.sent != nil || got.sib != nil || got.next != nil {
		t.Fatal("recycled event carries a stale send-list or store link")
	}
}

// poison resets an event field by field, so a field added to Event and
// forgotten there would leak across lifetimes. Every field of a dirty
// event must be set here (the loop over the type insists), and after
// poison every one must read as a freed event's: the two sentinels, and
// zero everywhere else.
func TestPoisonResetsEveryField(t *testing.T) {
	other := &Event{}
	ev := &Event{
		Ts: 3.5, Seq: 99, Src: 1, Dst: 2, Kind: 7, Anti: true, state: StateProcessed,
		Target: other, A: 11, B: 22, prev: other, next: other,
		saved: Snapshot{state: &ringState{Count: 1}, pos: 2},
		sent:  other, sib: other,
	}
	v := reflect.ValueOf(ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("the dirty event leaves Event.%s zero: set it here, and reset it in poison", v.Type().Field(i).Name)
		}
	}
	ev.poison()
	for i := 0; i < v.NumField(); i++ {
		switch name := v.Type().Field(i).Name; name {
		case "Ts", "state":
		default:
			if !v.Field(i).IsZero() {
				t.Errorf("poison left Event.%s = %v", name, v.Field(i))
			}
		}
	}
	if !math.IsInf(ev.Ts, -1) || ev.state != statePooled {
		t.Errorf("poisoned event has Ts %v, state %v", ev.Ts, ev.state)
	}
}

// A miss carves from the engine's chunk, and what it carves is an event
// like any other: counted as a miss, poisoned when freed, swept by
// CheckInvariants in both directions, handed back as a hit, and caught
// when freed twice.
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
	if a.state != StateInQueue || a.Ts != 0 || a.Seq != 0 || a.Target != nil || a.saved != (Snapshot{}) ||
		a.sent != nil || a.sib != nil {
		t.Fatalf("carved event is not zero: %+v", a)
	}
	a.sent = b
	p.freeEvent(a)
	if a.state != statePooled || !math.IsInf(a.Ts, -1) || a.sent != nil {
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
// pays the allocator once per chunkMax objects; a chunk, of events or of
// snapshots, is one heap object.
func TestChunksGrowGeometrically(t *testing.T) {
	var want []int
	carves := 2*chunkMax + 1
	for n := chunkMin; n < chunkMax; n *= 2 {
		want, carves = append(want, n), carves+n
	}
	want = append(want, chunkMax, chunkMax, chunkMax)
	// carve takes carves events and snapshots from a fresh engine's
	// chunks and appends the length of each chunk it started to
	// eventLens and stateLens, which have room for them.
	carve := func(eng *Engine, eventLens, stateLens []int) ([]int, []int) {
		p, lp, m := eng.Peer(0), eng.LPs()[0], &eng.mem
		m.eventChunk, m.eventChunkLen = nil, 0 // forget the chunk the initial event came from
		for i := 0; i < carves; i++ {
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
		return eventLens, stateLens
	}
	// What a process allocates once is paid unmeasured, so that the
	// measured carves allocate their chunks only, whether or not other
	// tests ran first. A first engine carves the same sequence: reflect
	// builds each array type and its pointer type on first use. The
	// runtime fills a type-assertion cache (a heap object) at each of
	// acquireSnapshot's conversion sites on one call in 1,024 at random,
	// so that engine takes 16K more snapshots, and a collection starts
	// the collector's workers. The runtime's own goroutines still
	// allocate now and then (the scavenger's timer), never less than the
	// carves, so the fewest objects over three engines is what the
	// carves cost.
	warm := newTestEngine(t, 1, 1, 1, 10)
	carve(warm, make([]int, 0, len(want)), make([]int, 0, len(want)))
	for range 16 * 1024 {
		warm.Peer(0).acquireSnapshot(warm.LPs()[0])
	}
	runtime.GC()
	var eng *Engine
	eventLens, stateLens := make([]int, 0, len(want)), make([]int, 0, len(want))
	mallocs := math.Inf(1)
	for range 3 {
		eng, eventLens, stateLens = newTestEngine(t, 1, 1, 1, 10), eventLens[:0], stateLens[:0]
		calls := 0
		mallocs = min(mallocs, testing.AllocsPerRun(1, func() {
			if calls++; calls == 1 {
				return // AllocsPerRun's warm-up call
			}
			eventLens, stateLens = carve(eng, eventLens, stateLens)
		}))
	}
	if fmt.Sprint(eventLens) != fmt.Sprint(want) || fmt.Sprint(stateLens) != fmt.Sprint(want) {
		t.Fatalf("chunk lengths: events %v, snapshots %v, want %v", eventLens, stateLens, want)
	}
	if chunks := len(eventLens) + len(stateLens); mallocs != float64(chunks) {
		t.Fatalf("carving %d chunks allocated %.0f heap objects, want one a chunk", chunks, mallocs)
	}
	p, lp := eng.Peer(0), eng.LPs()[0]
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
	events, states := engineMemory(eng)
	var misses uint64
	for _, p := range eng.peers {
		if p.Stats.Processed == 0 {
			t.Fatalf("the load never reached peer %d", p.ID)
		}
		misses += p.poolFlushed.eventMiss + p.pool.eventMiss
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

// engineMemory is every event and snapshot an engine holds, dead or
// live: its stores, input queues, pending heaps, histories and shadow
// lists.
func engineMemory(eng *Engine) (map[*Event]bool, map[State]bool) {
	events, states := map[*Event]bool{}, map[State]bool{}
	for _, ev := range eng.mem.deadEvents() {
		events[ev] = true
	}
	for _, s := range eng.mem.deadStates() {
		states[s] = true
	}
	for _, p := range eng.peers {
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
		for s := p.shadows; s != nil; s = s.next {
			events[s] = true
		}
	}
	return events, states
}

// A sharded worker engine takes its events from the engine's store and
// chunks like any other, and gives its own dead back: a shadow, once
// unsent or once GVT has passed it, is the next event the store hands
// out, to a send or to a twin from the wire. Two shard engines relay
// each other's wire events the way the coordinator does, with its
// envelope threaded through every operation; under the moving load
// every send crosses the shards, and each engine carves no more than
// the in-process bound: peak uncommitted + tokens + a chunk. A shadow
// that is never swept holds a slot per cross-shard send, which the run
// is long enough to show.
func TestShardedEngineRecyclesShadows(t *testing.T) {
	eng := newTestEngine(t, 2, 1, 1, 10)
	if err := eng.Shardify(0, 1); err != nil {
		t.Fatal(err)
	}
	p, m, cpu := eng.Peer(0), &eng.mem, &fakeCPU{}
	if first, second := p.allocEvent(), p.allocEvent(); uintptr(unsafe.Pointer(second))-uintptr(unsafe.Pointer(first)) != unsafe.Sizeof(Event{}) {
		t.Fatal("a sharded engine's events are not carved from a chunk")
	}
	// LP 0's starting event sends to LP 1, on the foreign peer: a shadow.
	if p.ProcessBatch(cpu) != 1 || p.shadows == nil || p.shadows.next != nil || len(eng.TakeOutbox()) != 1 {
		t.Fatalf("one event processed should leave one shadow, got %v", p.shadows)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A straggler from the wire rolls LP 0 back, which unsends the
	// shadow: it and the local anti copy go back to the store.
	unsent := p.shadows
	if err := eng.InjectRemote(WireEvent{Ts: 0.0001, Seq: 100, Src: 1, Dst: 0}); err != nil {
		t.Fatal(err)
	}
	p.Drain(cpu)
	if out := eng.TakeOutbox(); p.shadows != nil || len(out) != 1 || !out[0].Anti || m.events != unsent {
		t.Fatalf("the unsent shadow is not the store's newest event: list %v, outbox %v", p.shadows, out)
	}
	if err := eng.InjectRemote(WireEvent{Ts: 5, Seq: 101, Src: 1, Dst: 0}); err != nil {
		t.Fatal(err)
	}
	if p.inq[len(p.inq)-1] != unsent {
		t.Fatal("the next twin from the wire is not the unsent shadow")
	}
	// Executing everything leaves a shadow per event; GVT above them
	// all commits their causes and recycles every one.
	p.Drain(cpu)
	p.ProcessBatch(cpu)
	swept := map[*Event]bool{}
	for s := p.shadows; s != nil; s = s.next {
		swept[s] = true
	}
	if len(swept) != 3 {
		t.Fatalf("three events processed left %d shadows", len(swept))
	}
	p.FossilCollect(cpu, 10)
	if p.shadows != nil {
		t.Fatal("fossil collection above every shadow left some listed")
	}
	for range swept {
		if ev := p.allocEvent(); !swept[ev] {
			t.Fatalf("the store handed out %v before the swept shadows", ev)
		}
	}

	const tokens, window, end = 16, 1, 400
	var engs [2]*Engine
	for i := range engs {
		var err error
		if engs[i], err = NewEngine(Config{NumThreads: 2, Model: &movingModel{tokens: tokens, window: window},
			EndTime: end, Seed: 1, BatchSize: 32}); err != nil {
			t.Fatal(err)
		}
		if err := engs[i].Shardify(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	env := engs[0].EnvelopeOut()
	op := func(i int, f func(*Peer)) {
		eng := engs[i]
		eng.ApplyEnvelope(env)
		f(eng.peers[i])
		env = eng.EnvelopeOut()
		for _, w := range eng.TakeOutbox() {
			if err := engs[1-i].InjectRemote(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	var sent uint64
	for round := 0; env.GVT < end; round++ {
		if round == 10_000 {
			t.Fatal("the run does not finish")
		}
		gvt := VT(end)
		for i := range engs {
			op(i, func(p *Peer) { p.DrainProcess(cpu) })
		}
		for i := range engs {
			op(i, func(p *Peer) { minSent, local := p.CutMins(cpu); gvt = min(gvt, minSent, local) })
		}
		env.GVT = gvt
		for i := range engs {
			op(i, func(p *Peer) { p.FossilCollect(cpu, gvt) })
		}
	}
	for i, eng := range engs {
		if err := eng.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		events, _ := engineMemory(eng)
		carved := len(events) + len(eng.mem.eventChunk)
		sent += eng.peers[i].Stats.Processed
		t.Logf("shard %d: %d event slots carved, peak uncommitted %d", i, carved, env.PeakUncommitted)
		if carved > env.PeakUncommitted+tokens+chunkMax {
			t.Errorf("shard %d carved %d event slots, want at most peak uncommitted %d + %d tokens + a chunk of %d",
				i, carved, env.PeakUncommitted, tokens, chunkMax)
		}
	}
	if sent < 4*(uint64(env.PeakUncommitted)+tokens+chunkMax) {
		t.Errorf("%d cross-shard sends are too few for a leak of one slot each to show", sent)
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
// retiring reverse computation's undo word to 152, and an intrusive
// sent list with a snapshot that saves neither the LVT nor the stream
// selector to 120. The LP is pinned beside it: its LVT became the
// committed LVT, read only while its history is empty, and it stayed 104
// bytes.
func TestEventLayout(t *testing.T) {
	var ev Event
	if got := unsafe.Sizeof(ev); got != 120 {
		t.Errorf("Event is %d bytes, want 120", got)
	}
	if got := unsafe.Sizeof(LP{}); got != 104 {
		t.Errorf("LP is %d bytes, want 104", got)
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

// A full event chunk is whole pages: a large object, which the
// allocator rounds up to pages, with no size-class slack. At chunkMax
// 64 a chunk was 7,680 bytes in the 8 KiB class, 6 % of it lost; at
// 1,024 it is 122,880 bytes, exactly 30 pages. A later change to the
// Event's size or to chunkMax must keep it so.
func TestEventChunkIsWholePages(t *testing.T) {
	if bytes := chunkMax * unsafe.Sizeof(Event{}); bytes%4096 != 0 {
		t.Fatalf("a full event chunk is %d bytes, %d past a page boundary", bytes, bytes%4096)
	}
}

// BenchmarkPoolMiss is what one executed event costs a peer whose pools
// are empty — the event it sends, linked into its sent list, and the
// snapshot taken before it ran — from chunks. As in a run,
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
			sent.sib, cause.sent = cause.sent, sent
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
		evs[i].sent = evs[0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := (i * 7919) & (n - 1)
		p.freeEvent(evs[k])
		ev := p.allocEvent()
		ev.sent = evs[0]
		evs[k] = ev
	}
}
