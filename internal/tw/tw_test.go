package tw

import (
	"math"
	"strings"
	"testing"

	"ggpdes/internal/pq"
)

// fakeCPU satisfies CPU for engine-level tests without a machine.
type fakeCPU struct{ cycles uint64 }

func (f *fakeCPU) Work(c uint64) { f.cycles += c }

// ringState is a toy PHOLD-like model: each event increments a counter
// and forwards one event to the next LP with a random positive delay.
type ringState struct {
	Count int
	Sum   float64
}

func (s *ringState) Clone() State {
	c := *s
	return &c
}

func (s *ringState) CopyFrom(src State) { *s = *src.(*ringState) }

type ringModel struct {
	lpsPerThread int
	startPerLP   int
}

func (m *ringModel) LPsPerThread() int { return m.lpsPerThread }

func (m *ringModel) InitLP(ic *InitCtx, lp *LP) {
	lp.SetState(&ringState{})
	for k := 0; k < m.startPerLP; k++ {
		ic.ScheduleInit(lp.ID, 0.01*float64(k+1)+0.001*float64(lp.ID), 0, 0, 0)
	}
}

func (m *ringModel) OnEvent(ctx *EventCtx) { ringStep(ctx, ctx.LP().State().(*ringState)) }

func ringStep(ctx *EventCtx, st *ringState) {
	st.Count++
	st.Sum += ctx.Now()
	dst := (ctx.LP().ID + 1) % ctx.Engine().NumLPs()
	delay := 0.1 + ctx.Rand().Exponential(0.9)
	ctx.Send(dst, ctx.Now()+delay, 0, 0, 0)
}

func newTestEngine(t *testing.T, threads, lpsPer, startPer int, end VT) *Engine {
	t.Helper()
	eng, err := NewEngine(Config{
		NumThreads: threads,
		Model:      &ringModel{lpsPerThread: lpsPer, startPerLP: startPer},
		EndTime:    end,
		Seed:       12345,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// runQuiescent drives peers in the given repeating order until no peer
// has work, recomputing GVT after every full pass. Returns final GVT.
func runQuiescent(t *testing.T, eng *Engine, order []int) VT {
	t.Helper()
	cpu := &fakeCPU{}
	for pass := 0; pass < 1_000_000; pass++ {
		busy := false
		for _, id := range order {
			p := eng.Peer(id)
			if p.Drain(cpu) > 0 {
				busy = true
			}
			if p.ProcessBatch(cpu) > 0 {
				busy = true
			}
		}
		if !busy {
			min := math.Inf(1)
			for _, p := range eng.Peers() {
				m := p.LocalMin(cpu)
				if m < min {
					min = m
				}
			}
			for _, p := range eng.Peers() {
				if s := p.TakeMinSent(); s < min {
					min = s
				}
			}
			eng.SetGVT(math.Min(min, eng.EndTime()))
			for _, p := range eng.Peers() {
				p.FossilCollect(cpu, eng.GVT())
			}
			if eng.Done() {
				return eng.GVT()
			}
		}
	}
	t.Fatal("simulation did not quiesce")
	return 0
}

func collectResults(eng *Engine) (committed uint64, counts []int, sums []float64) {
	s := eng.TotalStats()
	counts = make([]int, eng.NumLPs())
	sums = make([]float64, eng.NumLPs())
	for i, lp := range eng.LPs() {
		st := lp.State().(*ringState)
		counts[i] = st.Count
		sums[i] = st.Sum
	}
	return s.Committed, counts, sums
}

func TestConfigValidation(t *testing.T) {
	model := &ringModel{lpsPerThread: 1, startPerLP: 1}
	cases := []Config{
		{NumThreads: 0, Model: model, EndTime: 1},
		{NumThreads: 1, Model: nil, EndTime: 1},
		{NumThreads: 1, Model: model, EndTime: 0},
		{NumThreads: 1, Model: model, EndTime: 1, BatchSize: -1},
	}
	for i, cfg := range cases {
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDefaultsFilled(t *testing.T) {
	eng := newTestEngine(t, 2, 2, 1, 10)
	cfg := eng.Config()
	if cfg.BatchSize != 8 {
		t.Fatalf("BatchSize default = %d", cfg.BatchSize)
	}
	if cfg.Costs == (CostModel{}) {
		t.Fatal("Costs default not filled")
	}
	if cfg.QueueKind != pq.Splay {
		t.Fatalf("QueueKind default = %v", cfg.QueueKind)
	}
}

func TestBlockMapping(t *testing.T) {
	eng := newTestEngine(t, 4, 8, 1, 10)
	if eng.NumLPs() != 32 {
		t.Fatalf("NumLPs = %d", eng.NumLPs())
	}
	for id, lp := range eng.LPs() {
		if lp.Owner != id/8 {
			t.Fatalf("LP %d owner = %d, want %d", id, lp.Owner, id/8)
		}
	}
	for i, p := range eng.Peers() {
		if len(p.LPs()) != 8 {
			t.Fatalf("peer %d serves %d LPs", i, len(p.LPs()))
		}
	}
}

func TestSequentialRunCompletes(t *testing.T) {
	eng := newTestEngine(t, 1, 4, 1, 50)
	gvt := runQuiescent(t, eng, []int{0})
	if gvt < 50 {
		t.Fatalf("final GVT = %v", gvt)
	}
	committed, counts, _ := collectResults(eng)
	if committed == 0 {
		t.Fatal("no events committed")
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if uint64(total) != committed {
		t.Fatalf("state counters %d != committed %d", total, committed)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := eng.TotalStats()
	if s.RolledBack != 0 {
		t.Fatalf("sequential run rolled back %d events", s.RolledBack)
	}
}

// The gold test: with rollback repairing all mis-speculation, any
// execution interleaving must commit the identical trajectory.
func TestInterleavingsCommitIdenticalTrajectories(t *testing.T) {
	const threads, lpsPer, startPer = 4, 4, 2
	const end = 30.0
	ref := newTestEngine(t, threads, lpsPer, startPer, end)
	runQuiescent(t, ref, []int{0, 1, 2, 3})
	refCommitted, refCounts, refSums := collectResults(ref)
	if refCommitted == 0 {
		t.Fatal("reference run committed nothing")
	}

	orders := [][]int{
		{3, 2, 1, 0},
		// Heavily skewed: peer 0 races far ahead, forcing stragglers.
		{0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3},
		{1, 1, 3, 3, 0, 2},
		{2, 0, 2, 1, 2, 3, 2},
	}
	sawRollback := false
	for oi, order := range orders {
		eng := newTestEngine(t, threads, lpsPer, startPer, end)
		runQuiescent(t, eng, order)
		committed, counts, sums := collectResults(eng)
		if committed != refCommitted {
			t.Fatalf("order %d: committed %d != ref %d", oi, committed, refCommitted)
		}
		for i := range counts {
			if counts[i] != refCounts[i] || math.Abs(sums[i]-refSums[i]) > 1e-9 {
				t.Fatalf("order %d: LP %d state (%d, %v) != ref (%d, %v)",
					oi, i, counts[i], sums[i], refCounts[i], refSums[i])
			}
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("order %d: %v", oi, err)
		}
		if eng.TotalStats().RolledBack > 0 {
			sawRollback = true
		}
	}
	if !sawRollback {
		t.Fatal("no interleaving produced rollbacks; test exercises nothing")
	}
}

func TestStragglerTriggersRollback(t *testing.T) {
	eng := newTestEngine(t, 2, 2, 1, 100)
	cpu := &fakeCPU{}
	p0, p1 := eng.Peer(0), eng.Peer(1)
	// Let peer 0 run far ahead on its own events.
	for i := 0; i < 40; i++ {
		p0.Drain(cpu)
		p0.ProcessBatch(cpu)
	}
	if p0.Stats.Processed == 0 {
		t.Fatal("peer 0 processed nothing")
	}
	// Now peer 1 processes its low-timestamp events, sending into the
	// ring (LP 3 -> LP 0), which must eventually straggle peer 0.
	for i := 0; i < 40; i++ {
		p1.Drain(cpu)
		p1.ProcessBatch(cpu)
		p0.Drain(cpu)
		p0.ProcessBatch(cpu)
	}
	if p0.Stats.Stragglers == 0 && p1.Stats.Stragglers == 0 {
		t.Fatal("no stragglers despite skewed execution")
	}
	total := eng.TotalStats()
	if total.RolledBack == 0 {
		t.Fatal("stragglers produced no rolled-back events")
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAntiMessageAnnihilatesUnprocessed(t *testing.T) {
	eng := newTestEngine(t, 2, 2, 1, 100)
	cpu := &fakeCPU{}
	p0, p1 := eng.Peer(0), eng.Peer(1)
	// Run peer 0 ahead so it sends events to peer 1 (LP 1 -> LP 2).
	for i := 0; i < 30; i++ {
		p0.Drain(cpu)
		p0.ProcessBatch(cpu)
	}
	if p1.InputSize() == 0 {
		t.Fatal("peer 0 never sent to peer 1")
	}
	// Peer 1 catches up and its sends (LP 3 -> LP 0) roll peer 0 back,
	// generating anti-messages into peer 1's input queue.
	for i := 0; i < 60; i++ {
		p1.Drain(cpu)
		p1.ProcessBatch(cpu)
		p0.Drain(cpu)
		p0.ProcessBatch(cpu)
	}
	total := eng.TotalStats()
	if total.AntiSent == 0 {
		t.Fatal("rollbacks sent no anti-messages")
	}
	if total.Annihilated == 0 {
		t.Fatal("anti-messages annihilated nothing")
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackRestoresRNG(t *testing.T) {
	// After a rollback, re-executed events must draw identical random
	// numbers — verified indirectly by the trajectory-equality gold
	// test, and directly here via snapshot round-trip.
	eng := newTestEngine(t, 1, 1, 1, 1000)
	cpu := &fakeCPU{}
	p := eng.Peer(0)
	lp := eng.LPs()[0]
	p.Drain(cpu)
	p.ProcessBatch(cpu)
	st := lp.State().(*ringState)
	if st.Count == 0 {
		t.Fatal("nothing processed")
	}
	// Manually roll back everything.
	first := lp.KP().head
	n := p.rollback(lp.KP(), first)
	if n == 0 {
		t.Fatal("rollback undid nothing")
	}
	st = lp.State().(*ringState)
	if st.Count != 0 || lp.LVT() != 0 {
		t.Fatalf("rollback left Count=%d LVT=%v", st.Count, lp.LVT())
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFossilCollectCommitsBelowGVT(t *testing.T) {
	eng := newTestEngine(t, 1, 2, 1, 1000)
	cpu := &fakeCPU{}
	p := eng.Peer(0)
	for i := 0; i < 10; i++ {
		p.Drain(cpu)
		p.ProcessBatch(cpu)
	}
	before := 0
	for _, kp := range p.KPs() {
		before += kp.UncommittedEvents()
	}
	if before == 0 {
		t.Fatal("no processed events to fossil collect")
	}
	gvt := p.LocalMin(cpu) / 2 // strictly below anything unprocessed
	eng.SetGVT(gvt)
	n := p.FossilCollect(cpu, gvt)
	if n == 0 {
		t.Fatal("nothing committed")
	}
	if p.Stats.Committed != uint64(n) {
		t.Fatalf("stats committed %d != %d", p.Stats.Committed, n)
	}
	for _, kp := range p.KPs() {
		for ev := kp.head; ev != nil; ev = ev.next {
			if ev.Ts < gvt {
				t.Fatalf("event below GVT left uncommitted: %v", ev)
			}
		}
	}
}

func TestGVTMonotonicityEnforced(t *testing.T) {
	eng := newTestEngine(t, 1, 1, 1, 10)
	eng.SetGVT(5)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards GVT did not panic")
		}
	}()
	eng.SetGVT(4)
}

func TestSendIntoPastPanics(t *testing.T) {
	model := &pastModel{}
	eng, err := NewEngine(Config{NumThreads: 1, Model: model, EndTime: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cpu := &fakeCPU{}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "past") {
			t.Fatalf("recover = %v", r)
		}
	}()
	eng.Peer(0).ProcessBatch(cpu)
}

type pastModel struct{}

func (m *pastModel) LPsPerThread() int { return 1 }
func (m *pastModel) InitLP(ic *InitCtx, lp *LP) {
	lp.SetState(&ringState{})
	ic.ScheduleInit(lp.ID, 5, 0, 0, 0)
}
func (m *pastModel) OnEvent(ctx *EventCtx) {
	ctx.Send(0, ctx.Now()-1, 0, 0, 0)
}

func TestLocalMinSeesInputAndPending(t *testing.T) {
	eng := newTestEngine(t, 2, 1, 1, 100)
	cpu := &fakeCPU{}
	p0 := eng.Peer(0)
	// Initial events only: LocalMin is the earliest initial event.
	min := p0.LocalMin(cpu)
	if math.IsInf(min, 1) {
		t.Fatal("LocalMin missed pending initial event")
	}
	p0.Drain(cpu)
	p0.ProcessBatch(cpu)
	// Peer 1 now has an input-queue event from LP 0 -> LP 1.
	p1 := eng.Peer(1)
	if p1.InputSize() == 0 {
		t.Skip("ring did not cross threads this configuration")
	}
	m1 := p1.LocalMin(cpu)
	if math.IsInf(m1, 1) {
		t.Fatal("LocalMin missed input-queue event")
	}
}

func TestLocalMinEmptyIsInf(t *testing.T) {
	eng := newTestEngine(t, 2, 1, 0, 100)
	cpu := &fakeCPU{}
	if !math.IsInf(eng.Peer(0).LocalMin(cpu), 1) {
		t.Fatal("empty peer LocalMin not +Inf")
	}
	if eng.Peer(0).HasWork() {
		t.Fatal("empty peer claims work")
	}
}

func TestHasWorkAndInputSize(t *testing.T) {
	eng := newTestEngine(t, 2, 1, 1, 100)
	cpu := &fakeCPU{}
	p0, p1 := eng.Peer(0), eng.Peer(1)
	if !p0.HasWork() {
		t.Fatal("peer with initial events has no work")
	}
	for i := 0; i < 5 && p1.InputSize() == 0; i++ {
		p0.Drain(cpu)
		p0.ProcessBatch(cpu)
	}
	if p1.InputSize() > 0 && !p1.HasWork() {
		t.Fatal("peer with input has no work")
	}
}

func TestEventsBeyondEndTimeNotProcessed(t *testing.T) {
	eng := newTestEngine(t, 1, 2, 1, 5)
	runQuiescent(t, eng, []int{0})
	for _, lp := range eng.LPs() {
		if lp.LVT() >= 5 {
			t.Fatalf("LP %d processed event at/after end time: LVT %v", lp.ID, lp.LVT())
		}
	}
}

func TestBatchSizeRespected(t *testing.T) {
	eng, err := NewEngine(Config{
		NumThreads: 1,
		Model:      &ringModel{lpsPerThread: 4, startPerLP: 8},
		EndTime:    1000,
		Seed:       7,
		BatchSize:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cpu := &fakeCPU{}
	p := eng.Peer(0)
	p.Drain(cpu)
	if n := p.ProcessBatch(cpu); n != 3 {
		t.Fatalf("batch processed %d, want 3", n)
	}
}

func TestCPUChargedForWork(t *testing.T) {
	eng := newTestEngine(t, 1, 2, 2, 50)
	cpu := &fakeCPU{}
	p := eng.Peer(0)
	p.Drain(cpu)
	afterDrain := cpu.cycles
	if afterDrain == 0 {
		t.Fatal("drain charged nothing")
	}
	p.ProcessBatch(cpu)
	if cpu.cycles <= afterDrain {
		t.Fatal("processing charged nothing")
	}
}

func TestQueueKindsProduceSameTrajectory(t *testing.T) {
	results := make([]uint64, 0, 3)
	for _, kind := range []pq.Kind{pq.Splay, pq.Heap, pq.Calendar} {
		eng, err := NewEngine(Config{
			NumThreads: 2,
			Model:      &ringModel{lpsPerThread: 2, startPerLP: 2},
			EndTime:    20,
			Seed:       99,
			QueueKind:  kind,
		})
		if err != nil {
			t.Fatal(err)
		}
		runQuiescent(t, eng, []int{1, 0})
		committed, _, _ := collectResults(eng)
		results = append(results, committed)
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Fatalf("queue kinds disagree: %v", results)
	}
}

func TestEventStateString(t *testing.T) {
	cases := map[EventState]string{
		StateInQueue: "in-queue", StatePending: "pending", StateProcessed: "processed",
		StateCancelled: "cancelled", StateCommitted: "committed", EventState(99): "invalid",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("state %d = %q, want %q", s, s.String(), want)
		}
	}
}

func TestEventStringFormat(t *testing.T) {
	e := &Event{Ts: 1.5, Seq: 3, Src: 1, Dst: 2, Anti: true}
	s := e.String()
	if !strings.Contains(s, "anti") || !strings.Contains(s, "1.5") {
		t.Fatalf("String() = %q", s)
	}
}

func TestMemoryAccounting(t *testing.T) {
	eng := newTestEngine(t, 1, 4, 2, 50)
	cpu := &fakeCPU{}
	p := eng.Peer(0)
	for i := 0; i < 10; i++ {
		p.Drain(cpu)
		p.ProcessBatch(cpu)
	}
	if eng.UncommittedEvents() == 0 || eng.PeakUncommittedEvents() == 0 {
		t.Fatal("no memory accounted")
	}
	if eng.UncommittedEvents() > eng.PeakUncommittedEvents() {
		t.Fatal("current exceeds peak")
	}
	// Current gauge must equal the sum of LP histories.
	sum := 0
	for _, kp := range p.KPs() {
		sum += kp.UncommittedEvents()
	}
	if sum != eng.UncommittedEvents() {
		t.Fatalf("gauge %d != history sum %d", eng.UncommittedEvents(), sum)
	}
	// Fossil collection shrinks the gauge to zero at end time.
	runQuiescent(t, eng, []int{0})
	if eng.UncommittedEvents() != 0 {
		t.Fatalf("gauge = %d after full commit", eng.UncommittedEvents())
	}
}

func TestMemoryGaugeTracksRollbacks(t *testing.T) {
	eng := newTestEngine(t, 2, 2, 1, 100)
	cpu := &fakeCPU{}
	p0, p1 := eng.Peer(0), eng.Peer(1)
	for i := 0; i < 30; i++ {
		p0.Drain(cpu)
		p0.ProcessBatch(cpu)
	}
	before := eng.UncommittedEvents()
	for i := 0; i < 60; i++ {
		p1.Drain(cpu)
		p1.ProcessBatch(cpu)
		p0.Drain(cpu)
		p0.ProcessBatch(cpu)
	}
	if eng.TotalStats().RolledBack == 0 {
		t.Skip("no rollbacks this interleaving")
	}
	// After rollbacks and reprocessing the gauge still matches reality.
	sum := 0
	for _, pp := range eng.Peers() {
		for _, kp := range pp.KPs() {
			sum += kp.UncommittedEvents()
		}
	}
	if sum != eng.UncommittedEvents() {
		t.Fatalf("gauge %d != history sum %d (before=%d)", eng.UncommittedEvents(), sum, before)
	}
}

func TestHasExecutableWorkHorizon(t *testing.T) {
	eng, err := NewEngine(Config{
		NumThreads:     1,
		Model:          &farFutureModel{},
		EndTime:        100,
		Seed:           1,
		OptimismWindow: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := eng.Peer(0)
	// The only pending event sits at ts 50, far beyond GVT(0)+5.
	if !p.HasWork() {
		t.Fatal("HasWork should see the far-future event")
	}
	if p.HasExecutableWork() {
		t.Fatal("far-future event must not be executable at GVT 0")
	}
	cpu := &fakeCPU{}
	if n := p.ProcessBatch(cpu); n != 0 {
		t.Fatalf("processed %d beyond horizon", n)
	}
	eng.SetGVT(46) // horizon 51 now covers ts 50
	if !p.HasExecutableWork() {
		t.Fatal("event within horizon not executable")
	}
	if n := p.ProcessBatch(cpu); n != 1 {
		t.Fatalf("processed %d, want 1", n)
	}
}

type farFutureModel struct{}

func (m *farFutureModel) LPsPerThread() int { return 1 }
func (m *farFutureModel) InitLP(ic *InitCtx, lp *LP) {
	lp.SetState(&ringState{})
	ic.ScheduleInit(0, 50, 0, 0, 0)
}
func (m *farFutureModel) OnEvent(ctx *EventCtx) {
	ctx.LP().State().(*ringState).Count++
}
