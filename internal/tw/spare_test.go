package tw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"ggpdes/internal/pq"
)

// EncodeState and DecodeState make the toy ring model checkpointable.
func (m *ringModel) EncodeState(dst []byte, s State) ([]byte, error) {
	st := s.(*ringState)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.Count))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.Sum)), nil
}

func (m *ringModel) DecodeState(data []byte) (State, error) {
	if len(data) != 16 {
		return nil, errors.New("ring state is 16 bytes")
	}
	return &ringState{
		Count: int(binary.LittleEndian.Uint64(data)),
		Sum:   math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
	}, nil
}

// driveRounds runs a skewed schedule — peer 0 gets five turns per pass,
// so the others keep sending it stragglers — and publishes GVT after
// every pass, for the given number of rounds.
func driveRounds(eng *Engine, rounds int) {
	cpu := &fakeCPU{}
	for r := 0; r < rounds && !eng.Done(); r++ {
		for _, id := range []int{0, 0, 0, 0, 0, 1, 3, 2} {
			eng.Peer(id).DrainProcess(cpu)
		}
		min := eng.EndTime()
		for _, p := range eng.Peers() {
			sent, local := p.CutMins(cpu)
			min = math.Min(min, math.Min(sent, local))
		}
		eng.SetGVT(min)
		for _, p := range eng.Peers() {
			p.FossilCollect(cpu, min)
		}
	}
}

func spareCfg() Config {
	return Config{NumThreads: 4, Model: &ringModel{lpsPerThread: 4, startPerLP: 3}, EndTime: 1e6, Seed: 99}
}

// What a captured engine leaves behind is each peer's pending heap,
// sorted and holding exactly the capture's pending events, and its
// store of dead, poisoned memory: the events it held and the cancelled
// events the quiesce removed from the heaps, and snapshots of its
// pooled state type. The first engine built from the capture takes all
// of it — the heaps as they are, so that every dead event is still in
// the store — and allocates less for it, without a counter moving; the
// second finds nothing and works as before.
func TestSpareMemoryFeedsTheSuccessor(t *testing.T) {
	first, err := NewEngine(spareCfg())
	if err != nil {
		t.Fatal(err)
	}
	driveRounds(first, 200)
	st, err := first.Capture()
	if err != nil {
		t.Fatal(err)
	}
	sp := st.spare
	if sp == nil {
		t.Fatal("capture harvested no spare memory")
	}
	events, states, pending := len(sp.mem.events), len(sp.mem.states), 0
	for i, p := range sp.peers {
		if p.pending.Len() != len(st.Pending[i]) {
			t.Fatalf("peer %d's spare heap holds %d events for %d pending records", i, p.pending.Len(), len(st.Pending[i]))
		}
		pending += len(st.Pending[i])
	}
	for _, ev := range sp.mem.events {
		if ev.state != statePooled || !math.IsInf(ev.Ts, -1) || ev.Target != nil || len(ev.sent) != 0 ||
			ev.saved != (Snapshot{}) || ev.prev != nil || ev.next != nil {
			t.Fatalf("spare event %v is not poisoned and empty", ev)
		}
	}
	for _, s := range sp.mem.states {
		if _, ok := s.(*ringState); !ok {
			t.Fatalf("spare snapshot %T is not of the pooled type", s)
		}
	}
	if events == 0 || pending == 0 || states == 0 {
		t.Fatalf("spare set holds %d events, %d pending in its heaps, %d snapshots", events, pending, states)
	}

	warm, err := NewEngineFromState(spareCfg(), st)
	if err != nil {
		t.Fatal(err)
	}
	if st.spare != nil {
		t.Fatal("the spare set stayed on the state after an engine took it")
	}
	cold, err := NewEngineFromState(spareCfg(), st)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.mem.events)+len(cold.mem.states) != 0 {
		t.Fatal("a second engine found spare memory")
	}
	if left, leftStates := len(warm.mem.events), len(warm.mem.states); left != events || leftStates != states {
		t.Fatalf("%d of %d spare events left after taking %d pending in their heaps, %d of %d snapshots",
			left, events, pending, leftStates, states)
	}
	for _, eng := range []*Engine{warm, cold} {
		if err := eng.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// Not testing.AllocsPerRun: its warm-up call is the one that counts.
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	// The first rounds, where a cold engine fills its pools.
	warmAllocs := mallocs(func() { driveRounds(warm, 10) })
	coldAllocs := mallocs(func() { driveRounds(cold, 10) })
	if warmAllocs*2 > coldAllocs {
		t.Errorf("engine with spare memory allocated %v objects, without %v: want under half", warmAllocs, coldAllocs)
	}
	driveRounds(warm, 90)
	driveRounds(cold, 90)
	for _, eng := range []*Engine{warm, cold} {
		if err := eng.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if warm.TotalStats() != cold.TotalStats() || warm.seq != cold.seq {
		t.Fatalf("trajectories differ:\nwarm %+v\ncold %+v", warm.TotalStats(), cold.TotalStats())
	}
	for i := range warm.peers {
		w, c := warm.peers[i], cold.peers[i]
		if w.pool != c.pool || w.poolFlushed != c.poolFlushed || w.pooled != c.pooled {
			t.Fatalf("peer %d pool accounting differs: warm %+v+%+v free %d, cold %+v+%+v free %d",
				i, w.pool, w.poolFlushed, w.pooled, c.pool, c.poolFlushed, c.pooled)
		}
	}

	// The store rides on whole: whatever dead memory the engine holds
	// at its capture, whichever thread group freed it and whether or not
	// this segment took it, is the next engine's.
	dead := map[any]bool{}
	for _, ev := range warm.mem.events {
		dead[ev] = true
	}
	for _, s := range warm.mem.states {
		dead[s] = true
	}
	next, err := warm.Capture()
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range next.spare.mem.events {
		delete(dead, ev)
	}
	for _, s := range next.spare.mem.states {
		delete(dead, s)
	}
	if len(dead) != 0 {
		t.Fatalf("%d dead objects the engine held at its capture were not passed on", len(dead))
	}
}

// A fresh engine grows each peer's pending heap once, to pendingPerLP
// events for every LP the peer serves, so pushes up to that room
// allocate nothing, whatever the LP count.
func TestFreshPendingHeapHasRoom(t *testing.T) {
	for _, lps := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("lps=%d", lps), func(t *testing.T) {
			eng, err := NewEngine(Config{NumThreads: 2, Model: &ringModel{lpsPerThread: lps, startPerLP: 1}, EndTime: 10, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range eng.peers {
				free := pendingPerLP*lps - p.pending.Len()
				if free <= 0 {
					t.Fatalf("peer %d's heap starts full: %d events", i, p.pending.Len())
				}
				events := make([]*Event, free)
				for j := range events {
					events[j] = &Event{Ts: float64(free - j)}
				}
				if allocs := testing.AllocsPerRun(1, func() {
					for _, ev := range events {
						p.pending.Push(ev)
					}
					for range events {
						p.pending.Pop()
					}
				}); allocs != 0 {
					t.Fatalf("peer %d: %d pushes within its heap's room allocated %.0f times", i, free, allocs)
				}
			}
		})
	}
}

// A segment that continues in process takes its predecessor's pending
// heaps as they are — the same heap, the same event objects in the same
// places, none pushed again — and checking them against the capture's
// records allocates nothing. A segment that starts from the records
// alone, as Resume's first does, turns them into one slab of events and
// pushes those into its fresh heap, which has room for them: the slab
// is the one allocation.
func TestResumedPendingPushesAllocateNothing(t *testing.T) {
	cfg := spareCfg()
	first, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveRounds(first, 20)
	st, err := first.Capture()
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, ok := ConsumeEngineState(AppendEngineState(nil, st))
	if !ok {
		t.Fatal("capture does not decode")
	}
	heaps := make([]*pq.BinHeap[*Event], len(st.Pending))
	events := make([][]*Event, len(st.Pending))
	for i, s := range st.spare.peers {
		heaps[i] = s.pending
		for j := 0; j < s.pending.Len(); j++ {
			events[i] = append(events[i], s.pending.At(j))
		}
	}
	next, err := NewEngineFromState(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range next.peers {
		if p.pending != heaps[i] || p.pending.Len() != len(events[i]) {
			t.Fatalf("peer %d did not take its predecessor's heap of %d events", i, len(events[i]))
		}
		for j, ev := range events[i] {
			if p.pending.At(j) != ev {
				t.Fatalf("peer %d heap slot %d holds %v, its predecessor's held %v: the events were pushed again", i, j, p.pending.At(j), ev)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if err := p.adoptPending(st.Pending[i]); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("peer %d: taking its heap of %d events allocated %.0f times", i, len(events[i]), allocs)
		}
	}

	cold, err := NewEngineFromState(cfg, decoded)
	if err != nil {
		t.Fatal(err)
	}
	room := pendingPerLP * cfg.Model.LPsPerThread()
	for i, p := range cold.peers {
		recs := decoded.Pending[i]
		if len(recs) == 0 || len(recs) > room {
			t.Fatalf("peer %d restores %d events, want some within a fresh heap's room for %d", i, len(recs), room)
		}
		if p.pending == heaps[i] || p.pending.Len() != len(recs) {
			t.Fatalf("peer %d restored its %d events into its predecessor's heap or lost some", i, len(recs))
		}
		if allocs := testing.AllocsPerRun(10, func() {
			for p.pending.Len() > 0 {
				p.pending.Pop()
			}
			p.restorePending(recs)
		}); allocs != 1 {
			t.Fatalf("peer %d: restoring %d events allocated %.0f times, want the slab's one", i, len(recs), allocs)
		}
		for _, r := range recs {
			if ev, _ := p.pending.Pop(); ev.Ts != r.Ts || ev.Seq != r.Seq {
				t.Fatalf("peer %d pops %v, its records say %+v", i, ev, r)
			}
		}
	}
}

// A spare set is only memory of the right shapes: an engine with
// another type of model, or with pooling off, leaves all of it alone —
// the LP states too, which it decodes from the records instead — and a
// capture with pooling off harvests none.
func TestSpareMemoryNeedsAMatchingEngine(t *testing.T) {
	capture := func() *EngineState {
		eng, err := NewEngine(spareCfg())
		if err != nil {
			t.Fatal(err)
		}
		driveRounds(eng, 50)
		st, err := eng.Capture()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for name, vary := range map[string]func(*Config){
		"same":  func(*Config) {},
		"model": func(c *Config) { c.Model = &mixedRing{*c.Model.(*ringModel)} },
	} {
		cfg := spareCfg()
		vary(&cfg)
		st := capture()
		harvested := st.spare
		eng, err := NewEngineFromState(cfg, st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fits := name != "model"
		if events, states := len(eng.mem.events), len(eng.mem.states); (events != 0) != fits || (states != 0) != fits {
			t.Errorf("%s: engine holds %d spare events, %d spare snapshots", name, events, states)
		}
		for i, lp := range eng.lps {
			if rode := lp.state == harvested.live[i]; rode != fits {
				t.Fatalf("%s: LP %d state taken from the spare set: %t", name, i, rode)
			}
			if !reflect.DeepEqual(lp.state, harvested.live[i]) {
				t.Fatalf("%s: LP %d starts from %+v, the captured engine held %+v", name, i, lp.state, harvested.live[i])
			}
		}
		driveRounds(eng, 50)
		if err := eng.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
