package tw

import (
	"encoding/binary"
	"errors"
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

// What a captured engine leaves behind is dead, poisoned memory, held
// per peer: events, and snapshots of the peer's pooled state type. The
// first engine built from the capture takes all of it and allocates
// less for it, without a counter moving; the second finds nothing and
// works as before.
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
	events, states, pending := 0, 0, 0
	for i, p := range sp.peers {
		for _, ev := range p.events {
			if ev.state != statePooled || !math.IsInf(ev.Ts, -1) || ev.Target != nil || len(ev.sent)+len(ev.tentative) != 0 ||
				ev.saved != (Snapshot{}) || ev.prev != nil || ev.next != nil {
				t.Fatalf("spare event %v of peer %d is not poisoned and empty", ev, i)
			}
		}
		for _, s := range p.states {
			if _, ok := s.(*ringState); !ok {
				t.Fatalf("spare snapshot %T of peer %d is not of its pooled type", s, i)
			}
		}
		events += len(p.events)
		states += len(p.states)
		pending += len(st.Pending[i])
	}
	if events < pending || states == 0 {
		t.Fatalf("spare set holds %d events for %d pending, %d snapshots", events, pending, states)
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
	left, leftStates := 0, 0
	for i := range warm.peers {
		left += len(warm.peers[i].spareEvents)
		leftStates += warm.peers[i].spareStates
		if len(cold.peers[i].spareEvents)+cold.peers[i].spareStates != 0 {
			t.Fatal("a second engine found spare memory")
		}
	}
	if left != events-pending || leftStates != states {
		t.Fatalf("%d spare events left after restoring %d pending from %d, %d of %d snapshots",
			left, pending, events, leftStates, states)
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
		if w.pool != c.pool || w.poolFlushed != c.poolFlushed || len(w.freeEvents) != len(c.freeEvents) {
			t.Fatalf("peer %d pool accounting differs: warm %+v+%+v free %d, cold %+v+%+v free %d",
				i, w.pool, w.poolFlushed, len(w.freeEvents), c.pool, c.poolFlushed, len(c.freeEvents))
		}
	}

	// Spare memory a whole segment did not need is not passed on again:
	// more than the engine can take sits at the bottom of peer 0's sets.
	unneeded := map[any]bool{}
	bottom := make([]*Event, 10_000)
	bottomStates := make([]StateCopier, 10_000)
	for i := range bottom {
		bottom[i] = &Event{}
		bottom[i].poison()
		bottomStates[i] = &ringState{}
		unneeded[bottom[i]], unneeded[bottomStates[i]] = true, true
	}
	w := warm.peers[0]
	w.spareEvents = append(bottom, w.spareEvents...)
	w.statePool = append(bottomStates, w.statePool...)
	w.spareStates += len(bottomStates)
	next, err := warm.Capture()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range next.spare.peers {
		for _, ev := range p.events {
			if unneeded[ev] {
				t.Fatal("an event the engine never took was harvested again")
			}
		}
		for _, s := range p.states {
			if unneeded[s] {
				t.Fatal("a snapshot the engine never took was harvested again")
			}
		}
	}
}

// A spare set is only memory of the right shapes: an engine with
// another type of model, or with pooling off, leaves all of it alone —
// the LP states too, which it decodes from the records instead — and a
// capture with pooling off harvests none. KP size is not part of the
// shape: the set holds nothing per KP.
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
		"same":     func(*Config) {},
		"kp-size":  func(c *Config) { c.LPsPerKP = 2 }, // adopts everything
		"unpooled": func(c *Config) { c.DisablePooling = true },
		"model":    func(c *Config) { c.Model = &reversibleRing{*c.Model.(*ringModel)} },
		"heap":     func(c *Config) { c.QueueKind = pq.Heap }, // adopts all but the splay nodes
	} {
		cfg := spareCfg()
		vary(&cfg)
		st := capture()
		harvested := st.spare
		eng, err := NewEngineFromState(cfg, st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fits := name != "unpooled" && name != "model"
		events, states := 0, 0
		for _, p := range eng.peers {
			events += len(p.spareEvents)
			states += p.spareStates
		}
		if (events != 0) != fits || (states != 0) != fits {
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
	cfg := spareCfg()
	cfg.DisablePooling = true
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveRounds(eng, 50)
	if st, err := eng.Capture(); err != nil || st.spare != nil {
		t.Fatalf("unpooled capture: spare %v, err %v", st.spare, err)
	}
}
