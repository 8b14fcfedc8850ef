package tw

import (
	"errors"
	"math"
	"testing"
)

// fuzzStateCfg is the small engine FuzzEngineState captures and
// rebuilds: four threads (driveRounds drives four) of two ring LPs.
func fuzzStateCfg() Config {
	return Config{NumThreads: 4, Model: &ringModel{lpsPerThread: 2, startPerLP: 2}, EndTime: 40, Seed: 5}
}

// FuzzEngineState mutates a small capture's encoding — its records,
// sequence counter, GVT and LVTs among the rest — and rebuilds an engine
// from whatever still decodes. Each state must end one of two ways,
// never in a panic: NewEngineFromState refuses it with ErrInvalidState,
// or the engine it builds runs a few rounds and passes CheckInvariants.
// The seeds are a real capture and the mutations Resume used to take
// for a state it could continue.
func FuzzEngineState(f *testing.F) {
	eng, err := NewEngine(fuzzStateCfg())
	if err != nil {
		f.Fatal(err)
	}
	driveRounds(eng, 8)
	st, err := eng.Capture()
	if err != nil {
		f.Fatal(err)
	}
	good := AppendEngineState(nil, st)
	f.Add(good)
	for _, mutate := range []func(st *EngineState, r *EventRecord, peer int){
		func(_ *EngineState, r *EventRecord, _ int) { r.Dst = 1 << 20 },
		func(_ *EngineState, r *EventRecord, _ int) { r.Dst = -1 },
		func(_ *EngineState, r *EventRecord, peer int) { r.Dst = (peer + 1) % 4 * 2 },
		func(_ *EngineState, r *EventRecord, _ int) { r.Src = 1 << 20 },
		func(st *EngineState, _ *EventRecord, _ int) { st.LPs[1].LVT = math.NaN() },
		func(st *EngineState, _ *EventRecord, _ int) { st.GVT = math.NaN() },
		func(_ *EngineState, r *EventRecord, _ int) { r.Ts = math.NaN() },
		func(st *EngineState, r *EventRecord, _ int) { r.Ts = st.GVT - 1 },
		func(st *EngineState, r *EventRecord, _ int) { r.Seq = st.Seq + 1 },
	} {
		mut, _, ok := ConsumeEngineState(good)
		if !ok {
			f.Fatal("capture does not decode")
		}
		peer := 0
		for len(mut.Pending[peer]) == 0 {
			peer++
		}
		mutate(mut, &mut.Pending[peer][0], peer)
		f.Add(AppendEngineState(nil, mut))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, rest, ok := ConsumeEngineState(data)
		if !ok || len(rest) != 0 {
			return // not a state: FuzzCheckpointDecode's business
		}
		eng, err := NewEngineFromState(fuzzStateCfg(), st)
		if err != nil {
			if !errors.Is(err, ErrInvalidState) {
				t.Fatalf("refused without ErrInvalidState: %v", err)
			}
			return
		}
		driveRounds(eng, 4)
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("built from an accepted state, the engine broke: %v", err)
		}
	})
}
