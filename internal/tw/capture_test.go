package tw_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"ggpdes/internal/models"
	"ggpdes/internal/rng"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/tw"
)

type freeCPU struct{}

func (freeCPU) Work(uint64) {}

// driveTo runs eng under a fixed skewed schedule until a GVT
// publication reaches target: peer i gets 1+(i+pass)%3 turns per pass,
// so some peers run ahead and the others send them stragglers, and GVT
// is published every fourth pass, so a boundary always finds
// speculation in flight for quiesce to roll back.
func driveTo(t *testing.T, eng *tw.Engine, target tw.VT) {
	t.Helper()
	cpu := freeCPU{}
	for pass := 1; pass < 1_000_000; pass++ {
		for i, p := range eng.Peers() {
			for k := 0; k < 1+(i+pass)%3; k++ {
				p.DrainProcess(cpu)
			}
		}
		if pass%4 != 0 {
			continue
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
		if min >= target {
			return
		}
	}
	t.Fatalf("GVT never reached %v", target)
}

// The engines of the continuation tests: four threads of each bundled
// model to virtual time 24, boundaries at a third and two thirds of it.
const (
	contThreads = 4
	contEnd     = 24.0
)

var continuationModels = map[string]func() (tw.Model, error){
	"phold": func() (tw.Model, error) {
		return models.NewPHOLD(models.PHOLDConfig{Threads: contThreads, LPsPerThread: 4, Imbalance: 2, EndTime: contEnd})
	},
	"epidemics": func() (tw.Model, error) {
		return models.NewEpidemics(models.EpidemicsConfig{Threads: contThreads, LPsPerThread: 8, LockdownGroups: 2, ContactRate: 3, TransmissionProb: 0.5, EndTime: contEnd})
	},
	"traffic": func() (tw.Model, error) {
		return models.NewTraffic(models.TrafficConfig{Threads: contThreads, LPsPerThread: 4, CenterStartEvents: 6})
	},
}

// A run that continues from a capture and one that continues from the
// capture's bytes are the same run. This is what lets a checkpointed
// Run start its next segment from the captured EngineState while
// Resume starts from the decoded file (see run.go): the two engines
// below are driven identically to the next boundary and must arrive at
// the same capture, byte for byte, with the same statistics and the
// same pool counters — the first engine allocates from the memory its
// predecessor left behind, the second from the heap, and neither may
// be able to tell.
func TestCaptureContinuation(t *testing.T) {
	const threads, end = contThreads, contEnd
	builders := continuationModels
	variants := map[string]func(*tw.Config){
		"copy":   func(*tw.Config) {},
		"window": func(c *tw.Config) { c.OptimismWindow = 2 },
	}
	for name, build := range builders {
		for vname, vary := range variants {
			t.Run(name+"/"+vname, func(t *testing.T) {
				config := func() (tw.Config, *telemetry.Registry) {
					model, err := build()
					if err != nil {
						t.Fatal(err)
					}
					reg := telemetry.NewRegistry()
					cfg := tw.Config{NumThreads: threads, Model: model, EndTime: end, Seed: 7, Telemetry: reg}
					vary(&cfg)
					return cfg, reg
				}
				cfg, _ := config()
				first, err := tw.NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				driveTo(t, first, end/3)
				rolledBack := first.TotalStats().RolledBack
				st, err := first.Capture()
				if err != nil {
					t.Fatal(err)
				}
				if first.TotalStats().RolledBack == rolledBack {
					t.Fatal("the boundary found no speculation to roll back; the schedule proves nothing")
				}
				data := tw.AppendEngineState(nil, st)
				decoded, rest, ok := tw.ConsumeEngineState(bytes.Clone(data))
				if !ok || len(rest) != 0 {
					t.Fatalf("capture does not decode (ok %v, %d bytes left)", ok, len(rest))
				}

				next := func(from *tw.EngineState) ([]byte, tw.PeerStats, map[string]uint64) {
					cfg, reg := config()
					eng, err := tw.NewEngineFromState(cfg, from)
					if err != nil {
						t.Fatal(err)
					}
					driveTo(t, eng, 2*end/3)
					st, err := eng.Capture()
					if err != nil {
						t.Fatal(err)
					}
					if err := eng.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					eng.FlushPoolStats()
					return tw.AppendEngineState(nil, st), eng.TotalStats(), reg.Counters()
				}
				capA, statsA, poolA := next(st)
				capB, statsB, poolB := next(decoded)
				if !reflect.DeepEqual(st, decoded) {
					// Compared only now: building an engine takes the
					// capture's spare memory, which no decoder can return.
					t.Errorf("capture changed across its encoding:\nwant %+v\ngot  %+v", st, decoded)
				}
				if !bytes.Equal(capA, capB) {
					t.Error("next capture differs between the capture-continued and the decode-continued engine")
				}
				if statsA != statsB {
					t.Errorf("statistics differ:\ncapture %+v\ndecoded %+v", statsA, statsB)
				}
				if !reflect.DeepEqual(poolA, poolB) {
					t.Errorf("telemetry counters differ:\ncapture %v\ndecoded %v", poolA, poolB)
				}
				if statsA.Committed == 0 || statsA.RolledBack == 0 {
					t.Errorf("degenerate continuation: %+v", statsA)
				}
			})
		}
	}
}

// countingModel counts DecodeState calls on the way to the model.
type countingModel struct {
	tw.CheckpointModel
	decodes *int
}

func (m countingModel) DecodeState(data []byte) (tw.State, error) {
	*m.decodes++
	return m.CheckpointModel.DecodeState(data)
}

// The LP states of a captured engine ride its spare set to the engine
// that continues from the capture, which installs them and decodes
// nothing; an engine that cannot take the set because the capture came
// over the wire decodes every one. The two are the same run: the same
// next capture byte for byte, the same statistics and the same pool
// counters.
func TestStatesRideTheSpareSet(t *testing.T) {
	variants := map[string]func(*tw.Config){
		"copy":   func(*tw.Config) {},
		"window": func(c *tw.Config) { c.OptimismWindow = 2 },
	}
	type outcome struct {
		capture []byte
		stats   tw.PeerStats
		pool    map[string]uint64
		decodes int
	}
	for name, build := range continuationModels {
		for vname, vary := range variants {
			t.Run(name+"/"+vname, func(t *testing.T) {
				// continueFrom runs the first segment to its boundary, hands
				// the capture to via, and continues what comes back in a
				// second engine to the next boundary.
				continueFrom := func(via func(*tw.EngineState) *tw.EngineState) (out outcome) {
					config := func() (tw.Config, *telemetry.Registry) {
						model, err := build()
						if err != nil {
							t.Fatal(err)
						}
						reg := telemetry.NewRegistry()
						cfg := tw.Config{NumThreads: contThreads, EndTime: contEnd, Seed: 7, Telemetry: reg}
						cfg.Model = countingModel{model.(tw.CheckpointModel), &out.decodes}
						vary(&cfg)
						return cfg, reg
					}
					cfg, _ := config()
					first, err := tw.NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					driveTo(t, first, contEnd/3)
					st, err := first.Capture()
					if err != nil {
						t.Fatal(err)
					}
					cfg, reg := config()
					eng, err := tw.NewEngineFromState(cfg, via(st))
					if err != nil {
						t.Fatal(err)
					}
					driveTo(t, eng, 2*contEnd/3)
					next, err := eng.Capture()
					if err != nil {
						t.Fatal(err)
					}
					if err := eng.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					eng.FlushPoolStats()
					out.capture, out.stats, out.pool = tw.AppendEngineState(nil, next), eng.TotalStats(), reg.Counters()
					return out
				}
				asIs := func(st *tw.EngineState) *tw.EngineState { return st }
				overTheWire := func(st *tw.EngineState) *tw.EngineState {
					decoded, rest, ok := tw.ConsumeEngineState(tw.AppendEngineState(nil, st))
					if !ok || len(rest) != 0 {
						t.Fatalf("capture does not decode (ok %v, %d bytes left)", ok, len(rest))
					}
					return decoded
				}
				rode := continueFrom(asIs)
				wired := continueFrom(overTheWire)
				lps := contThreads * 4
				if name == "epidemics" {
					lps = contThreads * 8
				}
				if rode.decodes != 0 || wired.decodes != lps {
					t.Errorf("DecodeState calls: %d with the spare set, %d over the wire; want 0, %d",
						rode.decodes, wired.decodes, lps)
				}
				if !bytes.Equal(rode.capture, wired.capture) {
					t.Error("next capture differs from the one reached on adopted states")
				}
				if rode.stats != wired.stats {
					t.Errorf("statistics differ:\nadopted %+v\ndecoded %+v", rode.stats, wired.stats)
				}
				if !reflect.DeepEqual(rode.pool, wired.pool) {
					t.Errorf("telemetry counters differ:\nadopted %v\ndecoded %v", rode.pool, wired.pool)
				}
				if rode.stats.Committed == 0 || rode.stats.RolledBack == 0 {
					t.Errorf("degenerate continuation: %+v", rode.stats)
				}
			})
		}
	}
}

// nil and empty slices are different states — a hollow shard's pending
// lists are nil for the peers it does not host, and the state travels
// on to workers that count its bytes — so the codec keeps them apart;
// and it refuses every truncation without panicking.
func TestEngineStateCodec(t *testing.T) {
	states := []*tw.EngineState{
		{},
		{LPs: []tw.LPRecord{}, Pending: [][]tw.EventRecord{}, PeerStats: []tw.PeerStats{}},
		{
			Seq: math.MaxUint64, GVT: math.Inf(1), PeakUncommitted: -1,
			LPs: []tw.LPRecord{
				{State: nil, Rng: rng.State{State: math.MaxUint64, Inc: 1}, LVT: math.SmallestNonzeroFloat64},
				{State: []byte{}, LVT: math.Copysign(0, -1)},
				{State: []byte{0, 255}, LVT: 1.0000000000000002},
			},
			Pending: [][]tw.EventRecord{
				nil,
				{},
				{{Ts: 3.5, Seq: 1 << 40, Src: 3, Dst: 0, Kind: 255, A: math.MinInt64, B: math.MaxInt64}, {Ts: 3.5, Seq: 1<<40 + 1}},
			},
			PeerStats: []tw.PeerStats{{Processed: 1, GVTRounds: math.MaxUint64}, {}},
		},
	}
	for i, want := range states {
		data := tw.AppendEngineState([]byte("prefix"), want)[len("prefix"):]
		got, rest, ok := tw.ConsumeEngineState(data)
		if !ok || len(rest) != 0 {
			t.Fatalf("state %d: ok %v, %d bytes left", i, ok, len(rest))
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("state %d changed:\nwant %+v\ngot  %+v", i, want, got)
		}
		if !bytes.Equal(tw.AppendEngineState(nil, got), data) { // -0 equals 0 above, not here
			t.Errorf("state %d re-encodes differently", i)
		}
		for n := 0; n < len(data); n++ {
			if _, _, ok := tw.ConsumeEngineState(data[:n]); ok {
				t.Errorf("state %d: %d of %d bytes decoded", i, n, len(data))
			}
		}
	}
	// A pending anti-message cannot have been written.
	anti := tw.AppendEngineState(nil, &tw.EngineState{Pending: [][]tw.EventRecord{{{Ts: 1}}}})
	w := tw.AppendWireEvent(nil, tw.WireEvent{Ts: 1})
	at := bytes.Index(anti, w)
	if at < 0 {
		t.Fatal("pending event not found in its encoding")
	}
	copy(anti[at:], tw.AppendWireEvent(nil, tw.WireEvent{Ts: 1, Anti: true}))
	if _, _, ok := tw.ConsumeEngineState(anti); ok {
		t.Error("decoded a pending anti-message")
	}
	// The two reserved peer-stats slots, where lazy cancellation's
	// counters were, are written as 0 and refused when set.
	ps := tw.PeerStats{Drained: 1, GVTCycles: 2, GVTRounds: 3}
	stats := tw.AppendWirePeerStats(nil, ps)
	for slot := 0; slot < 2; slot++ {
		st := tw.AppendEngineState(nil, &tw.EngineState{PeerStats: []tw.PeerStats{ps}})
		at := len(st) - len(stats) + 8 + slot // eight one-byte counters come first
		if st[at] != 0 {
			t.Fatalf("reserved slot %d encodes as %d", slot, st[at])
		}
		st[at] = 1
		if _, _, ok := tw.ConsumeEngineState(st); ok {
			t.Errorf("decoded a set reserved slot %d", slot)
		}
	}
}
