package tw_test

import (
	"fmt"
	"reflect"
	"testing"

	"ggpdes/internal/core"
	"ggpdes/internal/gvt"
	"ggpdes/internal/machine"
	"ggpdes/internal/models"
	"ggpdes/internal/tw"
)

// The oracle: a run of the whole stack — machine, scheduler, GVT and
// the Time Warp engine with its recycled memory — must commit what the
// sequential reference executor (seq_test.go) executes. Every LP's
// committed (Ts, Src, Kind, A, B) sequence, final state, LVT and the
// committed total are compared; the engine agreeing with the sequential
// execution of the same model is the causality guarantee Time Warp
// owes, where every other trajectory test in the tree compares the
// engine with itself.

// oracleModel builds a case's model for a thread count and end time.
type oracleModel struct {
	name  string
	build func(threads int, end tw.VT) (tw.Model, error)
}

func pholdModel(lps, imbalance int) oracleModel {
	return oracleModel{fmt.Sprintf("phold-1-%d", imbalance), func(threads int, end tw.VT) (tw.Model, error) {
		return models.NewPHOLD(models.PHOLDConfig{Threads: threads, LPsPerThread: lps, Imbalance: imbalance, EndTime: end})
	}}
}

func epidemicsModel(lps, groups int) oracleModel {
	return oracleModel{fmt.Sprintf("epidemics-%d", groups), func(threads int, end tw.VT) (tw.Model, error) {
		return models.NewEpidemics(models.EpidemicsConfig{Threads: threads, LPsPerThread: lps, LockdownGroups: groups, EndTime: end})
	}}
}

func trafficModel(lps int) oracleModel {
	return oracleModel{"traffic", func(threads int, _ tw.VT) (tw.Model, error) {
		return models.NewTraffic(models.TrafficConfig{Threads: threads, LPsPerThread: lps})
	}}
}

// oracleSystem is a scheduling system with its GVT algorithm and
// affinity.
type oracleSystem struct {
	system   core.System
	gvt      gvt.Kind
	affinity core.Affinity
}

func (s oracleSystem) String() string { return fmt.Sprintf("%v-%v-%v", s.system, s.gvt, s.affinity) }

type oracleCase struct {
	model        oracleModel
	threads      int
	sys          oracleSystem
	window       tw.VT
	seed         uint64
	end          tw.VT
	cores, smt   int
	gvtFreq, zct int
	// every, when positive, pauses, captures and rebuilds the engine
	// every that many GVT publications below the end time.
	every int
}

func (c oracleCase) String() string {
	s := fmt.Sprintf("%s/t%d/%v/w%g/s%d", c.model.name, c.threads, c.sys, c.window, c.seed)
	if c.every > 0 {
		s += fmt.Sprintf("/every%d", c.every)
	}
	return s
}

// commit is what the oracle compares of one event.
type commit struct {
	Ts   tw.VT
	Src  int
	Kind uint8
	A, B int64
}

// outcome is a run's per-LP committed sequences, final states and LVTs,
// and its committed total.
type outcome struct {
	commits   [][]commit
	states    []tw.State
	lvts      []tw.VT
	committed uint64
	// rolledBack is the engine's count of undone executions.
	rolledBack uint64
}

func newOutcome(n int) *outcome { return &outcome{commits: make([][]commit, n)} }

func (o *outcome) record(ev *tw.Event) {
	o.commits[ev.Dst] = append(o.commits[ev.Dst], commit{ev.Ts, ev.Src, ev.Kind, ev.A, ev.B})
}

func (o *outcome) finish(lps []*tw.LP) {
	for _, lp := range lps {
		o.states = append(o.states, lp.State())
		o.lvts = append(o.lvts, lp.LVT())
	}
}

// machineConfig is the machine a run.go Config with Machine{Cores,
// SMTWidth, FreqHz: 1.3e9} builds.
func machineConfig(cores, smt int, startTick uint64) machine.Config {
	cfg := machine.KNL7230()
	cfg.Cores, cfg.SMTWidth = cores, smt
	cfg.SMTAggregate = cfg.SMTAggregate[:smt]
	cfg.MaxTicks = 1 << 26
	cfg.StartTick = startTick
	return cfg
}

// sequential runs c's model on the reference executor.
func (c oracleCase) sequential(t *testing.T) *outcome {
	t.Helper()
	model, err := c.model.build(c.threads, c.end)
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome(c.threads * model.LPsPerThread())
	lps, err := tw.RunSequential(model, c.threads, c.seed, c.end, func(ev *tw.Event) {
		o.record(ev)
		o.committed++
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.committed == 0 {
		t.Fatal("the sequential run executed nothing")
	}
	o.finish(lps)
	return o
}

// engine runs c through machine, engine and runner as run.go does: a
// segment per checkpoint boundary, each on a fresh machine that starts
// at the previous one's tick and a fresh engine built from the
// previous one's capture.
func (c oracleCase) engine(t *testing.T, n int) *outcome {
	t.Helper()
	o := newOutcome(n)
	var state *tw.EngineState
	var startTick uint64
	for segment := 0; ; segment++ {
		m, err := machine.New(machineConfig(c.cores, c.smt, startTick))
		if err != nil {
			t.Fatal(err)
		}
		model, err := c.model.build(c.threads, c.end)
		if err != nil {
			t.Fatal(err)
		}
		var eng *tw.Engine
		pubs := 0
		cfg := tw.Config{
			NumThreads:     c.threads,
			Model:          model,
			EndTime:        c.end,
			Seed:           c.seed,
			OptimismWindow: c.window,
			OnGVT: func(v tw.VT) {
				if c.every > 0 && v < c.end {
					if pubs++; pubs >= c.every {
						eng.Pause()
					}
				}
			},
		}
		tw.SetOnCommit(&cfg, o.record)
		if state != nil {
			eng, err = tw.NewEngineFromState(cfg, state)
		} else {
			eng, err = tw.NewEngine(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.NewRunner(core.Config{
			Machine:              m,
			Engine:               eng,
			System:               c.sys.system,
			GVTKind:              c.sys.gvt,
			GVTFrequency:         c.gvtFreq,
			ZeroCounterThreshold: c.zct,
			Affinity:             c.sys.affinity,
		}); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("segment %d: %v", segment, err)
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("segment %d: %v", segment, err)
		}
		startTick = m.Stats().Ticks
		if eng.Paused() {
			eng.ReleaseStart()
			if state, err = eng.Capture(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if !eng.Done() || eng.GVT() < c.end {
			t.Fatalf("run ended at GVT %v before end time %v", eng.GVT(), c.end)
		}
		if c.every > 0 && segment == 0 {
			t.Fatal("checkpointed run never reached a boundary")
		}
		s := eng.TotalStats()
		if s.Processed-s.RolledBack != s.Committed {
			t.Fatalf("processed %d - rolled back %d != committed %d", s.Processed, s.RolledBack, s.Committed)
		}
		o.committed, o.rolledBack = s.Committed, s.RolledBack
		o.finish(eng.LPs())
		return o
	}
}

// check runs c both ways and reports every way they differ.
func (c oracleCase) check(t *testing.T) {
	t.Helper()
	want := c.sequential(t)
	got := c.engine(t, len(want.commits))
	t.Logf("%d events committed, %d executions rolled back", got.committed, got.rolledBack)
	if got.committed != want.committed {
		t.Errorf("committed %d events, the sequential run %d", got.committed, want.committed)
	}
	for id := range want.commits {
		if g, w := got.commits[id], want.commits[id]; !reflect.DeepEqual(g, w) {
			t.Errorf("LP %d committed %d events, the sequential run %d; first difference at %d",
				id, len(g), len(w), firstDifference(g, w))
		}
		if got.lvts[id] != want.lvts[id] {
			t.Errorf("LP %d LVT %v, the sequential run %v", id, got.lvts[id], want.lvts[id])
		}
		if !reflect.DeepEqual(got.states[id], want.states[id]) {
			t.Errorf("LP %d final state %+v, the sequential run %+v", id, got.states[id], want.states[id])
		}
	}
}

func firstDifference(a, b []commit) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// oracleModels are the models the oracle runs, each with its thread
// count and end time.
var oracleModels = []struct {
	model   oracleModel
	threads int
	end     tw.VT
}{
	{pholdModel(2, 1), 16, 40},
	{pholdModel(2, 4), 16, 40},
	{pholdModel(2, 16), 16, 40},
	{epidemicsModel(8, 2), 8, 30},
	{trafficModel(4), 16, 16},
}

var oracleSystems = []oracleSystem{
	{core.Baseline, gvt.WaitFree, core.AffinityNone},
	{core.GGPDES, gvt.Barrier, core.AffinityDynamic},
	{core.DDPDES, gvt.WaitFree, core.AffinityConstant},
}

func TestOracle(t *testing.T) {
	for _, m := range oracleModels {
		for _, window := range []tw.VT{0, 10} {
			for _, sys := range oracleSystems {
				for _, seed := range []uint64{1, 7} {
					c := oracleCase{
						model: m.model, threads: m.threads, sys: sys, window: window, seed: seed, end: m.end,
						cores: 4, smt: 2, gvtFreq: 20, zct: 60,
					}
					t.Run(c.String(), c.check)
				}
			}
		}
	}
}

// The three configs on which Barrier GVT once published a GVT past an
// anti-message sent after the receiver's drain (ggpdes_test.go's
// TestBarrierCoversAntiMessagesSentAfterADrain): their trajectories are
// checked too, not only their completion.
func TestOracleBarrierReproducers(t *testing.T) {
	for _, r := range []struct {
		system  core.System
		threads int
		seed    uint64
		window  tw.VT
	}{
		{core.Baseline, 32, 3, 0},
		{core.GGPDES, 32, 3, 0},
		{core.DDPDES, 64, 2, 10},
	} {
		c := oracleCase{
			model: epidemicsModel(8, 2), threads: r.threads, sys: oracleSystem{r.system, gvt.Barrier, core.AffinityConstant},
			window: r.window, seed: r.seed, end: 30, cores: 8, smt: 2, gvtFreq: 20, zct: 200,
		}
		t.Run(c.String(), c.check)
	}
}

// A checkpointed run is a chain of engines, each built from the
// previous one's capture: the chain must commit what one sequential run
// executes, at every cadence.
func TestOracleCheckpointed(t *testing.T) {
	for _, every := range []int{1, 2, 5} {
		c := oracleCase{
			model: epidemicsModel(8, 2), threads: 8, sys: oracleSystems[1], seed: 7, end: 30,
			cores: 4, smt: 2, gvtFreq: 20, zct: 60, every: every,
		}
		t.Run(c.String(), c.check)
	}
}
