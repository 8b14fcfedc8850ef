package tw_test

import (
	"fmt"
	"strings"
	"testing"

	"ggpdes/internal/chaos"
	"ggpdes/internal/core"
	"ggpdes/internal/gvt"
	"ggpdes/internal/machine"
	"ggpdes/internal/models"
	"ggpdes/internal/rng"
	"ggpdes/internal/tw"
)

// The oracle: a run of the whole stack — machine, scheduler, GVT, stall
// injector and the Time Warp engine with its recycled memory, as one
// engine or as a chain of checkpoint segments — must commit what the
// sequential reference executor (seq_test.go) executes. Every LP's
// committed (Ts, Src, Kind, A, B) sequence, final state, LVT and the
// committed total are compared, and at every checkpoint boundary each
// captured LVT against the LP's last sequential commit below the
// boundary's GVT. The engine agreeing with the sequential execution of
// the same model is the causality guarantee Time Warp owes; it is the
// one trajectory reference in the tree, and the tests that once
// compared the engine with itself compare against it now. An LVT is
// compared only where the LP's history is empty — after the run, and
// quiesced at a boundary; the speculative LVT over a non-empty history
// is TestHistoryMatchesSliceReference's to check.

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

// epidemicsModel is Epidemics as cfg gives it, on the case's threads
// and end time.
func epidemicsModel(cfg models.EpidemicsConfig) oracleModel {
	return oracleModel{fmt.Sprintf("epidemics-%d", cfg.LockdownGroups), func(threads int, end tw.VT) (tw.Model, error) {
		cfg.Threads, cfg.EndTime = threads, end
		return models.NewEpidemics(cfg)
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
	// stall, when positive, is the rate at which a chaos injector stalls
	// main-loop iterations; it is rebuilt every segment, as run.go
	// rebuilds it.
	stall float64
	// every, when positive, pauses, captures and rebuilds the engine
	// every that many GVT publications below the end time. With decode,
	// the first capture and every other one after it reach the next
	// engine through the binary codec (tw.AppendEngineState,
	// tw.ConsumeEngineState), the rest in process.
	every  int
	decode bool
}

func (c oracleCase) String() string {
	s := fmt.Sprintf("%s/t%d/%v/w%g/s%d", c.model.name, c.threads, c.sys, c.window, c.seed)
	if c.stall > 0 {
		s += fmt.Sprintf("/stall%g", c.stall)
	}
	if c.every > 0 {
		s += fmt.Sprintf("/every%d", c.every)
	}
	if c.decode {
		s += "/decode"
	}
	return s
}

// oracleMaxTicks bounds every run's machine, so that a livelock fails
// in seconds; the largest case here takes a small fraction of it.
const oracleMaxTicks = 1 << 18

// machineConfig is the machine a run.go Config with Machine{Cores,
// SMTWidth, FreqHz: 1.3e9} builds, bounded at oracleMaxTicks.
func machineConfig(cores, smt int, startTick uint64) machine.Config {
	cfg := machine.KNL7230()
	cfg.Cores, cfg.SMTWidth = cores, smt
	cfg.SMTAggregate = cfg.SMTAggregate[:smt]
	cfg.MaxTicks = oracleMaxTicks
	cfg.StartTick = startTick
	return cfg
}

// countingStalls counts the stalls its injector decides.
type countingStalls struct {
	core.ThreadFaultInjector
	n *uint64
}

func (c countingStalls) Stalled(tid int) bool {
	s := c.ThreadFaultInjector.Stalled(tid)
	if s {
		*c.n++
	}
	return s
}

// runStats is what a run did that a case must not leave undone: the
// executions it rolled back, the iterations it stalled and the
// boundaries it crossed and decoded.
type runStats struct {
	rolledBack, stalls          uint64
	rounds, boundaries, decoded int
}

// run runs c's model on the sequential executor and then through
// machine, engine and runner as run.go does: a segment per checkpoint
// boundary, each on a fresh machine that starts at the previous one's
// tick and a fresh engine built from the previous one's capture. It
// reports every way the two differ.
func (c oracleCase) run(t *testing.T) runStats {
	t.Helper()
	model, err := c.model.build(c.threads, c.end)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tw.SequentialOutcome(model, c.threads, c.seed, c.end)
	if err != nil {
		t.Fatal(err)
	}
	got := tw.NewOutcome(len(want.Commits))
	var st runStats
	var state *tw.EngineState
	var startTick uint64
	for {
		m, err := machine.New(machineConfig(c.cores, c.smt, startTick))
		if err != nil {
			t.Fatal(err)
		}
		if model, err = c.model.build(c.threads, c.end); err != nil {
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
				if v >= c.end {
					return
				}
				st.rounds++
				if pubs++; c.every > 0 && pubs >= c.every {
					eng.Pause()
				}
			},
		}
		tw.SetOnCommit(&cfg, got.Record)
		if state != nil {
			eng, err = tw.NewEngineFromState(cfg, state)
		} else {
			eng, err = tw.NewEngine(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		var faults core.ThreadFaultInjector
		if c.stall > 0 {
			faults = countingStalls{chaos.NewThreadFaults(c.seed, c.threads, c.stall), &st.stalls}
		}
		if _, err := core.NewRunner(core.Config{
			Machine:              m,
			Engine:               eng,
			System:               c.sys.system,
			GVTKind:              c.sys.gvt,
			GVTFrequency:         c.gvtFreq,
			ZeroCounterThreshold: c.zct,
			Affinity:             c.sys.affinity,
			Faults:               faults,
		}); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("segment %d: %v", st.boundaries, err)
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("segment %d: %v", st.boundaries, err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("segment %d: %v", st.boundaries, err)
		}
		startTick = m.Stats().Ticks
		if eng.Paused() {
			eng.ReleaseStart()
			if state, err = eng.Capture(); err != nil {
				t.Fatal(err)
			}
			st.boundaries++
			checkBoundaryLVTs(t, want, state, st.boundaries)
			if c.decode && st.boundaries%2 == 1 {
				b := tw.AppendEngineState(nil, state)
				if state, b, _ = tw.ConsumeEngineState(b); state == nil || len(b) > 0 {
					t.Fatalf("boundary %d: the capture does not decode from its encoding", st.boundaries)
				}
				st.decoded++
			}
			continue
		}
		if !eng.Done() || eng.GVT() < c.end {
			t.Fatalf("run ended at GVT %v before end time %v", eng.GVT(), c.end)
		}
		s := eng.TotalStats()
		if s.Processed-s.RolledBack != s.Committed || s.Committed != got.Committed {
			t.Fatalf("processed %d - rolled back %d != committed %d, %d seen committing",
				s.Processed, s.RolledBack, s.Committed, got.Committed)
		}
		st.rolledBack = s.RolledBack
		got.Finish(eng.LPs())
		want.Diff(t, got)
		t.Logf("%d events committed, %d executions rolled back, %d stalls, %d GVTs below the end, %d boundaries (%d decoded)",
			got.Committed, st.rolledBack, st.stalls, st.rounds, st.boundaries, st.decoded)
		return st
	}
}

// checkBoundaryLVTs checks that every LP captured at a boundary holds
// the LVT of its last sequential commit below the boundary's GVT, and
// reports the first that does not.
func checkBoundaryLVTs(t *testing.T, want *tw.Outcome, state *tw.EngineState, boundary int) {
	t.Helper()
	for id, rec := range state.LPs {
		if w := want.LVTBelow(id, state.GVT); rec.LVT != w {
			t.Errorf("boundary %d at GVT %v: LP %d LVT %v, its last sequential commit below the GVT %v",
				boundary, state.GVT, id, rec.LVT, w)
			return
		}
	}
}

// check is run, failing, too, a checkpointed case that reached no
// boundary or a decoding one that decoded none.
func (c oracleCase) check(t *testing.T) runStats {
	t.Helper()
	st := c.run(t)
	if c.every > 0 && st.boundaries == 0 {
		t.Error("vacuous: the checkpointed run reached no boundary")
	}
	if c.decode && st.decoded == 0 {
		t.Error("vacuous: no boundary went through the codec")
	}
	return st
}

// coverage names what c exercises: its model, System × GVT and System ×
// affinity, and whether it runs with a window, stalls, checkpoints and
// decodes.
func (c oracleCase) coverage() []string {
	return []string{
		strings.SplitN(c.model.name, "-", 2)[0],
		fmt.Sprintf("%v-%v", c.sys.system, c.sys.gvt),
		fmt.Sprintf("%v-%v", c.sys.system, c.sys.affinity),
		fmt.Sprintf("window %t", c.window > 0),
		fmt.Sprintf("stall %t", c.stall > 0),
		fmt.Sprintf("every %t", c.every > 0),
		fmt.Sprintf("decode %t", c.decode),
	}
}

// oracleCoverage is how many coverage names a corpus that covers
// everything genCase draws holds: 3 models, 6 System × GVT pairs, 7
// valid System × affinity pairs and both sides of 4 switches.
const oracleCoverage = 3 + 6 + 7 + 2*4

// genCase draws a valid configuration from seed, every choice from one
// stream, so that a seed names its case:
//   - PHOLD with imbalance 1, 2, 4 or 16 on 4–16 threads or Epidemics
//     with 1–4 lockdown groups on 4–12, threads that the imbalance or
//     group count divides, or Traffic on a 4×4, 6×6 or 8×8 grid on 4–16
//     threads that divide its LPs;
//   - 2–8 cores × SMT 1–4, so DD-PDES, which needs 2 cores, always fits;
//   - any System × GVT, with no, constant or — under GG-PDES only —
//     dynamic affinity;
//   - no optimism window or one of 1–20, GVT every 1–8 iterations and a
//     zero-counter threshold of 20–400;
//   - a third of the cases stalled at 0.01, 0.1 or 0.5, a third
//     checkpointed every 1–5 publications, always with a window, half
//     of those through the codec.
func genCase(seed uint64) oracleCase {
	r := rng.New(seed, 0x0dac1e)
	pick := func(vs ...int) int { return vs[r.Intn(len(vs))] }
	// multiple draws a multiple of d in [4, hi].
	multiple := func(d, hi int) int {
		lo := (d + 3) / d
		return d * (lo + r.Intn(hi/d-lo+1))
	}
	c := oracleCase{
		seed: seed, cores: 2 + r.Intn(7), smt: 1 + r.Intn(4),
		gvtFreq: 1 + r.Intn(8), zct: 20 + r.Intn(381),
	}
	switch r.Intn(3) {
	case 0:
		imbalance := pick(1, 2, 4, 16)
		c.threads = multiple(imbalance, 16)
		c.model, c.end = pholdModel(2+r.Intn(3), imbalance), tw.VT(20+r.Intn(21))
	case 1:
		groups := 1 + r.Intn(4)
		c.threads = multiple(groups, 12)
		c.model = epidemicsModel(models.EpidemicsConfig{
			LPsPerThread: 8, LockdownGroups: groups, ContactRate: 3, TransmissionProb: 0.5,
		})
		c.end = tw.VT(20 + r.Intn(21))
	default:
		side := pick(4, 6, 8)
		var divisors []int
		for d := 4; d <= 16; d++ {
			if side*side%d == 0 {
				divisors = append(divisors, d)
			}
		}
		c.threads = divisors[r.Intn(len(divisors))]
		c.model, c.end = trafficModel(side*side/c.threads), tw.VT(4+r.Intn(4))
	}
	c.sys.system = []core.System{core.Baseline, core.DDPDES, core.GGPDES}[r.Intn(3)]
	c.sys.gvt = []gvt.Kind{gvt.Barrier, gvt.WaitFree}[r.Intn(2)]
	affinities := []core.Affinity{core.AffinityNone, core.AffinityConstant, core.AffinityDynamic}
	if c.sys.system != core.GGPDES {
		affinities = affinities[:2]
	}
	c.sys.affinity = affinities[r.Intn(len(affinities))]
	if r.Intn(2) == 0 {
		c.window = tw.VT(1 + r.Intn(20))
	}
	if r.Intn(3) == 0 {
		c.stall = []float64{0.01, 0.1, 0.5}[r.Intn(3)]
	}
	if r.Intn(3) == 0 {
		c.every, c.decode = 1+r.Intn(5), r.Intn(2) == 0
		if c.window == 0 {
			// Every boundary rolls all speculation back, which without a
			// window can be most of the run (TestOracleCheckpointed
			// runs that).
			c.window = tw.VT(1 + r.Intn(20))
		}
	}
	return c
}

// oracleCorpus is how many generated cases tier-1 runs: seeds 1 to
// oracleCorpus.
const oracleCorpus = 160

// TestOracleGenerated runs the generated corpus, its cases in parallel,
// and fails, too, on a corpus that does not cover everything genCase
// draws, whose stall cases stalled nothing or that rolled nothing back.
func TestOracleGenerated(t *testing.T) {
	stats := make([]runStats, oracleCorpus)
	covered := map[string]bool{}
	for seed := uint64(1); seed <= oracleCorpus; seed++ {
		c := genCase(seed)
		for _, name := range c.coverage() {
			covered[name] = true
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			t.Logf("%v on %d×%d cores, GVT every %d, zct %d", c, c.cores, c.smt, c.gvtFreq, c.zct)
			stats[seed-1] = c.check(t)
		})
	}
	if len(covered) != oracleCoverage {
		t.Errorf("the corpus covers %d of %d: %v", len(covered), oracleCoverage, covered)
	}
	// The parallel cases run after this function returns, and cleanups
	// after them.
	t.Cleanup(func() {
		var rolledBack, stalls uint64
		for _, st := range stats {
			rolledBack, stalls = rolledBack+st.rolledBack, stalls+st.stalls
		}
		if stalls == 0 {
			t.Error("vacuous corpus: the stall cases stalled nothing")
		}
		if rolledBack == 0 {
			t.Error("vacuous corpus: nothing rolled back")
		}
	})
}

// FuzzOracle takes the generated corpus further; `make fuzz` runs it
// for FUZZTIME. Only a difference from the sequential run fails an
// input, and a failing seed is its own reproducer: genCase(seed).
func FuzzOracle(f *testing.F) {
	f.Add(uint64(oracleCorpus + 1))
	f.Fuzz(func(t *testing.T, seed uint64) {
		c := genCase(seed)
		t.Logf("%v on %d×%d cores, GVT every %d, zct %d", c, c.cores, c.smt, c.gvtFreq, c.zct)
		c.run(t)
	})
}

// The three configs on which Barrier GVT once published a GVT past an
// anti-message sent after the receiver's drain: the receiver fossil
// collected its target, and draining it panicked. Their trajectories
// are checked too, not only their completion.
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
			model:   epidemicsModel(models.EpidemicsConfig{LPsPerThread: 8, LockdownGroups: 2}),
			threads: r.threads, sys: oracleSystem{r.system, gvt.Barrier, core.AffinityConstant},
			window: r.window, seed: r.seed, end: 30, cores: 8, smt: 2, gvtFreq: 20, zct: 200,
		}
		t.Run(c.String(), func(t *testing.T) { c.check(t) })
	}
}

// The seeds on which DD-PDES with the wait-free GVT once livelocked:
// reactivated threads join the protocol lazily, and the last subscriber
// leaving while joiners were pending left the protocol with no
// participants and the joiners stranded. The tick bound turns a
// livelock into a failure.
func TestOracleDDWaitFreeReproducers(t *testing.T) {
	for _, seed := range []uint64{9, 10, 58, 89, 105, 164, 177} {
		c := oracleCase{
			model: pholdModel(4, 1), threads: 16, sys: oracleSystem{core.DDPDES, gvt.WaitFree, core.AffinityConstant},
			window: 10, seed: seed, end: 40, cores: 8, smt: 2, gvtFreq: 40, zct: 400,
		}
		t.Run(c.String(), func(t *testing.T) { c.check(t) })
	}
}

// A checkpointed run is a chain of engines, each built from the
// previous one's capture: the chain must commit what one sequential run
// executes, at every cadence.
func TestOracleCheckpointed(t *testing.T) {
	for _, every := range []int{1, 2, 5} {
		c := oracleCase{
			model:   epidemicsModel(models.EpidemicsConfig{LPsPerThread: 8, LockdownGroups: 2}),
			threads: 8, sys: oracleSystem{core.GGPDES, gvt.Barrier, core.AffinityDynamic}, seed: 7, end: 30,
			cores: 4, smt: 2, gvtFreq: 20, zct: 60, every: every,
		}
		t.Run(c.String(), func(t *testing.T) { c.check(t) })
	}
}
