package core

import (
	"fmt"
	"testing"

	"ggpdes/internal/gvt"
	"ggpdes/internal/machine"
	"ggpdes/internal/models"
	"ggpdes/internal/tw"
)

// simResult collects everything the integration tests assert on.
type simResult struct {
	committed, processed, rolledBack uint64
	gvtCycles                        uint64
	totalCycles                      uint64
	wallSeconds                      float64
	ticks                            uint64
	deactivations, activations       uint64
	rounds                           uint64
	runner                           *Runner
	eng                              *tw.Engine
	m                                *machine.Machine
}

type simParams struct {
	system     System
	gvtKind    gvt.Kind
	affinity   Affinity
	threads    int
	lpsPer     int
	imbalance  int
	nonLinear  bool
	endTime    tw.VT
	cores      int
	smt        int
	gvtFreq    int
	zeroThresh int
	seed       uint64
	maxTicks   uint64
	startPerLP int
}

func (sp *simParams) fill() {
	if sp.threads == 0 {
		sp.threads = 8
	}
	if sp.lpsPer == 0 {
		sp.lpsPer = 4
	}
	if sp.imbalance == 0 {
		sp.imbalance = 1
	}
	if sp.endTime == 0 {
		sp.endTime = 40
	}
	if sp.cores == 0 {
		sp.cores = 4
	}
	if sp.smt == 0 {
		sp.smt = 2
	}
	if sp.gvtFreq == 0 {
		sp.gvtFreq = 20
	}
	if sp.zeroThresh == 0 {
		sp.zeroThresh = 60
	}
	if sp.seed == 0 {
		sp.seed = 42
	}
	if sp.maxTicks == 0 {
		sp.maxTicks = 1 << 22
	}
	if sp.startPerLP == 0 {
		sp.startPerLP = 1
	}
}

func runSim(t *testing.T, sp simParams) *simResult {
	t.Helper()
	sp.fill()
	mcfg := machine.Small()
	mcfg.Cores = sp.cores
	mcfg.SMTWidth = sp.smt
	agg := make([]float64, sp.smt)
	for i := range agg {
		agg[i] = 1 + 0.45*float64(i)
	}
	agg[0] = 1
	mcfg.SMTAggregate = agg
	mcfg.MaxTicks = sp.maxTicks
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := models.NewPHOLD(models.PHOLDConfig{
		Threads:          sp.threads,
		LPsPerThread:     sp.lpsPer,
		Imbalance:        sp.imbalance,
		NonLinear:        sp.nonLinear,
		EndTime:          sp.endTime,
		StartEventsPerLP: sp.startPerLP,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := tw.NewEngine(tw.Config{
		NumThreads: sp.threads,
		Model:      model,
		EndTime:    sp.endTime,
		Seed:       sp.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Machine:              m,
		Engine:               eng,
		System:               sp.system,
		GVTKind:              sp.gvtKind,
		GVTFrequency:         sp.gvtFreq,
		ZeroCounterThreshold: sp.zeroThresh,
		Affinity:             sp.affinity,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("%v/%v: machine run: %v", sp.system, sp.gvtKind, err)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatalf("%v/%v: invariants: %v", sp.system, sp.gvtKind, err)
	}
	if !eng.Done() {
		t.Fatalf("%v/%v: simulation incomplete, GVT=%v", sp.system, sp.gvtKind, eng.GVT())
	}
	res := &simResult{runner: r, eng: eng, m: m}
	s := eng.TotalStats()
	res.committed = s.Committed
	res.processed = s.Processed
	res.rolledBack = s.RolledBack
	res.gvtCycles = s.GVTCycles
	res.totalCycles = m.TotalCycles()
	res.wallSeconds = m.WallSeconds()
	res.ticks = m.Stats().Ticks
	res.rounds = r.Algorithm().Rounds()
	if d := r.demand; d != nil {
		res.deactivations, res.activations = d.Deactivations, d.Activations
	}
	return res
}

func TestAllSystemsCompleteBalanced(t *testing.T) {
	for _, sys := range []System{Baseline, DDPDES, GGPDES} {
		for _, kind := range []gvt.Kind{gvt.Barrier, gvt.WaitFree} {
			t.Run(fmt.Sprintf("%v-%v", sys, kind), func(t *testing.T) {
				res := runSim(t, simParams{system: sys, gvtKind: kind})
				if res.committed == 0 {
					t.Fatal("no events committed")
				}
				if res.rounds == 0 {
					t.Fatal("no GVT rounds completed")
				}
			})
		}
	}
}

func TestAllSystemsCompleteImbalanced(t *testing.T) {
	for _, sys := range []System{Baseline, DDPDES, GGPDES} {
		for _, kind := range []gvt.Kind{gvt.Barrier, gvt.WaitFree} {
			t.Run(fmt.Sprintf("%v-%v", sys, kind), func(t *testing.T) {
				res := runSim(t, simParams{system: sys, gvtKind: kind, imbalance: 4})
				if res.committed == 0 {
					t.Fatal("no events committed")
				}
			})
		}
	}
}

func TestGGDeactivatesOnImbalance(t *testing.T) {
	res := runSim(t, simParams{system: GGPDES, gvtKind: gvt.WaitFree, imbalance: 4, endTime: 80})
	if res.deactivations == 0 {
		t.Fatal("GG never deactivated a thread on a 1-4 imbalanced model")
	}
	if res.activations == 0 {
		t.Fatal("GG never reactivated a thread despite shifting locality")
	}
}

func TestDDControllerReactivates(t *testing.T) {
	res := runSim(t, simParams{system: DDPDES, gvtKind: gvt.WaitFree, imbalance: 4, endTime: 80, cores: 4})
	if res.deactivations == 0 {
		t.Fatal("DD never deactivated")
	}
	if res.activations == 0 {
		t.Fatal("DD controller never reactivated a thread")
	}
}

// GG-PDES's point: de-scheduled threads burn no cycles, so on an
// imbalanced model it executes far less work than the spinning
// Baseline-Async.
func TestGGExecutesFewerInstructionsThanBaselineAsync(t *testing.T) {
	p := simParams{gvtKind: gvt.WaitFree, imbalance: 4, endTime: 80}
	p.system = Baseline
	base := runSim(t, p)
	p.system = GGPDES
	gg := runSim(t, p)
	if gg.totalCycles >= base.totalCycles {
		t.Fatalf("GG cycles %d not below baseline-async %d", gg.totalCycles, base.totalCycles)
	}
	if gg.gvtCycles >= base.gvtCycles {
		t.Fatalf("GG GVT cycles %d not below baseline-async %d", gg.gvtCycles, base.gvtCycles)
	}
}

func TestOversubscriptionCompletes(t *testing.T) {
	// 32 threads on 8 contexts; only 1/4 active at a time.
	res := runSim(t, simParams{
		system: GGPDES, gvtKind: gvt.WaitFree,
		threads: 32, imbalance: 4, lpsPer: 2, endTime: 60,
	})
	if res.committed == 0 {
		t.Fatal("oversubscribed run committed nothing")
	}
	if res.deactivations == 0 {
		t.Fatal("no deactivations under oversubscription")
	}
}

func TestDynamicAffinityRepins(t *testing.T) {
	res := runSim(t, simParams{
		system: GGPDES, gvtKind: gvt.WaitFree,
		affinity: AffinityDynamic, imbalance: 4, nonLinear: true, endTime: 80,
	})
	aff := res.runner.aff.(*dynamicAffinity)
	if aff.Repins == 0 {
		t.Fatal("dynamic affinity never pinned a thread")
	}
	if res.committed == 0 {
		t.Fatal("nothing committed")
	}
}

func TestConstantAffinityPinsRoundRobin(t *testing.T) {
	res := runSim(t, simParams{system: GGPDES, gvtKind: gvt.WaitFree, affinity: AffinityConstant})
	for tid := 0; tid < 8; tid++ {
		th := res.m.Threads()[tid]
		if th.Pinned() != tid%4 {
			t.Fatalf("thread %d pinned to %d, want %d", tid, th.Pinned(), tid%4)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runSim(t, simParams{system: GGPDES, gvtKind: gvt.WaitFree, imbalance: 2})
	b := runSim(t, simParams{system: GGPDES, gvtKind: gvt.WaitFree, imbalance: 2})
	if a.committed != b.committed || a.ticks != b.ticks || a.totalCycles != b.totalCycles {
		t.Fatalf("runs diverged: committed %d/%d ticks %d/%d cycles %d/%d",
			a.committed, b.committed, a.ticks, b.ticks, a.totalCycles, b.totalCycles)
	}
}

func TestRunnerValidation(t *testing.T) {
	m, _ := machine.New(machine.Small())
	model, _ := models.NewPHOLD(models.PHOLDConfig{Threads: 2, LPsPerThread: 1, EndTime: 1})
	eng, _ := tw.NewEngine(tw.Config{NumThreads: 2, Model: model, EndTime: 1})
	cases := []Config{
		{Machine: nil, Engine: eng},
		{Machine: m, Engine: nil},
		{Machine: m, Engine: eng, GVTFrequency: -1},
		{Machine: m, Engine: eng, ZeroCounterThreshold: -1},
		{Machine: m, Engine: eng, System: Baseline, Affinity: AffinityDynamic},
	}
	for i, cfg := range cases {
		if _, err := NewRunner(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDDNeedsTwoCores(t *testing.T) {
	mcfg := machine.Small()
	mcfg.Cores = 1
	m, _ := machine.New(mcfg)
	model, _ := models.NewPHOLD(models.PHOLDConfig{Threads: 2, LPsPerThread: 1, EndTime: 1})
	eng, _ := tw.NewEngine(tw.Config{NumThreads: 2, Model: model, EndTime: 1})
	if _, err := NewRunner(Config{Machine: m, Engine: eng, System: DDPDES}); err == nil {
		t.Fatal("DD on 1 core accepted")
	}
}

func TestSystemAndAffinityStrings(t *testing.T) {
	if Baseline.String() != "baseline" || DDPDES.String() != "dd-pdes" || GGPDES.String() != "gg-pdes" {
		t.Fatal("system names wrong")
	}
	if System(99).String() != "unknown" {
		t.Fatal("unknown system name wrong")
	}
	if AffinityNone.String() != "none" || AffinityConstant.String() != "constant" || AffinityDynamic.String() != "dynamic" {
		t.Fatal("affinity names wrong")
	}
	if Affinity(99).String() != "unknown" {
		t.Fatal("unknown affinity name wrong")
	}
}
