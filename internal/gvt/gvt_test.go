package gvt

import (
	"fmt"
	"math"
	"testing"

	"ggpdes/internal/machine"
	"ggpdes/internal/models"
	"ggpdes/internal/tw"
)

// countingHooks records hook invocations and can deactivate threads at
// Phase End like a demand-driven scheduler would.
type countingHooks struct {
	aware, roundComplete, end int
	// deactivate, when set, parks the given thread on a semaphore the
	// first time OnEnd sees it.
	deactivateTid int
	deactivated   bool
	sem           *machine.Sem
	alg           Algorithm
	eng           *tw.Engine
	rejoined      bool
}

func (h *countingHooks) OnAware(p *machine.Proc, acc *machine.Acc, tid int) { h.aware++ }
func (h *countingHooks) OnRoundComplete(p *machine.Proc, acc *machine.Acc, tid int) {
	h.roundComplete++
}
func (h *countingHooks) OnEnd(p *machine.Proc, acc *machine.Acc, tid int) {
	h.end++
	if h.sem == nil || tid != h.deactivateTid || h.deactivated || h.eng.Done() {
		return
	}
	h.deactivated = true
	h.alg.Leave(tid)
	acc.Flush()
	p.SemWait(h.sem)
	if !h.eng.Done() {
		h.alg.Join(tid)
		h.rejoined = true
	}
}

// testRig assembles machine + engine + algorithm and a simple runner.
type testRig struct {
	m     *machine.Machine
	eng   *tw.Engine
	alg   Algorithm
	hooks *countingHooks
}

func newRig(t *testing.T, kind Kind, threads int, hooks *countingHooks) *testRig {
	t.Helper()
	mcfg := machine.Small()
	mcfg.MaxTicks = 1 << 21
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := models.NewPHOLD(models.PHOLDConfig{
		Threads: threads, LPsPerThread: 2, EndTime: 30, Imbalance: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := tw.NewEngine(tw.Config{NumThreads: threads, Model: model, EndTime: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if hooks == nil {
		hooks = &countingHooks{}
	}
	hooks.eng = eng
	alg, err := New(Config{Kind: kind, Engine: eng, Machine: m, Frequency: 10, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	hooks.alg = alg
	rig := &testRig{m: m, eng: eng, alg: alg, hooks: hooks}
	for tid := 0; tid < threads; tid++ {
		tid := tid
		m.Spawn(fmt.Sprintf("sim-%d", tid), func(p *machine.Proc) {
			acc := machine.NewAcc(p)
			peer := eng.Peer(tid)
			for !eng.Done() {
				acc.Work(100)
				peer.Drain(acc)
				peer.ProcessBatch(acc)
				alg.Step(p, acc, tid)
				acc.Flush()
			}
			peer.FossilCollect(acc, eng.GVT())
			acc.Flush()
			if hooks.sem != nil && hooks.deactivated && !hooks.rejoined {
				p.SemPost(hooks.sem) // release the parked thread at shutdown
			}
		})
	}
	return rig
}

func (r *testRig) run(t *testing.T) {
	t.Helper()
	if err := r.m.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.eng.Done() {
		t.Fatalf("GVT stalled at %v", r.eng.GVT())
	}
	if err := r.eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	m, _ := machine.New(machine.Small())
	model, _ := models.NewPHOLD(models.PHOLDConfig{Threads: 1, LPsPerThread: 1, EndTime: 1})
	eng, _ := tw.NewEngine(tw.Config{NumThreads: 1, Model: model, EndTime: 1})
	cases := []Config{
		{Kind: Barrier, Engine: nil, Machine: m, Frequency: 10},
		{Kind: Barrier, Engine: eng, Machine: nil, Frequency: 10},
		{Kind: Barrier, Engine: eng, Machine: m, Frequency: 0},
		{Kind: Kind(99), Engine: eng, Machine: m, Frequency: 10},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if Barrier.String() != "barrier" || WaitFree.String() != "waitfree" || Kind(9).String() != "unknown" {
		t.Fatal("kind names wrong")
	}
}

func TestDefaultsApplied(t *testing.T) {
	m, _ := machine.New(machine.Small())
	model, _ := models.NewPHOLD(models.PHOLDConfig{Threads: 1, LPsPerThread: 1, EndTime: 1})
	eng, _ := tw.NewEngine(tw.Config{NumThreads: 1, Model: model, EndTime: 1})
	alg, err := New(Config{Kind: WaitFree, Engine: eng, Machine: m, Frequency: 5})
	if err != nil {
		t.Fatal(err)
	}
	if alg.Name() != "waitfree" {
		t.Fatalf("Name = %q", alg.Name())
	}
	if alg.Participants() != 1 {
		t.Fatalf("Participants = %d", alg.Participants())
	}
}

func TestBarrierAdvancesGVT(t *testing.T) {
	rig := newRig(t, Barrier, 4, nil)
	rig.run(t)
	if rig.alg.Rounds() == 0 {
		t.Fatal("no rounds completed")
	}
	if rig.eng.GVT() < 30 {
		t.Fatalf("GVT = %v, want end time", rig.eng.GVT())
	}
}

func TestWaitFreeAdvancesGVT(t *testing.T) {
	rig := newRig(t, WaitFree, 4, nil)
	rig.run(t)
	if rig.alg.Rounds() == 0 {
		t.Fatal("no rounds completed")
	}
	if rig.eng.GVT() < 30 {
		t.Fatalf("GVT = %v, want end time", rig.eng.GVT())
	}
}

func TestHooksInvokedOncePerRound(t *testing.T) {
	for _, kind := range []Kind{Barrier, WaitFree} {
		t.Run(kind.String(), func(t *testing.T) {
			hooks := &countingHooks{}
			rig := newRig(t, kind, 4, hooks)
			rig.run(t)
			rounds := int(rig.alg.Rounds())
			if rounds == 0 {
				t.Fatal("no rounds")
			}
			if hooks.aware < rounds {
				t.Fatalf("OnAware %d < rounds %d", hooks.aware, rounds)
			}
			if hooks.roundComplete != rounds {
				t.Fatalf("OnRoundComplete %d != rounds %d", hooks.roundComplete, rounds)
			}
			// Every thread ends every completed round (the last partial
			// round may add a few).
			if hooks.end < rounds*4 {
				t.Fatalf("OnEnd %d < %d", hooks.end, rounds*4)
			}
		})
	}
}

func TestGVTCPUCyclesRecorded(t *testing.T) {
	for _, kind := range []Kind{Barrier, WaitFree} {
		rig := newRig(t, kind, 4, nil)
		rig.run(t)
		s := rig.eng.TotalStats()
		if s.GVTCycles == 0 {
			t.Fatalf("%v: no GVT CPU cycles recorded", kind)
		}
		if s.GVTRounds == 0 {
			t.Fatalf("%v: no per-peer rounds recorded", kind)
		}
	}
}

func TestLeaveAndRejoin(t *testing.T) {
	for _, kind := range []Kind{Barrier, WaitFree} {
		t.Run(kind.String(), func(t *testing.T) {
			hooks := &countingHooks{deactivateTid: 2}
			rig := newRig(t, kind, 4, hooks)
			hooks.sem = rig.m.NewSem("park", 0)
			// A watchdog wakes the parked thread after a while,
			// simulating the pseudo-controller's activation.
			rig.m.Spawn("waker", func(p *machine.Proc) {
				for i := 0; i < 50; i++ {
					p.Work(20000)
					if hooks.deactivated {
						break
					}
				}
				if hooks.deactivated && !rig.eng.Done() {
					p.SemPost(hooks.sem)
				}
			})
			rig.run(t)
			if !hooks.deactivated {
				t.Fatal("thread never deactivated")
			}
			if rig.alg.Rounds() == 0 {
				t.Fatal("rounds stopped after leave")
			}
		})
	}
}

func TestDoubleLeavePanics(t *testing.T) {
	for _, kind := range []Kind{Barrier, WaitFree} {
		m, _ := machine.New(machine.Small())
		model, _ := models.NewPHOLD(models.PHOLDConfig{Threads: 2, LPsPerThread: 1, EndTime: 5})
		eng, _ := tw.NewEngine(tw.Config{NumThreads: 2, Model: model, EndTime: 5})
		alg, _ := New(Config{Kind: kind, Engine: eng, Machine: m, Frequency: 5})
		alg.Leave(0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: double leave did not panic", kind)
				}
			}()
			alg.Leave(0)
		}()
	}
}

func TestDoubleJoinPanics(t *testing.T) {
	for _, kind := range []Kind{Barrier, WaitFree} {
		m, _ := machine.New(machine.Small())
		model, _ := models.NewPHOLD(models.PHOLDConfig{Threads: 2, LPsPerThread: 1, EndTime: 5})
		eng, _ := tw.NewEngine(tw.Config{NumThreads: 2, Model: model, EndTime: 5})
		alg, _ := New(Config{Kind: kind, Engine: eng, Machine: m, Frequency: 5})
		alg.Leave(0)
		alg.Join(0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: double join did not panic", kind)
				}
			}()
			alg.Join(0)
		}()
	}
}

func TestGVTNeverExceedsUnprocessedMin(t *testing.T) {
	// After completion, GVT equals EndTime and no live pending event is
	// below it (checked by engine invariants); additionally spot-check
	// the final GVT is exactly the cap.
	rig := newRig(t, WaitFree, 3, nil)
	rig.run(t)
	if got := rig.eng.GVT(); got != 30 {
		t.Fatalf("final GVT = %v, want exactly the end time", got)
	}
	for _, p := range rig.eng.Peers() {
		if rm := p.RemoteMin(); rm < rig.eng.GVT() && !math.IsInf(rm, 1) {
			t.Fatalf("live work below final GVT: %v", rm)
		}
	}
}

func TestNopHooks(t *testing.T) {
	// NopHooks must be safely callable.
	var h NopHooks
	h.OnAware(nil, nil, 0)
	h.OnRoundComplete(nil, nil, 0)
	h.OnEnd(nil, nil, 0)
}
