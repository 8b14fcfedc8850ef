package core

import (
	"testing"

	"ggpdes/internal/gvt"
	"ggpdes/internal/machine"
	"ggpdes/internal/models"
	"ggpdes/internal/tw"
)

// TestDebugDDBarrier2 is the configuration a DD-PDES + Barrier GVT hang
// was once chased with (1-4 imbalanced PHOLD, threads parking while the
// controller reactivates others): the run has to finish, with every
// thread out of its loop and the scheduler's and the GVT algorithm's
// books agreeing on who was parked when it ended.
func TestDebugDDBarrier2(t *testing.T) {
	mcfg := machine.Small()
	mcfg.Cores = 4
	mcfg.SMTWidth = 2
	mcfg.SMTAggregate = []float64{1, 1.45}
	mcfg.MaxTicks = 1 << 17
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := models.NewPHOLD(models.PHOLDConfig{
		Threads: 8, LPsPerThread: 4, Imbalance: 4,
		EndTime: 40, StartEventsPerLP: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := tw.NewEngine(tw.Config{NumThreads: 8, Model: model, EndTime: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Machine: m, Engine: eng, System: DDPDES, GVTKind: gvt.Barrier,
		GVTFrequency: 20, ZeroCounterThreshold: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !eng.Done() {
		t.Fatalf("GVT stalled at %v", eng.GVT())
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, th := range m.Threads() {
		if th.State() != machine.StateExited {
			t.Errorf("thread %s ended %v", th.Name(), th.State())
		}
	}
	dd := r.sched.(*ddSched)
	if dd.Activations == 0 || dd.Deactivations < dd.Activations {
		t.Errorf("%d deactivations, %d activations: want deactivations >= activations > 0", dd.Deactivations, dd.Activations)
	}
	// The shutdown wake brings every parked thread back without a Join.
	if dd.numActive != 8 {
		t.Errorf("numActive = %d after shutdown, want 8", dd.numActive)
	}
	parkedAtEnd := int(dd.Deactivations - dd.Activations)
	if got := r.alg.Participants(); got != dd.numActive-parkedAtEnd {
		t.Errorf("%d GVT participants, want %d: all threads less the %d parked at the end",
			got, dd.numActive-parkedAtEnd, parkedAtEnd)
	}
}
