package core

import (
	"fmt"
	"testing"

	"ggpdes/internal/gvt"
	"ggpdes/internal/machine"
	"ggpdes/internal/models"
	"ggpdes/internal/tw"
)

// TestDemandBooksBalance runs both demand-driven schedulers under both
// GVT algorithms on 1-4 imbalanced PHOLD, where threads keep parking
// and waking (a DD-PDES + Barrier hang was once chased on this config).
// Each run has to finish with every thread out of its loop, and the
// shared demand books have to agree with the machine and the GVT
// algorithm on who was parked when it ended. The shutdown wake posts
// exactly the threads parked then, so they are the semaphore posts
// that no activation scan made.
func TestDemandBooksBalance(t *testing.T) {
	const threads = 8
	for _, sys := range []System{GGPDES, DDPDES} {
		for _, kind := range []gvt.Kind{gvt.Barrier, gvt.WaitFree} {
			t.Run(fmt.Sprintf("%v-%v", sys, kind), func(t *testing.T) {
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
					Threads: threads, LPsPerThread: 4, Imbalance: 4,
					EndTime: 40, StartEventsPerLP: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				eng, err := tw.NewEngine(tw.Config{NumThreads: threads, Model: model, EndTime: 40, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewRunner(Config{
					Machine: m, Engine: eng, System: sys, GVTKind: kind,
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
				d := r.demand
				if d.Activations == 0 || d.Deactivations < d.Activations {
					t.Errorf("%d deactivations, %d activations: want deactivations >= activations > 0", d.Deactivations, d.Activations)
				}
				// The shutdown wake brings every parked thread back without a Join.
				if d.numActive != threads {
					t.Errorf("numActive = %d after shutdown, want %d", d.numActive, threads)
				}
				parkedAtEnd := int(m.Stats().SemPosts - d.Activations)
				if got := int(d.Deactivations - d.Activations); got != parkedAtEnd {
					t.Errorf("deactivations - activations = %d, want the %d threads parked at the end", got, parkedAtEnd)
				}
				if got := r.alg.Participants(); got != d.numActive-parkedAtEnd {
					t.Errorf("%d GVT participants, want %d: all threads less the %d parked at the end",
						got, d.numActive-parkedAtEnd, parkedAtEnd)
				}
			})
		}
	}
}
