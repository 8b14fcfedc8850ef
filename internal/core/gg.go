package core

import (
	"ggpdes/internal/machine"
	"ggpdes/internal/trace"
)

// ggSched is the GVT-Guided scheduler (the paper's contribution). All
// shared state — the active_threads flags, the semaphore array, the
// active count — is accessed without locks: the GVT phase ordering
// guarantees the pseudo-controller's activation scan (Phase Aware)
// never races a deactivation (Phase End), and the simulated machine's
// serialized execution mirrors the word-atomic reads and writes the
// paper relies on.
type ggSched struct {
	demand
}

func newGGSched(r *Runner) *ggSched { return &ggSched{newDemand(r, "gg-sem")} }

// OnAware runs Algorithm 2 on the round's pseudo-controller.
func (g *ggSched) OnAware(p *machine.Proc, acc *machine.Acc, tid int) { g.activate(p, acc) }

// OnRoundComplete runs the Dynamic CPU Affinity pass (Algorithm 4)
// after all of the round's activations and deactivations.
func (g *ggSched) OnRoundComplete(p *machine.Proc, acc *machine.Acc, tid int) {
	if t := g.r.cfg.Trace; t != nil {
		t.Add(trace.KindRound, tid, g.r.cfg.Engine.GVT(), int64(g.r.alg.Participants()))
	}
	g.r.aff.OnRoundComplete(p, acc, g)
}

// OnEnd is Algorithm 1 lines 7-17: the deactivation point at Phase End.
func (g *ggSched) OnEnd(p *machine.Proc, acc *machine.Acc, tid int) {
	if !g.canPark(tid) {
		return
	}
	acc.Work(g.r.cfg.Costs.DeactivateCycles)
	// Lines 9-10: release this thread's affinity table slots.
	g.r.aff.OnDeactivate(acc, tid)
	g.park(tid)
	acc.Flush()
	g.block(p, tid)
	if g.wake(tid) {
		acc.Work(g.r.cfg.Costs.DeactivateCycles)
	}
}
