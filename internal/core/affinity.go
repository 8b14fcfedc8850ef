package core

import (
	"ggpdes/internal/machine"
	"ggpdes/internal/trace"
)

// affinity is the CPU pinning behaviour plugged into the runner.
type affinity interface {
	// Setup runs once per simulation thread before its main loop.
	Setup(p *machine.Proc, acc *machine.Acc, tid int)
	// OnDeactivate releases the thread's core assignment (Algorithm 1
	// lines 9-10); only the dynamic algorithm keeps tables.
	OnDeactivate(acc *machine.Acc, tid int)
	// OnRoundComplete re-pins active threads (Algorithm 4), executed by
	// the last thread of a GVT round on behalf of the pseudo-controller.
	OnRoundComplete(p *machine.Proc, acc *machine.Acc, g *ggSched)
}

// noAffinity leaves every placement decision to the machine's CFS.
type noAffinity struct{}

func (noAffinity) Setup(*machine.Proc, *machine.Acc, int)                {}
func (noAffinity) OnDeactivate(*machine.Acc, int)                        {}
func (noAffinity) OnRoundComplete(*machine.Proc, *machine.Acc, *ggSched) {}

// constantAffinity is Algorithm 3: pin thread t to core t mod N during
// setup and never change it, trading migration freedom for cache
// locality. Adequate under linear execution locality, pathological
// under non-linear locality (active threads pile onto few cores).
type constantAffinity struct {
	usableCores int
}

func (c *constantAffinity) Setup(p *machine.Proc, acc *machine.Acc, tid int) {
	acc.Flush()
	p.SetAffinity(tid, tid%c.usableCores)
}

func (c *constantAffinity) OnDeactivate(*machine.Acc, int)                        {}
func (c *constantAffinity) OnRoundComplete(*machine.Proc, *machine.Acc, *ggSched) {}

// dynamicAffinity is Algorithm 4: at the end of each GVT round, pin
// every active-but-unpinned thread to the emptiest core. Two tables
// mirror the paper's: affinityTable[core] holds how many threads are
// pinned to the core (SMT-aware generalization of the paper's single
// occupant entry), and affinityTableInv[tid] holds the thread's core or
// -1. Deactivating threads release their slots, so shifting locality
// keeps re-balancing onto idled cores.
type dynamicAffinity struct {
	costs Costs
	// pinnedCount[core] is the number of active threads pinned there.
	pinnedCount []int
	// coreOf[tid] is the paper's affinity_table_inv: -1 when unpinned.
	coreOf []int
	// Repins counts SetAffinity operations performed by the pass.
	Repins uint64
}

func newDynamicAffinity(threads, usableCores int, costs Costs) *dynamicAffinity {
	d := &dynamicAffinity{
		costs:       costs,
		pinnedCount: make([]int, usableCores),
		coreOf:      make([]int, threads),
	}
	for i := range d.coreOf {
		d.coreOf[i] = -1
	}
	return d
}

// Setup performs no initial pinning: the first GVT round's pass places
// every active thread.
func (d *dynamicAffinity) Setup(*machine.Proc, *machine.Acc, int) {}

// OnDeactivate is Algorithm 1 lines 9-10: clear both table entries so
// the core becomes available to newly activated threads.
func (d *dynamicAffinity) OnDeactivate(acc *machine.Acc, tid int) {
	if core := d.coreOf[tid]; core >= 0 {
		d.pinnedCount[core]--
		d.coreOf[tid] = -1
	}
	acc.Work(d.costs.AffinityPerThreadCycles)
}

// OnRoundComplete is Algorithm 4: walk active_threads; for each active
// thread not yet pinned, find the core with the fewest active pinned
// hardware threads (SMT-awareness) and pin it there.
func (d *dynamicAffinity) OnRoundComplete(p *machine.Proc, acc *machine.Acc, g *ggSched) {
	for tid := range g.threads {
		acc.Work(d.costs.AffinityPerThreadCycles)
		if !g.threads[tid].active || d.coreOf[tid] >= 0 {
			continue
		}
		core := d.emptiestCore(acc)
		d.pinnedCount[core]++
		d.coreOf[tid] = core
		d.Repins++
		g.r.tel[tid].repins.Inc()
		if t := g.r.cfg.Trace; t != nil {
			t.Add(trace.KindRepin, tid, 0, int64(core))
		}
		acc.Flush()
		p.SetAffinity(tid, core)
	}
}

// emptiestCore returns the core with the fewest pinned active threads,
// lowest id on ties — so four active threads land on four distinct
// cores rather than sharing SMT contexts.
func (d *dynamicAffinity) emptiestCore(acc *machine.Acc) int {
	best, bestCount := 0, int(^uint(0)>>1)
	for c, n := range d.pinnedCount {
		acc.Work(d.costs.AffinityPerThreadCycles / 4)
		if n < bestCount {
			best, bestCount = c, n
		}
	}
	return best
}
