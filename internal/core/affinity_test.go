package core

import (
	"testing"

	"ggpdes/internal/machine"
)

func newTestDynAffinity(threads, cores, smt int) (*dynamicAffinity, *machine.Acc, *machine.Machine) {
	d := newDynamicAffinity(threads, cores, smt, DefaultCosts())
	// A throwaway machine/acc pair for cost charging in unit tests.
	m, _ := machine.New(machine.Small())
	return d, nil, m
}

func TestDynamicAffinitySMTAwarePlacement(t *testing.T) {
	d := newDynamicAffinity(8, 4, 2, DefaultCosts())
	acc := &nopAcc{}
	// Pin four threads: SMT-aware placement spreads one per core.
	got := make(map[int]int)
	for i := 0; i < 4; i++ {
		c := d.pickCore(acc.acc(), 0)
		d.pinnedCount[c]++
		got[c]++
	}
	if len(got) != 4 {
		t.Fatalf("SMT-aware placement used %d cores, want 4: %v", len(got), got)
	}
	// The next four double up, one per core again.
	for i := 0; i < 4; i++ {
		c := d.pickCore(acc.acc(), 0)
		d.pinnedCount[c]++
		got[c]++
	}
	for c, n := range got {
		if n != 2 {
			t.Fatalf("core %d has %d pinned, want 2", c, n)
		}
	}
}

func TestDynamicAffinitySaturationFallback(t *testing.T) {
	d := newDynamicAffinity(4, 2, 1, DefaultCosts())
	acc := &nopAcc{}
	d.pinnedCount[0] = 1
	d.pinnedCount[1] = 1 // all cores saturated
	c := d.pickCore(acc.acc(), 0)
	if c < 0 || c >= 2 {
		t.Fatalf("fallback core %d out of range", c)
	}
}

func TestDynamicAffinityDeactivateReleasesSlot(t *testing.T) {
	d := newDynamicAffinity(4, 2, 2, DefaultCosts())
	acc := &nopAcc{}
	d.coreOf[1] = 1
	d.pinnedCount[1] = 1
	d.OnDeactivate(acc.acc(), 1)
	if d.coreOf[1] != -1 || d.pinnedCount[1] != 0 {
		t.Fatalf("slot not released: coreOf=%d count=%d", d.coreOf[1], d.pinnedCount[1])
	}
	// Deactivating an unpinned thread is a no-op.
	d.OnDeactivate(acc.acc(), 2)
	if d.pinnedCount[0] != 0 && d.pinnedCount[1] != 0 {
		t.Fatal("unpinned deactivation touched counts")
	}
}

// nopAcc supplies an *machine.Acc-compatible sink for unit tests that
// never flush; built on a real machine thread is overkill here, so use
// the zero-value Acc which accumulates without a Proc.
type nopAcc struct{ a machine.Acc }

func (n *nopAcc) acc() *machine.Acc { return &n.a }

func TestDynamicAffinityNUMAPrefersPreviousNode(t *testing.T) {
	d := newDynamicAffinity(4, 8, 2, DefaultCosts())
	d.numaAware = true
	d.nodeOf = func(core int) int { return core / 4 } // 2 nodes of 4
	acc := &nopAcc{}
	// Thread 0 was last pinned on node 1; node 1 cores are emptier than
	// nothing, so it should return there even though core 0 is equally
	// empty.
	d.lastNode[0] = 1
	core := d.pickCore(acc.acc(), 0)
	if d.nodeOf(core) != 1 {
		t.Fatalf("picked core %d on node %d, want node 1", core, d.nodeOf(core))
	}
	// When the previous node saturates, fall back globally.
	for c := 4; c < 8; c++ {
		d.pinnedCount[c] = 2 // == smtWidth
	}
	core = d.pickCore(acc.acc(), 0)
	if d.nodeOf(core) != 0 {
		t.Fatalf("saturated node not avoided: picked core %d", core)
	}
	// Threads never pinned before place globally.
	if got := d.pickCore(acc.acc(), 1); d.nodeOf(got) != 0 {
		t.Fatalf("fresh thread picked node %d", d.nodeOf(got))
	}
}

func TestDeactivateRemembersNode(t *testing.T) {
	d := newDynamicAffinity(2, 8, 2, DefaultCosts())
	d.nodeOf = func(core int) int { return core / 4 }
	acc := &nopAcc{}
	d.coreOf[0] = 6
	d.pinnedCount[6] = 1
	d.OnDeactivate(acc.acc(), 0)
	if d.lastNode[0] != 1 {
		t.Fatalf("lastNode = %d, want 1", d.lastNode[0])
	}
}
