package core

import (
	"testing"

	"ggpdes/internal/machine"
)

func TestDynamicAffinitySMTAwarePlacement(t *testing.T) {
	d := newDynamicAffinity(8, 4, DefaultCosts())
	acc := &nopAcc{}
	// Pin four threads: SMT-aware placement spreads one per core.
	got := make(map[int]int)
	for i := 0; i < 4; i++ {
		c := d.emptiestCore(acc.acc())
		d.pinnedCount[c]++
		got[c]++
	}
	if len(got) != 4 {
		t.Fatalf("SMT-aware placement used %d cores, want 4: %v", len(got), got)
	}
	// The next four double up, one per core again.
	for i := 0; i < 4; i++ {
		c := d.emptiestCore(acc.acc())
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
	d := newDynamicAffinity(4, 2, DefaultCosts())
	acc := &nopAcc{}
	d.pinnedCount[0] = 1
	d.pinnedCount[1] = 1 // all cores saturated
	c := d.emptiestCore(acc.acc())
	if c < 0 || c >= 2 {
		t.Fatalf("fallback core %d out of range", c)
	}
}

func TestDynamicAffinityDeactivateReleasesSlot(t *testing.T) {
	d := newDynamicAffinity(4, 2, DefaultCosts())
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
