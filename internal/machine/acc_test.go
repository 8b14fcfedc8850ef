package machine

import "testing"

func TestAccBatchesCharges(t *testing.T) {
	cfg := testCfg(1, 1)
	m := mustNew(t, cfg)
	var th *Thread
	th = m.Spawn("w", func(p *Proc) {
		acc := NewAcc(p)
		acc.Work(100)
		acc.Work(200)
		if acc.Pending() != 300 {
			t.Errorf("Pending = %d", acc.Pending())
		}
		acc.Flush()
		if acc.Pending() != 0 {
			t.Errorf("Pending after flush = %d", acc.Pending())
		}
		// Flushing empty is a no-op (no machine call, no charge).
		acc.Flush()
	})
	mustRun(t, m)
	want := 300 + cfg.OpCycles // one Work call carrying the batch
	if th.Cycles() != want {
		t.Fatalf("cycles = %d, want %d", th.Cycles(), want)
	}
}

func TestAccEmptyFlushMakesNoCall(t *testing.T) {
	cfg := testCfg(1, 1)
	m := mustNew(t, cfg)
	th := m.Spawn("w", func(p *Proc) {
		acc := NewAcc(p)
		for i := 0; i < 10; i++ {
			acc.Flush()
		}
	})
	mustRun(t, m)
	if th.Cycles() != 0 {
		t.Fatalf("empty flushes charged %d cycles", th.Cycles())
	}
}

func TestSetAffinityOnBlockedThread(t *testing.T) {
	m := mustNew(t, testCfg(4, 1))
	s := m.NewSem("s", 0)
	var waiter *Thread
	waiter = m.SpawnPinned("waiter", 0, func(p *Proc) {
		p.SemWait(s)
		p.Work(100000) // runs on the new core after waking
	})
	m.SpawnPinned("mover", 1, func(p *Proc) {
		p.Work(200000) // let the waiter block
		p.SetAffinity(waiter.id, 3)
		p.SemPost(s)
	})
	mustRun(t, m)
	if waiter.Pinned() != 3 || waiter.core != 3 {
		t.Fatalf("waiter pinned=%d core=%d, want 3/3", waiter.Pinned(), waiter.core)
	}
	if m.CoreBusyCycles(3) == 0 {
		t.Fatal("woken thread never ran on its new core")
	}
}

func TestUnpinViaAnyCore(t *testing.T) {
	m := mustNew(t, testCfg(4, 1))
	var th *Thread
	th = m.SpawnPinned("t", 2, func(p *Proc) {
		p.SetAffinity(th.id, AnyCore)
		p.Work(1000)
	})
	mustRun(t, m)
	if th.Pinned() != AnyCore {
		t.Fatalf("pin = %d, want AnyCore", th.Pinned())
	}
}

func TestBarrierResizeGrow(t *testing.T) {
	// Growing parties while threads wait must not release them early.
	m := mustNew(t, testCfg(2, 2))
	b := m.NewBarrier("b", 2)
	passed := 0
	for i := 0; i < 2; i++ {
		i := i
		m.Spawn("w", func(p *Proc) {
			if i == 0 {
				b.Resize(3) // before anyone arrives
			}
			p.Work(10000)
			p.BarrierWait(b)
			passed++
		})
	}
	m.Spawn("third", func(p *Proc) {
		p.Work(1 << 18)
		p.BarrierWait(b)
		passed++
	})
	mustRun(t, m)
	if passed != 3 {
		t.Fatalf("passed = %d", passed)
	}
}

func TestNegativeSemPanics(t *testing.T) {
	m := mustNew(t, testCfg(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("negative initial count accepted")
		}
	}()
	m.NewSem("bad", -1)
}

func TestYieldRotatesFairly(t *testing.T) {
	// Two threads on one context alternating via Yield must interleave.
	m := mustNew(t, testCfg(1, 1))
	var order []int
	for i := 0; i < 2; i++ {
		i := i
		m.Spawn("y", func(p *Proc) {
			for r := 0; r < 3; r++ {
				order = append(order, i)
				p.Work(1000)
				p.Yield()
			}
		})
	}
	mustRun(t, m)
	if len(order) != 6 {
		t.Fatalf("order len = %d", len(order))
	}
	// Both threads must appear in the first half (no monopoly).
	seen := map[int]bool{}
	for _, v := range order[:3] {
		seen[v] = true
	}
	if len(seen) != 2 {
		t.Fatalf("first half order %v shows no interleaving", order)
	}
}
