package tw

import "testing"

// newWindowedEngine builds a ring engine with an optimism window.
func newWindowedEngine(t *testing.T, window VT) *Engine {
	t.Helper()
	eng, err := NewEngine(Config{
		NumThreads:     2,
		Model:          &ringModel{lpsPerThread: 2, startPerLP: 2},
		EndTime:        40,
		Seed:           77,
		OptimismWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestOptimismWindowBoundsSpeculation(t *testing.T) {
	eng := newWindowedEngine(t, 3)
	cpu := &fakeCPU{}
	// GVT is 0: no event beyond ts 3 may execute, no matter how often
	// we try.
	for i := 0; i < 200; i++ {
		for _, p := range eng.Peers() {
			p.Drain(cpu)
			p.ProcessBatch(cpu)
		}
	}
	for _, lp := range eng.LPs() {
		if lp.LVT() > 3 {
			t.Fatalf("LP %d speculated to %v beyond GVT+window=3", lp.ID, lp.LVT())
		}
	}
	// Advancing GVT (legally, to the unprocessed minimum) re-opens the
	// horizon.
	min := eng.Peer(0).LocalMin(cpu)
	if m := eng.Peer(1).LocalMin(cpu); m < min {
		min = m
	}
	eng.SetGVT(min)
	var before uint64
	for _, p := range eng.Peers() {
		before += p.Stats.Processed
	}
	for i := 0; i < 50; i++ {
		for _, p := range eng.Peers() {
			p.Drain(cpu)
			p.ProcessBatch(cpu)
		}
	}
	var after uint64
	for _, p := range eng.Peers() {
		after += p.Stats.Processed
	}
	if after == before {
		t.Fatal("no progress after GVT advanced")
	}
}

func TestUnboundedOptimismIsDefault(t *testing.T) {
	eng := newWindowedEngine(t, 0)
	cpu := &fakeCPU{}
	// With no window, speculation runs to the end time with GVT still 0.
	for i := 0; i < 400; i++ {
		for _, p := range eng.Peers() {
			p.Drain(cpu)
			p.ProcessBatch(cpu)
		}
	}
	max := 0.0
	for _, lp := range eng.LPs() {
		if lp.LVT() > max {
			max = lp.LVT()
		}
	}
	if max < 10 {
		t.Fatalf("unbounded run only reached LVT %v", max)
	}
}
