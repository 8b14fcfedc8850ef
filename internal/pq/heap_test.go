package pq

import (
	"math/rand"
	"sort"
	"testing"
)

// drainSorted pops h dry and fails unless the items come out in
// evLess order and number want.
func drainSorted(t *testing.T, h *BinHeap[ev], want int) {
	t.Helper()
	var got []ev
	for h.Len() > 0 {
		e, _ := h.Pop()
		got = append(got, e)
	}
	if len(got) != want {
		t.Fatalf("drained %d items, want %d", len(got), want)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return evLess(got[i], got[j]) }) {
		t.Fatalf("drained out of order: %v", got)
	}
}

// The engine sizes each peer's pending heap once, with Grow, so that a
// run's first pushes do not pay for append's doublings: after Grow(n)
// n pushes allocate nothing, whatever the heap already holds, and the
// heap still drains in order. (AllocsPerRun calls its function twice,
// so each call pops what it pushed.)
func TestHeapGrowMakesRoom(t *testing.T) {
	const n = 500
	for name, hold := range map[string]int{"empty": 0, "holding": 37, "drained": -37} {
		t.Run(name, func(t *testing.T) {
			h := NewHeap(evLess, evPrio)
			r := rand.New(rand.NewSource(5))
			seq := 0
			push := func() {
				h.Push(ev{ts: r.Float64() * 100, seq: seq})
				seq++
			}
			for i := 0; i < hold || i < -hold; i++ {
				push()
			}
			if hold < 0 {
				for h.Len() > 0 {
					h.Pop()
				}
			}
			held := h.Len()
			h.Grow(n)
			if allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < n; i++ {
					push()
				}
				for i := 0; i < n; i++ {
					h.Pop()
				}
			}); allocs != 0 {
				t.Fatalf("%d pushes after Grow(%d) allocated %.0f times", n, n, allocs)
			}
			for i := 0; i < n; i++ {
				push()
			}
			drainSorted(t, h, held+n)
		})
	}
}

// A drained heap keeps its array: the spare set hands an emptied
// pending heap to the next checkpoint segment, which refills it with as
// many events as it held without allocating.
func TestHeapDrainKeepsItsArray(t *testing.T) {
	const n = 1000
	h := NewHeap(evLess, evPrio)
	for i := 0; i < n; i++ {
		h.Push(ev{ts: float64(n - i), seq: i})
	}
	drainSorted(t, h, n)
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			h.Push(ev{ts: float64(i % 17), seq: i})
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}); allocs != 0 {
		t.Fatalf("refilling a drained heap with %d items allocated %.0f times", n, allocs)
	}
	for i := 0; i < n; i++ {
		h.Push(ev{ts: float64(i % 17), seq: i})
	}
	drainSorted(t, h, n)
}

// Keeping the array must not keep what was in it: a popped item's slot
// is cleared, so an engine's emptied heap pins no event the pools have
// since recycled or the collector could free.
func TestHeapPopReleasesItems(t *testing.T) {
	h := NewHeap(func(a, b *ev) bool { return evLess(*a, *b) }, func(e *ev) float64 { return e.ts })
	for i := 0; i < 64; i++ {
		h.Push(&ev{ts: float64(i * 7 % 64), seq: i})
	}
	for i := 0; i < 40; i++ {
		h.Pop()
	}
	for i, e := range h.items[h.Len():cap(h.items)] {
		if e.item != nil {
			t.Fatalf("slot %d past the heap's %d items still holds %v", h.Len()+i, h.Len(), *e.item)
		}
	}
}
