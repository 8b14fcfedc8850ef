package pq

import (
	"math"
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

// Grow sizes a heap once, so that its first pushes do not pay for
// append's doublings: after Grow(n) n pushes allocate nothing, whatever
// the heap already holds, and the heap still drains in order.
// (AllocsPerRun calls its function twice, so each call pops what it
// pushed.)
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

// The engine carves every peer's pending heap from one NewHeaps slab:
// each heap's first room pushes allocate nothing, and a heap pushed past
// its room moves to an array of its own instead of writing over its
// neighbour's.
func TestNewHeapsShareOneSlabApart(t *testing.T) {
	const n, room = 3, 16
	hs := NewHeaps(n, room, evLess, evPrio)
	r := rand.New(rand.NewSource(9))
	if allocs := testing.AllocsPerRun(1, func() {
		for i := range hs {
			for hs[i].Len() > 0 {
				hs[i].Pop()
			}
			for k := 0; k < room; k++ {
				hs[i].Push(ev{ts: r.Float64() * 100, seq: 1000*i + k})
			}
		}
	}); allocs != 0 {
		t.Fatalf("%d pushes into each of %d heaps with room %d allocated %.0f times", room, n, room, allocs)
	}
	for k := 0; k < 3*room; k++ {
		hs[0].Push(ev{ts: r.Float64() * 100, seq: room + k})
	}
	for i := 1; i < n; i++ {
		for j := 0; j < hs[i].Len(); j++ {
			if e := hs[i].At(j); e.seq/1000 != i {
				t.Fatalf("heap %d holds %+v, pushed into heap %d", i, e, e.seq/1000)
			}
		}
		drainSorted(t, &hs[i], room)
	}
	drainSorted(t, &hs[0], 4*room)
}

// A drained heap keeps its array: an engine's pending heap, which rides
// from checkpoint segment to segment, refills with as many events as it
// held without allocating.
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

// Sort leaves the heap holding exactly the items drop did not report,
// sorted by the heap's rule — ties in priority broken by less, and NaN
// priorities, which compare neither below nor above anything, ordered
// by less alone — and still a heap: interleaved pushes and pops after
// it match a sorted reference.
func TestHeapSortKeepsAHeap(t *testing.T) {
	type item struct {
		p  float64
		id int
	}
	// less orders NaN priorities first, then by priority, then by id: the
	// order the heap's rule (priority, less on a tie or a NaN) amounts to.
	rank := func(a item) int {
		if math.IsNaN(a.p) {
			return 0
		}
		return 1
	}
	less := func(a, b item) bool {
		if ra, rb := rank(a), rank(b); ra != rb {
			return ra < rb
		}
		if rank(a) == 1 && a.p != b.p {
			return a.p < b.p
		}
		return a.id < b.id
	}
	prios := []float64{0, 1, 1, 2, 3, math.NaN()}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		id := 0
		next := func() item {
			id++
			return item{prios[r.Intn(len(prios))], id}
		}
		h := NewHeap(less, func(a item) float64 { return a.p })
		var ref []item
		for n := r.Intn(200); n > 0; n-- {
			it := next()
			h.Push(it)
			ref = append(ref, it)
			if r.Intn(4) == 0 {
				sort.Slice(ref, func(i, j int) bool { return less(ref[i], ref[j]) })
				h.Pop()
				ref = ref[1:]
			}
		}
		mod := 2 + r.Intn(3)
		drop := func(a item) bool { return a.id%mod == 0 }
		dropped := h.Sort(drop, nil)
		var kept []item
		wantDropped := 0
		for _, it := range ref {
			if drop(it) {
				wantDropped++
			} else {
				kept = append(kept, it)
			}
		}
		if len(dropped) != wantDropped || h.Len() != len(kept) {
			t.Fatalf("trial %d: Sort dropped %d and kept %d items, want %d and %d", trial, len(dropped), h.Len(), wantDropped, len(kept))
		}
		for _, it := range dropped {
			if !drop(it) {
				t.Fatalf("trial %d: Sort dropped %v", trial, it)
			}
		}
		for i := 1; i < h.Len(); i++ {
			if !less(h.At(i-1), h.At(i)) {
				t.Fatalf("trial %d: items %d and %d out of order: %v, %v", trial, i-1, i, h.At(i-1), h.At(i))
			}
		}
		ref = kept
		sort.Slice(ref, func(i, j int) bool { return less(ref[i], ref[j]) })
		for op := 0; op < 400; op++ {
			if r.Intn(2) == 0 {
				it := next()
				h.Push(it)
				i := sort.Search(len(ref), func(i int) bool { return less(it, ref[i]) })
				ref = append(ref[:i], append([]item{it}, ref[i:]...)...)
				continue
			}
			got, ok := h.Pop()
			if !ok {
				if len(ref) != 0 {
					t.Fatalf("trial %d: heap empty, reference holds %d", trial, len(ref))
				}
				continue
			}
			if len(ref) == 0 || got.id != ref[0].id {
				t.Fatalf("trial %d op %d: popped %v, reference %v", trial, op, got, ref[:min(1, len(ref))])
			}
			ref = ref[1:]
		}
	}
}
