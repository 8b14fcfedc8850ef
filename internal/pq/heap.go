package pq

import "slices"

// BinHeap is a classic array-backed binary min-heap: the engine's
// pending-event set, and the structure the splay tree and calendar
// queue are benchmarked against.
type BinHeap[T any] struct {
	items []entry[T]
	less  Less[T]
	prio  func(T) float64
}

// NewHeap returns an empty binary heap ordered by prio, then less;
// prio may be nil.
func NewHeap[T any](less Less[T], prio func(T) float64) *BinHeap[T] {
	return &BinHeap[T]{less: less, prio: prio}
}

// NewHeaps returns n empty heaps ordered like NewHeap's, each with room
// for room items, from one array of heaps and one of items: two heap
// objects however many heaps.
func NewHeaps[T any](n, room int, less Less[T], prio func(T) float64) []BinHeap[T] {
	hs, items := make([]BinHeap[T], n), make([]entry[T], n*room)
	for i := range hs {
		hs[i] = BinHeap[T]{items: items[i*room : i*room : (i+1)*room], less: less, prio: prio}
	}
	return hs
}

// Len reports the number of items in the heap.
func (h *BinHeap[T]) Len() int { return len(h.items) }

// Grow makes room for n more items, so that the next n Pushes allocate
// nothing.
func (h *BinHeap[T]) Grow(n int) { h.items = slices.Grow(h.items, n) }

// Push inserts an item.
func (h *BinHeap[T]) Push(item T) {
	h.items = append(h.items, entry[T]{priority(h.prio, item), item})
	h.up(len(h.items) - 1)
}

// Sort removes every item drop reports, appending it to dropped, which
// it returns, and sorts the rest of the array in place by the heap's
// own rule — priority first, less only on a tie or a NaN. A sorted array
// is a valid heap, so the heap stays usable as it is, and At(i) is then
// its i-th smallest item. Filtering first keeps the sort to the items
// that stay.
func (h *BinHeap[T]) Sort(drop func(T) bool, dropped []T) []T {
	kept := h.items[:0]
	for _, e := range h.items {
		if drop(e.item) {
			dropped = append(dropped, e.item)
		} else {
			kept = append(kept, e)
		}
	}
	clear(h.items[len(kept):]) // allow GC of dropped items
	h.items = kept
	//ggvet:allow(the order is the heap's own, priority then less, and so as total as less: the engine's, timestamp then sequence number, is)
	slices.SortFunc(h.items, func(a, b entry[T]) int {
		switch {
		case a.before(&b, h.less):
			return -1
		case b.before(&a, h.less):
			return 1
		}
		return 0
	})
	return dropped
}

// At returns the item at index i of the heap's array, 0 <= i < Len():
// after Sort, the i-th smallest.
func (h *BinHeap[T]) At(i int) T { return h.items[i].item }

// Peek returns the minimum item without removing it.
func (h *BinHeap[T]) Peek() (T, bool) {
	var zero T
	if len(h.items) == 0 {
		return zero, false
	}
	return h.items[0].item, true
}

// Pop removes and returns the minimum item.
func (h *BinHeap[T]) Pop() (T, bool) {
	var zero T
	n := len(h.items)
	if n == 0 {
		return zero, false
	}
	min := h.items[0].item
	h.items[0] = h.items[n-1]
	h.items[n-1] = entry[T]{} // allow GC of popped item
	h.items = h.items[:n-1]
	if len(h.items) > 0 {
		h.down(0)
	}
	return min, true
}

func (h *BinHeap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[i].before(&h.items[parent], h.less) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *BinHeap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.items[l].before(&h.items[smallest], h.less) {
			smallest = l
		}
		if r < n && h.items[r].before(&h.items[smallest], h.less) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
