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
