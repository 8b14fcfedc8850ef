// Package pq provides timestamp-ordered priority queues for pending
// event sets. The engine's pending set is the binary heap (BinHeap),
// built directly with NewHeap. The splay tree (the structure used by
// ROSS) and the calendar queue, the Queue interface over all three, New
// and Kind remain only because the per-layer benchmark (bench/) still
// measures every kind; they go with ROADMAP item 2(c).
//
// Queues are min-queues ordered by a caller-supplied comparison. They
// deliberately do not support arbitrary removal: Time Warp annihilates
// unprocessed events lazily by marking them cancelled and skipping them
// at pop time, which keeps every implementation simple and fast.
//
// Every kind stores an item's numeric priority beside the item — in the
// splay node, the heap slot, the calendar bucket entry — and orders by
// one rule (entry.before): the smaller priority first, and only on an
// exact tie, or a NaN, the caller's comparison. With continuous
// timestamps a comparison therefore reads two floats the structure
// already holds and never follows the item, which in the engine is a
// pointer to an event somewhere else in memory. Without a priority
// function every priority is zero and the same code orders by the
// comparison alone.
package pq

// Queue is a min-priority queue over items of type T.
type Queue[T any] interface {
	// Push inserts an item.
	Push(item T)
	// Pop removes and returns the minimum item. The boolean is false
	// when the queue is empty.
	Pop() (T, bool)
	// Peek returns the minimum item without removing it. The boolean is
	// false when the queue is empty.
	Peek() (T, bool)
	// Len reports the number of items in the queue.
	Len() int
}

// Less orders items; it must be a strict weak ordering.
type Less[T any] func(a, b T) bool

// entry is an item with the priority it was pushed at.
type entry[T any] struct {
	p    float64
	item T
}

// before is the ordering rule all three kinds share.
func (a *entry[T]) before(b *entry[T], less Less[T]) bool {
	if a.p < b.p {
		return true
	}
	if a.p > b.p {
		return false
	}
	return less(a.item, b.item)
}

// priority returns item's priority: zero without a priority function.
func priority[T any](prio func(T) float64, item T) float64 {
	if prio == nil {
		return 0
	}
	return prio(item)
}

// Kind selects a Queue implementation.
type Kind int

const (
	// Splay selects the top-down splay tree (ROSS default).
	Splay Kind = iota
	// Heap selects the binary heap.
	Heap
	// Calendar selects the calendar queue. Calendar queues additionally
	// need a numeric priority; see NewCalendar.
	Calendar
)

// String returns the queue kind's name.
func (k Kind) String() string {
	switch k {
	case Splay:
		return "splay"
	case Heap:
		return "heap"
	case Calendar:
		return "calendar"
	default:
		return "unknown"
	}
}

// New constructs a queue of the given kind. prio maps an item to its
// numeric priority and must agree with less (less(a, b) implies
// prio(a) <= prio(b)); it is read once, when the item is pushed. prio
// may be nil for Splay and Heap, which then order by less alone.
func New[T any](kind Kind, less Less[T], prio func(T) float64) Queue[T] {
	switch kind {
	case Splay:
		return NewSplay(less, prio)
	case Heap:
		return NewHeap(less, prio)
	case Calendar:
		if prio == nil {
			panic("pq: Calendar queue requires a priority function")
		}
		return NewCalendar(less, prio)
	default:
		panic("pq: unknown queue kind")
	}
}
