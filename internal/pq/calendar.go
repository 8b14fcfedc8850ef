package pq

import "math"

// CalendarQueue implements Brown's calendar queue: an array of ordered
// "day" buckets indexed by priority modulo a "year". With a bucket
// width tuned to the inter-event gap it gives amortized O(1) Push/Pop
// on workloads whose dequeue order advances mostly monotonically, which
// holds for PDES pending sets between rollbacks.
type CalendarQueue[T any] struct {
	less    Less[T]
	prio    func(T) float64
	buckets [][]entry[T]
	width   float64
	// cur is the bucket the next Pop search starts from and curDay the
	// day (see day) it stands for in the current year.
	cur        int
	curDay     float64
	size       int
	lastPopped float64
}

// NewCalendar returns an empty calendar queue. prio maps an item to its
// numeric priority and must be consistent with less (less(a,b) implies
// prio(a) <= prio(b)).
func NewCalendar[T any](less Less[T], prio func(T) float64) *CalendarQueue[T] {
	cq := &CalendarQueue[T]{less: less, prio: prio}
	cq.resize(2, 1)
	return cq
}

// Len reports the number of items in the queue.
func (cq *CalendarQueue[T]) Len() int { return cq.size }

func (cq *CalendarQueue[T]) resize(nbuckets int, width float64) {
	old := cq.buckets
	cq.buckets = make([][]entry[T], nbuckets)
	cq.width = width
	cq.size = 0
	start := cq.lastPopped
	cq.cur, cq.curDay = cq.bucketOf(start), cq.day(start)
	for _, b := range old {
		for _, e := range b {
			cq.insert(e)
		}
	}
}

// day is the number of whole bucket widths below p: the bucket p goes
// to is its day modulo the bucket count, and findMin takes an entry from
// the bucket it scans only on or before the day the scan has reached.
// Both read the one floor, so rounding cannot file an entry on one day
// and look for it on another.
func (cq *CalendarQueue[T]) day(p float64) float64 { return math.Floor(p / cq.width) }

func (cq *CalendarQueue[T]) bucketOf(p float64) int {
	i := int(cq.day(p)) % len(cq.buckets)
	if i < 0 {
		i += len(cq.buckets)
	}
	return i
}

// insert places an entry into its bucket. A bucket is sorted with its
// minimum last, so that Pop shortens the slice instead of moving it,
// and the place is found by binary search over keys that lie side by
// side: a bucket is short when the width fits the workload, and when it
// does not (a queue whose size never changes never re-estimates its
// width) one bucket holds everything and insert decides what an
// operation costs.
func (cq *CalendarQueue[T]) insert(e entry[T]) {
	idx := cq.bucketOf(e.p)
	b := cq.buckets[idx]
	// The first entry e is not before: it and what follows pop first.
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.before(&b[mid], cq.less) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b = append(b, e)
	copy(b[lo+1:], b[lo:])
	b[lo] = e
	cq.buckets[idx] = b
	cq.size++
}

// Push inserts an item.
func (cq *CalendarQueue[T]) Push(item T) {
	p := cq.prio(item)
	if p < cq.lastPopped {
		// Out-of-order insertion (rollback re-insertion): rewind the
		// search cursor so the item is not skipped.
		cq.lastPopped = p
		cq.cur, cq.curDay = cq.bucketOf(p), cq.day(p)
	}
	cq.insert(entry[T]{p, item})
	if cq.size > 2*len(cq.buckets) {
		cq.resize(2*len(cq.buckets), cq.newWidth())
	}
}

// newWidth estimates the bucket width as roughly the average separation
// of a sample of enqueued priorities, the classic calendar-queue
// heuristic.
func (cq *CalendarQueue[T]) newWidth() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	n := 0
	for _, b := range cq.buckets {
		for i := range b {
			p := b[i].p
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
			n++
		}
	}
	if n < 2 || hi <= lo {
		return cq.width
	}
	w := (hi - lo) / float64(n) * 3
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return cq.width
	}
	return w
}

// Peek returns the minimum item without removing it.
func (cq *CalendarQueue[T]) Peek() (T, bool) {
	var zero T
	if cq.size == 0 {
		return zero, false
	}
	b := cq.buckets[cq.findMin()]
	return b[len(b)-1].item, true
}

// Pop removes and returns the minimum item.
func (cq *CalendarQueue[T]) Pop() (T, bool) {
	var zero T
	if cq.size == 0 {
		return zero, false
	}
	idx := cq.findMin()
	b := cq.buckets[idx]
	e := b[len(b)-1]
	b[len(b)-1] = entry[T]{}
	cq.buckets[idx] = b[:len(b)-1]
	cq.size--
	cq.lastPopped = e.p
	cq.cur, cq.curDay = idx, cq.day(e.p)
	if cq.size > 4 && cq.size < len(cq.buckets)/2 {
		cq.resize(len(cq.buckets)/2, cq.newWidth())
	}
	return e.item, true
}

// findMin locates the bucket whose last entry is the minimum item,
// scanning calendar-style from the current bucket and falling back to a
// direct search after a full fruitless year.
func (cq *CalendarQueue[T]) findMin() int {
	n := len(cq.buckets)
	idx, day := cq.cur, cq.curDay
	for i := 0; i < n; i++ {
		b := cq.buckets[idx]
		if len(b) > 0 && cq.day(b[len(b)-1].p) <= day {
			return idx
		}
		idx = (idx + 1) % n
		day++
	}
	// Direct search: find the globally minimal bucket minimum.
	best := -1
	var min *entry[T]
	for i, b := range cq.buckets {
		if len(b) == 0 {
			continue
		}
		if m := &b[len(b)-1]; best == -1 || m.before(min, cq.less) {
			best, min = i, m
		}
	}
	return best
}
