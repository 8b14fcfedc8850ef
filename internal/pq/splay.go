package pq

// SplayTree is a self-adjusting binary search tree used as a
// min-priority queue. Pending-event access in PDES is heavily skewed
// toward the low-timestamp end, which splaying exploits: repeated Pop
// and near-minimum Push run in amortized O(log n) with very small
// constants, which is why ROSS uses a splay tree for its event queue.
type SplayTree[T any] struct {
	root *splayNode[T]
	less Less[T]
	prio func(T) float64
	size int
	// free is a singly linked node freelist (threaded through right
	// pointers): Pop recycles its node here and Push takes from it, so
	// a tree in steady state allocates no nodes.
	free *splayNode[T]
	// chunk is what Push carves a node from when the freelist is empty:
	// a tree still growing toward its working size pays the allocator
	// once per chunk, not once per node. Chunks double from
	// splayChunkMin to splayChunkMax, so a small tree stays small;
	// chunkLen is the length the current one was made with.
	chunk    []splayNode[T]
	chunkLen int
}

const (
	splayChunkMin = 8
	splayChunkMax = 64
)

type splayNode[T any] struct {
	entry[T]
	left, right *splayNode[T]
}

// NewSplay returns an empty splay tree ordered by prio, then less; prio
// may be nil.
func NewSplay[T any](less Less[T], prio func(T) float64) *SplayTree[T] {
	return &SplayTree[T]{less: less, prio: prio}
}

// Len reports the number of items in the tree.
func (t *SplayTree[T]) Len() int { return t.size }

// splay performs a top-down splay of the tree around e, leaving the
// closest node at the root.
func (t *SplayTree[T]) splay(e *entry[T]) {
	if t.root == nil {
		return
	}
	var header splayNode[T]
	l, r := &header, &header
	cur := t.root
	for {
		if e.before(&cur.entry, t.less) {
			if cur.left == nil {
				break
			}
			if e.before(&cur.left.entry, t.less) {
				// Rotate right.
				y := cur.left
				cur.left = y.right
				y.right = cur
				cur = y
				if cur.left == nil {
					break
				}
			}
			// Link right.
			r.left = cur
			r = cur
			cur = cur.left
		} else if cur.before(e, t.less) {
			if cur.right == nil {
				break
			}
			if cur.right.before(e, t.less) {
				// Rotate left.
				y := cur.right
				cur.right = y.left
				y.left = cur
				cur = y
				if cur.right == nil {
					break
				}
			}
			// Link left.
			l.right = cur
			l = cur
			cur = cur.right
		} else {
			break
		}
	}
	l.right = cur.left
	r.left = cur.right
	cur.left = header.right
	cur.right = header.left
	t.root = cur
}

// Push inserts an item.
func (t *SplayTree[T]) Push(item T) {
	n := t.free
	if n != nil {
		t.free = n.right
		n.right = nil
	} else {
		if len(t.chunk) == 0 {
			t.chunkLen = min(max(2*t.chunkLen, splayChunkMin), splayChunkMax)
			t.chunk = make([]splayNode[T], t.chunkLen)
		}
		n, t.chunk = &t.chunk[0], t.chunk[1:]
	}
	n.entry = entry[T]{priority(t.prio, item), item}
	t.size++
	if t.root == nil {
		t.root = n
		return
	}
	t.splay(&n.entry)
	if n.before(&t.root.entry, t.less) {
		n.left = t.root.left
		n.right = t.root
		t.root.left = nil
	} else {
		n.right = t.root.right
		n.left = t.root
		t.root.right = nil
	}
	t.root = n
}

// Peek returns the minimum item without removing it.
func (t *SplayTree[T]) Peek() (T, bool) {
	var zero T
	if t.root == nil {
		return zero, false
	}
	// Splay the minimum to the root so a following Pop is cheap.
	cur := t.root
	if cur.left != nil {
		t.splayMin()
		cur = t.root
	}
	return cur.item, true
}

// splayMin splays the leftmost node to the root.
func (t *SplayTree[T]) splayMin() {
	var header splayNode[T]
	r := &header
	cur := t.root
	for cur.left != nil {
		if cur.left.left != nil {
			y := cur.left
			cur.left = y.right
			y.right = cur
			cur = y
		} else {
			r.left = cur
			r = cur
			cur = cur.left
		}
	}
	r.left = cur.right
	cur.right = header.left
	t.root = cur
}

// Pop removes and returns the minimum item.
func (t *SplayTree[T]) Pop() (T, bool) {
	var zero T
	if t.root == nil {
		return zero, false
	}
	if t.root.left != nil {
		t.splayMin()
	}
	n := t.root
	t.root = n.right
	t.size--
	item := n.item
	// Recycle the node: clear the item so the tree does not retain the
	// popped value, and thread it onto the freelist via right.
	n.entry = entry[T]{}
	n.left = nil
	n.right = t.free
	t.free = n
	return item, true
}
