// Package slab carves objects of one type from blocks, so that what a
// run builds once per thread or per LP — telemetry cells, machine
// threads and semaphores, model states — costs the allocator one heap
// object per block instead of one per object. PARSIR (Quaglia,
// PAPERS.md) carves simulation objects from chunks for the same reason.
package slab

import "cmp"

// Slab hands out zero values of T carved from blocks it allocates.
// Block lengths double from Min (8 when 0) up to Max (1,024 when 0), so
// a slab that hands out a dozen objects holds at most twice that; one
// that knows how many it will hand out sets both to that count. A block
// is never moved or reused, so a pointer New returned stays valid and
// its own, and the block lives as long as anything carved from it. The
// zero Slab is ready to use; a Slab is not safe for concurrent use.
type Slab[T any] struct {
	Min, Max int
	block    []T // the current block's uncarved rest
	last     int // the current block's length
}

// New returns a pointer to a zero T carved from the current block.
func (s *Slab[T]) New() *T {
	if len(s.block) == 0 {
		s.last = min(max(2*s.last, cmp.Or(s.Min, 8)), cmp.Or(s.Max, 1024))
		s.block = make([]T, s.last)
	}
	t := &s.block[0]
	s.block = s.block[1:]
	return t
}
