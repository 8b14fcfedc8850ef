package slab

import (
	"fmt"
	"testing"
	"unsafe"
)

// Blocks double from 8 to Max, each one heap object, and every New
// inside a block allocates nothing and returns a fresh zero value next
// to the one before.
func TestBlocksDoubleToMax(t *testing.T) {
	var s Slab[[3]int64]
	s.Max = 32
	var lens []int
	for i := 0; i < 8+16+32+32+1; i++ {
		p := s.New()
		if *p != [3]int64{} {
			t.Fatalf("object %d is not zero: %v", i, *p)
		}
		p[0] = int64(i + 1)
		if len(s.block) == s.last-1 {
			lens = append(lens, s.last)
		}
	}
	if fmt.Sprint(lens) != "[8 16 32 32 32]" {
		t.Fatalf("block lengths %v, want [8 16 32 32 32]", lens)
	}
	prev := s.New()
	if allocs := testing.AllocsPerRun(20, func() {
		p := s.New()
		if uintptr(unsafe.Pointer(p))-uintptr(unsafe.Pointer(prev)) != unsafe.Sizeof(*p) {
			t.Fatal("consecutive objects are not neighbours in one block")
		}
		prev = p
	}); allocs != 0 {
		t.Fatalf("New inside a block allocates %.2f times", allocs)
	}
	var d Slab[byte]
	for i := 0; i < 8+16+32+64+128+256+512+1024+1; i++ {
		d.New()
	}
	if d.last != 1024 {
		t.Fatalf("the default slab's blocks stop at %d, want 1024", d.last)
	}
}
