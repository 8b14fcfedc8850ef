package pq

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The priority stored beside an item is an accelerator, not a second
// ordering: for every kind a queue built with a priority function pops
// in exactly the order of one built without (calendar queues cannot be
// built without; they are held to the splay tree's order), over pushes
// with duplicate priorities, stragglers below the last pop and
// interleaved pops.
func TestPrioMatchesNilPrioOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		queues := map[string]Queue[ev]{
			"splay":    New[ev](Splay, evLess, evPrio),
			"heap":     New[ev](Heap, evLess, evPrio),
			"calendar": New[ev](Calendar, evLess, evPrio),
			"heap-nil": New[ev](Heap, evLess, nil),
		}
		ref := New[ev](Splay, evLess, nil)
		r := rand.New(rand.NewSource(seed))
		now, seq := 0.0, 0
		push := func(ts float64) {
			e := ev{ts: ts, seq: seq}
			seq++
			ref.Push(e)
			for _, q := range queues {
				q.Push(e)
			}
		}
		for step := 0; step < 4000; step++ {
			switch op := r.Intn(10); {
			case op < 4:
				// A handful of distinct values: most pushes tie with
				// something already queued.
				push(now + float64(r.Intn(8)))
			case op < 5:
				push(now + r.Float64()*5)
			case op < 6:
				push(now * r.Float64()) // straggler
			default:
				want, ok := ref.Pop()
				for name, q := range queues {
					if peek, pok := q.Peek(); pok != ok || peek != want {
						t.Fatalf("seed %d step %d: %s peeked %v %v, reference popped %v %v", seed, step, name, peek, pok, want, ok)
					}
					if got, gok := q.Pop(); gok != ok || got != want {
						t.Fatalf("seed %d step %d: %s popped %v %v, reference %v %v", seed, step, name, got, gok, want, ok)
					}
				}
				if ok {
					now = want.ts
				}
			}
		}
		for name, q := range queues {
			if q.Len() != ref.Len() {
				t.Fatalf("seed %d: %s holds %d items, reference %d", seed, name, q.Len(), ref.Len())
			}
		}
	}
}

// With distinct priorities the comparison function is never consulted;
// with all priorities equal it alone decides the order.
func TestLessRunsOnlyOnTies(t *testing.T) {
	for _, k := range []Kind{Splay, Heap, Calendar} {
		t.Run(k.String(), func(t *testing.T) {
			calls := 0
			less := func(a, b ev) bool { calls++; return evLess(a, b) }
			q := New[ev](k, less, evPrio)
			r := rand.New(rand.NewSource(5))
			for i, ts := range r.Perm(2000) {
				q.Push(ev{ts: float64(ts), seq: i})
				if i%3 == 2 {
					q.Peek()
					q.Pop()
				}
			}
			for q.Len() > 0 {
				q.Peek()
				q.Pop()
			}
			if calls != 0 {
				t.Fatalf("less called %d times over distinct priorities", calls)
			}

			flat := New[ev](k, less, func(ev) float64 { return 1 })
			for _, seq := range r.Perm(500) {
				flat.Push(ev{ts: float64(-seq), seq: seq})
			}
			if calls == 0 {
				t.Fatal("less never called over equal priorities")
			}
			for i := 0; i < 500; i++ {
				// evLess orders by ts first: descending seq.
				if got, _ := flat.Pop(); got.seq != 499-i {
					t.Fatalf("pop %d = %v, want seq %d", i, got, 499-i)
				}
			}
		})
	}
}

// A NaN priority compares neither below nor above anything, so it falls
// through to less like a tie.
func TestNaNPriorityFallsThroughToLess(t *testing.T) {
	nan := func(e ev) float64 {
		if e.seq%2 == 0 {
			return e.ts
		}
		return math.NaN()
	}
	for _, k := range []Kind{Splay, Heap} {
		q := New[ev](k, evLess, nan)
		for i := 0; i < 64; i++ {
			q.Push(ev{ts: 1, seq: 63 - i})
		}
		for i := 0; i < 64; i++ {
			if got, _ := q.Pop(); got.seq != i {
				t.Fatalf("%v: pop %d = %v", k, i, got)
			}
		}
	}
}

// A calendar queue re-estimates its bucket width only when its size
// doubles or halves, so a queue held at one size while its items close
// in on each other ends up with everything in a bucket or two — the
// shape the per-layer ledger's hold driver has, and the one where a
// bucket's own order is the whole queue. It must still pop in the
// heap's order, duplicates and stragglers included.
func TestCalendarCrowdedBucketsKeepOrder(t *testing.T) {
	cal, ref := New[ev](Calendar, evLess, evPrio), New[ev](Heap, evLess, evPrio)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 256; i++ {
		e := ev{ts: r.ExpFloat64() * 256, seq: i}
		cal.Push(e)
		ref.Push(e)
	}
	for i := 0; i < 20000; i++ {
		got, _ := cal.Pop()
		want, _ := ref.Pop()
		if got != want {
			t.Fatalf("op %d: calendar popped %v, heap %v", i, got, want)
		}
		switch i % 16 {
		case 0:
			got.ts *= r.Float64() // straggler
		case 1: // an exact duplicate of the timestamp just popped
		default:
			got.ts += float64(r.Intn(4)) / 2
		}
		got.seq = 256 + i
		cal.Push(got)
		ref.Push(got)
	}
	crowd := 0
	for _, b := range cal.(*CalendarQueue[ev]).buckets {
		crowd = max(crowd, len(b))
	}
	if crowd < 32 {
		t.Fatalf("vacuous: the fullest bucket holds %d entries", crowd)
	}
}

// The splay tree's nodes come from chunks: a tree growing to n items
// allocates far fewer than n times, and a grown one not at all.
func TestSplayNodesComeFromChunks(t *testing.T) {
	var q Queue[ev]
	fill := func() {
		for i := 0; i < 1000; i++ {
			q.Push(ev{ts: float64(i), seq: i})
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	grow := testing.AllocsPerRun(1, func() {
		q = New[ev](Splay, evLess, evPrio)
		fill()
	})
	// The tree, and 8 + 16 + 32 + 15·64 = 1016 nodes in 18 chunks.
	if grow > 19 {
		t.Fatalf("growing to 1000 nodes took %.0f allocations", grow)
	}
	if again := testing.AllocsPerRun(1, fill); again != 0 {
		t.Fatalf("refilling a grown tree took %.0f allocations", again)
	}
}

// BenchmarkHold is the classic hold model — pop the minimum, push it
// back a random increment later — at the sizes a pending set has: 32 is
// a benchmark-scale peer, 256 and 4096 what the per-layer ledger
// (bench/ggperf) quotes. Items are pointers, as in the engine, so a
// comparison that follows the item pays for it.
func BenchmarkHold(b *testing.B) {
	type item struct {
		ts  float64
		seq int
	}
	less := func(a, b *item) bool {
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		return a.seq < b.seq
	}
	prios := []struct {
		name string
		prio func(*item) float64
	}{{"prio", func(it *item) float64 { return it.ts }}, {"nil", nil}}
	for _, k := range []Kind{Splay, Heap, Calendar} {
		for _, pr := range prios {
			if k == Calendar && pr.prio == nil {
				continue
			}
			for _, n := range []int{32, 256, 4096} {
				b.Run(fmt.Sprintf("%v/%s/n%d", k, pr.name, n), func(b *testing.B) {
					q := New(k, less, pr.prio)
					r := rand.New(rand.NewSource(1))
					for i := 0; i < n; i++ {
						q.Push(&item{ts: r.Float64() * 10, seq: i})
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						it, _ := q.Pop()
						it.ts += r.Float64() * 10
						q.Push(it)
					}
				})
			}
		}
	}
}

// An entry goes to the bucket of its day, floor(p / width), and the
// calendar scan takes it on that day. When the scan's bound was a year
// end it kept adding widths to, rounding could put the bound at or below
// an entry just under a day boundary: the scan passed the entry by and
// took a later one from the next bucket. This push order (found by
// TestQuickAllKindsMatchReference) popped 6847.71 before 6814.57.
func TestCalendarFindsEntriesOnTheirDay(t *testing.T) {
	raw := []uint16{0x4e77, 0x7380, 0xcfb0, 0xe131, 0xc620, 0x27e0, 0x83e5, 0x3e74, 0x68fc, 0x62ff,
		0x926f, 0x740b, 0x4a81, 0x708e, 0x57f3, 0x9d27, 0x726d, 0x115f, 0xbeff, 0xceaf, 0xd926, 0xfba9,
		0xa1da, 0x98ac, 0xbdea, 0xba56, 0x9e7e, 0x76ad, 0xdbc4, 0x696f, 0xe351, 0x1dff, 0x19f7, 0x9e6c,
		0x9a16, 0x5632, 0xa499, 0xbb3e, 0x742b, 0x2f68}
	cal, ref := New[ev](Calendar, evLess, evPrio), New[ev](Heap, evLess, evPrio)
	for i, v := range raw {
		e := ev{ts: float64(v) / 7, seq: i}
		cal.Push(e)
		ref.Push(e)
	}
	for i := range raw {
		got, _ := cal.Pop()
		want, _ := ref.Pop()
		if got != want {
			t.Fatalf("pop %d: calendar popped %v, heap %v", i, got, want)
		}
	}
}
