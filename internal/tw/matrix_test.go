package tw

import (
	"fmt"
	"math"
	"testing"

	"ggpdes/internal/pq"
)

// The cross-feature gold test: every combination of pending-queue kind
// and optimism window must commit the identical trajectory under a
// rollback-heavy interleaving. Features may only trade performance.
func TestFeatureMatrixCommitsIdenticalTrajectories(t *testing.T) {
	type combo struct {
		queue  pq.Kind
		window VT
	}
	var combos []combo
	for _, queue := range []pq.Kind{pq.Splay, pq.Heap, pq.Calendar} {
		for _, window := range []VT{0, 5} {
			combos = append(combos, combo{queue, window})
		}
	}
	order := []int{0, 0, 0, 0, 0, 1, 3, 2}
	run := func(c combo) (uint64, []int, []float64, uint64) {
		eng, err := NewEngine(Config{
			NumThreads:     4,
			Model:          &ringModel{lpsPerThread: 4, startPerLP: 2},
			EndTime:        25,
			Seed:           777,
			QueueKind:      c.queue,
			OptimismWindow: c.window,
		})
		if err != nil {
			t.Fatal(err)
		}
		runQuiescent(t, eng, order)
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		committed, counts, sums := collectResults(eng)
		return committed, counts, sums, eng.TotalStats().RolledBack
	}

	refCommitted, refCounts, refSums, _ := run(combos[0])
	if refCommitted == 0 {
		t.Fatal("reference committed nothing")
	}
	sawRollback := false
	for _, c := range combos[1:] {
		c := c
		t.Run(fmt.Sprintf("%v-w%v", c.queue, c.window), func(t *testing.T) {
			committed, counts, sums, rolled := run(c)
			if rolled > 0 {
				sawRollback = true
			}
			if committed != refCommitted {
				t.Fatalf("committed %d != reference %d", committed, refCommitted)
			}
			for i := range counts {
				if counts[i] != refCounts[i] || math.Abs(sums[i]-refSums[i]) > 1e-9 {
					t.Fatalf("LP %d state (%d, %v) != reference (%d, %v)",
						i, counts[i], sums[i], refCounts[i], refSums[i])
				}
			}
		})
	}
	if !sawRollback {
		t.Fatal("matrix produced no rollbacks; test exercises nothing")
	}
}
