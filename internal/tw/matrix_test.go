package tw

import (
	"fmt"
	"math"
	"testing"
)

// The cross-feature gold test: with and without an optimism window the
// engine must commit the identical trajectory under a rollback-heavy
// interleaving. Features may only trade performance.
func TestFeatureMatrixCommitsIdenticalTrajectories(t *testing.T) {
	windows := []VT{0, 5}
	order := []int{0, 0, 0, 0, 0, 1, 3, 2}
	run := func(window VT) (uint64, []int, []float64, uint64) {
		eng, err := NewEngine(Config{
			NumThreads:     4,
			Model:          &ringModel{lpsPerThread: 4, startPerLP: 2},
			EndTime:        25,
			Seed:           777,
			OptimismWindow: window,
		})
		if err != nil {
			t.Fatal(err)
		}
		runQuiescent(t, eng, order)
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("window %v: %v", window, err)
		}
		committed, counts, sums := collectResults(eng)
		return committed, counts, sums, eng.TotalStats().RolledBack
	}

	refCommitted, refCounts, refSums, _ := run(windows[0])
	if refCommitted == 0 {
		t.Fatal("reference committed nothing")
	}
	sawRollback := false
	for _, window := range windows[1:] {
		t.Run(fmt.Sprintf("w%v", window), func(t *testing.T) {
			committed, counts, sums, rolled := run(window)
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
