package tw

import (
	"math"
	"strings"
	"testing"
)

// reversibleRing extends the test ring model with a reverse handler.
type reversibleRing struct {
	ringModel
}

func (m *reversibleRing) OnEvent(ctx *EventCtx) {
	ctx.SetUndo(0)
	m.ringModel.OnEvent(ctx)
}

func (m *reversibleRing) OnReverseEvent(ctx *EventCtx) {
	st := ctx.LP().State().(*ringState)
	st.Count--
	st.Sum -= ctx.Now()
}

func TestSaveReverseRequiresReverseModel(t *testing.T) {
	_, err := NewEngine(Config{
		NumThreads:  1,
		Model:       &ringModel{lpsPerThread: 1, startPerLP: 1},
		EndTime:     10,
		StateSaving: SaveReverse,
	})
	if err == nil || !strings.Contains(err.Error(), "ReverseModel") {
		t.Fatalf("err = %v", err)
	}
}

func TestSavePolicyString(t *testing.T) {
	if SaveCopy.String() != "copy" || SaveReverse.String() != "reverse" || SavePolicy(9).String() != "unknown" {
		t.Fatal("policy names wrong")
	}
}

// The reverse-computation gold test: under adversarial interleavings
// that force rollbacks, reverse computation must commit the identical
// trajectory as copy state-saving.
func TestReverseMatchesCopyUnderRollbacks(t *testing.T) {
	run := func(policy SavePolicy, order []int) (uint64, []int, []float64, uint64) {
		eng, err := NewEngine(Config{
			NumThreads:  4,
			Model:       &reversibleRing{ringModel{lpsPerThread: 4, startPerLP: 2}},
			EndTime:     30,
			Seed:        12345,
			StateSaving: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		runQuiescent(t, eng, order)
		if err := eng.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		committed, counts, sums := collectResults(eng)
		return committed, counts, sums, eng.TotalStats().RolledBack
	}
	orders := [][]int{
		{0, 1, 2, 3},
		{0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3}, // skewed: forces rollbacks
		{3, 1, 3, 0, 2},
	}
	refCommitted, refCounts, refSums, _ := run(SaveCopy, orders[0])
	sawRollback := false
	for oi, order := range orders {
		committed, counts, sums, rolled := run(SaveReverse, order)
		if rolled > 0 {
			sawRollback = true
		}
		if committed != refCommitted {
			t.Fatalf("order %d: reverse committed %d != copy %d", oi, committed, refCommitted)
		}
		for i := range counts {
			if counts[i] != refCounts[i] || math.Abs(sums[i]-refSums[i]) > 1e-9 {
				t.Fatalf("order %d: LP %d state (%d, %v) != copy (%d, %v)",
					oi, i, counts[i], sums[i], refCounts[i], refSums[i])
			}
		}
	}
	if !sawRollback {
		t.Fatal("no reverse-mode run rolled back; test exercises nothing")
	}
}

func TestReverseUndoWordRoundTrip(t *testing.T) {
	eng, err := NewEngine(Config{
		NumThreads:  1,
		Model:       &undoProbe{},
		EndTime:     10,
		Seed:        1,
		StateSaving: SaveReverse,
	})
	if err != nil {
		t.Fatal(err)
	}
	cpu := &fakeCPU{}
	p := eng.Peer(0)
	p.ProcessBatch(cpu)
	lp := eng.LPs()[0]
	// Roll back manually; the reverse handler must see the undo word.
	probe := eng.Config().Model.(*undoProbe)
	if probe.sawForward != 1 {
		t.Fatalf("forward executions = %d", probe.sawForward)
	}
	p.rollback(lp.KP(), lp.KP().head)
	if probe.sawUndo != 42 {
		t.Fatalf("reverse saw undo %d, want 42", probe.sawUndo)
	}
}

// undoProbe checks the undo word survives from forward to reverse.
type undoProbe struct {
	sawForward int
	sawUndo    int64
}

func (m *undoProbe) LPsPerThread() int { return 1 }
func (m *undoProbe) InitLP(ic *InitCtx, lp *LP) {
	lp.SetState(&ringState{})
	ic.ScheduleInit(0, 1, 0, 0, 0)
}
func (m *undoProbe) OnEvent(ctx *EventCtx) {
	m.sawForward++
	ctx.SetUndo(42)
}
func (m *undoProbe) OnReverseEvent(ctx *EventCtx) {
	m.sawUndo = ctx.Undo()
}
