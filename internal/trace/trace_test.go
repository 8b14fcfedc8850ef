package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddAndCount(t *testing.T) {
	r := New(100)
	clock := uint64(0)
	r.Clock = func() uint64 { clock += 10; return clock }
	r.Add(KindGVT, -1, 1.5, 0)
	r.Add(KindRollback, 3, 2.0, 7)
	r.Add(KindRollback, 1, 2.5, 3)
	if len(r.Records()) != 3 {
		t.Fatalf("records = %d", len(r.Records()))
	}
	if r.CountKind(KindRollback) != 2 || r.CountKind(KindGVT) != 1 || r.CountKind(KindRepin) != 0 {
		t.Fatal("counts wrong")
	}
	if r.Records()[0].WallCycles != 10 || r.Records()[2].WallCycles != 30 {
		t.Fatal("clock not stamped")
	}
}

func TestLimitDrops(t *testing.T) {
	r := New(2)
	for i := 0; i < 5; i++ {
		r.Add(KindRound, i, 0, 0)
	}
	if len(r.Records()) != 2 || r.Dropped() != 3 {
		t.Fatalf("records=%d dropped=%d", len(r.Records()), r.Dropped())
	}
}

func TestNilClockRecordsZero(t *testing.T) {
	r := New(0)
	r.Add(KindGVT, -1, 1, 0)
	if r.Records()[0].WallCycles != 0 {
		t.Fatal("nil clock should stamp zero")
	}
}

func TestInactiveIntervals(t *testing.T) {
	r := New(0)
	tick := uint64(0)
	r.Clock = func() uint64 { return tick }
	tick = 100
	r.Add(KindDeactivate, 0, 0, 0)
	tick = 300
	r.Add(KindActivate, 0, 0, 0)
	tick = 400
	r.Add(KindDeactivate, 1, 0, 0) // stays open
	iv := r.InactiveIntervals(2, 1000)
	if len(iv[0]) != 1 || iv[0][0] != (Interval{100, 300}) {
		t.Fatalf("thread 0 intervals = %v", iv[0])
	}
	if len(iv[1]) != 1 || iv[1][0] != (Interval{400, 1000}) {
		t.Fatalf("thread 1 intervals = %v", iv[1])
	}
	// Fraction: (200 + 600) / (1000 * 2) = 0.4.
	if f := r.InactiveFraction(2, 1000); f != 0.4 {
		t.Fatalf("fraction = %v", f)
	}
}

func TestMeanRollbackDepth(t *testing.T) {
	r := New(0)
	if r.MeanRollbackDepth() != 0 {
		t.Fatal("empty mean not zero")
	}
	r.Add(KindRollback, 0, 0, 4)
	r.Add(KindRollback, 1, 0, 8)
	if got := r.MeanRollbackDepth(); got != 6 {
		t.Fatalf("mean = %v", got)
	}
}

func TestWriteCSV(t *testing.T) {
	r := New(0)
	r.Add(KindRepin, 5, 0, 3)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "kind,wall_cycles,thread,value,aux\n") || !strings.Contains(out, "repin,0,5,0,3") {
		t.Fatalf("csv = %q", out)
	}
}

func TestSummaryMentionsEverything(t *testing.T) {
	r := New(0)
	r.Add(KindGVT, -1, 1, 0)
	r.Add(KindRound, 0, 1, 4)
	r.Add(KindRollback, 0, 0, 2)
	r.Add(KindDeactivate, 0, 0, 0)
	r.Add(KindActivate, 0, 0, 0)
	r.Add(KindRepin, 0, 0, 1)
	s := r.Summary(4, 1000)
	for _, want := range []string{"gvt updates 1", "rounds 1", "rollbacks 1", "deactivations 1", "activations 1", "repins 1", "de-scheduled"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindGVT: "gvt", KindRound: "round", KindRollback: "rollback",
		KindDeactivate: "deactivate", KindActivate: "activate", KindRepin: "repin",
		KindCommit: "commit", KindAntiMessage: "antimessage",
		KindMigration: "migration", KindPreempt: "preempt",
		Kind(99): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
	// Every defined kind must have a name of its own (guards against
	// adding a kind without extending String).
	seen := make(map[string]Kind, NumKinds)
	for k := Kind(0); k < NumKinds; k++ {
		name := k.String()
		if name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
}

func TestRingKeepsNewest(t *testing.T) {
	r := NewRing(3)
	if !r.Ring() {
		t.Fatal("Ring() false on ring recorder")
	}
	for i := 0; i < 7; i++ {
		r.Add(KindRound, i, float64(i), 0)
	}
	recs := r.Records()
	if len(recs) != 3 || r.Len() != 3 {
		t.Fatalf("len = %d", len(recs))
	}
	if r.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", r.Dropped())
	}
	// Newest three, in recording order.
	for i, want := range []int{4, 5, 6} {
		if recs[i].Thread != want {
			t.Fatalf("recs = %+v", recs)
		}
	}
}

func TestRingOrderAcrossWrap(t *testing.T) {
	r := NewRing(4)
	tick := uint64(0)
	r.Clock = func() uint64 { tick++; return tick }
	for i := 0; i < 10; i++ {
		r.Add(KindGVT, -1, float64(i), 0)
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].WallCycles <= recs[i-1].WallCycles || recs[i].Value <= recs[i-1].Value {
			t.Fatalf("ring records out of order: %+v", recs)
		}
	}
	// forEach-backed consumers see wrap order too.
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[1], "gvt,7,") {
		t.Fatalf("csv:\n%s", buf.String())
	}
}

func TestRingSummaryMentionsOverwritten(t *testing.T) {
	r := NewRing(1)
	r.Add(KindGVT, -1, 1, 0)
	r.Add(KindGVT, -1, 2, 0)
	if s := r.Summary(0, 0); !strings.Contains(s, "ring, 1 overwritten") {
		t.Fatalf("summary = %q", s)
	}
}

func TestInactiveIntervalsDoubleDeactivate(t *testing.T) {
	r := New(0)
	tick := uint64(0)
	r.Clock = func() uint64 { return tick }
	tick = 100
	r.Add(KindDeactivate, 0, 0, 0)
	tick = 200
	r.Add(KindDeactivate, 0, 0, 0) // duplicate: earliest start wins
	tick = 300
	r.Add(KindActivate, 0, 0, 0)
	iv := r.InactiveIntervals(1, 1000)[0]
	if len(iv) != 1 || iv[0] != (Interval{100, 300}) {
		t.Fatalf("intervals = %v", iv)
	}
}

func TestInactiveIntervalsOrphanActivate(t *testing.T) {
	r := New(0)
	tick := uint64(50)
	r.Clock = func() uint64 { return tick }
	r.Add(KindActivate, 0, 0, 0) // no matching deactivate (ring truncation)
	tick = 100
	r.Add(KindDeactivate, 0, 0, 0)
	tick = 200
	r.Add(KindActivate, 0, 0, 0)
	iv := r.InactiveIntervals(1, 1000)[0]
	if len(iv) != 1 || iv[0] != (Interval{100, 200}) {
		t.Fatalf("intervals = %v", iv)
	}
}

func TestInactiveIntervalsBackwardsStamps(t *testing.T) {
	r := New(0)
	tick := uint64(500)
	r.Clock = func() uint64 { return tick }
	r.Add(KindDeactivate, 0, 0, 0)
	tick = 100 // clock runs backwards (edited CSV)
	r.Add(KindActivate, 0, 0, 0)
	if iv := r.InactiveIntervals(1, 1000)[0]; len(iv) != 0 {
		t.Fatalf("backwards pair kept: %v", iv)
	}
	// An open interval past endCycles is dropped too.
	r2 := New(0)
	tick2 := uint64(900)
	r2.Clock = func() uint64 { return tick2 }
	r2.Add(KindDeactivate, 0, 0, 0)
	if iv := r2.InactiveIntervals(1, 500)[0]; len(iv) != 0 {
		t.Fatalf("open interval past end kept: %v", iv)
	}
}

func TestInactiveIntervalsOutOfRangeThread(t *testing.T) {
	r := New(0)
	r.Add(KindDeactivate, 7, 0, 0)
	r.Add(KindActivate, -1, 0, 0)
	iv := r.InactiveIntervals(2, 100)
	if len(iv[0]) != 0 || len(iv[1]) != 0 {
		t.Fatalf("out-of-range threads leaked: %v", iv)
	}
}

func TestNormalizeIntervalsOverlap(t *testing.T) {
	got := normalizeIntervals([]Interval{{50, 80}, {10, 60}, {55, 58}})
	for i, in := range got {
		if in.End < in.Start {
			t.Fatalf("reversed interval %v", in)
		}
		if i > 0 && in.Start < got[i-1].End {
			t.Fatalf("overlap: %v", got)
		}
	}
}

func TestSumAux(t *testing.T) {
	r := New(0)
	r.Add(KindCommit, 0, 10, 100)
	r.Add(KindCommit, 1, 20, 50)
	r.Add(KindRollback, 0, 0, 9)
	if got := r.SumAux(KindCommit); got != 150 {
		t.Fatalf("SumAux = %d", got)
	}
}

// Property: interval reconstruction never produces overlapping or
// reversed intervals per thread for arbitrary transition sequences.
func TestQuickIntervalsWellFormed(t *testing.T) {
	f := func(ops []bool) bool {
		r := New(0)
		tick := uint64(0)
		r.Clock = func() uint64 { return tick }
		inactive := false
		for _, deact := range ops {
			tick += 10
			if deact && !inactive {
				r.Add(KindDeactivate, 0, 0, 0)
				inactive = true
			} else if !deact && inactive {
				r.Add(KindActivate, 0, 0, 0)
				inactive = false
			}
		}
		iv := r.InactiveIntervals(1, tick+10)[0]
		for i, in := range iv {
			if in.End < in.Start {
				return false
			}
			if i > 0 && in.Start < iv[i-1].End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRenderTimeline(t *testing.T) {
	r := New(0)
	tick := uint64(0)
	r.Clock = func() uint64 { return tick }
	tick = 500
	r.Add(KindDeactivate, 1, 0, 0)
	tick = 900
	r.Add(KindActivate, 1, 0, 0)
	out := r.RenderTimeline(2, 1000, 20, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Thread 0 fully active; thread 1 has a de-scheduled stretch.
	if strings.Contains(lines[1], ".") {
		t.Fatalf("thread 0 shows inactivity: %s", lines[1])
	}
	if !strings.Contains(lines[2], ".") || !strings.Contains(lines[2], "#") {
		t.Fatalf("thread 1 missing mixed activity: %s", lines[2])
	}
}

func TestRenderTimelineElides(t *testing.T) {
	r := New(0)
	out := r.RenderTimeline(100, 1000, 10, 4)
	if !strings.Contains(out, "96 more threads elided") {
		t.Fatalf("no elision note:\n%s", out)
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	r := New(0)
	if out := r.RenderTimeline(0, 0, 10, 10); !strings.Contains(out, "empty") {
		t.Fatalf("out = %q", out)
	}
}
