package telemetry

import (
	"strings"
	"testing"
)

func TestSeriesRingEviction(t *testing.T) {
	s := NewSeries(3)
	for i := 1; i <= 5; i++ {
		s.Append(SeriesPoint{Round: i})
	}
	if s.Len() != 3 || s.Total() != 5 {
		t.Fatalf("len=%d total=%d, want 3/5", s.Len(), s.Total())
	}
	pts := s.Points()
	if pts[0].Round != 3 || pts[2].Round != 5 {
		t.Fatalf("points = %v, want rounds 3..5 oldest-first", pts)
	}
}

func TestSeriesResetAndNil(t *testing.T) {
	s := NewSeries(0)
	s.Append(SeriesPoint{Round: 1})
	s.Reset()
	if s.Len() != 0 || s.Total() != 0 {
		t.Fatal("Reset did not clear the ring")
	}
	var nilS *Series
	nilS.Append(SeriesPoint{})
	nilS.Reset()
	if nilS.Len() != 0 || nilS.Total() != 0 || nilS.Points() != nil {
		t.Fatal("nil Series is not inert")
	}
}

func TestSeriesWriteCSV(t *testing.T) {
	s := NewSeries(8)
	s.Append(SeriesPoint{
		Round: 1, GVT: 2.5, ThreadLVTs: []float64{2.5, 3},
		HorizonWidth: 0.5, Processed: 10, Committed: 8, ActiveThreads: 2,
	})
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "round,gvt,") || !strings.HasSuffix(lines[0], ",thread_lvts") {
		t.Fatalf("unexpected header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,2.5,") || !strings.HasSuffix(lines[1], ",2.5 3") {
		t.Fatalf("unexpected row %q", lines[1])
	}
	if got, want := strings.Count(lines[0], ","), strings.Count(lines[1], ","); got != want {
		t.Fatalf("header has %d columns, row has %d", got+1, want+1)
	}
}
