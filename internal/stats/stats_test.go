package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Figure X", "threads", "rate")
	tbl.Add("64", "1.2M ev/s")
	tbl.Add("128", "3.5")
	s := tbl.String()
	if !strings.Contains(s, "Figure X") || !strings.Contains(s, "threads") {
		t.Fatalf("missing title/header:\n%s", s)
	}
	if !strings.Contains(s, "128") || !strings.Contains(s, "3.5") {
		t.Fatalf("missing second row:\n%s", s)
	}
	if tbl.Rows() != 2 {
		t.Fatalf("Rows = %d", tbl.Rows())
	}
	// Columns align: every line after the separator starts at col 0 and
	// the second column starts at the same offset.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), s)
	}
}

func TestTableArityPanics(t *testing.T) {
	tbl := NewTable("", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	tbl.Add("only-one")
}

func TestRateUnits(t *testing.T) {
	cases := map[float64]string{
		5:     "5.0 ev/s",
		5e3:   "5.00K ev/s",
		2.5e6: "2.50M ev/s",
		1.2e9: "1.20B ev/s",
	}
	for in, want := range cases {
		if got := Rate(in); got != want {
			t.Errorf("Rate(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestCountUnits(t *testing.T) {
	cases := map[uint64]string{
		7:                 "7",
		7_500:             "7.5K",
		7_500_000:         "7.50M",
		3_100_000_000:     "3.10B",
		2_000_000_000_000: "2.00T",
	}
	for in, want := range cases {
		if got := Count(in); got != want {
			t.Errorf("Count(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestSecondsUnits(t *testing.T) {
	cases := map[float64]string{
		250:    "250s",
		2.5:    "2.50s",
		0.0025: "2.50ms",
		2.5e-6: "2.5us",
	}
	for in, want := range cases {
		if got := Seconds(in); got != want {
			t.Errorf("Seconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(1.17, 1.0); got != "+17.0%" {
		t.Errorf("Speedup = %q", got)
	}
	if got := Speedup(0.957, 1.0); got != "-4.3%" {
		t.Errorf("Speedup = %q", got)
	}
	if got := Speedup(15, 1); got != "15.0x" {
		t.Errorf("Speedup = %q", got)
	}
	if got := Speedup(1, 0); got != "n/a" {
		t.Errorf("Speedup = %q", got)
	}
}

func TestBarChartRendering(t *testing.T) {
	c := NewBarChart("Figure X", "ev/s")
	c.Width = 10
	c.Add("64 threads", "Baseline", 1e6)
	c.Add("64 threads", "GG-PDES", 2e6)
	c.Add("128 threads", "Baseline", 0.5e6)
	c.Add("128 threads", "GG-PDES", 2e6)
	out := c.String()
	for _, want := range []string{"Figure X", "64 threads:", "128 threads:", "Baseline", "GG-PDES"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	// The max value gets the full width; half value gets half.
	lines := strings.Split(out, "\n")
	var baseBar, ggBar int
	for _, l := range lines[1:4] {
		n := strings.Count(l, "#")
		if strings.Contains(l, "Baseline") {
			baseBar = n
		}
		if strings.Contains(l, "GG-PDES") {
			ggBar = n
		}
	}
	if ggBar != 10 || baseBar != 5 {
		t.Fatalf("bars base=%d gg=%d:\n%s", baseBar, ggBar, out)
	}
}

func TestBarChartEmpty(t *testing.T) {
	c := NewBarChart("empty", "")
	if !strings.Contains(c.String(), "no data") {
		t.Fatal("empty chart should say so")
	}
}

func TestBarChartTinyValueGetsOneBar(t *testing.T) {
	c := NewBarChart("t", "")
	c.Width = 10
	c.Add("g", "big", 1e9)
	c.Add("g", "tiny", 1)
	out := c.String()
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "tiny") && !strings.Contains(l, "#") {
			t.Fatalf("tiny value rendered no bar: %s", l)
		}
	}
}
