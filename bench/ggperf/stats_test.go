package main

import (
	"math"
	"testing"
)

// The reporting rule: a timing is printed as its median plus the
// highest percentile that still has at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{5, 0, false},
		{39, 0, false}, // 39 * 0.25 < 10: not even p75 has ten beyond it
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		p, value, ok := tailPercentile(ramp(c.n))
		if ok != c.ok || p != c.wantP {
			t.Errorf("n=%d: percentile %v (ok=%v), want %v (ok=%v)", c.n, p, ok, c.wantP, c.ok)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range ramp(c.n) {
			if x > value {
				beyond++
			}
		}
		if beyond < 9 { // interpolation may land on a sample
			t.Errorf("n=%d: p%v = %v leaves only %d samples beyond it", c.n, p, value, beyond)
		}
	}
}

// Quartiles must agree with Python's statistics.quantiles(v, n=4),
// which the benchmark contract's driver uses to compute spreads.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1.2, 0.9, 1.0, 1.4, 1.1, 1.3, 0.8, 1.05, 1.15, 1.25], n=4)
	// [0.975, 1.125, 1.2625]
	v := []float64{1.2, 0.9, 1.0, 1.4, 1.1, 1.3, 0.8, 1.05, 1.15, 1.25}
	s := sorted(v)
	for i, want := range []float64{0.975, 1.125, 1.2625} {
		if got := quantileSorted(s, float64(i+1)/4); math.Abs(got-want) > 1e-12 {
			t.Errorf("quartile %d = %v, want %v", i+1, got, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	d := digestOf(v)
	if d.N != 10 || d.Median != 1.125 || d.TailP != 0 {
		t.Errorf("digest = %+v", d)
	}
}
