package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates the q-quantile (0..1) of an ascending
// sample the way Python's statistics.quantiles(method="exclusive")
// does — the rule the benchmark contract's driver applies — so spreads
// computed here and there agree.
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	switch n {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantileSorted(sorted(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tailPermilles are the candidates of the reporting rule, highest
// first, in thousandths so the sample-count test is exact.
var tailPermilles = []int{999, 990, 950, 900, 750}

// tailPercentile picks the highest percentile with at least ten
// samples beyond it and returns it with its value. ok is false when
// the sample is too small for any tail figure (fewer than forty
// values), in which case only the median is reported.
func tailPercentile(v []float64) (p, value float64, ok bool) {
	for _, pm := range tailPermilles {
		if len(v)*(1000-pm) >= 10*1000 {
			return float64(pm) / 10, quantileSorted(sorted(v), float64(pm)/1000), true
		}
	}
	return 0, 0, false
}

// digest is what the result file keeps of one timing sample: the
// median, the quartiles, the tail figure the rule allows, and the
// sample count.
type digest struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

func digestOf(v []float64) digest {
	s := sorted(v)
	d := digest{N: len(s), Median: quantileSorted(s, 0.5), Q1: quantileSorted(s, 0.25), Q3: quantileSorted(s, 0.75)}
	if len(s) > 0 {
		d.Min = s[0]
	}
	if p, val, ok := tailPercentile(v); ok {
		d.TailP, d.Tail = p, val
	}
	return d
}
