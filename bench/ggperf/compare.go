package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// ggperf -compare a.json b.json: for every workload and metric, both
// sides' medians and quartiles, the change, the bound BENCHMARK.json
// fixes, and a verdict. Each side is one result file or a
// comma-separated list of them (repeated runs of one commit); with
// several runs a side's spread is the distance between the quartiles
// of its runs.

type verdict string

const (
	verdictBetter     verdict = "better"
	verdictWorse      verdict = "worse"
	verdictWithin     verdict = "within-bound"
	verdictUnresolved verdict = "unresolved"
	verdictNone       verdict = "-"
)

// judge compares the runs of one metric on one workload. a is the
// base side, b the changed one; each holds one value per run.
//
// Exact metrics compare with ==. For the rest the change is worse
// (better) when b's median is worse (better) than a's by more than
// the bound. When the run-to-run spread is itself wider than the
// bound the medians cannot settle it: the verdict is then unresolved
// unless the sides do not overlap at all. A side measured on a busy
// machine resolves nothing.
func judge(m metricDef, bound float64, a, b []float64, noisy bool) (verdict, float64) {
	ma, mb := median(a), median(b)
	// worseBy is the relative change in the direction that counts as
	// worse.
	worseBy := 0.0
	if ma != 0 {
		worseBy = (mb - ma) / math.Abs(ma)
		if m.Better == betterHigher {
			worseBy = -worseBy
		}
	}
	if m.Exact {
		switch {
		case ma == mb:
			return verdictWithin, 0
		case worseBy < 0:
			return verdictBetter, worseBy
		}
		return verdictWorse, worseBy
	}
	if noisy {
		return verdictUnresolved, worseBy
	}
	if spread := math.Max(runSpread(a), runSpread(b)); ma != 0 && spread/math.Abs(ma) > bound {
		lower := m.Better == betterLower
		switch {
		case disjoint(b, a, lower):
			return verdictBetter, worseBy
		case disjoint(a, b, lower) && worseBy > bound:
			return verdictWorse, worseBy
		}
		return verdictUnresolved, worseBy
	}
	switch {
	case worseBy > bound:
		return verdictWorse, worseBy
	case worseBy < -bound:
		return verdictBetter, worseBy
	}
	return verdictWithin, worseBy
}

// runSpread is the distance between the quartiles of a side's runs
// (their range when there are fewer than four; zero for one run).
func runSpread(v []float64) float64 {
	s := sorted(v)
	switch {
	case len(s) < 2:
		return 0
	case len(s) < 4:
		return s[len(s)-1] - s[0]
	}
	return quantileSorted(s, 0.75) - quantileSorted(s, 0.25)
}

// disjoint reports whether every run of x reads better than every run
// of y.
func disjoint(x, y []float64, lowerIsBetter bool) bool {
	sx, sy := sorted(x), sorted(y)
	if lowerIsBetter {
		return sx[len(sx)-1] < sy[0]
	}
	return sx[0] > sy[len(sy)-1]
}

// side is everything one side of a comparison measured, per workload.
type side struct {
	noisy    bool
	untraced map[string][]*workloadResult
	traced   map[string][]*workloadResult
}

func loadSide(list string) (*side, error) {
	s := &side{untraced: map[string][]*workloadResult{}, traced: map[string][]*workloadResult{}}
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var probe struct {
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(data, &probe); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		var records []*workloadResult
		if probe.Schema != "" {
			var f resultFile
			if err := json.Unmarshal(data, &f); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			records = f.Workloads
			s.noisy = s.noisy || f.Env.Noisy
		} else {
			var r workloadResult
			if err := json.Unmarshal(data, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			records = []*workloadResult{&r}
		}
		for _, r := range records {
			s.noisy = s.noisy || r.Env.Noisy
			if r.Traced {
				s.traced[r.Name] = append(s.traced[r.Name], r)
			} else {
				s.untraced[r.Name] = append(s.untraced[r.Name], r)
			}
		}
	}
	return s, nil
}

// benchmarkBounds reads the regression bounds from BENCHMARK.json.
func benchmarkBounds(path string) (map[string]float64, error) {
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := readJSONFile(path, &def); err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range def.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

func compareMain(opt options, aList, bList string, stdout, stderr io.Writer) int {
	bounds, err := benchmarkBounds(opt.benchmark)
	if err != nil {
		fmt.Fprintf(stderr, "ggperf: %v\n", err)
		return 2
	}
	a, err := loadSide(aList)
	if err == nil {
		var b *side
		if b, err = loadSide(bList); err == nil {
			return compareSides(a, b, bounds, stdout)
		}
	}
	fmt.Fprintf(stderr, "ggperf: %v\n", err)
	return 2
}

// compareSides prints the table and returns 1 when any end-to-end
// metric, exact count or exact layer metric is worse.
func compareSides(a, b *side, bounds map[string]float64, w io.Writer) int {
	noisy := a.noisy || b.noisy
	if noisy {
		fmt.Fprintln(w, "a side was measured on a busy machine (noisy): timing deltas are not called real")
	}
	tally := map[verdict]int{}
	row := func(name string, m metricDef, bound float64, av, bv []float64, aq, bq *digest, judged bool) {
		v, worseBy := verdictNone, 0.0
		if judged {
			v, worseBy = judge(m, bound, av, bv, noisy)
			tally[v]++
		} else if ma := median(av); ma != 0 {
			worseBy = (median(bv) - ma) / math.Abs(ma)
			if m.Better == betterHigher {
				worseBy = -worseBy
			}
		}
		boundNote := "      -"
		switch {
		case m.Exact:
			boundNote = "  exact"
		case judged:
			boundNote = fmt.Sprintf("%6.1f%%", 100*bound)
		}
		fmt.Fprintf(w, "  %-42s %s  %s  %+7.2f%% worse  bound %s  %s\n",
			name, sideNote(av, aq), sideNote(bv, bq), 100*worseBy, boundNote, v)
	}
	for _, def := range workloads {
		ar, br := a.untraced[def.Name], b.untraced[def.Name]
		if len(ar) > 0 && len(br) > 0 {
			fmt.Fprintf(w, "\n== %s  (%d vs %d runs, tracing off)\n", def.Name, len(ar), len(br))
			for _, m := range endToEnd {
				if !m.appliesTo(def.Name) {
					continue
				}
				pick := func(r *workloadResult) (float64, *digest) { v := r.EndToEnd[m.Name]; return v.Value, v.Sample }
				av, aq := collect(ar, pick)
				bv, bq := collect(br, pick)
				row(m.Name, m, bounds[m.Name], av, bv, aq, bq, true)
			}
			for _, c := range sortedKeys(ar[0].Counts) {
				pick := func(r *workloadResult) (float64, *digest) { return r.Counts[c], nil }
				av, _ := collect(ar, pick)
				bv, _ := collect(br, pick)
				row("count:"+c, count(c), 0, av, bv, nil, nil, true)
			}
		}
		at, bt := a.traced[def.Name], b.traced[def.Name]
		if len(at) > 0 && len(bt) > 0 {
			fmt.Fprintf(w, "\n== %s  (%d vs %d runs, traced; layer metrics have no bound)\n", def.Name, len(at), len(bt))
			for _, m := range perLayer {
				pick := func(r *workloadResult) (float64, *digest) { return r.PerLayer[m.Name].Value, nil }
				av, _ := collect(at, pick)
				bv, _ := collect(bt, pick)
				row(m.Name, m, 0, av, bv, nil, nil, m.Exact)
			}
		}
	}
	fmt.Fprintf(w, "\nverdicts: %d better, %d worse, %d within-bound, %d unresolved\n",
		tally[verdictBetter], tally[verdictWorse], tally[verdictWithin], tally[verdictUnresolved])
	if tally[verdictWorse] > 0 {
		return 1
	}
	return 0
}

// collect gathers one value per run; the sample digest is kept only
// when the side has a single run, whose quartiles then stand in for
// the missing run-to-run ones in the printout.
func collect(runs []*workloadResult, pick func(*workloadResult) (float64, *digest)) ([]float64, *digest) {
	var vals []float64
	var sample *digest
	for _, r := range runs {
		v, d := pick(r)
		vals = append(vals, v)
		sample = d
	}
	if len(runs) != 1 {
		sample = nil
	}
	return vals, sample
}

// sideNote prints a side as "median [q1, q3]": quartiles across runs
// when there are several, within the run's own sample otherwise.
func sideNote(v []float64, sample *digest) string {
	s := sorted(v)
	switch {
	case len(s) >= 2:
		return fmt.Sprintf("%12.6g [%.6g, %.6g]", quantileSorted(s, 0.5), quantileSorted(s, 0.25), quantileSorted(s, 0.75))
	case sample != nil:
		return fmt.Sprintf("%12.6g [%.6g, %.6g]", s[0], sample.Q1, sample.Q3)
	case len(s) == 1:
		return fmt.Sprintf("%12.6g", s[0])
	}
	return "           -"
}
