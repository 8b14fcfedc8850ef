package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "ms", Better: betterLower}
	higher := metricDef{Name: "rate", Better: betterHigher}
	exact := metricDef{Name: "rounds", Better: betterLower, Exact: true}
	exactHigher := metricDef{Name: "sim", Better: betterHigher, Exact: true}
	for _, c := range []struct {
		name  string
		m     metricDef
		bound float64
		a, b  []float64
		noisy bool
		want  verdict
	}{
		{"single runs inside the bound", lower, 0.10, []float64{100}, []float64{108}, false, verdictWithin},
		{"single runs, worse", lower, 0.10, []float64{100}, []float64{111}, false, verdictWorse},
		{"single runs, better", lower, 0.10, []float64{100}, []float64{85}, false, verdictBetter},
		{"higher is better: a drop is worse", higher, 0.10, []float64{100}, []float64{85}, false, verdictWorse},
		{"higher is better: a rise is better", higher, 0.10, []float64{100}, []float64{115}, false, verdictBetter},
		{"steady runs, worse", lower, 0.10, []float64{99, 100, 101, 100}, []float64{114, 115, 116, 115}, false, verdictWorse},
		{"spread wider than the bound, runs overlap", lower, 0.10, []float64{90, 100, 110, 120}, []float64{95, 105, 125, 130}, false, verdictUnresolved},
		{"spread wider than the bound, medians equal", lower, 0.05, []float64{90, 100, 110, 120}, []float64{91, 99, 111, 119}, false, verdictUnresolved},
		{"spread wider than the bound, every run better", lower, 0.10, []float64{100, 110, 120, 130}, []float64{60, 70, 80, 90}, false, verdictBetter},
		{"spread wider than the bound, every run worse", lower, 0.10, []float64{60, 70, 80, 90}, []float64{100, 110, 120, 130}, false, verdictWorse},
		{"noisy machine resolves nothing", lower, 0.10, []float64{100}, []float64{200}, true, verdictUnresolved},
		{"exact and equal", exact, 0, []float64{54}, []float64{54}, false, verdictWithin},
		{"exact, one more round", exact, 0, []float64{54}, []float64{55}, false, verdictWorse},
		{"exact, fewer", exact, 0, []float64{54}, []float64{53}, false, verdictBetter},
		{"exact ignores noise", exactHigher, 0, []float64{1.34}, []float64{1.34}, true, verdictWithin},
		{"exact, simulated rate fell", exactHigher, 0, []float64{1.34}, []float64{1.3399999}, true, verdictWorse},
	} {
		if got, _ := judge(c.m, c.bound, c.a, c.b, c.noisy); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// The table names every applicable metric, skips the cells a workload
// does not define, and exits non-zero exactly when something is worse.
func TestCompareSides(t *testing.T) {
	record := func(resumeMS, rounds float64, noisy bool) *side {
		r := &workloadResult{
			Name: wEpidemics,
			Env:  envRecord{Noisy: noisy},
			EndToEnd: map[string]metricValue{
				"resume_ms_p50": {Value: resumeMS, Unit: "ms", Applies: true},
				"miss_ms_p50":   {Value: resumeMS, Unit: "ms"},
			},
			Counts: map[string]float64{"gvt_rounds": rounds},
		}
		return &side{noisy: noisy, untraced: map[string][]*workloadResult{wEpidemics: {r}}, traced: map[string][]*workloadResult{}}
	}
	bounds := map[string]float64{"resume_ms_p50": 0.1}
	var out bytes.Buffer
	if code := compareSides(record(100, 16, false), record(104, 16, false), bounds, &out); code != 0 {
		t.Errorf("within-bound comparison exited %d\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "miss_ms_p50") {
		t.Errorf("a metric the workload does not define was compared:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "resume_ms_p50") || !strings.Contains(out.String(), "count:gvt_rounds") {
		t.Errorf("table misses a row:\n%s", out.String())
	}
	out.Reset()
	if code := compareSides(record(100, 16, false), record(150, 16, false), bounds, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 50%% slower Resume exited %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSides(record(100, 16, false), record(100, 17, false), bounds, &out); code != 1 {
		t.Errorf("a changed exact count exited %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSides(record(100, 16, true), record(150, 16, false), bounds, &out); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a noisy side was judged: exit %d\n%s", code, out.String())
	}
}
