package harness

import (
	"bytes"
	"ggpdes"
	"strings"
	"testing"
	"time"
)

func TestExperimentInventoryMatchesDesign(t *testing.T) {
	want := []string{
		"fig2", "fig3a", "fig3b", "fig4a", "fig4b",
		"fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b",
		"gvt-times", "instructions", "rollbacks",
	}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("have %d experiments, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %q, want %q", i, exps[i].ID, id)
		}
		if exps[i].Title == "" || exps[i].PaperClaim == "" || exps[i].Run == nil {
			t.Errorf("experiment %q incomplete", exps[i].ID)
		}
	}
}

func TestGetByID(t *testing.T) {
	if Get("fig4b") == nil {
		t.Fatal("fig4b not found")
	}
	if Get("nope") != nil {
		t.Fatal("unknown id found")
	}
}

func TestScalesValid(t *testing.T) {
	for _, s := range []Scale{Tiny(), Default(), Paper()} {
		if s.HWThreads() <= 0 || len(s.BaseSweep) == 0 || s.EndTime <= 0 {
			t.Errorf("scale %q malformed", s.Name)
		}
		for _, th := range s.BaseSweep {
			if th > s.HWThreads() {
				t.Errorf("scale %q: base sweep %d exceeds hw threads %d", s.Name, th, s.HWThreads())
			}
		}
		if s.MaxOverSub(16) < 1 {
			t.Errorf("scale %q: MaxOverSub(16) < 1", s.Name)
		}
	}
}

func TestPHOLDSweepShape(t *testing.T) {
	s := Tiny()
	sw := pholdSweep(s, 4)
	if len(sw) == 0 {
		t.Fatal("empty sweep")
	}
	hw := s.HWThreads()
	sawOverSub := false
	for i, th := range sw {
		if th%4 != 0 {
			t.Errorf("sweep point %d not divisible by K", th)
		}
		if i > 0 && th <= sw[i-1] {
			t.Errorf("sweep not increasing: %v", sw)
		}
		if th > hw {
			sawOverSub = true
		}
	}
	if !sawOverSub {
		t.Errorf("1-4 sweep has no over-subscription point: %v", sw)
	}
}

func TestTrafficLPsPerfectSquare(t *testing.T) {
	for _, threads := range []int{4, 8, 16, 32, 64, 256} {
		lps := trafficLPsFor(threads, 8)
		n := threads * lps
		r := intSqrt(n)
		if r*r != n {
			t.Errorf("threads=%d lps=%d: %d not a perfect square", threads, lps, n)
		}
	}
}

func TestFig2RunsAtTinyScale(t *testing.T) {
	res, err := Get("fig2").Run(Tiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(Tiny().BaseSweep)*len(AllSix) {
		t.Fatalf("points = %d", len(res.Points))
	}
	if len(res.Tables) == 0 || res.Tables[0].Rows() == 0 {
		t.Fatal("no tables produced")
	}
	for _, p := range res.Points {
		if p.Res.CommittedEvents == 0 {
			t.Fatalf("%s @ %d committed nothing", p.Label, p.Threads)
		}
	}
}

func TestAffinityExperimentRuns(t *testing.T) {
	res, err := Get("fig7b").Run(Tiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The dynamic line must exist and have repinned.
	sawDynamic := false
	for _, p := range res.Points {
		if p.Label == "Dynamic" {
			sawDynamic = true
			if p.Res.Repins == 0 {
				t.Fatal("dynamic affinity never repinned")
			}
		}
	}
	if !sawDynamic {
		t.Fatal("no dynamic affinity points")
	}
}

func TestRollbacksExperimentRuns(t *testing.T) {
	res, err := Get("rollbacks").Run(Tiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Res.ProcessedEvents == 0 {
			t.Fatalf("%s processed nothing", p.Label)
		}
	}
}

func TestProgressLogging(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Get("instructions").Run(Tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "GG-PDES-Async") {
		t.Fatalf("progress log missing system labels:\n%s", buf.String())
	}
}

func TestWriteTextAndMarkdown(t *testing.T) {
	res, err := Get("fig2").Run(Tiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var txt, md bytes.Buffer
	WriteText(&txt, []*Result{res})
	if !strings.Contains(txt.String(), "Figure 2") || !strings.Contains(txt.String(), "Baseline-Sync") {
		t.Fatalf("text report incomplete:\n%s", txt.String())
	}
	WriteMarkdown(&md, Tiny(), []*Result{res}, 3*time.Second)
	out := md.String()
	for _, want := range []string{"# EXPERIMENTS", "## Figure 2", "**Paper:**", "```"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestSummaryExtractsRatios(t *testing.T) {
	res, err := Get("fig3a").Run(Tiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := Summary(res)
	if !strings.Contains(s, "GG/Baseline") {
		t.Fatalf("summary = %q", s)
	}
}

func TestVerdictsGradeFigures(t *testing.T) {
	// Synthesize results and check the grading logic directly.
	mk := func(id string, pts []Point) *Result { return &Result{ID: id, Points: pts} }
	pt := func(label string, threads int, rate float64) Point {
		return Point{Label: label, Threads: threads, Res: &ggpdes.Results{CommittedEventRate: rate}}
	}
	// Balanced: GG within 15% everywhere -> PASS.
	v := Verdict(mk("fig2", []Point{
		pt("Baseline-Async", 8, 100), pt("GG-PDES-Async", 8, 95),
		pt("Baseline-Sync", 8, 50), pt("GG-PDES-Sync", 8, 49),
	}))
	if !strings.HasPrefix(v, "PASS") {
		t.Fatalf("fig2 verdict = %q", v)
	}
	// Balanced with a collapse -> PARTIAL.
	v = Verdict(mk("fig2", []Point{
		pt("Baseline-Async", 8, 100), pt("GG-PDES-Async", 8, 50),
	}))
	if !strings.HasPrefix(v, "PARTIAL") {
		t.Fatalf("fig2 collapse verdict = %q", v)
	}
	// Imbalanced: GG leads at the last point -> PASS.
	v = Verdict(mk("fig4b", []Point{
		pt("Baseline-Sync", 64, 100), pt("DD-PDES-Async", 64, 80), pt("GG-PDES-Async", 64, 140),
	}))
	if !strings.HasPrefix(v, "PASS") {
		t.Fatalf("fig4b verdict = %q", v)
	}
	// Affinity non-linear: dynamic 2x constant -> PASS.
	v = Verdict(mk("fig7b", []Point{
		pt("Constant", 32, 50), pt("Dynamic", 32, 110), pt("No-Affinity", 32, 90),
	}))
	if !strings.HasPrefix(v, "PASS") {
		t.Fatalf("fig7b verdict = %q", v)
	}
	// Unknown ids yield no verdict.
	if Verdict(mk("rollbacks", nil)) != "" {
		t.Fatal("unexpected verdict for table experiment")
	}
}

func TestVerdictAppearsInNotes(t *testing.T) {
	res, err := Get("fig3a").Run(Tiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "shape vs paper") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no verdict note: %v", res.Notes)
	}
}

// TestVerdictsAtTinyScale runs every graded experiment at Tiny and
// pins its grade: a change that flips one has to change this table and
// say why. The deciding ratios are logged, not pinned.
func TestVerdictsAtTinyScale(t *testing.T) {
	want := map[string]string{
		"fig2": "PARTIAL", "fig3a": "PARTIAL", "fig3b": "PASS", "fig4a": "PASS", "fig4b": "PASS",
		"fig5a": "PARTIAL", "fig5b": "PASS", "fig6a": "PASS", "fig6b": "PASS", "fig7a": "PASS", "fig7b": "PASS",
	}
	for id, grade := range want {
		res, err := Get(id).Run(Tiny(), nil)
		if err != nil {
			t.Fatal(err)
		}
		v := Verdict(res)
		if got, _, _ := strings.Cut(v, ":"); got != grade {
			t.Errorf("%s graded %q, want %s", id, v, grade)
		}
		t.Logf("%s: %s", id, v)
	}
}
