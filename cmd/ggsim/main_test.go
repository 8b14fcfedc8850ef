package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"ggpdes"
)

// The progress printer reports when GVT reaches the next multiple of
// its step, once however many steps a publication jumps, and always at
// EndTime; it keeps its cadence for the whole run.
func TestProgressPrinter(t *testing.T) {
	cases := []struct {
		name  string
		end   float64
		every float64
		gvts  []float64
		want  []float64 // GVTs of the printed lines
	}{
		{"default step is 10% of end", 60, 0,
			[]float64{0.3, 5.9, 8.91, 9, 15.14, 24.51, 30.18}, []float64{8.91, 15.14, 24.51, 30.18}},
		{"explicit step", 200, 50,
			[]float64{2.1, 49.9, 50.93, 67, 99.99, 100, 120}, []float64{50.93, 100}},
		{"a jump across several steps prints one line", 100, 10,
			[]float64{5, 47, 48, 50}, []float64{47, 50}},
		{"the final point at EndTime always prints", 40, 100,
			[]float64{10, 39.9, 40, 40}, []float64{40, 40}},
		// A resumed 200-unit run whose snapshots fall every 4 rounds: the
		// first publication after each boundary (106.68, 166.18) is below
		// the next step and prints nothing.
		{"a segment boundary prints no extra line", 200, 50,
			[]float64{8.6, 50.93, 67, 85.28, 106.46, 106.68, 125.06, 144.27, 165.94, 166.18, 181.63, 200},
			[]float64{50.93, 106.46, 165.94, 200}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			p := newProgressPrinter(&out, c.end, 16, c.every)
			for i, g := range c.gvts {
				p.observe(ggpdes.SeriesPoint{Round: i + 1, GVT: g, WallSeconds: 1e-3,
					Committed: 10, Processed: 20, ActiveThreads: 4})
			}
			var want strings.Builder
			for _, g := range c.want {
				fmt.Fprintf(&want, "gvt %.2f/%.2f", g, c.end)
			}
			var got strings.Builder
			for _, line := range strings.SplitAfter(out.String(), "\n") {
				if head, _, ok := strings.Cut(line, " ("); ok {
					got.WriteString(head)
				}
			}
			if got.String() != want.String() {
				t.Fatalf("printed\n%s\nwant lines at GVT %v", out.String(), c.want)
			}
		})
	}
}

// A progress line carries the point's totals, rate, efficiency, thread
// accounting and round.
func TestProgressLine(t *testing.T) {
	var out bytes.Buffer
	newProgressPrinter(&out, 60, 16, 0).observe(ggpdes.SeriesPoint{
		Round: 2, GVT: 8.91, WallSeconds: 8.07e-4, Committed: 23, Processed: 2300, ActiveThreads: 4,
	})
	const want = "gvt 8.91/60.00 ( 15%)  committed 23 (2.85e+04 ev/s)  eff 1.0%  active 4/16  rounds 2\n"
	if out.String() != want {
		t.Fatalf("line\n%q\nwant\n%q", out.String(), want)
	}
}

// -progress-every holds on -resume: the printer takes EndTime and the
// thread count from the snapshot, and a resumed run prints one line per
// step crossed, ending at EndTime.
func TestProgressOnResume(t *testing.T) {
	dir := t.TempDir()
	_, err := ggpdes.Run(ggpdes.Config{
		Model:                ggpdes.PHOLD{LPsPerThread: 4},
		Threads:              4,
		System:               ggpdes.GGPDES,
		GVT:                  ggpdes.WaitFree,
		EndTime:              200,
		Machine:              ggpdes.SmallMachine(),
		GVTFrequency:         10,
		ZeroCounterThreshold: 60,
		Checkpoint:           &ggpdes.CheckpointOptions{Every: 4, Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no snapshots in %s (%v)", dir, err)
	}
	var cfg ggpdes.Config
	if err := snapshotConfig(paths[0], &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.EndTime != 200 || cfg.Threads != 4 {
		t.Fatalf("snapshot config: EndTime %v, Threads %d; want 200, 4", cfg.EndTime, cfg.Threads)
	}
	const every = 50
	var out bytes.Buffer
	_, err = ggpdes.ResumeContext(t.Context(), paths[0], &ggpdes.ResumeOptions{
		Series: &ggpdes.SeriesOptions{Func: newProgressPrinter(&out, cfg.EndTime, cfg.Threads, every).observe},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	band := -1.0
	for i, line := range lines {
		var gvt, end float64
		if _, err := fmt.Sscanf(line, "gvt %f/%f", &gvt, &end); err != nil || end != cfg.EndTime {
			t.Fatalf("line %q: %v", line, err)
		}
		if i == len(lines)-1 && gvt != cfg.EndTime {
			t.Fatalf("last line at GVT %.2f, want %.2f", gvt, cfg.EndTime)
		}
		if b := math.Floor(gvt / every); b <= band && gvt < cfg.EndTime {
			t.Fatalf("line %q repeats a step of %d:\n%s", line, every, out.String())
		} else {
			band = b
		}
	}
}
