package ggpdes

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestResultsCarryTelemetry(t *testing.T) {
	cfg := quickCfg()
	cfg.Model = PHOLD{LPsPerThread: 4, Imbalance: 4}
	cfg.Threads = 16
	cfg.EndTime = 60
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters == nil || res.Histograms == nil {
		t.Fatal("telemetry snapshots missing")
	}
	// GVT rounds always happen; the histogram must agree with the
	// round count.
	if res.GVTRoundLatencyCycles.Count != res.GVTRounds {
		t.Fatalf("round latency count %d != rounds %d",
			res.GVTRoundLatencyCycles.Count, res.GVTRounds)
	}
	if res.GVTRoundLatencyCycles.P50 <= 0 || res.GVTRoundLatencyCycles.P99 < res.GVTRoundLatencyCycles.P50 {
		t.Fatalf("round latency percentiles malformed: %+v", res.GVTRoundLatencyCycles)
	}
	// Fossil collection must have committed in batches summing to the
	// committed total.
	if res.CommitBatch.Count == 0 || uint64(res.CommitBatch.Mean*float64(res.CommitBatch.Count)+0.5) != res.CommittedEvents {
		t.Fatalf("commit batches (%+v) do not account for %d committed", res.CommitBatch, res.CommittedEvents)
	}
	// Rollback depth mirrors the rollback episode count.
	if res.RollbackDepth.Count != res.Rollbacks {
		t.Fatalf("rollback depth count %d != rollbacks %d", res.RollbackDepth.Count, res.Rollbacks)
	}
	if res.Rollbacks > 0 && res.RollbackDepth.P99 < 1 {
		t.Fatalf("rollback p99 = %v with %d rollbacks", res.RollbackDepth.P99, res.Rollbacks)
	}
	// GG-PDES on an imbalanced model de-schedules; spans must be
	// observed once per reactivation.
	if res.Deactivations > 0 && res.DescheduleSpanCycles.Count == 0 {
		t.Fatalf("deactivations %d but no deschedule spans", res.Deactivations)
	}
	// Cross-checks between the registry and the first-class counters.
	if res.Counters["tw.committed_events"] != res.CommittedEvents {
		t.Fatalf("counter committed %d != %d", res.Counters["tw.committed_events"], res.CommittedEvents)
	}
	if res.Counters["gvt.rounds"] != res.GVTRounds {
		t.Fatalf("counter rounds %d != %d", res.Counters["gvt.rounds"], res.GVTRounds)
	}
	if res.Counters["machine.migrations"] != res.Migrations {
		t.Fatalf("counter migrations %d != %d", res.Counters["machine.migrations"], res.Migrations)
	}
	if res.Counters["machine.preempts"] != res.Preempts {
		t.Fatalf("counter preempts %d != %d", res.Counters["machine.preempts"], res.Preempts)
	}
	// Machine occupancy histograms sample every 16 ticks per core.
	if res.Histograms["machine.runq_depth"].Count == 0 || res.Histograms["machine.smt_occupancy"].Count == 0 {
		t.Fatal("machine occupancy histograms empty")
	}
	if res.HistogramsText() == "" || !strings.Contains(res.HistogramsText(), "gvt.round_latency_cycles") {
		t.Fatalf("histograms text missing:\n%s", res.HistogramsText())
	}
}

func TestPerfettoExportFromRun(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg()
	cfg.Model = PHOLD{LPsPerThread: 4, Imbalance: 4}
	cfg.Threads = 16
	cfg.EndTime = 60
	cfg.Trace = &TraceOptions{Perfetto: &buf}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	threadNames := map[int]bool{}
	var slices, gvtCounters, committedCounters int
	lastGVT := -1.0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			threadNames[ev.Tid] = true
		case ev.Ph == "X":
			if ev.Name != "descheduled" || ev.Dur < 0 || ev.Tid < 0 || ev.Tid >= cfg.Threads {
				t.Fatalf("bad slice: %+v", ev)
			}
			slices++
		case ev.Ph == "C" && ev.Name == "GVT":
			g, ok := ev.Args["gvt"].(float64)
			if !ok || g < lastGVT {
				t.Fatalf("GVT counter not monotonic: %+v after %v", ev, lastGVT)
			}
			lastGVT = g
			gvtCounters++
		case ev.Ph == "C" && ev.Name == "committed events":
			committedCounters++
		}
	}
	for tid := 0; tid < cfg.Threads; tid++ {
		if !threadNames[tid] {
			t.Fatalf("missing thread_name metadata for tid %d", tid)
		}
	}
	if res.Deactivations > 0 && slices == 0 {
		t.Fatal("deactivations happened but no descheduled slices exported")
	}
	if gvtCounters == 0 || committedCounters == 0 {
		t.Fatalf("counter tracks missing: gvt=%d committed=%d", gvtCounters, committedCounters)
	}
}

func TestRingTraceThroughAPI(t *testing.T) {
	var csv bytes.Buffer
	cfg := quickCfg()
	cfg.Model = PHOLD{LPsPerThread: 4, Imbalance: 4}
	cfg.Threads = 16
	cfg.EndTime = 60
	cfg.Trace = &TraceOptions{Limit: 64, Ring: true, CSV: &csv}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.TraceSummary, "ring") {
		t.Fatalf("summary does not mention ring mode: %q", res.TraceSummary)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 65 { // header + 64 retained records
		t.Fatalf("ring csv has %d lines, want 65", len(lines))
	}
}

// A traced run writes its activity timeline (ggsim prints it under the
// trace summary): a header and one row per thread, as wide as asked.
func TestTraceTimeline(t *testing.T) {
	var timeline bytes.Buffer
	cfg := quickCfg()
	cfg.Trace = &TraceOptions{Timeline: &timeline, TimelineWidth: 40}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(timeline.String(), "\n"), "\n")
	if len(lines) != 1+cfg.Threads || !strings.HasPrefix(lines[0], "thread activity over ") {
		t.Fatalf("timeline of %d lines, want a header and %d rows:\n%s", len(lines), cfg.Threads, timeline.String())
	}
	for _, row := range lines[1:] {
		_, cells, _ := strings.Cut(row, "|")
		if cells = strings.TrimSuffix(cells, "|"); len(cells) != 40 || strings.Trim(cells, "#.") != "" {
			t.Fatalf("row %q is not 40 cells of '#' and '.'", row)
		}
	}
}

// SeriesOptions.Func sees exactly the points the run records, in
// order, with thread accounting in range and the last at EndTime.
func TestSeriesFunc(t *testing.T) {
	var seen []SeriesPoint
	cfg := quickCfg()
	cfg.Series = &SeriesOptions{Func: func(pt SeriesPoint) { seen = append(seen, pt) }}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("Func saw no points")
	}
	if !reflect.DeepEqual(seen, res.Series) {
		t.Fatalf("Func saw %d points, the run recorded %d, or they differ", len(seen), len(res.Series))
	}
	for _, pt := range seen {
		if pt.ActiveThreads < 1 || pt.ActiveThreads > cfg.Threads {
			t.Fatalf("round %d: %d of %d threads active", pt.Round, pt.ActiveThreads, cfg.Threads)
		}
	}
	if last := seen[len(seen)-1]; last.GVT != cfg.EndTime {
		t.Fatalf("final point GVT %.2f, want end time %.2f", last.GVT, cfg.EndTime)
	}
}

func TestProgressDoesNotPerturbRun(t *testing.T) {
	cfg := quickCfg()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Series = &SeriesOptions{Func: func(SeriesPoint) {}}
	cfg.Trace = &TraceOptions{}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CommittedEvents != b.CommittedEvents || a.WallClockSeconds != b.WallClockSeconds {
		t.Fatalf("observability changed the run: %d/%.6f vs %d/%.6f",
			a.CommittedEvents, a.WallClockSeconds, b.CommittedEvents, b.WallClockSeconds)
	}
}
