package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// asMainEnv makes the test binary behave as the ggperf command, so the
// tests can run it the way run.sh does — including the parent mode,
// which re-executes itself once per workload.
const asMainEnv = "GGPERF_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, time.Now()))
	}
	os.Exit(m.Run())
}

// ggperf runs the command in a child process and returns its standard
// output and exit code.
func ggperf(t *testing.T, args ...string) (string, int) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	code := 0
	if exit, ok := err.(*exec.ExitError); ok {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	if stderr.Len() > 0 {
		t.Logf("stderr:\n%s", stderr.String())
	}
	return stdout.String(), code
}

func lastLine(t *testing.T, out string) contractLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line of standard output is not the result object: %v\n%s", err, out)
	}
	return line
}

// One command runs all six workloads, each in a process of its own,
// through the whole check path at tiny scale: every end-to-end metric
// of every workload is there and positive, and nothing fails.
func TestAllWorkloadsTiny(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	result := filepath.Join(dir, "result.json")
	out, code := ggperf(t, "-scale", "tiny", "-iters", "20", "-seed", "3",
		"-out", dir, "-golden", filepath.Join(dir, "golden"), "-json", result)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, out)
	}
	var file resultFile
	if err := readJSONFile(result, &file); err != nil {
		t.Fatal(err)
	}
	if file.Schema != schema || file.Env.NProc == 0 || file.Env.GoVersion == "" || file.Env.Kernel == "" || file.Env.TmpFS == "" {
		t.Errorf("environment record incomplete: %+v", file.Env)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("result holds %d workloads, want %d", len(file.Workloads), len(workloads))
	}
	for i, r := range file.Workloads {
		if r.Name != workloads[i].Name || r.Traced || r.Seed != 3 {
			t.Errorf("record %d is %s (traced %v, seed %d)", i, r.Name, r.Traced, r.Seed)
		}
		if r.OpsFailed != 0 || r.OpsAttempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", r.Name, r.OpsAttempted, r.OpsFailed, r.Failures)
		}
		for _, m := range endToEnd {
			v, ok := r.EndToEnd[m.Name]
			if !ok || v.Unit != m.Unit || v.Applies != m.appliesTo(r.Name) || !(v.Value > 0) {
				t.Errorf("%s: %s = %+v (present %v)", r.Name, m.Name, v, ok)
			}
		}
		if r.Counts["committed_events"] == 0 || r.Counts["processed_events"] < r.Counts["committed_events"] {
			t.Errorf("%s: counts %v", r.Name, r.Counts)
		}
		if !strings.Contains(out, "== "+r.Name) {
			t.Errorf("%s is missing from the printed table", r.Name)
		}
	}
	for _, name := range []string{"sim_gg_over_baseline_speedup", "dist_slowdown_ratio", "hit_ms_p50", "ops_failed"} {
		if !strings.Contains(out, name) {
			t.Errorf("printed table does not name %s", name)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "tmp-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// The traced run emits every per-layer metric, a trace whose spans
// nest, and — as the contract line — the per-layer metrics only. The
// distributed workload is the one whose spans come from wrapped
// connections on both ends.
func TestTracedRunTiny(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	record := filepath.Join(dir, "record.json")
	out, code := ggperf(t, "-workload", wPholdDist, "-scale", "tiny", "-iters", "3", "-trace", "1", "-seed", "5",
		"-out", dir, "-golden", filepath.Join(dir, "golden"), "-json", record)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, out)
	}
	line := lastLine(t, out)
	if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
		t.Errorf("result line: correct %v, attempted %d, failed %d", line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("result line carries %d metrics, want the %d per-layer ones", len(line.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer metric %s: %+v (present %v)", m.Name, got, ok)
		}
	}
	for _, name := range []string{"dist.frames", "dist.rtt_us_p50", "dist.worker_busy_us_p50", "dist.decode_reply_ns",
		"machine.handoff_ns_per_segment", "tw.bare_phold.ns_per_committed_event", "serve.run_ms_p50", "checkpoint.decode_ms"} {
		if !(line.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want a measurement", name, line.Metrics[name].Value)
		}
	}
	if share := line.Metrics["dist.wire_wait_share"].Value + line.Metrics["dist.coord_self_share"].Value; share < 0.999 || share > 1.001 {
		t.Errorf("wire wait and coordinator self shares add up to %v", share)
	}
	var res workloadResult
	if err := readJSONFile(record, &res); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				Op int64 `json:"op"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := readJSONFile(res.TraceFile, &trace); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"iteration", callInProc, callDist, "dist.rtt", "dist.worker_busy"} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}

// A simulated statistic that moves is a failed operation and a
// non-zero exit: pin the digests of a tiny run, corrupt one, run again.
func TestCorruptedGoldenFails(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	golden := filepath.Join(dir, "golden")
	args := []string{"-workload", wPholdSync, "-scale", "tiny", "-out", dir, "-golden", golden, "-quiet"}
	if out, code := ggperf(t, append(args, "-update-golden")...); code != 0 {
		t.Fatalf("-update-golden exited %d\n%s", code, out)
	}
	check := append(args, "-seed", "1", "-iters", "10")
	out, code := ggperf(t, check...)
	if line := lastLine(t, out); code != 0 || !line.Correct {
		t.Fatalf("run against its own golden digests: exit %d, %+v", code, line)
	}

	path := filepath.Join(golden, wPholdSync+".json")
	var g goldenFile
	if err := readJSONFile(path, &g); err != nil {
		t.Fatal(err)
	}
	if len(g.Digests) != modelSeeds {
		t.Fatalf("golden file pins %d digests, want %d", len(g.Digests), modelSeeds)
	}
	g.Digests["run/0"] = strings.Repeat("0", 64)
	if err := writeJSONFile(path, g); err != nil {
		t.Fatal(err)
	}
	out, code = ggperf(t, check...)
	line := lastLine(t, out)
	if code == 0 || line.Correct || line.Failed == 0 {
		t.Errorf("corrupted golden digest: exit %d, correct %v, failed %d", code, line.Correct, line.Failed)
	}
}

// BENCHMARK.json and the tables in metrics.go describe the same
// benchmark: same workloads, same metrics, units and directions.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var def struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSONFile(filepath.Join("..", "..", "BENCHMARK.json"), &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.Name || def.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %s / %s", i, def.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(def.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := def.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("end-to-end metric %d: %+v, want %+v", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, got.Bound)
		}
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(def.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		got := def.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: %+v, want %+v", i, got, m)
		}
		if seen[m.Name] {
			t.Errorf("%s is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics exceed the contract's 128", len(perLayer))
	}
}
