// Command ggperf is the repository's benchmark: six named workloads,
// twelve end-to-end metrics, and a per-layer ledger, all measured from
// outside by timing calls into the exported functions of each layer.
// bench/README.md describes the workloads, the metrics and what each
// layer metric is predicted to move; BENCHMARK.json at the repository
// root fixes the regression bounds.
//
//	ggperf -seed 1                          all six workloads, tracing off
//	ggperf -seed 1 -trace 1                 plus the traced run of each
//	ggperf -workload serve-mix -seed 7      one workload, in this process
//	ggperf -compare a.json b.json           verdict per workload and metric
//	ggperf -update-golden                   rewrite bench/golden/*.json
//
// Every workload is measured in a process of its own (ggperf re-runs
// itself with -workload), so peak memory and set-up time are per
// workload. sh bench/run.sh builds the command and passes its
// arguments through.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, time.Now()))
}

// resultFile is what a run of all workloads writes.
type resultFile struct {
	Schema    string            `json:"schema"`
	Env       envRecord         `json:"env"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadResult `json:"workloads"`
}

const schema = "ggperf/1"

func realMain(args []string, stdout, stderr io.Writer, start time.Time) int {
	fs := flag.NewFlagSet("ggperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	var scaleFlag string
	var compare bool
	fs.StringVar(&opt.workload, "workload", "", "measure this one workload in this process (default: all six, each in a child process)")
	fs.Uint64Var(&opt.seed, "seed", 1, "benchmark seed; every input is generated from it")
	fs.Float64Var(&opt.seconds, "seconds", 12, "seconds each workload's timed phase measures")
	fs.IntVar(&opt.iters, "iters", 0, "measure exactly this many operations instead of -seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = the traced run: per-layer metrics and a trace file; 0 = tracing off")
	fs.StringVar(&scaleFlag, "scale", string(scaleFull), "workload sizes: full, or tiny (tests)")
	fs.StringVar(&opt.outDir, "out", filepath.Join("bench", "out"), "directory for result, trace and scratch files")
	fs.StringVar(&opt.goldenDir, "golden", filepath.Join("bench", "golden"), "directory of pinned simulated-statistics digests")
	fs.StringVar(&opt.benchmark, "benchmark", "BENCHMARK.json", "the benchmark definition holding the regression bounds")
	fs.BoolVar(&opt.updateGolden, "update-golden", false, "rewrite the golden digests from a run of seed 1")
	fs.BoolVar(&opt.quiet, "quiet", false, "print only the result line")
	fs.StringVar(&opt.jsonOut, "json", "", "also write the full result record to this file")
	fs.StringVar(&opt.commit, "commit", "", "commit to record in the result")
	fs.Float64Var(&opt.buildS, "build-s", 0, "build time to record in the result")
	fs.BoolVar(&compare, "compare", false, "compare two result files (or comma-separated lists of them): -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = traceFlag != 0
	opt.scale = scale(scaleFlag)
	if opt.scale != scaleFull && opt.scale != scaleTiny {
		fmt.Fprintf(stderr, "ggperf: unknown -scale %q\n", scaleFlag)
		return 2
	}
	switch {
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "ggperf: -compare takes two result files")
			return 2
		}
		return compareMain(opt, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "ggperf: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if opt.updateGolden {
		// One operation per model seed visits every pinned trajectory.
		opt.seed, opt.trace = goldenSeed, false
		if opt.iters == 0 {
			opt.iters = modelSeeds
		}
	}
	if opt.workload != "" {
		return childMain(opt, stdout, stderr, start)
	}
	return parentMain(opt, stdout, stderr)
}

// childMain measures one workload here and prints the contract's
// result line last.
func childMain(opt options, stdout, stderr io.Writer, start time.Time) int {
	res, err := runWorkload(opt, start)
	if err != nil {
		fmt.Fprintf(stderr, "ggperf: %v\n", err)
		return 1
	}
	if opt.jsonOut != "" {
		if err := writeJSONFile(opt.jsonOut, res); err != nil {
			fmt.Fprintf(stderr, "ggperf: %v\n", err)
			return 1
		}
	}
	if !opt.quiet {
		printWorkload(stdout, res)
	}
	line, err := json.Marshal(res.contract())
	if err != nil {
		fmt.Fprintf(stderr, "ggperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.OpsFailed > 0 {
		return 1
	}
	return 0
}

// parentMain runs every workload in a child process of its own, one
// after the other, prints each record as it arrives and writes them
// all to one result file.
func parentMain(opt options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "ggperf: %v\n", err)
		return 1
	}
	out := resultFile{Schema: schema, Env: captureEnv(opt, opt.outDir), Seed: opt.seed, Seconds: opt.seconds}
	if out.Env.Noisy {
		fmt.Fprintf(stdout, "warning: 1-minute load average %.2f exceeds %d CPUs; the result is marked noisy\n", out.Env.LoadAvg1, out.Env.NProc)
	}
	failed := 0
	modes := []bool{false}
	if opt.trace {
		modes = append(modes, true)
	}
	for _, traced := range modes {
		for _, def := range workloads {
			tag := ""
			if traced {
				tag = "-traced"
			}
			record := filepath.Join(opt.outDir, "workload-"+def.Name+tag+".json")
			args := []string{
				"-workload", def.Name, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds),
				"-iters", fmt.Sprint(opt.iters), "-trace", fmt.Sprint(b2i(traced)), "-scale", string(opt.scale),
				"-out", opt.outDir, "-golden", opt.goldenDir, "-commit", opt.commit, "-build-s", fmt.Sprint(opt.buildS),
				"-json", record, "-quiet",
			}
			if opt.updateGolden {
				args = append(args, "-update-golden")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			runErr := cmd.Run()
			var res workloadResult
			if err := readJSONFile(record, &res); err != nil {
				fmt.Fprintf(stderr, "ggperf: %s: %v (child: %v)\n", def.Name, err, runErr)
				failed++
				continue
			}
			os.Remove(record)
			// The noise verdict is the parent's: a child's load average
			// reflects the children that ran before it.
			res.Env.Noisy = out.Env.Noisy
			printWorkload(stdout, &res)
			out.Workloads = append(out.Workloads, &res)
			failed += res.OpsFailed
			var exit *exec.ExitError
			if runErr != nil && !errors.As(runErr, &exit) {
				fmt.Fprintf(stderr, "ggperf: %s: %v\n", def.Name, runErr)
				failed++
			}
		}
	}
	path := filepath.Join(opt.outDir, "result.json")
	if opt.jsonOut != "" {
		path = opt.jsonOut
	}
	if err := writeJSONFile(path, out); err != nil {
		fmt.Fprintf(stderr, "ggperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresult written to %s; ops_failed total %d\n", path, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printWorkload prints one workload's record: every metric by name
// with its unit, every timing as median plus the highest percentile
// the sample size allows, with the sample count.
func printWorkload(w io.Writer, r *workloadResult) {
	kind := "tracing off"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "\n== %s  (seed %d, %s, %.1f s timed, %s)\n", r.Name, r.Seed, kind, r.TimedSeconds, r.Scale)
	fmt.Fprintf(w, "   ops_attempted %d  ops_failed %d\n", r.OpsAttempted, r.OpsFailed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	fmt.Fprintln(w, "   end-to-end:")
	for _, m := range endToEnd {
		v := r.EndToEnd[m.Name]
		if !v.Applies {
			continue
		}
		fmt.Fprintf(w, "     %-30s %14.6g %-6s%s\n", m.Name, v.Value, v.Unit, sampleNote(v.Sample))
	}
	fmt.Fprintln(w, "   timed calls (host ms):")
	for _, name := range sortedKeys(r.Timings) {
		d := r.Timings[name]
		fmt.Fprintf(w, "     %-30s %14.6g ms    %s\n", name, d.Median, sampleNote(&d))
	}
	fmt.Fprintf(w, "   exact counts (first model seed): %s\n", countsNote(r.Counts))
	if r.Traced {
		fmt.Fprintln(w, "   per-layer:")
		for _, m := range perLayer {
			v := r.PerLayer[m.Name]
			fmt.Fprintf(w, "     %-42s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
		fmt.Fprintf(w, "   trace: %s\n", r.TraceFile)
	}
}

func sampleNote(d *digest) string {
	if d == nil {
		return ""
	}
	note := fmt.Sprintf("  n=%d  q1 %.6g  q3 %.6g", d.N, d.Q1, d.Q3)
	if d.TailP > 0 {
		note += fmt.Sprintf("  p%g %.6g", d.TailP, d.Tail)
	}
	return note
}

func countsNote(c map[string]float64) string {
	var parts []string
	for _, k := range sortedKeys(c) {
		parts = append(parts, fmt.Sprintf("%s %.0f", k, c[k]))
	}
	return strings.Join(parts, ", ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
