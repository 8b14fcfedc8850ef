package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ggpdes"
	"ggpdes/bench/span"
)

// options is one invocation's settings.
type options struct {
	workload     string
	seed         uint64
	seconds      float64
	iters        int
	trace        bool
	scale        scale
	outDir       string
	goldenDir    string
	benchmark    string
	updateGolden bool
	quiet        bool
	// jsonOut receives the full result record (empty = none).
	jsonOut string
	// commit and buildS are handed in by run.sh, which knows them.
	commit string
	buildS float64
}

// setupRepeats is how many times a run sets the workload up (inputs,
// listeners, warm-up); setup_s is the median, so one slow start does
// not decide it.
const setupRepeats = 3

// miniIters is the length of the traced passes a run makes over the
// workloads it was not asked for, to fill their per-layer metrics.
const miniIters = 2

// traceFileOps caps the operations written to the trace file.
const traceFileOps = 40

// metricValue is one metric in the result file.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Applies is false where the workload does not define the metric
	// and the value is the filler the driver's contract needs.
	Applies bool `json:"applies"`
	// Sample describes the per-operation values the metric is the
	// median of, when it is one.
	Sample *digest `json:"sample,omitempty"`
}

// workloadResult is one workload's record in the result file.
type workloadResult struct {
	Name         string                 `json:"name"`
	Why          string                 `json:"why"`
	Seed         uint64                 `json:"seed"`
	Scale        scale                  `json:"scale"`
	Traced       bool                   `json:"traced"`
	Env          envRecord              `json:"env"`
	OpsAttempted int                    `json:"ops_attempted"`
	OpsFailed    int                    `json:"ops_failed"`
	Failures     []string               `json:"failures,omitempty"`
	TimedSeconds float64                `json:"timed_seconds"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
	// Timings digests every timed call of the untraced phase, in host
	// milliseconds.
	Timings map[string]digest `json:"timings_ms"`
	// Counts are exact simulated counts of the primary config on the
	// first model seed.
	Counts    map[string]float64 `json:"counts"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// contractLine is the last line of standard output the benchmark
// contract asks for.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// singleP puts the process on one P. The engine under test runs one
// simulated thread at a time — goroutines handing control to each
// other — so it has no use for a second CPU except the garbage
// collector's background workers; but with two Ps the Go scheduler
// moves the handed-over goroutine to the idle one every so often, and
// the hand-off then waits for an idle CPU to be woken. On the 2-vCPU
// reference VM that wait belongs to the hypervisor: the same code and
// seed measured 265 ms and 550 ms for one RunDistributed a minute
// apart, and run-to-run spreads of 17-30% on workloads 3 and 4 against
// 4-8% on one P. So workloads 1-5 and the layer drivers are timed on
// one P: host time there is the CPU time of one core, collector
// included. serve-mix, which has concurrent clients and workers,
// raises the setting to the CPU count for itself.
func singleP() { runtime.GOMAXPROCS(1) }

// runWorkload measures one workload in this process and returns its
// record. processStart is when the process began, so the first set-up
// includes program start.
func runWorkload(opt options, processStart time.Time) (*workloadResult, error) {
	def, ok := findWorkload(opt.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	singleP()
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(opt.outDir, "tmp-"+def.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	env := &runEnv{seed: opt.seed, scale: opt.scale, tmp: tmp, nproc: runtime.NumCPU()}
	res := &workloadResult{
		Name: def.Name, Why: def.Why, Seed: opt.seed, Scale: opt.scale, Traced: opt.trace,
		Env: captureEnv(opt, tmp),
	}
	failures := newPhase()

	// Set-up, several times over; the last instance is the one measured.
	var w workload
	var setupS []float64
	for r := 0; r < setupRepeats; r++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		if r == 0 {
			start = processStart
		}
		w = def.New()
		if err := w.setup(env); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
		warm := w.measure(budget{iters: w.warmup()}, nil)
		setupS = append(setupS, time.Since(start).Seconds())
		absorb(failures, warm, "warm-up")
	}
	defer w.close()
	// What the workload runs on: serve-mix changes the setting.
	res.Env.GOMAXPROCS = runtime.GOMAXPROCS(0)

	// The untraced phase: every end-to-end metric comes from here. A
	// traced run splits its time between an untraced and a traced half,
	// whose difference is the tracing overhead.
	b := budget{iters: opt.iters, seconds: opt.seconds}
	if opt.trace {
		b.seconds /= 2
	}
	p := w.measure(b, nil)
	res.TimedSeconds = p.wallS
	res.Timings = map[string]digest{}
	for name, v := range p.samples {
		res.Timings[name] = digestOf(v)
	}

	if opt.trace {
		tr := span.New()
		pt := w.measure(b, tr)
		absorb(failures, pt, "traced phase")
		layer, err := perLayerMetrics(opt, env, def, w, p, pt, tr, failures)
		if err != nil {
			failures.fail("per-layer drivers: %v", err)
		}
		res.PerLayer = map[string]metricValue{}
		for _, m := range perLayer {
			v, ok := layer[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				failures.fail("per-layer metric %s was not produced", m.Name)
				v = 0
			}
			res.PerLayer[m.Name] = metricValue{Value: v, Unit: m.Unit, Applies: true}
		}
		spans := tr.Spans()
		if err := span.Validate(spans); err != nil {
			failures.fail("trace: %v", err)
		}
		res.TraceFile = filepath.Join(opt.outDir, "trace-"+def.Name+".json")
		if err := writeTrace(res.TraceFile, spans); err != nil {
			failures.fail("trace file: %v", err)
		}
	}

	w.verify(p)
	checkGolden(opt, def.Name, w.digests(), p)

	res.Counts = w.counts()
	res.EndToEnd = endToEndMetrics(def.Name, w, p, median(setupS), failures)
	res.OpsAttempted = p.attempted + failures.attempted
	res.OpsFailed = p.failed + failures.failed
	res.Failures = append(p.failures, failures.failures...)
	return res, nil
}

// absorb counts another phase's failures against the run: a warm-up or
// traced operation that fails is a failed operation of the benchmark.
func absorb(into, from *phase, what string) {
	into.attempted += from.attempted
	into.failed += from.failed
	for _, f := range from.failures {
		if len(into.failures) < 8 {
			into.failures = append(into.failures, what+": "+f)
		}
	}
}

// endToEndMetrics assembles all twelve end-to-end metrics for one
// workload: the ones it defines, set-up time and peak memory, and the
// fillers for the rest.
func endToEndMetrics(name string, w workload, p *phase, setupS float64, failures *phase) map[string]metricValue {
	vals := w.endToEnd(p)
	vals["setup_s"] = scalar(setupS)
	vals["peak_rss_mb"] = scalar(peakRSSMB())
	out := map[string]metricValue{}
	for _, m := range endToEnd {
		mv := metricValue{Unit: m.Unit, Applies: m.appliesTo(name)}
		if v, ok := vals[m.Name]; ok && mv.Applies {
			mv.Value = v.value
			if len(v.sample) > 0 {
				d := digestOf(v.sample)
				mv.Sample = &d
			}
		} else if mv.Applies {
			failures.fail("end-to-end metric %s was not produced", m.Name)
		} else {
			mv.Value = notApplicable(m, w.primaryMS(p))
		}
		if mv.Applies && (mv.Value <= 0 || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0)) {
			failures.fail("end-to-end metric %s = %v", m.Name, mv.Value)
			mv.Value = 0
		}
		out[m.Name] = mv
	}
	return out
}

// notApplicable is the value a metric carries on a workload that does
// not define it. The driver's contract wants every end-to-end metric
// from every workload, never zero, and no timing that reads the same
// on every run — so a time metric carries the workload's own
// primary-call median (a real measurement of this run, in the same
// unit) and a ratio carries 1, a thing over itself. ggperf's table
// and -compare skip these cells.
func notApplicable(m metricDef, primaryMS float64) float64 {
	if m.Unit == "ms" {
		return primaryMS
	}
	return 1
}

// perLayerMetrics gathers the ledger of a traced run: the named
// workload's own layer metrics from its traced phase, the other
// workloads' from a short traced pass each, the layer drivers, and
// the instrument's own figures.
func perLayerMetrics(opt options, env *runEnv, def workloadDef, w workload, p, pt *phase, tr *span.Tracer, failures *phase) (map[string]float64, error) {
	out := map[string]float64{}
	phases := map[string]*phase{def.Name: p}
	for _, other := range workloads {
		if other.Name == def.Name {
			continue
		}
		ow := other.New()
		otherEnv := *env
		otherEnv.tmp = filepath.Join(env.tmp, other.Name)
		if err := os.MkdirAll(otherEnv.tmp, 0o755); err != nil {
			return out, err
		}
		if err := ow.setup(&otherEnv); err != nil {
			return out, fmt.Errorf("%s: set-up: %w", other.Name, err)
		}
		iters := miniIters
		if other.Name == wServeMix {
			iters = ow.warmup()
		}
		otr := span.New()
		op := ow.measure(budget{iters: iters}, otr)
		absorb(failures, op, other.Name+" pass")
		if err := span.Validate(otr.Spans()); err != nil {
			failures.fail("%s pass: trace: %v", other.Name, err)
		}
		for k, v := range ow.layers(op, otr) {
			out[k] = v
		}
		phases[other.Name] = op
		ow.close()
	}
	for k, v := range w.layers(pt, tr) {
		out[k] = v
	}

	sz := sizesFor(opt.scale)
	pqDriver(opt.seed, sz, out)
	rngDriver(opt.seed, sz, out)
	if err := twDriver(opt.seed, opt.scale, out); err != nil {
		return out, fmt.Errorf("tw driver: %w", err)
	}
	if err := machineDriver(sz, out); err != nil {
		return out, fmt.Errorf("machine driver: %w", err)
	}
	obsCfg := pholdSyncConfig(opt.scale)
	obsCfg.Seed = env.modelSeed(0)
	sample, err := ggpdes.Run(obsCfg)
	if err != nil {
		return out, err
	}
	if err := telemetryDriver(sz, env.nproc, sample, obsCfg, out); err != nil {
		return out, fmt.Errorf("telemetry driver: %w", err)
	}
	jobCfg := serveJobConfig(opt.scale)
	jobCfg.Seed = env.modelSeed(0)
	jobRes, err := ggpdes.Run(jobCfg)
	if err != nil {
		return out, err
	}
	if err := glueDriver(sz, jobCfg, jobRes, epidemicsConfig(opt.scale), out); err != nil {
		return out, fmt.Errorf("glue driver: %w", err)
	}

	// Full-run cost per committed event minus the bare engine's: an
	// upper bound on what machine, gvt, core and the root glue add. On
	// the two workloads the issue names it for it is the named
	// workload's own figure; elsewhere workload 1's.
	from := wPholdSync
	if def.Name == wPholdAsync {
		from = wPholdAsync
	}
	if rate := median(phases[from].rate); rate > 0 {
		out["ggpdes.run_minus_bare_tw_ns_per_event"] = 1e9/rate - out["tw.bare_phold.ns_per_committed_event"]
	}
	c := w.counts()
	if c["processed_events"] > 0 {
		out["ggpdes.efficiency"] = c["committed_events"] / c["processed_events"]
	}

	// The instrument itself.
	if base := w.primaryMS(p); base > 0 {
		out["bench.trace_overhead_pct"] = 100 * (w.primaryMS(pt) - base) / base
	}
	out["bench.unattributed_share"] = unattributedShare(tr.Spans(), w)
	if _, tail, ok := tailPercentile(p.iterMS); ok {
		out["bench.iter_ms_tail"] = tail
	} else if len(p.iterMS) > 0 {
		s := sorted(p.iterMS)
		out["bench.iter_ms_tail"] = s[len(s)-1]
	}
	return out, nil
}

// unattributedShare is the part of the operations' time the ledger
// cannot name: the self time of the root spans — what none of their
// children covers — over their duration. A workload may restrict the
// roots it is taken over (serve-mix: the misses).
func unattributedShare(spans []span.Span, w workload) float64 {
	var roots map[span.ID]bool
	if r, ok := w.(interface{ ledgerRoots() map[span.ID]bool }); ok {
		roots = r.ledgerRoots()
	}
	self := span.SelfTimes(spans)
	var selfNS, rootNS int64
	for i, s := range spans {
		if s.Parent != 0 || roots != nil && !roots[span.ID(i+1)] {
			continue
		}
		selfNS += self[i]
		rootNS += s.Dur()
	}
	if rootNS == 0 {
		return 0
	}
	return float64(selfNS) / float64(rootNS)
}

func writeTrace(path string, spans []span.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := span.WriteChrome(f, spans, traceFileOps); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// contract renders the record as the driver's result line: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func (r *workloadResult) contract() contractLine {
	line := contractLine{
		Correct: r.OpsFailed == 0, Attempted: r.OpsAttempted, Failed: r.OpsFailed,
		Metrics: map[string]contractMetric{},
	}
	src := r.EndToEnd
	if r.Traced {
		src = r.PerLayer
	}
	for name, m := range src {
		line.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	return line
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
