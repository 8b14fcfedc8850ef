// Command ggsim runs a single GG-PDES simulation and prints its
// metrics — the quickest way to poke at one configuration.
//
// Examples:
//
//	ggsim -model phold -imbalance 4 -threads 64 -system gg -gvt async
//	ggsim -model epidemics -lockdown 8 -threads 32 -system baseline
//	ggsim -model traffic -gradient 0.5 -threads 16 -affinity dynamic
//	ggsim -model phold -checkpoint-every 4 -checkpoint-dir /tmp/ck
//	ggsim -resume /tmp/ck/ckpt-00000004.ckpt
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"syscall"
	"time"

	"ggpdes"
	"ggpdes/internal/checkpoint"
	"ggpdes/internal/profiling"
	"ggpdes/internal/stats"
)

func main() {
	var (
		modelName  = flag.String("model", "phold", "workload: phold | epidemics | traffic")
		threads    = flag.Int("threads", 32, "simulation threads (POSIX threads in the paper)")
		system     = flag.String("system", "gg", "scheduling system: baseline | dd | gg")
		gvtAlg     = flag.String("gvt", "async", "GVT algorithm: sync (barrier) | async (wait-free)")
		affinity   = flag.String("affinity", "constant", "CPU affinity: none | constant | dynamic")
		endTime    = flag.Float64("end", 60, "virtual end time")
		seed       = flag.Uint64("seed", 1, "random seed")
		lps        = flag.Int("lps", 8, "LPs per thread")
		imbalance  = flag.Int("imbalance", 1, "PHOLD 1-K imbalance (1 = balanced)")
		nonLinear  = flag.Bool("nonlinear", false, "PHOLD non-linear locality groups")
		lockdown   = flag.Int("lockdown", 4, "epidemics lock-down groups K ((K-1)/K locked)")
		gradient   = flag.Float64("gradient", 0.35, "traffic density gradient")
		cores      = flag.Int("cores", 16, "simulated cores")
		smt        = flag.Int("smt", 2, "SMT contexts per core")
		gvtFreq    = flag.Int("gvt-freq", 40, "loop iterations per GVT round")
		zeroThr    = flag.Int("zero-threshold", 400, "empty-queue iterations before deactivation")
		optimism   = flag.Float64("optimism", 0, "optimism window in virtual time (0 = unbounded)")
		traceFile  = flag.String("trace", "", "write a CSV trace of the run to this file")
		seriesOut  = flag.String("series", "", "write the per-GVT-round time series CSV to this file (- = stdout)")
		seriesLim  = flag.Int("series-limit", 0, "series ring size in GVT rounds (0 = default)")
		seriesPlot = flag.Bool("series-plot", false, "print horizon-width and rollback sparklines from the series")
		traceRing  = flag.Bool("trace-ring", false, "keep only the newest -trace-limit trace records (ring buffer)")
		traceLim   = flag.Int("trace-limit", 0, "trace record cap (0 = default)")
		perfetto   = flag.String("perfetto", "", "write a Perfetto/Chrome trace JSON of the run to this file")
		progress   = flag.Bool("progress", false, "print live progress lines to stderr as GVT advances")
		progEvery  = flag.Float64("progress-every", 0, "virtual-time interval between progress lines (0 = 10% of -end)")
		hist       = flag.Bool("hist", false, "print every run histogram (implies -v percentile lines)")
		timeout    = flag.Duration("timeout", 0, "abort the run after this much real time (0 = no limit)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf    = flag.String("memprofile", "", "write a heap profile after the run to this file (go tool pprof)")
		verbose    = flag.Bool("v", false, "print the full metric set, and this process's host wall time, user CPU and peak RSS to stderr")

		ckptEvery = flag.Int("checkpoint-every", 0, "checkpoint every N GVT rounds (0 = off)")
		ckptDir   = flag.String("checkpoint-dir", "", "write checkpoint files (ckpt-NNNNNNNN.ckpt) to this directory")
		resume    = flag.String("resume", "", "resume from this checkpoint file (ckpt-NNNNNNNN.ckpt) instead of starting a run (model/config flags are ignored)")

		chaosSeed  = flag.Uint64("chaos-seed", 0, "stall injection seed (0 = run seed)")
		chaosStall = flag.Float64("chaos-stall", 0, "per-thread-iteration probability, in [0, 1), of burning the iteration (0 = off)")
	)
	flag.Parse()
	start := time.Now()

	resuming := *resume != ""
	var cfg ggpdes.Config
	if !resuming {
		cfg = ggpdes.Config{
			Threads:              *threads,
			EndTime:              *endTime,
			Seed:                 *seed,
			Machine:              ggpdes.Machine{Cores: *cores, SMTWidth: *smt, FreqHz: 1.3e9},
			GVTFrequency:         *gvtFreq,
			ZeroCounterThreshold: *zeroThr,
			OptimismWindow:       *optimism,
		}

		switch strings.ToLower(*modelName) {
		case "phold":
			cfg.Model = ggpdes.PHOLD{LPsPerThread: *lps, Imbalance: *imbalance, NonLinear: *nonLinear}
		case "epidemics":
			cfg.Model = ggpdes.Epidemics{LPsPerThread: *lps, LockdownGroups: *lockdown, ContactRate: 3, TransmissionProb: 0.5}
		case "traffic":
			cfg.Model = ggpdes.Traffic{LPsPerThread: *lps, DensityGradient: *gradient}
		default:
			fatalf("unknown model %q", *modelName)
		}

		var err error
		if cfg.System, err = ggpdes.ParseSystem(*system); err != nil {
			fatalf("%v", err)
		}
		if cfg.GVT, err = ggpdes.ParseGVT(*gvtAlg); err != nil {
			fatalf("%v", err)
		}
		if cfg.Affinity, err = ggpdes.ParseAffinity(*affinity); err != nil {
			fatalf("%v", err)
		}
		if *ckptEvery > 0 {
			cfg.Checkpoint = &ggpdes.CheckpointOptions{Every: *ckptEvery, Dir: *ckptDir}
		}
		if *chaosStall != 0 {
			cfg.Chaos = &ggpdes.ChaosOptions{Seed: *chaosSeed, StallRate: *chaosStall}
		}
		if err := cfg.Validate(); err != nil {
			fatalf("%v", err)
		}
	}

	var traceOpts *ggpdes.TraceOptions
	var traceOut, perfettoOut *os.File
	var timeline bytes.Buffer
	if *traceFile != "" || *perfetto != "" || *traceRing || *traceLim > 0 {
		traceOpts = &ggpdes.TraceOptions{Ring: *traceRing, Limit: *traceLim, Timeline: &timeline}
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		traceOut = f
		traceOpts.CSV = f
	}
	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		perfettoOut = f
		traceOpts.Perfetto = f
	}

	var seriesOpts *ggpdes.SeriesOptions
	var seriesFile *os.File
	if *seriesOut != "" || *seriesPlot || *seriesLim > 0 || *progress {
		seriesOpts = &ggpdes.SeriesOptions{Limit: *seriesLim}
	}
	if *progress {
		if resuming {
			if err := snapshotConfig(*resume, &cfg); err != nil {
				fatalf("%v", err)
			}
		}
		seriesOpts.Func = newProgressPrinter(os.Stderr, cfg.EndTime, cfg.Threads, *progEvery).observe
	}
	if *seriesOut != "" {
		if *seriesOut == "-" {
			seriesOpts.CSV = os.Stdout
		} else {
			f, err := os.Create(*seriesOut)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			seriesFile = f
			seriesOpts.CSV = f
		}
	}
	cfg.Trace = traceOpts
	cfg.Series = seriesOpts

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatalf("%v", err)
	}
	var res *ggpdes.Results
	if resuming {
		res, err = ggpdes.ResumeContext(ctx, *resume, &ggpdes.ResumeOptions{
			Trace:         traceOpts,
			Series:        seriesOpts,
			CheckpointDir: *ckptDir,
		})
	} else {
		res, err = ggpdes.RunContext(ctx, cfg)
	}
	if perr := stopProf(); perr != nil {
		fatalf("%v", perr)
	}
	if err != nil {
		if ctx.Err() != nil {
			fatalf("timed out after %s: %v", *timeout, err)
		}
		fatalf("%v", err)
	}
	if traceOut != nil {
		fmt.Printf("trace written to %s\n", traceOut.Name())
	}
	if perfettoOut != nil {
		fmt.Printf("perfetto trace written to %s (open in ui.perfetto.dev)\n", perfettoOut.Name())
	}
	if res.TraceSummary != "" {
		fmt.Println(res.TraceSummary)
		fmt.Print(timeline.String())
	}
	if seriesFile != nil {
		fmt.Printf("series written to %s (%d rounds)\n", seriesFile.Name(), len(res.Series))
	}
	if *seriesPlot && len(res.Series) > 0 {
		width := make([]float64, len(res.Series))
		rough := make([]float64, len(res.Series))
		rolled := make([]float64, len(res.Series))
		for i, pt := range res.Series {
			width[i] = pt.HorizonWidth
			rough[i] = pt.HorizonRoughness
			rolled[i] = float64(pt.Rollbacks)
		}
		fmt.Printf("horizon width  w     : %s\n", stats.Sparkline(width, 60))
		fmt.Printf("roughness      w^2   : %s\n", stats.Sparkline(rough, 60))
		fmt.Printf("rollbacks (cum)      : %s\n", stats.Sparkline(rolled, 60))
	}

	if resuming {
		fmt.Printf("resumed from %s\n", *resume)
	} else {
		fmt.Printf("%s | %s | %s GVT | %s affinity | %d threads on %dx%d contexts\n",
			cfg.Model.Name(), cfg.System, cfg.GVT, cfg.Affinity, cfg.Threads, *cores, *smt)
	}
	fmt.Printf("committed event rate : %s\n", stats.Rate(res.CommittedEventRate))
	fmt.Printf("committed events     : %s\n", stats.Count(res.CommittedEvents))
	fmt.Printf("wall clock           : %s (simulated)\n", stats.Seconds(res.WallClockSeconds))
	fmt.Printf("efficiency           : %.1f%% (%s rolled back of %s processed)\n",
		res.Efficiency()*100, stats.Count(res.RolledBackEvents), stats.Count(res.ProcessedEvents))
	fmt.Printf("GVT                  : %d rounds, %s CPU per round\n",
		res.GVTRounds, stats.Seconds(res.GVTCPUSecondsPerRound()))
	if *verbose {
		fmt.Printf("total cycles         : %s\n", stats.Count(res.TotalCycles))
		fmt.Printf("deactivations        : %d, activations: %d\n", res.Deactivations, res.Activations)
		fmt.Printf("lock contention      : %d (DD-PDES mutex)\n", res.LockContention)
		fmt.Printf("dynamic repins       : %d\n", res.Repins)
		fmt.Printf("context switches     : %d, migrations: %d\n", res.ContextSwitches, res.Migrations)
		fmt.Printf("stragglers           : %d, anti-messages: %d, rollbacks: %d\n",
			res.Stragglers, res.AntiMessages, res.Rollbacks)
	}
	if *verbose || *hist {
		fmt.Printf("rollback depth       : %s\n", res.RollbackDepth)
		fmt.Printf("gvt round latency    : %s cycles\n", res.GVTRoundLatencyCycles)
		fmt.Printf("commit batch         : %s events\n", res.CommitBatch)
		fmt.Printf("deschedule span      : %s cycles\n", res.DescheduleSpanCycles)
	}
	if *hist {
		fmt.Println()
		fmt.Print(res.HistogramsText())
	}
	if *verbose {
		printHostUsage(time.Since(start))
	}
}

// printHostUsage reports what the run cost this process on the host —
// wall time, user CPU and peak resident set (getrusage) — to stderr,
// so that the report on stdout stays a pure function of the config.
// The line starts with "host" for scripts that diff stderr too.
func printHostUsage(wall time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintf(os.Stderr, "host                 : %.2f s wall (getrusage: %v)\n", wall.Seconds(), err)
		return
	}
	user := time.Duration(ru.Utime.Nano())
	// Linux reports ru_maxrss in KiB.
	fmt.Fprintf(os.Stderr, "host                 : %.2f s wall, %.2f s user CPU, %.1f MB peak RSS\n",
		wall.Seconds(), user.Seconds(), float64(ru.Maxrss)/1024)
}

// snapshotConfig reads the configuration a checkpoint was taken under
// into cfg: a resumed run's EndTime and thread count live in the
// snapshot, not in the flags.
func snapshotConfig(path string, cfg *ggpdes.Config) error {
	snap, err := checkpoint.Read(path)
	if err != nil {
		return err
	}
	return cfg.UnmarshalJSON(snap.Config)
}

// progressPrinter writes one progress line per GVT publication that
// reaches the next multiple of step, and one for every publication at
// EndTime. It lives for the whole run, so a checkpoint boundary does
// not restart its cadence.
type progressPrinter struct {
	w          io.Writer
	end        float64
	threads    int
	step, next float64
}

// newProgressPrinter returns a printer that reports every every units
// of virtual time (10% of end when every <= 0).
func newProgressPrinter(w io.Writer, end float64, threads int, every float64) *progressPrinter {
	if every <= 0 {
		every = 0.1 * end
	}
	return &progressPrinter{w: w, end: end, threads: threads, step: every, next: every}
}

// observe is the run's SeriesOptions.Func.
func (p *progressPrinter) observe(pt ggpdes.SeriesPoint) {
	if pt.GVT < p.next && pt.GVT < p.end {
		return
	}
	// Jump to the first threshold past GVT in one step — the step can be
	// tiny, so advancing one step at a time is not an option.
	p.next = p.step * (math.Floor(pt.GVT/p.step) + 1)
	var rate, eff float64
	if pt.WallSeconds > 0 {
		rate = float64(pt.Committed) / pt.WallSeconds
	}
	if pt.Processed > 0 {
		eff = float64(pt.Committed) / float64(pt.Processed)
	}
	fmt.Fprintf(p.w, "gvt %.2f/%.2f (%3.0f%%)  committed %d (%.3g ev/s)  eff %.1f%%  active %d/%d  rounds %d\n",
		pt.GVT, p.end, 100*pt.GVT/p.end, pt.Committed, rate,
		100*eff, pt.ActiveThreads, p.threads, pt.Round)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ggsim: "+format+"\n", args...)
	os.Exit(2)
}
