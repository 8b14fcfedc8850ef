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
//	ggsim -model phold -threads 16 -workers 4
//	ggsim -model phold -threads 16 -worker-addrs 10.0.0.2:7000,10.0.0.3:7000
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"syscall"
	"time"

	"ggpdes"
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
		expvarAt   = flag.String("expvar", "", "serve live run metrics over expvar at this address (e.g. :8123)")
		hist       = flag.Bool("hist", false, "print every run histogram (implies -v percentile lines)")
		timeout    = flag.Duration("timeout", 0, "abort the run after this much real time (0 = no limit)")
		nopool     = flag.Bool("nopool", false, "disable event/snapshot recycling (A/B allocation measurements)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf    = flag.String("memprofile", "", "write a heap profile after the run to this file (go tool pprof)")
		verbose    = flag.Bool("v", false, "print the full metric set, and this process's host wall time, user CPU and peak RSS to stderr")

		workers     = flag.Int("workers", 0, "shard the run across N worker processes (0 = in-process); spawns local workers unless -worker-addrs is set")
		workerAddrs = flag.String("worker-addrs", "", "comma-separated ggworker addresses to shard across instead of spawning")
		workerServe = flag.Bool("worker-serve", false, "internal: serve one worker shard on an ephemeral port (what -workers spawns)")

		ckptEvery = flag.Int("checkpoint-every", 0, "checkpoint every N GVT rounds (0 = off)")
		ckptDir   = flag.String("checkpoint-dir", "", "write checkpoint files (ckpt-NNNNNNNN.ckpt) to this directory")
		resume    = flag.String("resume", "", "resume from this checkpoint file (ckpt-NNNNNNNN.ckpt) instead of starting a run (model/config flags are ignored)")

		chaosSeed  = flag.Uint64("chaos-seed", 0, "stall injection seed (0 = run seed)")
		chaosStall = flag.Float64("chaos-stall", 0, "per-thread-iteration probability, in [0, 1), of burning the iteration (0 = off)")
	)
	flag.Parse()
	start := time.Now()

	if *workerServe {
		if err := serveWorkerShard(); err != nil {
			fatalf("%v", err)
		}
		return
	}
	distributed := *workers > 0 || *workerAddrs != ""

	resuming := *resume != ""
	if resuming && distributed {
		fatalf("-resume is in-process only")
	}
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
			DisablePooling:       *nopool,
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
	if *traceFile != "" || *perfetto != "" || *traceRing || *traceLim > 0 {
		traceOpts = &ggpdes.TraceOptions{Ring: *traceRing, Limit: *traceLim}
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

	var progOpts *ggpdes.ProgressOptions
	if *progress || *expvarAt != "" {
		progOpts = &ggpdes.ProgressOptions{}
		if *progEvery > 0 && !resuming {
			// A resumed run's EndTime lives in the snapshot, so the
			// interval cannot be normalised here; the 10% default applies.
			progOpts.Every = *progEvery / cfg.EndTime
		}
		if *progress {
			progOpts.W = os.Stderr
		}
		if *expvarAt != "" {
			progOpts.Func = publishExpvar(*expvarAt)
		}
	}
	var seriesOpts *ggpdes.SeriesOptions
	var seriesFile *os.File
	if *seriesOut != "" || *seriesPlot || *seriesLim > 0 {
		seriesOpts = &ggpdes.SeriesOptions{Limit: *seriesLim}
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
	cfg.Progress = progOpts
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
			Progress:      progOpts,
			Series:        seriesOpts,
			CheckpointDir: *ckptDir,
		})
	} else if distributed {
		res, err = runDistributed(ctx, cfg, *workers, *workerAddrs)
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
	if distributed {
		fmt.Printf("distributed          : %d workers, %s relayed cross-shard, %s polls elided\n",
			distWorkerCount(*workers, *workerAddrs),
			stats.Count(res.Counters["dist.events_relayed"]+res.Counters["dist.antis_relayed"]),
			stats.Count(res.Counters["dist.polls_elided"]))
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

// publishExpvar starts an HTTP server exposing run progress under
// /debug/vars and returns the ProgressInfo callback that feeds it.
// The server goroutine dies with the process; ggsim is a one-shot
// tool, so there is nothing to tear down.
func publishExpvar(addr string) func(ggpdes.ProgressInfo) {
	gvt := new(expvar.Float)
	committed := new(expvar.Int)
	rate := new(expvar.Float)
	efficiency := new(expvar.Float)
	active := new(expvar.Int)
	rounds := new(expvar.Int)
	m := new(expvar.Map).Init()
	m.Set("gvt", gvt)
	m.Set("committed_events", committed)
	m.Set("committed_event_rate", rate)
	m.Set("efficiency", efficiency)
	m.Set("active_threads", active)
	m.Set("gvt_rounds", rounds)
	expvar.Publish("ggsim", m)
	//ggvet:allow(process-lifetime debug listener: the expvar server serves until the simulation process exits; there is no shutdown phase to join)
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "ggsim: expvar server: %v\n", err)
		}
	}()
	return func(p ggpdes.ProgressInfo) {
		gvt.Set(p.GVT)
		committed.Set(int64(p.CommittedEvents))
		rate.Set(p.CommittedEventRate)
		efficiency.Set(p.Efficiency)
		active.Set(int64(p.ActiveThreads))
		rounds.Set(int64(p.GVTRounds))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ggsim: "+format+"\n", args...)
	os.Exit(2)
}
