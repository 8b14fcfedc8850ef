package ggpdes

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"ggpdes/internal/chaos"
	"ggpdes/internal/checkpoint"
	"ggpdes/internal/core"
	"ggpdes/internal/gvt"
	"ggpdes/internal/machine"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/trace"
	"ggpdes/internal/tw"
)

// Run executes one simulation to completion and returns its metrics.
func Run(cfg Config) (*Results, error) { return RunContext(context.Background(), cfg) }

// RunContext executes one simulation like Run, stopping early if ctx
// is cancelled or its deadline passes. Cancellation is observed in
// real time by the machine loop, which asks the engine to wind down;
// simulation threads notice within one main-loop iteration, well
// inside a GVT round. A cancelled run returns no Results and an error
// wrapping both ctx.Err() and ErrCancelled (or ErrDeadline).
//
// When cfg.Checkpoint is set the run executes as a chain of segments:
// every Checkpoint.Every GVT rounds the engine is paused, quiesced onto
// its committed state and captured, and a fresh machine, engine and
// runner continue from the capture. With a Checkpoint.Dir the capture
// is also encoded and written as a snapshot file, off the critical
// path; Resume from any of those files rebuilds the same continuation
// from the decoded bytes and yields Results identical to the
// uninterrupted run's. That equivalence is tested, not structural (see
// the checkpoint section below). When RunContext returns — completed,
// failed or cancelled — every snapshot file it will ever write is
// complete under its final name.
func RunContext(ctx context.Context, cfg Config) (*Results, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rs := &runState{cfg: cfg}
	return rs.run(ctx)
}

// ResumeOptions re-attaches what a checkpoint cannot carry: run
// observability and an override for where further checkpoints go.
type ResumeOptions struct {
	// Trace and Series re-attach instrumentation; checkpoints never
	// record them (they hold writers and callbacks).
	Trace  *TraceOptions
	Series *SeriesOptions
	// Telemetry re-attaches a shared metrics registry (Config.Telemetry).
	Telemetry *Registry
	// CheckpointDir, when non-empty, overrides the snapshot's recorded
	// checkpoint directory for the rest of the run.
	CheckpointDir string
}

// Resume continues a run from the snapshot at path to completion. The
// returned Results are byte-identical to the run the snapshot came
// from having finished uninterrupted.
func Resume(path string) (*Results, error) {
	return ResumeContext(context.Background(), path, nil)
}

// ResumeContext is Resume with cancellation and observability
// re-attachment. Unreadable or corrupt snapshots return an error
// wrapping ErrCheckpointCorrupt.
func ResumeContext(ctx context.Context, path string, opts *ResumeOptions) (*Results, error) {
	rs, err := resumeState(path, opts)
	if err != nil {
		return nil, err
	}
	return rs.run(ctx)
}

// resumeState reads the snapshot at path into the state of a run about
// to continue from it.
func resumeState(path string, opts *ResumeOptions) (*runState, error) {
	snap, err := checkpoint.Read(path)
	if err != nil {
		return nil, err
	}
	rs := &runState{}
	if err := rs.loadSnapshot(snap); err != nil {
		return nil, err
	}
	if opts != nil {
		rs.cfg.Trace = opts.Trace
		rs.cfg.Series = opts.Series
		rs.cfg.Telemetry = opts.Telemetry
		if opts.CheckpointDir != "" && rs.cfg.Checkpoint != nil {
			rs.cfg.Checkpoint.Dir = opts.CheckpointDir
		}
	}
	if err := rs.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: snapshot config: %v", ErrCheckpointCorrupt, err)
	}
	return rs, nil
}

// runState carries a run across its segments: the serialized engine
// state to rebuild from and every cumulative total that lives outside
// the engine. For an uncheckpointed run there is exactly one segment
// and the state stays zero.
type runState struct {
	cfg Config
	rec *trace.Recorder
	// dist is the distributed run this state belongs to, nil in-process.
	// The segment loop below exists once; everything a distributed run
	// does differently inside it is a call on dist: engineBuilt and
	// onCut while its one segment is built; failed and finishing as it
	// ends.
	dist *distRun

	// Continuation state (set between segments / loaded from snapshot).
	// metrics is the registry export a snapshot carries, which Resume's
	// first segment starts its registry from (see buildSegment).
	engine  *tw.EngineState
	metrics *telemetry.MetricsState
	// reg is the registry the run built for itself because the caller
	// gave none: one per run, every segment records into it.
	reg *telemetry.Registry
	// cfgJSON and key are the run's config in wire form and its cache
	// key (see prepare). writing is the snapshot write in flight,
	// nil when there is none; written counts the files handed to it.
	// encoded is the buffer the writer encodes into, the run's one, here
	// while no write is in flight; exported is the registry export the
	// run refills for each file, which the writer reads until the join.
	cfgJSON  []byte
	key      string
	writing  chan writeResult
	written  int
	encoded  []byte
	exported telemetry.MetricsState
	// spare carries a checkpointed run's finished machine's parked
	// coroutines and queue capacity to the next segment's
	// (machine.Spare); segmentLoop ends it on every return path.
	spare machine.Spare
	// Cumulative totals.
	startTick uint64
	rounds    uint64 // GVT publications across all segments
	segments  int
	machCum   machine.Stats
	schedCum  core.SchedulingStats
	cyclesCum uint64
	// Main-loop iterations executed, and booked without executing (see
	// core.Runner.LoopIterations). Host-side: no part of Results.
	loopExecuted, loopSkipped uint64

	// Per-GVT-round sampling state (set when cfg.Series is non-nil).
	series            *telemetry.Series
	prevGVT, prevWall float64
}

// segment is one engine+machine incarnation of the run.
type segment struct {
	mcfg   machine.Config
	m      *machine.Machine
	eng    *tw.Engine
	runner *core.Runner
	reg    *telemetry.Registry
}

func (rs *runState) checkpointing() bool {
	return rs.cfg.Checkpoint != nil && rs.cfg.Checkpoint.Every > 0
}

func (rs *runState) run(ctx context.Context) (*Results, error) {
	if err := rs.prepare(); err != nil {
		return nil, err
	}
	return rs.finishWrites(rs.segmentLoop(ctx))
}

func (rs *runState) segmentLoop(ctx context.Context) (*Results, error) {
	defer rs.spare.End()
	for {
		if res, err := rs.runSegment(ctx); res != nil || err != nil {
			return res, err
		}
	}
}

// prepare does what a run does once, before its first segment: attach
// the observers, create the snapshot directory — so a directory that
// cannot exist fails the run before its first event — and encode the
// config for the runs that embed it (one that persists, one that is
// distributed). Nothing that enters the config's wire form or its
// cache key changes while a run is under way.
func (rs *runState) prepare() error {
	rs.attachObservers()
	if rs.persisting() {
		if err := os.MkdirAll(rs.cfg.Checkpoint.Dir, 0o755); err != nil {
			return fmt.Errorf("ggpdes: checkpoint: %w", err)
		}
	}
	if rs.persisting() || rs.dist != nil {
		var err error
		if rs.key, err = rs.cfg.CacheKey(); err != nil {
			return fmt.Errorf("ggpdes: %w", err)
		}
		if rs.cfgJSON, err = json.Marshal(rs.cfg); err != nil {
			return fmt.Errorf("ggpdes: encoding config: %w", err)
		}
	}
	return nil
}

// attachObservers creates the run-long trace recorder and series buffer
// the config asks for.
func (rs *runState) attachObservers() {
	if t := rs.cfg.Trace; t != nil {
		if t.Ring {
			rs.rec = trace.NewRing(t.Limit)
		} else {
			rs.rec = trace.New(t.Limit)
		}
	}
	if so := rs.cfg.Series; so != nil {
		if so.Buffer != nil {
			rs.series = so.Buffer
		} else {
			rs.series = telemetry.NewSeries(so.Limit)
		}
	}
}

// runSegment builds and runs one segment: nil Results and nil error
// means a checkpoint boundary was committed and the run continues.
func (rs *runState) runSegment(ctx context.Context) (*Results, error) {
	seg, err := rs.buildSegment()
	if err != nil {
		return nil, err
	}
	err = seg.m.RunContext(ctx)
	if rs.dist != nil {
		if derr := rs.dist.failed(); derr != nil {
			return nil, derr
		}
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			return nil, ctxError(ctx, err)
		}
		return nil, fmt.Errorf("ggpdes: %s/%s run failed: %w", rs.cfg.System, rs.cfg.GVT, err)
	}
	if seg.eng.Paused() {
		return nil, rs.checkpoint(seg)
	}
	return rs.finish(seg)
}

// ctxError classifies a stop caused by ctx — which must be done — as
// ErrDeadline when its deadline expired and ErrCancelled otherwise,
// wrapping cause. Every place a run gives up on its context reports
// through here, so the serving layer's 409-vs-504 mapping cannot depend
// on where in the run the deadline landed.
func ctxError(ctx context.Context, cause error) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadline, cause)
	}
	return fmt.Errorf("%w: %w", ErrCancelled, cause)
}

// twConfig maps the run configuration onto the engine's. Every engine
// of a run — in-process, the coordinator's hollow one, each worker's
// shard — is built from this one mapping, so a Config field cannot
// reach one of them and miss another.
func (c Config) twConfig(reg *telemetry.Registry) (twCfg tw.Config, err error) {
	model, err := c.Model.build(c.Threads, c.EndTime)
	if err != nil {
		return twCfg, err
	}
	return tw.Config{
		NumThreads:     c.Threads,
		Model:          model,
		EndTime:        c.EndTime,
		Seed:           c.Seed,
		BatchSize:      c.BatchSize,
		OptimismWindow: c.OptimismWindow,
		Telemetry:      reg,
	}, nil
}

// gvtFrequency is the run's GVT round interval: GVTFrequency, or the
// paper's 200 when unset. Every segment runs at it.
func (c Config) gvtFrequency() int {
	if c.GVTFrequency == 0 {
		return 200
	}
	return c.GVTFrequency
}

// buildSegment assembles a machine, engine (fresh or restored), runner
// and telemetry registry for the next segment of the run.
func (rs *runState) buildSegment() (*segment, error) {
	cfg, d := rs.cfg, rs.dist
	mcfg, err := cfg.Machine.build()
	if err != nil {
		return nil, err
	}
	mcfg.StartTick = rs.startTick
	m, err := machine.New(mcfg)
	if err != nil {
		return nil, err
	}
	if rs.checkpointing() {
		m.Lend(&rs.spare)
	}
	if rs.rec != nil {
		rs.rec.Clock = m.NowCycles
		m.SetTrace(rs.rec)
	}
	// A run has one registry — the caller's, or one it builds here and
	// keeps — and a segment that continues the run records into it on top
	// of everything before. Resume's first segment starts it from the
	// snapshot's export.
	reg := cfg.Telemetry
	if reg == nil {
		if rs.reg == nil {
			rs.reg = telemetry.NewRegistry()
		}
		reg = rs.reg
	}
	if rs.metrics != nil {
		reg.Import(*rs.metrics)
		rs.metrics = nil
	}
	m.SetTelemetry(reg)
	twCfg, err := cfg.twConfig(reg)
	if err != nil {
		return nil, err
	}

	// The stall injector is rebuilt per segment; that is deterministic
	// because the in-process and resumed paths rebuild at the same
	// boundaries.
	var threadFaults core.ThreadFaultInjector
	if ch := cfg.Chaos; ch != nil && ch.StallRate > 0 {
		seed := ch.Seed
		if seed == 0 {
			seed = cfg.Seed
		}
		threadFaults = chaos.NewThreadFaults(seed, cfg.Threads, ch.StallRate)
	}

	// The series sampler closes over eng/runner, which exist only after
	// construction; indirect through a late-bound function. The OnGVT
	// wrapper additionally counts publications (the cross-segment round
	// number) and pauses the engine at checkpoint boundaries.
	var eng *tw.Engine
	var runner *core.Runner
	var sample func(tw.VT)
	every := 0
	if rs.checkpointing() {
		every = rs.cfg.Checkpoint.Every
	}
	segPubs := 0
	twCfg.Trace = rs.rec
	twCfg.OnGVT = func(v tw.VT) {
		rs.rounds++
		if sample != nil {
			sample(v)
		}
		if every > 0 && float64(v) < cfg.EndTime {
			segPubs++
			if segPubs >= every {
				eng.Pause()
			}
		}
	}
	state := rs.engine
	rs.engine = nil
	if state != nil {
		eng, err = tw.NewEngineFromState(twCfg, state)
		if errors.Is(err, tw.ErrInvalidState) {
			err = fmt.Errorf("%w: %w", ErrCheckpointCorrupt, err)
		}
	} else {
		eng, err = tw.NewEngine(twCfg)
	}
	if err != nil {
		return nil, err
	}
	var onCut func(cut int, round uint64)
	if d != nil {
		if err := d.engineBuilt(eng, reg); err != nil {
			return nil, err
		}
		onCut = d.onCut
	}
	runner, err = core.NewRunner(core.Config{
		Machine:              m,
		Engine:               eng,
		System:               core.System(cfg.System),
		GVTKind:              gvt.Kind(cfg.GVT),
		GVTFrequency:         cfg.GVTFrequency,
		ZeroCounterThreshold: cfg.ZeroCounterThreshold,
		Affinity:             core.Affinity(cfg.Affinity),
		Trace:                rs.rec,
		Telemetry:            reg,
		Faults:               threadFaults,
		GVTOnCut:             onCut,
	})
	if err != nil {
		return nil, err
	}
	if so := cfg.Series; so != nil {
		// A segment that continues a run — from a capture or from a
		// snapshot file, it must not matter which — starts its deltas
		// from the restored position. All sampling reads machine or
		// engine state and charges no simulated cycles, so a run
		// records the same trajectory with or without a series.
		if state != nil {
			rs.prevGVT, rs.prevWall = float64(eng.GVT()), m.WallSeconds()
		}
		sample = func(v tw.VT) {
			pt := telemetry.SeriesPoint{
				Round:         int(rs.rounds),
				GVT:           float64(v),
				WallSeconds:   m.WallSeconds(),
				ActiveThreads: runner.NumActive(),
			}
			pt.AdvanceVT = pt.GVT - rs.prevGVT
			if dt := pt.WallSeconds - rs.prevWall; dt > 0 {
				pt.AdvanceRate = pt.AdvanceVT / dt
			}
			rs.prevGVT, rs.prevWall = pt.GVT, pt.WallSeconds
			eng.FillSeriesPoint(&pt)
			rs.series.Append(pt)
			if so.Func != nil {
				so.Func(pt)
			}
		}
	}
	m.SetOnCancel(eng.Cancel)
	return &segment{mcfg: mcfg, m: m, eng: eng, runner: runner, reg: reg}, nil
}

// gvtRounds is the run's round count. A checkpointed run counts GVT
// publications across segments (the wait-free algorithm's own counter
// can miss the boundary round — threads paused mid-phase never finish
// it); an uncheckpointed run keeps the algorithm's counter.
func (rs *runState) gvtRounds(runner *core.Runner) uint64 {
	if rs.checkpointing() {
		return rs.rounds
	}
	return runner.Algorithm().Rounds()
}

// accumulate folds a finished segment's per-incarnation totals into the
// run totals. Machine ticks are already cumulative via StartTick; the
// counter fields reset with each fresh machine and are summed.
func (rs *runState) accumulate(seg *segment) {
	ms := seg.m.Stats()
	rs.machCum.Ticks = ms.Ticks
	rs.machCum.CtxSwitches += ms.CtxSwitches
	rs.machCum.Migrations += ms.Migrations
	rs.machCum.SemWaits += ms.SemWaits
	rs.machCum.SemPosts += ms.SemPosts
	rs.machCum.BarrierWaits += ms.BarrierWaits
	rs.machCum.Wakeups += ms.Wakeups
	rs.machCum.Preempts += ms.Preempts
	ss := seg.runner.SchedulingStats()
	rs.schedCum.Deactivations += ss.Deactivations
	rs.schedCum.Activations += ss.Activations
	rs.schedCum.LockContention += ss.LockContention
	rs.schedCum.Repins += ss.Repins
	rs.cyclesCum += seg.m.TotalCycles()
	executed, skipped := seg.runner.LoopIterations()
	rs.loopExecuted += executed
	rs.loopSkipped += skipped
	rs.startTick = ms.Ticks
}

// Checkpointing. A boundary is semantic: quiesce rolls speculation back
// and the next segment starts on a fresh machine, engine and runner, so
// a checkpointed run's trajectory depends on the cadence (which is why
// Checkpoint.Every is in the cache key) and Resume must reset at the
// same points the uninterrupted run did. What a boundary costs beyond
// that is kept off the critical path: the next segment starts from the
// captured EngineState itself, and the snapshot file is encoded and
// written by one goroutine while it runs. The decoder is Resume's
// alone, and so is decoding LP states and pushing pending events: the
// capture brings the quiesced engine's own states and sorted heaps
// along. A boundary allocates little of its own either: it joins the
// previous boundary's writer before it captures, so the capture is
// written over the previous one (tw.Engine.ReleaseStart) and the
// writer encodes into the run's one buffer, which comes back at the
// join. That a capture-continued run and a decode-continued one are the
// same run is what TestCheckpointResumeMatrix,
// TestResumeFromEveryEpidemicsBoundary, TestCheckpointBytesDeterministic
// and internal/tw's TestCaptureContinuation and
// TestStatesRideTheSpareSet prove; where a checkpointed run's host time
// goes, and what is left of it, is DESIGN.md §12 ("The measured
// floor").

// persisting reports whether the run writes snapshot files.
func (rs *runState) persisting() bool {
	return rs.checkpointing() && rs.cfg.Checkpoint.Dir != ""
}

// checkpoint ends a paused segment: capture, then commit.
func (rs *runState) checkpoint(seg *segment) error {
	est, err := rs.capture(seg)
	if err != nil {
		return err
	}
	rs.commit(seg, est)
	return nil
}

// capture joins the previous boundary's writer, which is also where its
// error, if any, fails the run, then quiesces the paused segment's
// engine onto its committed cut and captures it, over the state the
// engine was built from: with the writer joined and the engine built,
// nothing reads that state any more. The engine is consumed.
func (rs *runState) capture(seg *segment) (*tw.EngineState, error) {
	if err := rs.waitWriter(); err != nil {
		return nil, err
	}
	seg.eng.ReleaseStart()
	est, err := seg.eng.Capture()
	if err != nil {
		return nil, fmt.Errorf("ggpdes: checkpoint capture: %w", err)
	}
	return est, nil
}

// commit folds the captured segment's totals into the run's, hands the
// snapshot to the writer when the run persists, and installs the
// capture itself as the next segment's start state.
func (rs *runState) commit(seg *segment, est *tw.EngineState) {
	seg.eng.FlushPoolStats()
	rs.accumulate(seg)
	rs.segments++
	if rs.persisting() {
		// Exported here, not by the writer: the next segment records into
		// this same registry. capture joined the writer that read the
		// previous export.
		seg.reg.ExportTo(&rs.exported)
		rs.persist(est, rs.exported)
	}
	rs.engine = est
}

// writeResult is what the writer hands back at the join: its buffer,
// and its error.
type writeResult struct {
	encoded []byte
	err     error
}

// persist starts writing the boundary's file. At most one boundary is
// in flight: capture joined the previous one. The snapshot shares the
// capture with the next segment; both sides only read it until the
// next capture, which joins this write first.
func (rs *runState) persist(est *tw.EngineState, metrics telemetry.MetricsState) {
	snap := &checkpoint.Snapshot{
		Config:       rs.cfgJSON,
		CacheKey:     rs.key,
		Segments:     rs.segments,
		Rounds:       rs.rounds,
		MachineTicks: rs.machCum.Ticks,
		MachineStats: rs.machCum,
		SchedStats:   rs.schedCum,
		TotalCycles:  rs.cyclesCum,
		GVTFrequency: rs.cfg.gvtFrequency(),
		Engine:       est,
		Metrics:      metrics,
	}
	// prepare created the directory.
	dir, buf, done := rs.cfg.Checkpoint.Dir, rs.encoded, make(chan writeResult, 1)
	rs.encoded = nil
	rs.writing = done
	rs.written++
	go func() {
		data, err := checkpoint.AppendEncode(buf[:0], snap)
		if err == nil {
			_, err = checkpoint.WriteNamed(dir, checkpoint.FileName(snap.Segments), data)
		}
		done <- writeResult{data, err}
	}()
}

// waitWriter joins the write in flight, if any, takes its buffer back
// and returns its error.
func (rs *runState) waitWriter() error {
	if rs.writing == nil {
		return nil
	}
	r := <-rs.writing
	rs.writing, rs.encoded = nil, r.encoded
	if r.err != nil {
		return fmt.Errorf("ggpdes: %w", r.err)
	}
	return nil
}

// finishWrites is the join every return path of a run goes through:
// when Run or Resume returns, no write is in flight and every file is
// complete under its final name — a caller may stat, read or resume
// from them at once. A failed write fails a run that otherwise
// succeeded; a run that failed anyway keeps its own error.
func (rs *runState) finishWrites(res *Results, err error) (*Results, error) {
	if werr := rs.waitWriter(); werr != nil && err == nil {
		return nil, werr
	}
	return res, err
}

// loadSnapshot installs a decoded snapshot as the continuation state.
// The embedded config must hash back to the recorded cache key — a
// lossy config codec must never silently fork the trajectory.
func (rs *runState) loadSnapshot(snap *checkpoint.Snapshot) error {
	var cfg Config
	if err := json.Unmarshal(snap.Config, &cfg); err != nil {
		return fmt.Errorf("%w: embedded config: %v", ErrCheckpointCorrupt, err)
	}
	key, err := cfg.CacheKey()
	if err != nil {
		return fmt.Errorf("%w: embedded config: %v", ErrCheckpointCorrupt, err)
	}
	if key != snap.CacheKey {
		return fmt.Errorf("%w: embedded config hashes to %s, snapshot recorded %s",
			ErrCheckpointCorrupt, key, snap.CacheKey)
	}
	rs.cfg = cfg
	rs.engine = snap.Engine
	rs.metrics = &snap.Metrics
	rs.startTick = snap.MachineTicks
	rs.rounds = snap.Rounds
	rs.segments = snap.Segments
	rs.machCum = snap.MachineStats
	rs.schedCum = snap.SchedStats
	rs.cyclesCum = snap.TotalCycles
	return nil
}

// finish assembles Results from the final segment plus the accumulated
// cross-segment totals.
func (rs *runState) finish(seg *segment) (*Results, error) {
	cfg := rs.cfg
	if rs.dist != nil {
		if err := rs.dist.finishing(seg); err != nil {
			return nil, err
		}
	}
	if err := seg.eng.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("ggpdes: engine invariant violated: %w", err)
	}
	seg.eng.FlushPoolStats()
	rs.accumulate(seg)
	s := seg.eng.TotalStats()
	res := &Results{
		CommittedEvents:       s.Committed,
		ProcessedEvents:       s.Processed,
		RolledBackEvents:      s.RolledBack,
		Rollbacks:             s.Rollbacks,
		Stragglers:            s.Stragglers,
		AntiMessages:          s.AntiSent,
		WallClockSeconds:      seg.m.WallSeconds(),
		GVTCPUSeconds:         seg.m.CyclesToSeconds(s.GVTCycles),
		GVTRounds:             rs.gvtRounds(seg.runner),
		TotalCycles:           rs.cyclesCum,
		Deactivations:         rs.schedCum.Deactivations,
		Activations:           rs.schedCum.Activations,
		LockContention:        rs.schedCum.LockContention,
		Repins:                rs.schedCum.Repins,
		ContextSwitches:       rs.machCum.CtxSwitches,
		Migrations:            rs.machCum.Migrations,
		Preempts:              rs.machCum.Preempts,
		FinalGVT:              seg.eng.GVT(),
		FinalGVTFrequency:     cfg.gvtFrequency(),
		PeakUncommittedEvents: seg.eng.PeakUncommittedEvents(),
	}
	if res.WallClockSeconds > 0 {
		res.CommittedEventRate = float64(res.CommittedEvents) / res.WallClockSeconds
	}
	res.Counters = seg.reg.Counters()
	res.Gauges = seg.reg.Gauges()
	hists := seg.reg.Histograms()
	res.Histograms = make(map[string]HistSummary, len(hists))
	for name, hs := range hists {
		res.Histograms[name] = histSummary(hs)
	}
	res.Metrics = seg.reg.Export()
	if rs.series != nil {
		res.Series = rs.series.Points()
		if so := rs.cfg.Series; so != nil && so.CSV != nil {
			if err := rs.series.WriteCSV(so.CSV); err != nil {
				return nil, fmt.Errorf("ggpdes: writing series: %w", err)
			}
		}
	}
	res.RollbackDepth = res.Histograms[tw.MetricRollbackDepth]
	res.GVTRoundLatencyCycles = res.Histograms[gvt.MetricRoundLatency]
	res.CommitBatch = res.Histograms[tw.MetricCommitBatch]
	res.DescheduleSpanCycles = res.Histograms[core.MetricDescheduleSpan]
	if rs.rec != nil {
		res.TraceSummary = rs.rec.Summary(cfg.Threads, seg.m.NowCycles())
		res.InactiveFraction = rs.rec.InactiveFraction(cfg.Threads, seg.m.NowCycles())
		if cfg.Trace.CSV != nil {
			if err := rs.rec.WriteCSV(cfg.Trace.CSV); err != nil {
				return nil, fmt.Errorf("ggpdes: writing trace: %w", err)
			}
		}
		if cfg.Trace.Timeline != nil {
			if _, err := io.WriteString(cfg.Trace.Timeline,
				rs.rec.RenderTimeline(cfg.Threads, seg.m.NowCycles(), cfg.Trace.TimelineWidth, 64)); err != nil {
				return nil, fmt.Errorf("ggpdes: writing timeline: %w", err)
			}
		}
		if cfg.Trace.Perfetto != nil {
			err := rs.rec.WritePerfetto(cfg.Trace.Perfetto, trace.PerfettoOptions{
				FreqHz:    seg.mcfg.FreqHz,
				Threads:   cfg.Threads,
				EndCycles: seg.m.NowCycles(),
			})
			if err != nil {
				return nil, fmt.Errorf("ggpdes: writing perfetto trace: %w", err)
			}
		}
	}
	return res, nil
}
