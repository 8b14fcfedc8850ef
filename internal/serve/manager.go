package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"ggpdes"
	"ggpdes/internal/checkpoint"
	"ggpdes/internal/serve/cluster"
	"ggpdes/internal/telemetry"
)

// State is a job's position in its lifecycle.
type State string

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is simulating it.
	StateRunning State = "running"
	// StateDone: finished successfully; the result is available.
	StateDone State = "done"
	// StateFailed: the run returned an error (including deadline
	// expiry).
	StateFailed State = "failed"
	// StateCancelled: cancelled by the client before completion.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Errors returned by Submit. The HTTP layer maps ErrQueueFull to 429
// with Retry-After and ErrDraining to 503.
var (
	ErrQueueFull = errors.New("serve: admission queue full")
	ErrDraining  = errors.New("serve: server is draining")
)

// ErrResultEvicted answers the result of a done job whose cache entry
// has been evicted: its meta is still served, and resubmitting the same
// spec re-simulates the same trajectory.
var ErrResultEvicted = errors.New("serve: result evicted from the cache; resubmit to recompute it")

// Options configures a Manager. The zero value is usable: workers
// sized to GOMAXPROCS, a 64-deep admission queue, a 256-entry cache,
// no default deadline.
type Options struct {
	// Workers is the number of concurrent simulation runs (0 =
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running; a submit
	// past the bound is rejected with ErrQueueFull (0 = 64).
	QueueDepth int
	// CacheEntries bounds the result cache (below 1 = 256). The cache is
	// where done jobs' results live, so this is also how many of them
	// stay readable: a done job whose key has been evicted keeps its
	// meta, and its result answers ErrResultEvicted.
	CacheEntries int
	// DefaultTimeout bounds each job's real-time execution unless the
	// spec sets its own; 0 means no default deadline.
	DefaultTimeout time.Duration
	// RetainJobs bounds how many terminal jobs' metadata stays
	// queryable; the oldest are forgotten past the bound (0 = 4096,
	// negative = unlimited). It pins no results: those live in the
	// cache, under CacheEntries.
	RetainJobs int
	// Registry receives the serve.* metrics (nil = a fresh registry).
	// Engine metrics from completed jobs are folded into the same
	// registry, so /metrics exposes both planes.
	Registry *telemetry.Registry
	// SeriesLimit bounds each job's live per-GVT-round series ring
	// (0 = telemetry.DefaultSeriesLimit, negative = series disabled).
	SeriesLimit int

	// CheckpointEvery is the default checkpoint cadence, in GVT rounds,
	// applied to jobs whose config doesn't set its own (0 = jobs run
	// unsegmented). The cadence is part of a job's trajectory and cache
	// key, whether or not the job writes snapshot files.
	CheckpointEvery int
	// CheckpointRoot holds the keyed checkpoint directories a fleet
	// shares, and is used only when Cluster is set ("" = no job writes
	// snapshot files). A single-node job writes none: nothing would
	// ever read them back.
	CheckpointRoot string

	// Cluster is this replica's view of the serving fleet: consistent-
	// hash routing on the cache key, peer cache fill, and delegation.
	// nil runs single-node. When set, CheckpointRoot should point at a
	// directory shared by every replica so any of them can resume
	// another's dead job.
	Cluster *cluster.Cluster
}

// Job is one submitted simulation, and the only record of it: the wire
// sees it through meta, a sweep it belongs to holds it by pointer. A
// done job's result is not on it: the job holds key, and the result
// lives in the manager's cache under that key. All mutable fields are
// guarded by the owning Manager's mutex, and state is assigned in
// exactly one place, transitionLocked.
type Job struct {
	id   string
	spec JobSpec
	cfg  ggpdes.Config
	key  string

	// state is stateNew from newJob until admission registers the job.
	state State
	// source says where a done job's result came from when it was not
	// simulated here ("cache", "inflight", "peer", "remote").
	source string
	// errInfo is the typed terminal failure, classified once by the
	// transition that ended the job and never written again, so every
	// snapshot may share it.
	errInfo     *ErrorInfo
	resumedFrom string
	// series is the live per-round ring while the job runs; a done job
	// drops it, because its cached Results.Series is the recorded copy.
	series    *telemetry.Series
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc
	done      chan struct{}

	// followers are identical-key jobs coalesced onto this in-flight
	// leader; they settle with the leader's terminal outcome.
	followers []*Job
	// sweep and index make sweep membership data on the job (nil for a
	// plain submission): the terminal edge itself appends the member's
	// event, so nothing waits on the job or looks it up again to learn
	// how it ended.
	sweep *sweepJob
	index int
}

// Manager owns the admission queue, the worker pool, the job table and
// the result cache. Create one with New and shut it down with Drain.
type Manager struct {
	opts  Options
	reg   *telemetry.Registry
	cache *resultCache
	clu   *cluster.Cluster

	// baseCtx parents every job context: cancelling it (the caller's
	// process-lifetime context) reaches all in-flight runs, so a drain
	// deadline can hard-stop stragglers instead of abandoning them.
	baseCtx context.Context

	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	terminal []string // terminal job IDs, oldest first, for retention
	seq      uint64
	draining bool
	// inflight indexes the leading (actually executing) job per cache
	// key; identical submissions arriving while it runs coalesce onto
	// it as followers instead of simulating again.
	inflight map[string]*Job
	// queued and running count the registered jobs in those two states;
	// transitionLocked keeps them, and the in-flight gauge, in step with
	// every j.state change, so that nothing walks jobs — up to RetainJobs
	// terminal ones — to learn them.
	queued, running int

	sweeps        map[string]*sweepJob
	sweepTerminal []string // terminal sweep IDs, oldest first

	submitted     *telemetry.Counter
	completed     *telemetry.Counter
	failed        *telemetry.Counter
	cancelled     *telemetry.Counter
	rejected      *telemetry.Counter
	resumes       *telemetry.Counter
	queueWait     *telemetry.Histogram
	runWall       *telemetry.Histogram
	inFlight      *telemetry.Gauge
	simulations   *telemetry.Counter
	dedupInflight *telemetry.Counter
}

// New starts a manager and its worker pool with a background base
// context; jobs then only stop via their own deadline or Cancel. Use
// NewContext when the caller has a process-lifetime context that
// should be able to hard-stop in-flight jobs.
func New(opts Options) *Manager {
	return NewContext(context.Background(), opts)
}

// NewContext starts a manager and its worker pool. Every job context
// derives from ctx: cancelling it aborts all in-flight runs at their
// next GVT round.
func NewContext(ctx context.Context, opts Options) *Manager {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.CacheEntries < 1 {
		opts.CacheEntries = 256
	}
	if opts.RetainJobs == 0 {
		opts.RetainJobs = 4096
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &Manager{
		opts:          opts,
		reg:           reg,
		baseCtx:       ctx,
		clu:           opts.Cluster,
		cache:         newResultCache(opts.CacheEntries, reg),
		queue:         make(chan *Job, opts.QueueDepth),
		jobs:          make(map[string]*Job),
		inflight:      make(map[string]*Job),
		sweeps:        make(map[string]*sweepJob),
		submitted:     reg.Counter(MetricJobsSubmitted),
		completed:     reg.Counter(MetricJobsCompleted),
		failed:        reg.Counter(MetricJobsFailed),
		cancelled:     reg.Counter(MetricJobsCancelled),
		rejected:      reg.Counter(MetricJobsRejected),
		resumes:       reg.Counter(MetricResumes),
		queueWait:     reg.Histogram(MetricQueueWaitMS),
		runWall:       reg.Histogram(MetricRunWallMS),
		inFlight:      reg.Gauge(MetricJobsInFlight),
		simulations:   reg.Counter(MetricSimulations),
		dedupInflight: reg.Counter(MetricDedupInflight),
	}
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Registry exposes the manager's metrics for the HTTP stats endpoint
// and expvar.
func (m *Manager) Registry() *telemetry.Registry { return m.reg }

// Workers reports the worker pool size.
func (m *Manager) Workers() int { return m.opts.Workers }

// QueueDepth reports the admission queue bound.
func (m *Manager) QueueDepth() int { return m.opts.QueueDepth }

// newJob validates the spec and keys it: everything a job is before it
// is admitted. Spec errors wrap ggpdes.ErrInvalidConfig.
func (m *Manager) newJob(spec JobSpec) (*Job, error) {
	cfg, err := spec.config(m.opts)
	if err != nil {
		return nil, err
	}
	key, err := cfg.CacheKey()
	if err != nil {
		return nil, err
	}
	return &Job{
		spec:      spec,
		cfg:       cfg,
		key:       key,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}, nil
}

// Submit validates the spec and answers it the cheapest way it can:
// from the result cache (job born StateDone, Cached=true), by
// coalescing onto an identical job already in flight (the follower
// settles with the leader's outcome — single-flight dedup, so K
// concurrent identical submissions simulate once), or by admitting it
// to the queue. It fails fast with ErrQueueFull when the queue is at
// bound and ErrDraining after Drain has begun; spec errors wrap
// ggpdes.ErrInvalidConfig.
func (m *Manager) Submit(spec JobSpec) (JobMeta, error) {
	j, err := m.newJob(spec)
	if err != nil {
		return JobMeta{}, err
	}
	return m.admit(j)
}

// admit is Submit for a job already built; a refusal leaves j as it
// was, so a sweep's fan-out may offer the same member again.
func (m *Manager) admit(j *Job) (JobMeta, error) {
	cacheable := !j.spec.NoCache
	var hit *ggpdes.Results
	if cacheable {
		// Looked up before the lock, where it also counts the hit or miss.
		hit, _ = m.cache.get(j.key)
	} else {
		// Count the bypass as a miss so hit-rate math stays honest.
		m.cache.misses.Inc()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return JobMeta{}, ErrDraining
	}
	if cacheable && hit == nil {
		// Completions publish their result while holding m.mu, so this
		// closes the race between the unlocked miss above and a
		// concurrent completion. peek, not get — the lookup was already
		// counted once.
		hit, _ = m.cache.peek(j.key)
	}
	if hit != nil {
		m.moveLocked(j, StateDone, outcome{res: hit, source: SourceCache})
		return j.meta(), nil
	}
	if leader := m.inflight[j.key]; leader != nil && cacheable {
		// Single-flight: an identical job already executing absorbs this
		// one as a follower instead of simulating again.
		leader.followers = append(leader.followers, j)
		m.dedupInflight.Inc()
	} else {
		select {
		case m.queue <- j:
		default:
			m.rejected.Inc()
			return JobMeta{}, ErrQueueFull
		}
		if cacheable {
			m.inflight[j.key] = j
		}
	}
	m.moveLocked(j, StateQueued, outcome{})
	if j.sweep != nil && j.sweep.cancelled {
		// CancelSweep also covers the members its fan-out had yet to
		// admit.
		m.cancelLocked(j)
	}
	return j.meta(), nil
}

// stateNew is a job newJob has built and admission has not registered:
// no ID, in no table, reachable only by its builder (and, for a sweep
// member, by its sweep, which reports it as queued). It never appears
// on the wire.
const stateNew State = ""

// edgeKind says whether the lifecycle has an edge, and for whom.
type edgeKind int

const (
	edgeIllegal edgeKind = iota
	edgeLegal
	// edgeFollower is legal only for a coalesced follower settling with
	// its leader (outcome.source == SourceInflight): a queued job that
	// owns its execution reaches done or failed through running.
	edgeFollower
)

// edges is the job lifecycle (DESIGN.md §10): every legal (from, to)
// pair. Terminal states have no row — nothing leaves them — and
// new → failed is a sweep member its fan-out could not admit (the
// server began draining, or stopped, after accepting the sweep).
var edges = map[State]map[State]edgeKind{
	stateNew:     {StateQueued: edgeLegal, StateDone: edgeLegal, StateFailed: edgeLegal},
	StateQueued:  {StateRunning: edgeLegal, StateCancelled: edgeLegal, StateDone: edgeFollower, StateFailed: edgeFollower},
	StateRunning: {StateDone: edgeLegal, StateFailed: edgeLegal, StateCancelled: edgeLegal},
}

// outcome is what a terminal edge carries: the result and where it came
// from for done, the cause for failed and cancelled.
type outcome struct {
	res    *ggpdes.Results
	source string
	err    error
	// msg, when set, replaces err's text as the ErrorInfo message.
	msg string
}

// transitionLocked moves j along one edge of the lifecycle and is the
// only code that does: an edge not in the table is refused with j, the
// counters, the gauge, done and retention untouched. The edge out of
// stateNew registers the job; a terminal edge does, once and in this
// order, everything ending a job means — outcome and typed error,
// counters, the one close of done, retention, the in-flight index, the
// followers (this function again, as SourceInflight) and the sweep's
// event. Caller holds m.mu, which is also what keeps two transitions
// from publishing the in-flight gauge in the wrong order.
func (m *Manager) transitionLocked(j *Job, to State, out outcome) error {
	from := j.state
	if kind := edges[from][to]; kind == edgeIllegal || kind == edgeFollower && out.source != SourceInflight {
		return fmt.Errorf("serve: job %q: no transition %q → %q", j.id, from, to)
	}
	now := time.Now()
	if from == stateNew {
		m.seq++
		j.id = fmt.Sprintf("job-%08x", m.seq)
		// Admission starts the queue clock, not construction: a sweep
		// member may have waited in the fan-out for a queue slot.
		j.submitted = now
		m.jobs[j.id] = j
		m.submitted.Inc()
	}
	m.tallyLocked(from, -1)
	j.state = to
	m.tallyLocked(to, +1)
	m.inFlight.Set(float64(m.queued + m.running))
	switch to {
	case StateQueued:
		return nil
	case StateRunning:
		j.started = now
		m.queueWait.Observe(float64(now.Sub(j.submitted).Milliseconds()))
		return nil
	case StateDone:
		j.source = out.source
		m.completed.Inc()
		if from == StateRunning {
			// Fold the run's engine metrics into the serving registry so
			// /metrics covers both planes. Cache hits and followers never
			// ran, and peer-produced results carry no Metrics over the
			// wire (the field is json:"-", so it arrives zero and imports
			// nothing), so each simulation's metrics import exactly once
			// fleet-wide — on the replica that ran it. After the import
			// nothing reads them, so the cache keeps a copy without; and
			// the live ring goes, Results.Series being the recorded copy.
			m.reg.Import(out.res.Metrics)
			kept := *out.res
			kept.Metrics = ggpdes.MetricsState{}
			out.res = &kept
			j.series = nil
		}
		// Every done edge leaves its result in the cache, the one place
		// it is read from. For a run this put stores it; for a hit or a
		// follower it refreshes the entry the get or the leader's edge
		// left, and stores it again if another put evicted it since.
		m.cache.put(j.key, out.res)
	default:
		info := classify(out.err, CodeFailed)
		if out.msg != "" {
			info.Message = out.msg
		}
		j.errInfo = &info
		if to == StateCancelled {
			m.cancelled.Inc()
		} else {
			m.failed.Inc()
		}
	}
	j.finished = now
	if from == StateRunning {
		m.runWall.Observe(float64(now.Sub(j.started).Milliseconds()))
	}
	close(j.done)
	retain(m.opts.RetainJobs, &m.terminal, m.jobs, j.id)
	if m.inflight[j.key] == j {
		delete(m.inflight, j.key)
	}
	// Duplicates coalesced onto this job share its fate — it was the only
	// execution they were waiting on (DESIGN.md §10): a done leader hands
	// them its result, a failed or cancelled one fails them identically.
	out.source = SourceInflight
	for _, f := range j.followers {
		// A follower Cancel settled while it waited refuses the edge and
		// keeps its own outcome.
		_ = m.transitionLocked(f, to, out)
	}
	j.followers = nil
	if j.sweep != nil {
		m.sweepSettledLocked(j)
	}
	return nil
}

// moveLocked is transitionLocked on an edge the caller has made sure
// exists, where a refusal can only be a bug in this package.
func (m *Manager) moveLocked(j *Job, to State, out outcome) {
	if err := m.transitionLocked(j, to, out); err != nil {
		panic(err)
	}
}

// tallyLocked adds d to the count of registered jobs in state s, if it
// is one that is counted.
func (m *Manager) tallyLocked(s State, d int) {
	switch s {
	case StateQueued:
		m.queued += d
	case StateRunning:
		m.running += d
	}
}

// retain records id as table's newest terminal entry and forgets the
// oldest past bound (negative = unlimited); jobs and sweeps are retained
// alike. Caller holds m.mu.
func retain[T any](bound int, order *[]string, table map[string]T, id string) {
	*order = append(*order, id)
	for bound >= 0 && len(*order) > bound {
		delete(table, (*order)[0])
		*order = (*order)[1:]
	}
}

// Get returns a snapshot of the job.
func (m *Manager) Get(id string) (JobMeta, bool) {
	j, ok := m.job(id)
	if !ok {
		return JobMeta{}, false
	}
	return m.snapshot(j), true
}

// Result returns the job's results if it finished successfully and the
// cache still holds them: a done job whose key has been evicted since
// answers nil results with its meta (ErrResultEvicted on the wire). The
// returned Results is shared and must not be mutated.
func (m *Manager) Result(id string) (*ggpdes.Results, JobMeta, bool) {
	j, ok := m.job(id)
	if !ok {
		return nil, JobMeta{}, false
	}
	res, meta := m.read(j)
	return res, meta, true
}

// errUnknownJob is the lookup failure of an ID the job table does not
// hold (never issued, or forgotten past RetainJobs).
var errUnknownJob = errors.New("serve: unknown job")

// job looks a registered job up by ID.
func (m *Manager) job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// snapshot is j's meta, read under the manager lock.
func (m *Manager) snapshot(j *Job) JobMeta {
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.meta()
}

// read snapshots j and, when it is done, resolves its result through
// the cache by key: nil once the key has been evicted. peek, not get —
// reading a finished job is not a lookup the hit rate counts.
func (m *Manager) read(j *Job) (*ggpdes.Results, JobMeta) {
	meta := m.snapshot(j)
	if meta.State != StateDone {
		return nil, meta
	}
	res, _ := m.cache.peek(j.key)
	return res, meta
}

// Series returns the job's per-GVT-round time series: the live ring
// while the job runs (and, as their only record, once it failed or was
// cancelled), or the recorded series of its cached result once it is
// done — for a cache hit, the cached run's. A done job whose result
// has been evicted answers ErrResultEvicted with its meta; an unknown
// job errUnknownJob. The returned slice is a copy and safe to retain;
// total counts every point ever recorded, so total > len(points) means
// the ring wrapped and the oldest rounds were dropped.
func (m *Manager) Series(id string) (pts []telemetry.SeriesPoint, total int, st JobMeta, err error) {
	j, ok := m.job(id)
	if !ok {
		return nil, 0, JobMeta{}, fmt.Errorf("%w %q", errUnknownJob, id)
	}
	m.mu.Lock()
	st, ser := j.meta(), j.series
	m.mu.Unlock()
	if st.State != StateDone {
		return ser.Points(), ser.Total(), st, nil
	}
	res, ok := m.cache.peek(j.key)
	if !ok {
		return nil, 0, st, ErrResultEvicted
	}
	pts = make([]telemetry.SeriesPoint, len(res.Series))
	copy(pts, res.Series)
	total = len(pts)
	if n := len(pts); n > 0 {
		// Rounds are 1-based and contiguous; the last round number is
		// the true count even when the recording ring wrapped.
		if r := pts[n-1].Round; r > total {
			total = r
		}
	}
	return pts, total, st, nil
}

// Cancel stops a job: a queued job is marked cancelled immediately and
// skipped by its worker; a running job has its context cancelled,
// which the engine observes within one GVT round. Terminal jobs are
// left as-is. The returned snapshot reflects the state after the call.
func (m *Manager) Cancel(id string) (JobMeta, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobMeta{}, false
	}
	m.cancelLocked(j)
	return j.meta(), true
}

// cancelLocked is Cancel on a job in hand. Caller holds m.mu.
func (m *Manager) cancelLocked(j *Job) {
	switch j.state {
	case StateQueued:
		m.moveLocked(j, StateCancelled, outcome{err: ggpdes.ErrCancelled, msg: "cancelled"})
	case StateRunning:
		// The run observes the context and settle ends the lifecycle.
		j.cancel()
	}
}

// Wait blocks until the job reaches a terminal state or the context
// expires.
func (m *Manager) Wait(ctx context.Context, id string) (JobMeta, error) {
	_, meta, err := m.wait(ctx, id)
	return meta, err
}

// wait is Wait that also hands back the results, read through the job
// it looked up: by the time a caller looked the job up again by ID,
// retention may have let it go.
func (m *Manager) wait(ctx context.Context, id string) (*ggpdes.Results, JobMeta, error) {
	j, ok := m.job(id)
	if !ok {
		return nil, JobMeta{}, fmt.Errorf("%w %q", errUnknownJob, id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, JobMeta{}, ctx.Err()
	}
	res, meta := m.read(j)
	return res, meta, nil
}

// Draining reports whether Drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Counts reports the number of queued and running jobs.
func (m *Manager) Counts() (queued, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queued, m.running
}

// Drain stops admission (Submit returns ErrDraining), lets already
// admitted jobs finish, and waits for the worker pool to exit or the
// context to expire. It is idempotent; concurrent calls all wait.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		// One critical section: admit checks draining under m.mu before
		// it sends, so no send can meet this close.
		m.draining = true
		close(m.queue)
	}
	m.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker pulls admitted jobs until the queue is closed and drained.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.run(j)
	}
}

// run starts one dequeued job. Peer-owned jobs hand the remote
// conversation to a goroutine and return the worker to the queue;
// everything else simulates on this worker via simulate and ends via
// settle.
func (m *Manager) run(j *Job) {
	m.mu.Lock()
	if err := m.transitionLocked(j, StateRunning, outcome{}); err != nil {
		// Cancelled while it waited: nothing leaves a terminal state.
		m.mu.Unlock()
		return
	}
	timeout := m.opts.DefaultTimeout
	if j.spec.TimeoutSeconds > 0 {
		timeout = time.Duration(j.spec.TimeoutSeconds * float64(time.Second))
	}
	var jobCtx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		jobCtx, cancel = context.WithTimeout(m.baseCtx, timeout)
	} else {
		jobCtx, cancel = context.WithCancel(m.baseCtx)
	}
	j.cancel = cancel
	if m.opts.SeriesLimit >= 0 {
		// Live per-round series, readable through Series(id) while the
		// job runs and replaced by the recorded copy when it finishes.
		j.series = telemetry.NewSeries(m.opts.SeriesLimit)
	}
	cfg := j.cfg
	m.mu.Unlock()

	// Only a keyed directory is ever read back: clustered, cacheable jobs
	// checkpoint under the shared root by *cache key*, so the same config
	// checkpoints to the same place whichever replica runs it (writes are
	// atomic and — runs being deterministic — identical), and a requester
	// can resume a dead owner's job where it stopped. Keyed directories
	// are never removed: a peer may be mid-read. Every other job keeps
	// its cadence, and so its segmentation, trajectory and cache key, but
	// runs with an empty Dir and writes nothing — a Dir the spec itself
	// carried included.
	if cfg.Checkpoint != nil {
		dir := ""
		if m.clu != nil && !j.spec.NoCache && m.opts.CheckpointRoot != "" {
			dir = KeyedCheckpointDir(m.opts.CheckpointRoot, j.key)
		}
		cfg.Checkpoint = &ggpdes.CheckpointOptions{Every: cfg.Checkpoint.Every, Dir: dir}
	}

	// Clustered routing: if a peer owns this key, fill from its cache,
	// else delegate the run to it. A delegation blocks for as long as
	// the remote simulation runs, and a worker parked on a peer is
	// capacity the admission queue has lost: were every worker on two
	// replicas parked like that — each side saturating the other with
	// mutually-owned keys — the delegated jobs would sit queued on
	// both with nobody left to run them. So the remote conversation
	// (fill, delegate, and the failover/spill fallback) gets its own
	// goroutine and this worker goes back to the queue, keeping it
	// free for local jobs — including the ones peers delegated here.
	if m.clu != nil && !j.spec.NoCache && !j.spec.NoForward {
		if owner, self := m.clu.Owner(j.key); !self {
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				defer cancel()
				res, source, err, settled := m.runRemote(jobCtx, j, owner)
				if !settled {
					// The owner died mid-job (failover: resume its shared
					// checkpoints) or pushed back (spill): run here.
					res, err = m.simulate(jobCtx, j, cfg)
					source = ""
				}
				m.settle(j, res, source, err, timeout)
			}()
			return
		}
	}
	defer cancel()
	res, err := m.simulate(jobCtx, j, cfg)
	m.settle(j, res, "", err, timeout)
}

// simulate runs the job on this replica, once: a fault ends it, typed,
// and a resubmission runs the same trajectory again. A keyed checkpoint
// directory that already holds a snapshot resumes from the latest one —
// on a failover it was written by the dead owner, not by this job.
func (m *Manager) simulate(ctx context.Context, j *Job, cfg ggpdes.Config) (*ggpdes.Results, error) {
	// One serve.simulations tick per job the engine actually ran
	// locally — summed across replicas this is the fleet-wide
	// execution count the dedup benchmarks assert on.
	m.simulations.Inc()
	var series *ggpdes.SeriesOptions
	if j.series != nil {
		series = &ggpdes.SeriesOptions{Buffer: j.series}
	}
	if ck := cfg.Checkpoint; ck != nil && ck.Dir != "" {
		if path, err := checkpoint.Latest(ck.Dir); err == nil {
			m.resumes.Inc()
			m.mu.Lock()
			j.resumedFrom = filepath.Base(path)
			m.mu.Unlock()
			return ggpdes.ResumeContext(ctx, path, &ggpdes.ResumeOptions{Series: series})
		}
	}
	cfg.Series = series
	return ggpdes.RunContext(ctx, cfg)
}

// settle ends a started job: the run's error picks the terminal edge,
// transitionLocked does the rest. It runs on the worker for local jobs
// and on the delegation goroutine for peer-owned ones.
func (m *Manager) settle(j *Job, res *ggpdes.Results, source string, err error, timeout time.Duration) {
	to, out := StateFailed, outcome{err: err}
	switch {
	case err == nil:
		to, out = StateDone, outcome{res: res, source: source}
	case errors.Is(err, ggpdes.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		out.msg = fmt.Sprintf("deadline exceeded after %s", timeout)
	case errors.Is(err, ggpdes.ErrCancelled) || errors.Is(err, context.Canceled):
		to, out.msg = StateCancelled, "cancelled"
	}
	m.mu.Lock()
	m.moveLocked(j, to, out)
	m.mu.Unlock()
}

// runRemote routes a peer-owned job through the cluster: fill from
// the owner's cache, else delegate the run to it. It returns settled
// = true when the cluster answered (result or terminal error) and
// false when the job must run locally instead — the owner died mid-
// job (failover; the local run resumes its shared checkpoints) or
// pushed back under load (spill).
func (m *Manager) runRemote(jobCtx context.Context, j *Job, owner *cluster.Peer) (res *ggpdes.Results, source string, err error, settled bool) {
	res, err = m.clu.FetchResult(jobCtx, owner, j.key)
	if err == nil {
		return res, SourcePeer, nil, true
	}
	if jobCtx.Err() != nil {
		return nil, "", context.Cause(jobCtx), true
	}
	// Fill missed (or the owner is already unreachable — delegation
	// below settles which). Hand the run to the owner so the fleet
	// simulates each key once; NoForward stops it routing onward.
	spec := j.spec
	spec.NoForward = true
	body, merr := json.Marshal(spec)
	if merr != nil {
		return nil, "", merr, true
	}
	res, err = m.clu.RunJob(jobCtx, owner, body)
	if err == nil {
		return res, SourceRemote, nil, true
	}
	if jobCtx.Err() != nil {
		return nil, "", context.Cause(jobCtx), true
	}
	if errors.Is(err, cluster.ErrPeerLost) {
		// The owner died with our job. Fail over to a local run, which
		// resumes from the shared keyed checkpoint dir at whatever GVT
		// the owner last snapshotted.
		m.clu.NoteFailover()
		return nil, "", nil, false
	}
	var re *cluster.RemoteError
	if errors.As(err, &re) {
		if re.Code == CodeQueueFull || re.Code == CodeDraining {
			// The owner is healthy but shedding load; running locally
			// trades fleet-wide dedup for availability.
			m.clu.NoteSpill()
			return nil, "", nil, false
		}
		// A typed remote failure (deadline, invalid config, ...) is the
		// job's real outcome; re-running locally would just repeat it.
		return nil, "", remoteFailure(owner.Addr(), re), true
	}
	return nil, "", err, true
}

// KeyedCheckpointDir is the directory under root that a clustered,
// cacheable job with cache key key checkpoints into, whichever replica
// runs it: "key-" and the key flattened into one path component
// ("sha256:..." → "key-sha256-...").
func KeyedCheckpointDir(root, key string) string {
	return filepath.Join(root, "key-"+strings.Map(func(r rune) rune {
		switch r {
		case ':', '/', '\\':
			return '-'
		}
		return r
	}, key))
}

// Health is the healthz payload: queue occupancy plus — when
// clustered — per-peer reachability, so a load balancer can shed to
// replicas that are neither draining nor partitioned.
type Health struct {
	// Status is "ok", "degraded" (some peer unreachable), or
	// "draining".
	Status   string `json:"status"`
	Draining bool   `json:"draining,omitempty"`
	Workers  int    `json:"workers"`
	// QueueDepth is the admission bound; QueueLen the spots taken;
	// QueueFree the spots left before submissions 429.
	QueueDepth int `json:"queue_depth"`
	QueueLen   int `json:"queue_len"`
	QueueFree  int `json:"queue_free"`
	Queued     int `json:"queued"`
	Running    int `json:"running"`
	// ClusterSize and Peers appear only on clustered replicas. Peers
	// reports the latest probe, which this call performs.
	ClusterSize int                  `json:"cluster_size,omitempty"`
	Peers       []cluster.PeerHealth `json:"peers,omitempty"`
}

// Health probes the fleet (bounded by the cluster ping timeout under
// ctx) and snapshots queue occupancy. Single-node managers skip the
// probe and never degrade.
func (m *Manager) Health(ctx context.Context) Health {
	queued, running := m.Counts()
	h := Health{
		Status:     "ok",
		Workers:    m.opts.Workers,
		QueueDepth: m.opts.QueueDepth,
		QueueLen:   len(m.queue),
		Queued:     queued,
		Running:    running,
	}
	h.QueueFree = h.QueueDepth - h.QueueLen
	if m.clu != nil {
		h.ClusterSize = m.clu.Size()
		h.Peers = m.clu.Probe(ctx)
		for _, p := range h.Peers {
			if !p.OK {
				h.Status = "degraded"
			}
		}
	}
	if m.Draining() {
		h.Status = "draining"
		h.Draining = true
	}
	return h
}

// sleepCtx sleeps for d, returning false if ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// meta builds the job's snapshot, the one shape it is read in. Caller
// holds m.mu (or exclusively owns j).
func (j *Job) meta() JobMeta {
	st := JobMeta{
		ID:          j.id,
		State:       j.state,
		Key:         j.key,
		Cached:      j.source != "",
		Source:      j.source,
		Error:       j.errInfo,
		ResumedFrom: j.resumedFrom,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
	}
	switch {
	case j.state == stateNew:
		st.State = StateQueued
	case j.state == StateQueued:
		st.QueueSeconds = time.Since(j.submitted).Seconds()
	case !j.started.IsZero():
		st.QueueSeconds = j.started.Sub(j.submitted).Seconds()
	case !j.finished.IsZero():
		st.QueueSeconds = j.finished.Sub(j.submitted).Seconds()
	}
	switch {
	case j.state == StateRunning:
		st.RunSeconds = time.Since(j.started).Seconds()
	case !j.started.IsZero() && !j.finished.IsZero():
		st.RunSeconds = j.finished.Sub(j.started).Seconds()
	}
	return st
}
