package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ggpdes"
	"ggpdes/bench/span"
	"ggpdes/internal/serve"
	"ggpdes/internal/serve/client"
)

// serveMix is workload 6: one serve.Manager behind an httptest server,
// driven over /v2 by the typed client from two closed-loop clients.
// Jobs are small PHOLD configs; the mix is fixed per block of ten jobs
// — five fresh keys (misses, two of them with a twin submitted while
// the original is in flight) and three repeats of one of the client's
// last 64 completed keys (hits) — and the block's order is drawn from
// the seed. The repeat window stays far below the 256-entry cache, so
// eviction is not exercised (a stated gap). A job is classified by
// what the server says about it (JobMeta.Cached/Source), not by what
// the client meant it to be.
type serveMix struct {
	env  *runEnv
	base ggpdes.Config
	mgr  *serve.Manager
	srv  *httptest.Server
	// procs is the GOMAXPROCS setting close restores: this is the one
	// workload that runs on every CPU (see singleP in run.go).
	procs int

	clients []*mixClient
	// fresh counts the distinct configs submitted since setup; the
	// server must have simulated exactly that many.
	fresh atomic.Int64
	op    atomic.Int64

	mu sync.Mutex
	// sampled are the served results verify re-runs directly; seen the
	// digests of the first fresh configs, for the golden file.
	sampled []servedSample
	seen    map[string]string
	first   *ggpdes.Results
	// simRates holds the simulated committed-event rate of the first
	// modelSeeds fresh configs.
	simRates [modelSeeds]float64
	// missRoots are the root spans of the jobs the server ran alone,
	// the ones whose legs must add up to miss_ms_p50.
	missRoots map[span.ID]bool
}

// ledgerRoots restricts bench.unattributed_share to the misses.
func (w *serveMix) ledgerRoots() map[span.ID]bool { return w.missRoots }

type servedSample struct {
	cfg    ggpdes.Config
	digest string
}

// The mix, per block of ten jobs.
type stepKind int

const (
	stepFresh stepKind = iota
	stepFreshWithTwin
	stepRepeat
)

var mixBlock = []stepKind{
	stepFresh, stepFresh, stepFresh,
	stepFreshWithTwin, stepFreshWithTwin,
	stepRepeat, stepRepeat, stepRepeat,
}

const (
	repeatWindow = 64
	verifyEvery  = 50
	mixClients   = 2

	sampleMiss   = "miss"
	sampleHit    = "hit"
	sampleDedup  = "dedup"
	samplePaired = "paired-miss"
	sampleDirect = "direct-miss"
)

func newServeMix() workload { return &serveMix{} }

// serveJobConfig is the small PHOLD config every job of workload 6
// runs, apart from its seed.
func serveJobConfig(s scale) ggpdes.Config {
	cfg := ggpdes.Config{
		Model: ggpdes.PHOLD{LPsPerThread: 4}, Threads: 8,
		System: ggpdes.GGPDES, GVT: ggpdes.WaitFree, Affinity: ggpdes.ConstantAffinity,
		Machine: ggpdes.SmallMachine(), EndTime: 100,
	}
	if s == scaleTiny {
		cfg.Model, cfg.Threads, cfg.EndTime = ggpdes.PHOLD{LPsPerThread: 2}, 4, 20
	}
	return cfg
}

func (w *serveMix) setup(env *runEnv) error {
	w.env = env
	w.seen = map[string]string{}
	w.base = serveJobConfig(env.scale)
	w.procs = runtime.GOMAXPROCS(env.nproc)
	w.mgr = serve.New(serve.Options{
		Workers: env.nproc,
		// Kept inside the benchmark's own directory; the default is a
		// directory under the system temp dir.
		CheckpointRoot: filepath.Join(env.tmp, "serve-ckpt"),
	})
	w.srv = httptest.NewServer(w.mgr.Handler())
	for i := 0; i < mixClients; i++ {
		c := client.New(w.srv.URL, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}})
		c.Poll = time.Millisecond
		rng := env.seed*1_000_003 + 7919*uint64(i+1)
		w.clients = append(w.clients, &mixClient{w: w, id: i, c: c, rng: rng})
	}
	return nil
}

// freshConfig is the n-th distinct config of the run: the base model
// under a seed derived from the benchmark seed.
func (w *serveMix) freshConfig(n int64) ggpdes.Config {
	cfg := w.base
	x := w.env.seed*1_000_003 + 1_000 + uint64(n)
	cfg.Seed = splitmix64(&x) | 1
	return cfg
}

func (w *serveMix) warmup() int                { return 200 }
func (w *serveMix) digests() map[string]string { return w.seen }

func (w *serveMix) counts() map[string]float64 { return resultCounts(w.first) }

func (w *serveMix) close() {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = w.mgr.Drain(ctx)
		cancel()
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
		w.procs = 0
	}
}

// mixClient is one closed-loop client: it submits its next job only
// after the previous one's result has been decoded.
type mixClient struct {
	w   *serveMix
	id  int
	c   *client.Client
	rng uint64
	// next numbers this client's fresh configs (client i takes
	// i, i+mixClients, ...), so the inputs do not depend on how the
	// clients interleave.
	next int64
	ring []servedSample
	jobs int

	p  *phase
	tr *span.Tracer
	// direct switches the client from HTTP to calling the Manager.
	direct bool
}

func (w *serveMix) measure(b budget, tr *span.Tracer) *phase {
	return w.drive(b, tr, false)
}

// drive runs every client's loop until the budget is spent and merges
// what they recorded. With b.iters set, the jobs are split between the
// clients. direct makes the clients call the Manager itself, fresh
// configs only, instead of going through HTTP.
func (w *serveMix) drive(b budget, tr *span.Tracer, direct bool) *phase {
	perClient := budget{seconds: b.seconds}
	if b.iters > 0 {
		perClient.iters = (b.iters + mixClients - 1) / mixClients
	}
	w.op.Store(0)
	if !direct {
		w.missRoots = map[span.ID]bool{}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range w.clients {
		c.p, c.tr, c.direct, c.jobs = newPhase(), tr, direct, 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(perClient, start)
		}()
	}
	wg.Wait()
	p := newPhase()
	p.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	for _, c := range w.clients {
		p.attempted += c.p.attempted
		p.failed += c.p.failed
		p.failures = append(p.failures, c.p.failures...)
		p.committed += c.p.committed
		p.iterMS = append(p.iterMS, c.p.iterMS...)
		for name, v := range c.p.samples {
			p.samples[name] = append(p.samples[name], v...)
		}
	}
	return p
}

func (c *mixClient) loop(b budget, start time.Time) {
	for {
		// One shuffled block of steps = ten jobs in the fixed mix.
		block := append([]stepKind(nil), mixBlock...)
		for i := len(block) - 1; i > 0; i-- {
			j := int(splitmix64(&c.rng) % uint64(i+1))
			block[i], block[j] = block[j], block[i]
		}
		for _, step := range block {
			if b.iters > 0 && c.jobs >= b.iters || b.iters == 0 && time.Since(start).Seconds() >= b.seconds {
				return
			}
			c.step(step)
		}
	}
}

func (c *mixClient) freshConfig() ggpdes.Config {
	n := int64(c.id) + c.next*mixClients
	c.next++
	c.w.fresh.Add(1)
	return c.w.freshConfig(n)
}

func (c *mixClient) step(kind stepKind) {
	if c.direct || kind == stepRepeat && len(c.ring) == 0 {
		kind = stepFresh
	}
	switch kind {
	case stepFresh:
		j := c.submit(c.freshConfig(), "", true)
		c.complete(j)
	case stepFreshWithTwin:
		cfg := c.freshConfig()
		orig := c.submit(cfg, "", false)
		twin := c.submit(cfg, "", false)
		c.complete(orig)
		if orig != nil && twin != nil {
			twin.wantDigest = orig.gotDigest
		}
		c.complete(twin)
	case stepRepeat:
		prev := c.ring[splitmix64(&c.rng)%uint64(len(c.ring))]
		c.complete(c.submit(prev.cfg, prev.digest, true))
	}
}

// pendingJob is a submitted job whose result has not been fetched.
type pendingJob struct {
	cfg   ggpdes.Config
	op    int64
	root  span.ID
	start time.Time
	// id and terminal come from the submit answer.
	id       string
	terminal bool
	// solo is false for the two jobs of a twin pair, whose latencies
	// include each other's submit and are kept out of the miss sample.
	solo bool
	// wantDigest, when set, is what the result must reproduce.
	wantDigest, gotDigest string
}

func (c *mixClient) submit(cfg ggpdes.Config, wantDigest string, solo bool) *pendingJob {
	c.jobs++
	c.p.attempted++
	j := &pendingJob{cfg: cfg, op: c.w.op.Add(1) - 1, solo: solo, wantDigest: wantDigest, start: time.Now()}
	lane := int32(c.id)
	j.root = c.tr.Start("serve.job", 0, j.op, lane)
	id := c.tr.Start("serve.submit", j.root, j.op, lane)
	var err error
	if c.direct {
		var st serve.Status
		st, err = c.w.mgr.Submit(serve.JobSpec{Config: cfg})
		j.id, j.terminal = st.ID, st.State.Terminal()
	} else {
		var meta client.JobMeta
		meta, err = c.c.Submit(context.Background(), client.JobSpec{Config: cfg})
		j.id, j.terminal = meta.ID, meta.Terminal()
	}
	c.tr.End(id)
	if err != nil {
		c.tr.End(j.root)
		c.p.fail("job %d: submit: %v", j.op, err)
		return nil
	}
	return j
}

// jobTimeout bounds one job; a job that takes this long counts as
// failed.
const jobTimeout = 30 * time.Second

// served is the part of a finished job's metadata the benchmark uses,
// common to the HTTP client's JobMeta and the Manager's Status.
type served struct {
	state, source                string
	cached                       bool
	submitted, started, finished time.Time
	queueSeconds, runSeconds     float64
	res                          *ggpdes.Results
}

func (c *mixClient) complete(j *pendingJob) {
	if j == nil {
		return
	}
	defer c.tr.End(j.root)
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	lane := int32(c.id)
	var waitSpan span.ID
	var waitEnd time.Time
	if !j.terminal {
		waitSpan = c.tr.Start("serve.wait", j.root, j.op, lane)
		var err error
		if c.direct {
			_, err = c.w.mgr.Wait(ctx, j.id)
		} else {
			_, err = c.c.Wait(ctx, j.id)
		}
		waitEnd = time.Now()
		c.tr.End(waitSpan)
		if err != nil {
			c.p.fail("job %d: wait: %v", j.op, err)
			return
		}
	}
	resSpan := c.tr.Start("serve.result", j.root, j.op, lane)
	sv, err := c.fetch(ctx, j.id)
	c.tr.End(resSpan)
	ms := time.Since(j.start).Seconds() * 1e3
	if err != nil {
		c.p.fail("job %d: result: %v", j.op, err)
		return
	}
	if err := c.check(j, sv); err != nil {
		c.p.fail("job %d: %v", j.op, err)
		return
	}
	c.p.committed += sv.res.CommittedEvents
	c.p.iterMS = append(c.p.iterMS, ms)
	ran := !sv.cached
	switch {
	case c.direct:
		if ran {
			c.p.samples[sampleDirect] = append(c.p.samples[sampleDirect], ms)
		}
	case ran && j.solo:
		c.p.samples[sampleMiss] = append(c.p.samples[sampleMiss], ms)
		if j.root != 0 {
			c.w.mu.Lock()
			c.w.missRoots[j.root] = true
			c.w.mu.Unlock()
		}
	case ran:
		c.p.samples[samplePaired] = append(c.p.samples[samplePaired], ms)
	case sv.source == serve.SourceInflight:
		c.p.samples[sampleDedup] = append(c.p.samples[sampleDedup], ms)
	default:
		c.p.samples[sampleHit] = append(c.p.samples[sampleHit], ms)
	}
	if ran && waitSpan != 0 {
		// The server-side legs, rebuilt from the timestamps the public
		// API returns. They hang under the job like the client's own
		// calls: submit, queue, run, poll lag and result must cover it.
		c.p.samples["queue"] = append(c.p.samples["queue"], sv.queueSeconds*1e3)
		c.p.samples["run"] = append(c.p.samples["run"], sv.runSeconds*1e3)
		c.p.samples["poll-lag"] = append(c.p.samples["poll-lag"], waitEnd.Sub(sv.finished).Seconds()*1e3)
		if tr := c.tr; tr != nil {
			tr.Add("serve.queue_wait", j.root, j.op, lane, tr.At(sv.submitted), tr.At(sv.started))
			tr.Add("serve.run", j.root, j.op, lane, tr.At(sv.started), tr.At(sv.finished))
			tr.Add("serve.poll_lag", j.root, j.op, lane, tr.At(sv.finished), tr.At(waitEnd))
		}
	}
	c.ring = append(c.ring, servedSample{cfg: j.cfg, digest: j.gotDigest})
	if len(c.ring) > repeatWindow {
		c.ring = c.ring[1:]
	}
}

func (c *mixClient) fetch(ctx context.Context, id string) (served, error) {
	if c.direct {
		res, st, ok := c.w.mgr.Result(id)
		if !ok || res == nil {
			return served{}, fmt.Errorf("no result (state %s)", st.State)
		}
		return served{state: string(st.State), source: st.Source, cached: st.Cached,
			submitted: st.SubmittedAt, started: st.StartedAt, finished: st.FinishedAt,
			queueSeconds: st.QueueSeconds, runSeconds: st.RunSeconds, res: res}, nil
	}
	meta, res, err := c.c.Result(ctx, id)
	if err != nil {
		return served{}, err
	}
	if res == nil {
		return served{}, fmt.Errorf("no result (state %s)", meta.State)
	}
	return served{state: meta.State, source: meta.Source, cached: meta.Cached,
		submitted: meta.SubmittedAt, started: meta.StartedAt, finished: meta.FinishedAt,
		queueSeconds: meta.QueueSeconds, runSeconds: meta.RunSeconds, res: res}, nil
}

// check is the per-job oracle.
func (c *mixClient) check(j *pendingJob, sv served) error {
	if sv.state != string(serve.StateDone) {
		return fmt.Errorf("state %s", sv.state)
	}
	if sv.res.FinalGVT != j.cfg.EndTime {
		return fmt.Errorf("FinalGVT %v, want %v", sv.res.FinalGVT, j.cfg.EndTime)
	}
	if sv.res.CommittedEvents == 0 {
		return fmt.Errorf("committed no events")
	}
	d, err := resultDigest(sv.res)
	if err != nil {
		return err
	}
	j.gotDigest = d
	if j.wantDigest != "" && d != j.wantDigest {
		return fmt.Errorf("results digest differs from the earlier answer for the same config")
	}
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if c.jobs%verifyEvery == 0 && !c.direct {
		w.sampled = append(w.sampled, servedSample{cfg: j.cfg, digest: d})
	}
	// The first fresh configs of the run are fixed by the seed alone:
	// their digests go to the golden file, their rates to the
	// simulated-clock metric.
	for n := int64(0); n < modelSeeds; n++ {
		if j.cfg.Seed == w.freshConfig(n).Seed {
			w.seen[fmt.Sprintf("job/%d", n)] = d
			w.simRates[n] = sv.res.CommittedEventRate
			if n == 0 {
				w.first = sv.res
			}
		}
	}
	return nil
}

// verify re-runs every sampled config directly and compares the
// served result with it, then checks the server's own counters: one
// simulation per distinct config, nothing rejected.
func (w *serveMix) verify(p *phase) {
	w.mu.Lock()
	sampled := w.sampled
	w.sampled = nil
	w.mu.Unlock()
	for _, s := range sampled {
		p.attempted++
		res, err := ggpdes.Run(s.cfg)
		if err != nil {
			p.fail("direct run of a served config: %v", err)
			continue
		}
		if d, err := resultDigest(res); err != nil || d != s.digest {
			p.fail("served result differs from a direct ggpdes.Run of the same config (seed %d)", s.cfg.Seed)
		}
	}
	counters := w.mgr.Registry().Counters()
	if got, want := counters[serve.MetricSimulations], uint64(w.fresh.Load()); got != want {
		p.fail("serve.simulations = %d, want %d (one per distinct config)", got, want)
	}
	if got := counters[serve.MetricJobsRejected]; got != 0 {
		p.fail("serve.rejected = %d, want 0", got)
	}
}

func (w *serveMix) primaryMS(p *phase) float64 { return p.med(sampleMiss) }

func (w *serveMix) endToEnd(p *phase) map[string]valued {
	out := map[string]valued{
		"miss_ms_p50": medianOf(p.samples[sampleMiss]),
		"hit_ms_p50":  medianOf(p.samples[sampleHit]),
	}
	if p.wallS > 0 {
		out["jobs_per_s"] = scalar(float64(p.attempted-p.failed) / p.wallS)
		out["committed_ev_per_host_s"] = scalar(float64(p.committed) / p.wallS)
	}
	if p.committed > 0 {
		out["allocs_per_committed_event"] = scalar(float64(p.mallocs) / float64(p.committed))
	}
	var rates []float64
	for _, r := range w.simRates {
		if r > 0 {
			rates = append(rates, r)
		}
	}
	out["sim_committed_ev_per_sim_s"] = scalar(mean(rates))
	return out
}

func (w *serveMix) layers(p *phase, tr *span.Tracer) map[string]float64 {
	out := map[string]float64{
		"serve.queue_wait_ms_p50": p.med("queue"),
		"serve.run_ms_p50":        p.med("run"),
		"serve.poll_lag_ms_p50":   p.med("poll-lag"),
		"serve.dedup_ms_p50":      p.med(sampleDedup),
		"serve.miss_ms_p95":       quantileSorted(sorted(p.samples[sampleMiss]), 0.95),
		"serve.hit_ms_p95":        quantileSorted(sorted(p.samples[sampleHit]), 0.95),
	}
	// The client-side legs of the jobs the server ran alone: the ones
	// whose parts must add up to miss_ms_p50.
	legs := map[string][]float64{}
	for _, s := range tr.Spans() {
		if w.missRoots[s.Parent] {
			legs[s.Name] = append(legs[s.Name], float64(s.Dur())/1e6)
		}
	}
	out["serve.submit_ms_p50"] = median(legs["serve.submit"])
	out["serve.wait_ms_p50"] = median(legs["serve.wait"])
	out["serve.result_ms_p50"] = median(legs["serve.result"])

	done := float64(p.attempted - p.failed)
	if done > 0 {
		out["serve.hit_share"] = float64(len(p.samples[sampleHit])) / done
		out["serve.dedup_share"] = float64(len(p.samples[sampleDedup])) / done
	}

	// Second pass: the same closed loop against the Manager itself, no
	// HTTP, fresh configs only.
	directJobs := 300
	if w.env.scale == scaleTiny {
		directJobs = 8
	}
	dp := w.drive(budget{iters: directJobs}, nil, true)
	p.failed += dp.failed
	p.failures = append(p.failures, dp.failures...)
	if d := dp.med(sampleDirect); d > 0 {
		out["serve.direct_miss_ms_p50"] = d
		out["serve.http_overhead_ms"] = p.med(sampleMiss) - d
	}
	counters := w.mgr.Registry().Counters()
	out["serve.simulations"] = float64(counters[serve.MetricSimulations])
	out["serve.rejected"] = float64(counters[serve.MetricJobsRejected])
	return out
}
