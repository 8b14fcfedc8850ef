package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"ggpdes"
)

// quickSpec is a sub-second PHOLD job; distinct seeds give distinct
// cache keys.
func quickSpec(seed uint64) JobSpec {
	return JobSpec{
		Config: ggpdes.Config{
			Model:                ggpdes.PHOLD{LPsPerThread: 2},
			Threads:              2,
			System:               ggpdes.GGPDES,
			GVT:                  ggpdes.WaitFree,
			EndTime:              10,
			Seed:                 seed,
			Machine:              ggpdes.Machine{Cores: 4, SMTWidth: 2},
			GVTFrequency:         20,
			ZeroCounterThreshold: 60,
		},
	}
}

// longSpec runs effectively forever; tests must cancel it.
func longSpec() JobSpec {
	s := quickSpec(1)
	s.Config.EndTime = 1e12
	return s
}

func drain(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func waitState(t *testing.T, m *Manager, id string, want State) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	if st.State != want {
		t.Fatalf("job %s finished %s (error %+v), want %s", id, st.State, st.Error, want)
	}
	return st
}

// waitRunning polls until the job leaves the queue.
func waitRunning(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.State == StateRunning {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s before running", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

func TestSubmitRunsToCompletion(t *testing.T) {
	m := New(Options{Workers: 2, QueueDepth: 4})
	defer drain(t, m)

	st, err := m.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached {
		t.Fatal("first submission reported cached")
	}
	st = waitState(t, m, st.ID, StateDone)
	res, _, ok := m.Result(st.ID)
	if !ok || res == nil {
		t.Fatal("no result for done job")
	}
	if res.CommittedEvents == 0 {
		t.Fatal("done job committed no events")
	}
	if got := m.Registry().Counters()["serve.jobs_completed"]; got != 1 {
		t.Fatalf("jobs_completed = %d, want 1", got)
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	m := New(Options{Workers: 1})
	defer drain(t, m)
	valid := quickSpec(1).Config
	noModel := valid
	noModel.Model = nil
	noThreads := valid
	noThreads.Threads = 0
	noEnd := valid
	noEnd.EndTime = 0
	for name, spec := range map[string]JobSpec{
		"no model":    {Config: noModel},
		"no threads":  {Config: noThreads},
		"no end time": {Config: noEnd},
		"bad timeout": {Config: valid, TimeoutSeconds: -1},
	} {
		_, err := m.Submit(spec)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ggpdes.ErrInvalidConfig) {
			t.Errorf("%s: error %v does not wrap ErrInvalidConfig", name, err)
		}
	}
	if got := m.Registry().Counters()["serve.jobs_submitted"]; got != 0 {
		t.Fatalf("invalid specs counted as submitted: %d", got)
	}
}

// An identical Config resubmission must be served from the cache
// without re-simulating, visible in the hit/miss counters.
func TestCacheHitSkipsResimulation(t *testing.T) {
	m := New(Options{Workers: 2, QueueDepth: 4})
	defer drain(t, m)

	first, err := m.Submit(quickSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateDone)
	firstRes, _, _ := m.Result(first.ID)

	second, err := m.Submit(quickSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("resubmission not served from cache: %+v", second)
	}
	if second.Key != first.Key {
		t.Fatalf("identical specs got different keys: %s vs %s", first.Key, second.Key)
	}
	secondRes, _, _ := m.Result(second.ID)
	if secondRes != firstRes {
		t.Fatal("cache hit returned a different Results value")
	}

	c := m.Registry().Counters()
	if c["serve.cache_hits"] != 1 || c["serve.cache_misses"] != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", c["serve.cache_hits"], c["serve.cache_misses"])
	}

	// no_cache forces a fresh run even with a warm cache.
	bypass := quickSpec(7)
	bypass.NoCache = true
	third, err := m.Submit(bypass)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("no_cache submission served from cache")
	}
	waitState(t, m, third.ID, StateDone)
	if hits := m.Registry().Counters()["serve.cache_hits"]; hits != 1 {
		t.Fatalf("no_cache run recorded a hit: %d", hits)
	}
}

// Past the admission bound, Submit fails fast with ErrQueueFull
// instead of blocking.
func TestQueueFullRejects(t *testing.T) {
	m := New(Options{Workers: 1, QueueDepth: 1})

	running, err := m.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, running.ID)

	queuedSpec := longSpec()
	queuedSpec.Config.Seed = 2
	queued, err := m.Submit(queuedSpec)
	if err != nil {
		t.Fatalf("queue-depth submission rejected: %v", err)
	}

	overflow := longSpec()
	overflow.Config.Seed = 3
	start := time.Now()
	if _, err := m.Submit(overflow); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission: err = %v, want ErrQueueFull", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("rejection blocked for %s", elapsed)
	}
	if got := m.Registry().Counters()["serve.jobs_rejected"]; got != 1 {
		t.Fatalf("jobs_rejected = %d, want 1", got)
	}

	m.Cancel(queued.ID)
	m.Cancel(running.ID)
	waitState(t, m, running.ID, StateCancelled)
	waitState(t, m, queued.ID, StateCancelled)
	drain(t, m)
}

// Cancelling a running job must interrupt the simulation promptly —
// the engine checks the context every GVT round.
func TestCancelRunningJob(t *testing.T) {
	m := New(Options{Workers: 1, QueueDepth: 1})
	defer drain(t, m)

	st, err := m.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, st.ID)

	start := time.Now()
	after, ok := m.Cancel(st.ID)
	if !ok {
		t.Fatal("cancel: job not found")
	}
	if after.State != StateRunning && after.State != StateCancelled {
		t.Fatalf("state after cancel: %s", after.State)
	}
	final := waitState(t, m, st.ID, StateCancelled)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
	if _, _, ok := m.Result(st.ID); !ok {
		t.Fatal("cancelled job not queryable")
	}
	if final.Error == nil || final.Error.Code != CodeCancelled {
		t.Fatalf("cancelled job's error is %+v, want code %s", final.Error, CodeCancelled)
	}
	if got := m.Registry().Counters()["serve.jobs_cancelled"]; got != 1 {
		t.Fatalf("jobs_cancelled = %d, want 1", got)
	}
}

// A per-job deadline fails the job rather than letting it run forever.
func TestJobDeadlineFails(t *testing.T) {
	m := New(Options{Workers: 1, QueueDepth: 1})
	defer drain(t, m)

	spec := longSpec()
	spec.TimeoutSeconds = 0.2
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, StateFailed)
	if final.Error == nil || final.Error.Code != CodeDeadline {
		t.Fatalf("deadline failure's error is %+v, want code %s", final.Error, CodeDeadline)
	}
	if got := m.Registry().Counters()["serve.jobs_failed"]; got != 1 {
		t.Fatalf("jobs_failed = %d, want 1", got)
	}
}

// The server-wide default deadline applies when the spec sets none.
func TestDefaultTimeout(t *testing.T) {
	m := New(Options{Workers: 1, QueueDepth: 1, DefaultTimeout: 200 * time.Millisecond})
	defer drain(t, m)

	st, err := m.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateFailed)
}

// The acceptance bar: ≥ 64 jobs in flight concurrently, all completing,
// submitted from many goroutines with no rejections and no races.
func TestManyConcurrentJobs(t *testing.T) {
	const jobs = 72 // 64 queue slots + 8 workers
	m := New(Options{Workers: 8, QueueDepth: 64})
	defer drain(t, m)

	ids := make([]string, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := m.Submit(quickSpec(uint64(i + 1)))
			ids[i], errs[i] = st.ID, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for _, id := range ids {
		waitState(t, m, id, StateDone)
	}
	c := m.Registry().Counters()
	if c["serve.jobs_completed"] != jobs {
		t.Fatalf("jobs_completed = %d, want %d", c["serve.jobs_completed"], jobs)
	}
	if c["serve.jobs_rejected"] != 0 {
		t.Fatalf("jobs_rejected = %d, want 0", c["serve.jobs_rejected"])
	}
}

// Identical concurrent submissions stay deterministic: every resulting
// job reports the same committed-event count whether it ran fresh or
// hit the cache.
func TestConcurrentIdenticalJobsDeterministic(t *testing.T) {
	const jobs = 16
	m := New(Options{Workers: 4, QueueDepth: 32})
	defer drain(t, m)

	var wg sync.WaitGroup
	committed := make([]uint64, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := m.Submit(quickSpec(99))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if _, err := m.Wait(ctx, st.ID); err != nil {
				t.Errorf("wait %d: %v", i, err)
				return
			}
			res, fin, _ := m.Result(st.ID)
			if fin.State != StateDone || res == nil {
				t.Errorf("job %d: state %s", i, fin.State)
				return
			}
			committed[i] = res.CommittedEvents
		}(i)
	}
	wg.Wait()
	for i := 1; i < jobs; i++ {
		if committed[i] != committed[0] {
			t.Fatalf("job %d committed %d events, job 0 committed %d",
				i, committed[i], committed[0])
		}
	}
}

func TestDrainStopsAdmission(t *testing.T) {
	m := New(Options{Workers: 2, QueueDepth: 4})
	st, err := m.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, m)
	if _, err := m.Submit(quickSpec(2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: err = %v, want ErrDraining", err)
	}
	// The job admitted before the drain still finished.
	got, ok := m.Get(st.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("pre-drain job state: %+v ok=%t", got, ok)
	}
	if !m.Draining() {
		t.Fatal("Draining() false after Drain")
	}
}

// Terminal jobs past the retention bound are forgotten oldest-first;
// live jobs are never evicted.
func TestRetentionBound(t *testing.T) {
	m := New(Options{Workers: 2, QueueDepth: 8, RetainJobs: 2})
	defer drain(t, m)

	var ids []string
	for i := 0; i < 4; i++ {
		st, err := m.Submit(quickSpec(uint64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if _, err := m.Wait(ctx, st.ID); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
		ids = append(ids, st.ID)
	}
	for _, id := range ids[:2] {
		if _, ok := m.Get(id); ok {
			t.Errorf("job %s retained past the bound", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := m.Get(id); !ok {
			t.Errorf("recent job %s evicted", id)
		}
	}
}

func TestCacheEvictionBound(t *testing.T) {
	m := New(Options{Workers: 2, QueueDepth: 8, CacheEntries: 2})
	defer drain(t, m)
	for i := 0; i < 4; i++ {
		st, err := m.Submit(quickSpec(uint64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, st.ID, StateDone)
	}
	if n := m.cache.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	if ev := m.Registry().Counters()["serve.cache_evictions"]; ev != 2 {
		t.Fatalf("cache_evictions = %d, want 2", ev)
	}
}

func TestWaitUnknownJob(t *testing.T) {
	m := New(Options{Workers: 1})
	defer drain(t, m)
	if _, err := m.Wait(context.Background(), "job-nope"); err == nil {
		t.Fatal("Wait on unknown job succeeded")
	}
	if _, ok := m.Get("job-nope"); ok {
		t.Fatal("Get on unknown job succeeded")
	}
	if _, ok := m.Cancel("job-nope"); ok {
		t.Fatal("Cancel on unknown job succeeded")
	}
}

// Sanity-check the ID format is stable for clients that log it.
func TestJobIDFormat(t *testing.T) {
	m := New(Options{Workers: 1, QueueDepth: 4})
	defer drain(t, m)
	st, err := m.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	if _, err := fmt.Sscanf(st.ID, "job-%08x", &n); err != nil || n == 0 {
		t.Fatalf("unexpected job ID %q", st.ID)
	}
	waitState(t, m, st.ID, StateDone)
}

// Cancelling a coalesced duplicate settles it immediately; the leader
// finishing later must skip it rather than settle it again (which
// would close the follower's done channel a second time and panic the
// worker, overwrite its cancelled state, and retain it twice).
func TestCancelQueuedFollower(t *testing.T) {
	m := New(Options{Workers: 1, QueueDepth: 4})
	defer drain(t, m)

	lead, err := m.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, lead.ID)
	fol, err := m.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	if fol.State != StateQueued {
		t.Fatalf("duplicate submitted as %s, want a queued follower", fol.State)
	}
	if got := m.Registry().Counters()[MetricDedupInflight]; got != 1 {
		t.Fatalf("dedup_inflight = %d, want 1", got)
	}

	st, ok := m.Cancel(fol.ID)
	if !ok || st.State != StateCancelled {
		t.Fatalf("follower cancel: ok=%t state=%s", ok, st.State)
	}

	// Cancel the leader too; its worker settles the lifecycle and offers
	// the same edge to every follower on its list.
	if _, ok := m.Cancel(lead.ID); !ok {
		t.Fatal("leader cancel failed")
	}
	waitState(t, m, lead.ID, StateCancelled)
	final := waitState(t, m, fol.ID, StateCancelled)
	if final.Cached || final.Source != "" {
		t.Fatalf("cancelled follower reports cached=%t source=%q", final.Cached, final.Source)
	}
	if got := m.Registry().Counters()[MetricJobsCancelled]; got != 2 {
		t.Fatalf("jobs_cancelled = %d, want 2 (each job settled exactly once)", got)
	}
}

// longSpecSeed is longSpec under another cache key.
func longSpecSeed(seed uint64) JobSpec {
	s := longSpec()
	s.Config.Seed = seed
	return s
}

// fillRetention leaves n terminal jobs in the manager's retention list:
// one run, then cache hits of it.
func fillRetention(tb testing.TB, m *Manager, n int) {
	tb.Helper()
	st, err := m.Submit(quickSpec(1))
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, st.ID); err != nil {
		tb.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if st, err := m.Submit(quickSpec(1)); err != nil || !st.Cached {
			tb.Fatalf("retained job %d: cached=%t err=%v", i, st.Cached, err)
		}
	}
}

// The queued and running counts are kept where j.state changes, and the
// in-flight gauge is set there, under the manager lock: at any moment a
// recount of the job table, the counters and the gauge agree — after a
// queued job is cancelled too, which used to leave the gauge stale until
// the next job, and whatever order two workers finish in. A seeded mix
// of submissions, in-flight duplicates, cancellations and completions
// over a full retention list checks it after every step.
func TestInFlightGaugeMatchesCounts(t *testing.T) {
	m := New(Options{Workers: 2, QueueDepth: 16})
	fillRetention(t, m, 4096)
	check := func(when string) {
		t.Helper()
		m.mu.Lock()
		defer m.mu.Unlock()
		queued, running := 0, 0
		for _, j := range m.jobs {
			switch j.state {
			case StateQueued:
				queued++
			case StateRunning:
				running++
			}
		}
		if queued != m.queued || running != m.running || m.inFlight.Value() != float64(queued+running) {
			t.Fatalf("%s: recount %d queued + %d running, counters %d + %d, gauge %v",
				when, queued, running, m.queued, m.running, m.inFlight.Value())
		}
	}
	check("retention filled")
	if len(m.terminal) != 4096 {
		t.Fatalf("%d retained jobs, want 4096", len(m.terminal))
	}

	rnd := rand.New(rand.NewPCG(7, 7))
	var live []string // submitted here and not known to be terminal
	seed := uint64(100)
	sawQueued, sawFollower := false, false
	for step := 0; step < 400; step++ {
		switch op := rnd.IntN(10); {
		case op < 3: // a job that runs until cancelled
			seed++
			if st, err := m.Submit(longSpecSeed(seed)); err == nil {
				live = append(live, st.ID)
			} else if !errors.Is(err, ErrQueueFull) {
				t.Fatal(err)
			}
		case op < 5: // a duplicate of a job in flight, or a cache hit
			spec := quickSpec(1)
			if len(live) > 0 {
				spec = longSpecSeed(seed)
			}
			if st, err := m.Submit(spec); err == nil && !st.Cached {
				live = append(live, st.ID)
				sawFollower = true
			} else if err != nil && !errors.Is(err, ErrQueueFull) {
				t.Fatal(err)
			}
		case op < 6: // a job that finishes by itself
			seed++
			if st, err := m.Submit(quickSpec(seed)); err == nil {
				live = append(live, st.ID)
			} else if !errors.Is(err, ErrQueueFull) {
				t.Fatal(err)
			}
		case len(live) > 0: // cancel: queued, running, follower or already done
			i := rnd.IntN(len(live))
			if st, ok := m.Get(live[i]); ok && st.State == StateQueued {
				sawQueued = true
			}
			m.Cancel(live[i])
			live = append(live[:i], live[i+1:]...)
		}
		check(fmt.Sprintf("step %d", step))
	}
	if !sawQueued || !sawFollower {
		t.Fatalf("vacuous mix: cancelled a queued job %t, coalesced a duplicate %t", sawQueued, sawFollower)
	}
	for _, id := range live {
		m.Cancel(id)
	}
	drain(t, m)
	check("drained")
	if q, r := m.Counts(); q != 0 || r != 0 || m.inFlight.Value() != 0 {
		t.Fatalf("after Drain: %d queued, %d running, gauge %v", q, r, m.inFlight.Value())
	}
}

// Submit's cost must not depend on how many terminal jobs the manager
// retains: each iteration coalesces a duplicate onto a running job and
// cancels it, so the retention list stays full and the queue empty.
func BenchmarkSubmitWithRetainedJobs(b *testing.B) {
	for _, retain := range []int{1, 4096} {
		b.Run(fmt.Sprintf("retain=%d", retain), func(b *testing.B) {
			m := New(Options{Workers: 1, QueueDepth: 4, RetainJobs: retain})
			fillRetention(b, m, retain)
			lead, err := m.Submit(longSpec())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := m.Submit(longSpec())
				if err != nil {
					b.Fatal(err)
				}
				m.Cancel(st.ID)
			}
			b.StopTimer()
			m.Cancel(lead.ID)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := m.Drain(ctx); err != nil {
				b.Fatal(err)
			}
		})
	}
}
