package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ggpdes"
	"ggpdes/internal/serve/client"
)

// A sweep knows how its members ended however few terminal jobs the job
// table retains: with RetainJobs 2, an 8-seed sweep — cold, then again
// fully cached, where members settle faster than anything could look
// them up by ID — ends done with all eight results on its stream. (The
// warm pass used to end failed, six members "evicted before the sweep
// finished".)
func TestSweepOutlivesMemberRetention(t *testing.T) {
	_, c := startV2(t, Options{Workers: 2, QueueDepth: 16, RetainJobs: 2})
	ctx := v2ctx(t)
	spec := client.SweepSpec{Defaults: clientSpec(quickSpec(0))}
	for seed := uint64(9301); seed <= 9308; seed++ {
		spec.Seeds = append(spec.Seeds, seed)
	}
	for _, pass := range []string{"cold", "warm"} {
		st, err := c.Sweep(ctx, spec)
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		results := 0
		final, err := c.SweepEvents(ctx, st.ID, func(ev client.SweepEvent) error {
			if ev.Job.State == "done" && ev.Results != nil {
				results++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: stream: %v", pass, err)
		}
		if final.State != "done" || final.Done != 8 || results != 8 {
			t.Fatalf("%s sweep: state=%s done=%d failed=%d, %d result events with results; want done, 8, 8",
				pass, final.State, final.Done, final.Failed, results)
		}
	}
}

// allStates is every value Job.state takes, stateNew included.
var allStates = []State{stateNew, StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}

// jobIn drives a fresh job to state s along legal edges, with the worker
// pool out of the picture (the job is never sent to the queue).
func jobIn(t *testing.T, m *Manager, s State, seed uint64) *Job {
	t.Helper()
	j, err := m.newJob(quickSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	var path []State
	switch s {
	case StateQueued, StateDone, StateFailed:
		path = []State{s}
	case StateRunning:
		path = []State{StateQueued, StateRunning}
	case StateCancelled:
		path = []State{StateQueued, StateCancelled}
	}
	for _, to := range path {
		m.moveLocked(j, to, outcome{res: &ggpdes.Results{}, err: errors.New("setup")})
	}
	return j
}

// engineMetrics stands for the engine telemetry a run's Results carry.
var engineMetrics = ggpdes.MetricsState{Counters: map[string]uint64{"tw.committed_events": 1}}

// The lifecycle, written out independently of the edges table: each
// (from, to) pair, as a job that owns its execution and as a coalesced
// follower, lands if and only if it is listed here — and a refused edge
// leaves the job, the counters, the gauge, done and retention alone.
func TestTransitionTable(t *testing.T) {
	type edge struct{ from, to State }
	legal := map[edge]bool{
		{stateNew, StateQueued}: true, {stateNew, StateDone}: true, {stateNew, StateFailed}: true,
		{StateQueued, StateRunning}: true, {StateQueued, StateCancelled}: true,
		{StateRunning, StateDone}: true, {StateRunning, StateFailed}: true, {StateRunning, StateCancelled}: true,
	}
	followerOnly := map[edge]bool{{StateQueued, StateDone}: true, {StateQueued, StateFailed}: true}

	m := New(Options{Workers: 1, RetainJobs: -1})
	defer drain(t, m)
	m.mu.Lock()
	defer m.mu.Unlock()

	type snapshot struct {
		state                                 State
		id                                    string
		finished                              time.Time
		closed                                bool
		queued, running, retained             int
		gauge                                 float64
		submitted, completed, failed, cancels uint64
	}
	snap := func(j *Job) snapshot {
		closed := false
		select {
		case <-j.done:
			closed = true
		default:
		}
		return snapshot{j.state, j.id, j.finished, closed, m.queued, m.running, len(m.terminal),
			m.inFlight.Value(), m.submitted.Value(), m.completed.Value(), m.failed.Value(), m.cancelled.Value()}
	}
	counted := func(s State) int {
		if s == StateQueued || s == StateRunning {
			return 1
		}
		return 0
	}

	seed := uint64(7000)
	for _, from := range allStates {
		for _, to := range allStates {
			for _, follower := range []bool{false, true} {
				seed++
				j := jobIn(t, m, from, seed)
				out := outcome{res: &ggpdes.Results{CommittedEvents: seed, Metrics: engineMetrics}, err: ggpdes.ErrCheckpointCorrupt}
				if follower {
					out.source = SourceInflight
				}
				before := snap(j)
				err := m.transitionLocked(j, to, out)
				after := snap(j)
				name := fmt.Sprintf("%q → %q (follower %t)", from, to, follower)
				if want := legal[edge{from, to}] || follower && followerOnly[edge{from, to}]; !want {
					if err == nil {
						t.Errorf("%s: landed, want it refused", name)
					}
					if after != before {
						t.Errorf("%s: refused, but moved %+v to %+v", name, before, after)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: refused: %v", name, err)
					continue
				}
				want := before
				want.state = to
				want.queued += counted(to) - counted(from)
				if to == StateRunning {
					want.queued, want.running = before.queued-1, before.running+1
				} else if from == StateRunning {
					want.queued, want.running = before.queued, before.running-1
				}
				want.gauge = float64(want.queued + want.running)
				if from == stateNew {
					want.submitted++
					want.id = after.id
				}
				if to.Terminal() {
					want.closed, want.retained, want.finished = true, before.retained+1, after.finished
				}
				switch to {
				case StateDone:
					want.completed++
				case StateFailed:
					want.failed++
				case StateCancelled:
					want.cancels++
				}
				if after != want {
					t.Errorf("%s: got %+v, want %+v", name, after, want)
				}
				if from == stateNew && m.jobs[j.id] != j {
					t.Errorf("%s: the job was not registered", name)
				}
				if to.Terminal() && after.finished.IsZero() {
					t.Errorf("%s: no finish time", name)
				}
				if failed := to == StateFailed || to == StateCancelled; failed != (j.errInfo != nil) ||
					failed && j.errInfo.Code != CodeCheckpointCorrupt {
					t.Errorf("%s: typed error %+v", name, j.errInfo)
				}
				if to == StateDone {
					// The cache is where a done job's result lives, and a run's
					// is kept without the Metrics its edge imported.
					want := *out.res
					if from == StateRunning {
						want.Metrics = ggpdes.MetricsState{}
					}
					if got, ok := m.cache.peek(j.key); !ok || !reflect.DeepEqual(*got, want) || j.source != out.source {
						t.Errorf("%s: cached %+v (%t) from %q, want %+v from %q", name, got, ok, j.source, want, out.source)
					}
				}
			}
		}
	}
}

// Every way into the lifecycle at once, from several goroutines: plain
// and identical submissions, cancels, sweeps, sweep cancels, and at the
// end Drain from all of them. Jobs that finish
// by themselves are never cancelled and jobs that never finish have
// keys of their own, so each key is simulated at most once and the
// ledger below is exact.
func TestLifecycleRandomInterleaving(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := New(Options{Workers: 2, QueueDepth: 8, RetainJobs: -1})

	// check recounts the job table against the counts and the gauge. It
	// holds m.mu, under which every transition updates all three, so any
	// moment is a quiescent point.
	check := func(when string) {
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
			t.Errorf("%s: recount %d queued + %d running, counters %d + %d, gauge %v",
				when, queued, running, m.queued, m.running, m.inFlight.Value())
		}
	}
	accepted := func(err error) bool {
		if err != nil && !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrDraining) {
			t.Errorf("submit: %v", err)
		}
		return err == nil
	}

	const goroutines, steps, quickKeys = 4, 120, 12
	var longSeed atomic.Uint64
	longSeed.Store(50_000)
	var mu sync.Mutex
	var jobIDs, sweepIDs []string // everything accepted, by any goroutine
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewPCG(26, uint64(g)))
			var ids, longIDs, longSweeps []string // this goroutine's own
			lastQuick := ""
			quick := func() JobSpec { return quickSpec(8000 + rnd.Uint64N(quickKeys)) }
			stopLong := func() {
				for _, id := range longIDs {
					m.Cancel(id)
				}
				for _, id := range longSweeps {
					m.CancelSweep(id)
				}
			}
			for step := 0; step < steps; step++ {
				switch op := rnd.IntN(10); {
				case op < 3: // a job that finishes by itself, often a duplicate or a cache hit
					if st, err := m.Submit(quick()); accepted(err) {
						ids, lastQuick = append(ids, st.ID), st.ID
					}
				case op < 5: // a job that runs until cancelled, and its identical twin
					spec := longSpecSeed(longSeed.Add(1))
					if st, err := m.Submit(spec); accepted(err) {
						longIDs = append(longIDs, st.ID)
						if twin, err := m.Submit(spec); accepted(err) {
							longIDs = append(longIDs, twin.ID)
						}
					}
				case op < 6 && len(longIDs) > 0: // cancel: queued, running, follower or already cancelled
					m.Cancel(longIDs[rnd.IntN(len(longIDs))])
				case op < 7: // a sweep of jobs that finish, with repeats
					spec := SweepSpec{Defaults: quick(), Seeds: []uint64{8000 + rnd.Uint64N(quickKeys), 8000 + rnd.Uint64N(quickKeys)}}
					if st, err := m.SubmitSweep(spec); accepted(err) {
						ids = append(ids, st.ID)
					}
				case op < 8: // a sweep of jobs that do not, one key twice
					a := longSeed.Add(2)
					spec := SweepSpec{Defaults: longSpec(), Seeds: []uint64{a, a, a - 1}}
					if st, err := m.SubmitSweep(spec); accepted(err) {
						longSweeps = append(longSweeps, st.ID)
					}
				case op < 9 && len(longSweeps) > 0:
					m.CancelSweep(longSweeps[rnd.IntN(len(longSweeps))])
				case lastQuick != "":
					// Pace the mix by the workers: wait for a job of this
					// goroutine's to finish. Whoever waits first cancels
					// what it holds the workers with, or all could wait on
					// jobs queued behind each other's.
					stopLong()
					if _, err := m.Wait(context.Background(), lastQuick); err != nil {
						t.Error(err)
					}
				}
				if step%10 == 0 {
					check(fmt.Sprintf("goroutine %d step %d", g, step))
				}
			}
			// Nothing of this goroutine's may outlive it unfinished, or
			// Drain would wait for ever.
			stopLong()
			mu.Lock()
			for _, id := range append(ids, append(longIDs, longSweeps...)...) {
				if strings.HasPrefix(id, "sweep-") {
					sweepIDs = append(sweepIDs, id)
				} else {
					jobIDs = append(jobIDs, id)
				}
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	check("before Drain")

	// Drain from every goroutine, begun while two running jobs hold both
	// workers: a sweep wider than the queue is then still fanning out,
	// and what it can no longer admit fails, typed draining, and is
	// counted like any other job.
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		// First let the backlog through: the fan-outs still in backoff
		// would keep the queue full.
		pending, _ := m.Counts()
		for _, id := range sweepIDs {
			if sw, _ := m.GetSweep(id); sw.State == StateRunning {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs and sweeps never settled", pending)
		}
	}
	var blockers []string
	for i := 0; i < 2; i++ {
		st, err := m.Submit(longSpecSeed(longSeed.Add(1)))
		if err != nil {
			t.Fatal(err)
		}
		waitRunning(t, m, st.ID)
		blockers = append(blockers, st.ID)
	}
	wide := SweepSpec{Defaults: quickSpec(0)}
	for i := uint64(0); i < 64; i++ {
		wide.Seeds = append(wide.Seeds, 8100+i)
	}
	st, err := m.SubmitSweep(wide)
	if err != nil {
		t.Fatal(err)
	}
	sweepIDs = append(sweepIDs, st.ID)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain(t, m)
		}()
	}
	for !m.Draining() {
		runtime.Gosched()
	}
	if _, err := m.Submit(quickSpec(8000)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after Drain began: %v", err)
	}
	for _, id := range blockers {
		m.Cancel(id)
	}
	wg.Wait()
	check("drained")

	m.mu.Lock()
	ran, ranKeys := 0, map[string]bool{}
	for _, j := range m.jobs {
		if !j.state.Terminal() {
			t.Errorf("job %s is %s after Drain", j.id, j.state)
		}
		select {
		case <-j.done:
		default:
			t.Errorf("job %s (%s): done still open after Drain", j.id, j.state)
		}
		// A single-node job that started simulated; nothing else did.
		if !j.started.IsZero() {
			ran++
			ranKeys[j.key] = true
		}
	}
	retained := map[string]bool{}
	for _, id := range m.terminal {
		if retained[id] {
			t.Errorf("job %s reached a terminal state twice", id)
		}
		retained[id] = true
	}
	for _, id := range jobIDs {
		if !retained[id] {
			t.Errorf("accepted job %s never reached a terminal state", id)
		}
	}
	if len(m.terminal) != len(m.jobs) {
		t.Errorf("%d terminal transitions for %d jobs", len(m.terminal), len(m.jobs))
	}
	for _, id := range sweepIDs {
		if s := m.sweeps[id]; len(s.settled) != len(s.jobs) || s.finished.IsZero() {
			t.Errorf("sweep %s: %d events for %d members after Drain", id, len(s.settled), len(s.jobs))
		}
	}
	if q, r := m.queued, m.running; q != 0 || r != 0 || len(m.inflight) != 0 {
		t.Errorf("after Drain: %d queued, %d running, %d keys in flight", q, r, len(m.inflight))
	}
	jobs := len(m.jobs)
	m.mu.Unlock()

	c := m.Registry().Counters()
	if sims := c[MetricSimulations]; sims != uint64(ran) || ran != len(ranKeys) {
		t.Errorf("serve.simulations = %d, %d jobs ran, over %d distinct keys; want all equal", sims, ran, len(ranKeys))
	}
	if sub, ended := c[MetricJobsSubmitted], c[MetricJobsCompleted]+c[MetricJobsFailed]+c[MetricJobsCancelled]; sub != ended || sub != uint64(jobs) {
		t.Errorf("%d submitted, %d completed + failed + cancelled, %d jobs", sub, ended, jobs)
	}
	if c[MetricJobsCompleted] == 0 || c[MetricJobsFailed] < 64-8 || c[MetricJobsCancelled] == 0 ||
		c[MetricDedupInflight] == 0 || c[MetricCacheHits] == 0 || ran <= 2 {
		t.Errorf("vacuous mix: %v", c)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Drain, %d before New", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// sseRecorder is a ResponseWriter a test may read while the handler is
// still writing to it.
type sseRecorder struct {
	mu  sync.Mutex
	hdr http.Header
	buf bytes.Buffer
}

func (r *sseRecorder) Header() http.Header { return r.hdr }
func (r *sseRecorder) WriteHeader(int)     {}
func (r *sseRecorder) Flush()              {}
func (r *sseRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Write(p)
}
func (r *sseRecorder) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.String()
}

// A sweep's event stream ends with exactly one terminal frame however it
// ends — finished, evicted from retention while open, evicted in the
// same critical section that finished it — and with none when it is the
// client that went away. The streamed sweep has one member answered from
// the cache (its result frame proves the stream is live) and one queued
// behind a job that occupies the only worker, so the test decides when
// and how the sweep ends.
func TestSweepStreamTerminatesOnce(t *testing.T) {
	for _, tc := range []struct {
		name        string
		end         func(m *Manager, s *sweepJob, hangUp context.CancelFunc)
		done, error int
	}{
		{"done", func(m *Manager, s *sweepJob, _ context.CancelFunc) {
			m.Cancel(s.jobs[1].id)
		}, 1, 0},
		{"evicted mid-stream", func(m *Manager, s *sweepJob, _ context.CancelFunc) {
			m.mu.Lock()
			delete(m.sweeps, s.id)
			m.mu.Unlock()
			m.Cancel(s.jobs[1].id)
		}, 0, 1},
		{"evicted at finish", func(m *Manager, s *sweepJob, _ context.CancelFunc) {
			m.mu.Lock()
			m.cancelLocked(s.jobs[1])
			delete(m.sweeps, s.id)
			m.mu.Unlock()
		}, 0, 1},
		{"client gone", func(m *Manager, s *sweepJob, hangUp context.CancelFunc) {
			hangUp()
		}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(Options{Workers: 1, QueueDepth: 4})
			defer drain(t, m)
			warm, err := m.Submit(quickSpec(9400))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, m, warm.ID, StateDone)
			blocker, err := m.Submit(longSpecSeed(9401))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Cancel(blocker.ID)
			waitRunning(t, m, blocker.ID)
			st, err := m.SubmitSweep(SweepSpec{Configs: []ggpdes.Config{quickSpec(9400).Config, longSpecSeed(9402).Config}})
			if err != nil {
				t.Fatal(err)
			}
			m.mu.Lock()
			s := m.sweeps[st.ID]
			m.mu.Unlock()

			ctx, hangUp := context.WithCancel(context.Background())
			defer hangUp()
			req := httptest.NewRequest(http.MethodGet, "/v2/sweeps/"+st.ID+"/events", nil).WithContext(ctx)
			rec := &sseRecorder{hdr: http.Header{}}
			ended := make(chan struct{})
			go func() {
				defer close(ended)
				m.Handler().ServeHTTP(rec, req)
			}()
			deadline := time.Now().Add(30 * time.Second)
			for queued := false; !queued || !strings.Contains(rec.String(), "event: result\n"); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("stream never went live: %q", rec.String())
				}
				sw, _ := m.GetSweep(st.ID)
				queued = sw.Members[1].ID != ""
			}
			tc.end(m, s, hangUp)
			select {
			case <-ended:
			case <-time.After(30 * time.Second):
				t.Fatal("the stream did not end")
			}
			m.Cancel(s.jobs[1].id) // "client gone" leaves it queued

			body := rec.String()
			if done, errs := strings.Count(body, "event: done\n"), strings.Count(body, "event: error\n"); done != tc.done || errs != tc.error {
				t.Fatalf("%d done and %d error frames, want %d and %d:\n%s", done, errs, tc.done, tc.error, body)
			}
			if results := strings.Count(body, "event: result\n"); results != 1+tc.done {
				t.Fatalf("%d result frames, want %d:\n%s", results, 1+tc.done, body)
			}
		})
	}
}
