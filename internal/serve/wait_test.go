package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ggpdes/internal/serve/client"
)

// midSpec runs for a tenth of a second or so: long enough that a wait
// begun right after submission finds it running.
func midSpec(seed uint64) JobSpec {
	s := quickSpec(seed)
	s.Config.EndTime = 20000
	return s
}

// statusAnswer is one status request's outcome, taken off the test
// goroutine.
type statusAnswer struct {
	code int
	job  JobMeta
	at   time.Time
	err  error
}

// getStatus issues GET url and decodes the job payload; it may run on
// any goroutine.
func getStatus(ctx context.Context, url string) statusAnswer {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return statusAnswer{err: err}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return statusAnswer{err: err}
	}
	defer resp.Body.Close()
	var b jobBody
	err = json.NewDecoder(resp.Body).Decode(&b)
	return statusAnswer{code: resp.StatusCode, job: b.Job, at: time.Now(), err: err}
}

// A status wait on a running job is answered when the job ends, not
// some poll interval later: here the job is cancelled while the request
// is held, and the answer is its terminal meta within a few ms of the
// job's own finish time.
func TestStatusWaitReturnsAtJobEnd(t *testing.T) {
	m, srv := startServer(t, Options{Workers: 1})
	_, st := postJob(t, srv, longSpec())
	defer m.Cancel(st.ID)
	waitRunning(t, m, st.ID)

	answer := make(chan statusAnswer, 1)
	go func() { answer <- getStatus(context.Background(), srv.URL+"/v2/jobs/"+st.ID+"?wait=30") }()
	select {
	case a := <-answer:
		t.Fatalf("answered while the job ran: %+v", a)
	case <-time.After(100 * time.Millisecond):
	}
	m.Cancel(st.ID)
	var a statusAnswer
	select {
	case a = <-answer:
	case <-time.After(10 * time.Second):
		t.Fatal("the held request outlived its job")
	}
	if a.err != nil || a.code != http.StatusOK || a.job.State != StateCancelled {
		t.Fatalf("answer %+v, want 200 with the cancelled meta", a)
	}
	if lag := a.at.Sub(a.job.FinishedAt); lag > 50*time.Millisecond {
		t.Fatalf("answered %s after the job finished", lag)
	}
}

// A bounded wait on a job that outlives it answers the job's
// non-terminal meta at the bound; a wait on a job already terminal
// answers at once.
func TestStatusWaitBounds(t *testing.T) {
	m, srv := startServer(t, Options{Workers: 1, QueueDepth: 2})
	_, done := postJob(t, srv, quickSpec(6100))
	waitState(t, m, done.ID, StateDone)
	start := time.Now()
	a := getStatus(context.Background(), srv.URL+"/v2/jobs/"+done.ID+"?wait=30")
	if a.err != nil || a.code != http.StatusOK || a.job.State != StateDone {
		t.Fatalf("terminal job: %+v", a)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("a terminal job's wait took %s", d)
	}

	_, long := postJob(t, srv, longSpec())
	defer m.Cancel(long.ID)
	waitRunning(t, m, long.ID)
	start = time.Now()
	a = getStatus(context.Background(), srv.URL+"/v2/jobs/"+long.ID+"?wait=0.2")
	d := time.Since(start)
	if a.err != nil || a.code != http.StatusOK || a.job.State != StateRunning {
		t.Fatalf("bounded wait: %+v", a)
	}
	if d < 200*time.Millisecond || d > 5*time.Second {
		t.Fatalf("a 0.2 s wait answered after %s", d)
	}
}

// requestGoroutines counts the goroutines a request could leave behind:
// every goroutine but the simulated-machine threads, which are
// coroutines (iter.Pull) a running job starts and stops on its own
// schedule — its machine may not have started them yet when the job
// turns running.
func requestGoroutines() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "\ncreated by iter.Pull") {
			n++
		}
	}
	return n
}

// A client hanging up ends the held handler, and nothing it started
// outlives it.
func TestStatusWaitClientHangUp(t *testing.T) {
	m := New(Options{Workers: 1})
	defer drain(t, m)
	st, err := m.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Cancel(st.ID)
	waitRunning(t, m, st.ID)
	baseline := requestGoroutines()

	ctx, hangUp := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v2/jobs/"+st.ID+"?wait=30", nil).WithContext(ctx)
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		m.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	select {
	case <-ended:
		t.Fatal("the handler answered while the job ran")
	case <-time.After(100 * time.Millisecond):
	}
	hangUp()
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler outlived its client")
	}
	deadline := time.Now().Add(5 * time.Second)
	for requestGoroutines() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the hang-up, %d before the request", requestGoroutines(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// A wait that does not parse, or is negative, is a typed 400.
func TestStatusWaitMalformed(t *testing.T) {
	m, srv := startServer(t, Options{Workers: 1})
	st, err := m.Submit(quickSpec(6200))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"soon", "-1", "NaN", "1s"} {
		var b wireBody
		if code := getJSON(t, srv.URL+"/v2/jobs/"+st.ID+"?wait="+q, &b); code != http.StatusBadRequest ||
			b.Error == nil || b.Error.Code != CodeInvalidConfig {
			t.Errorf("wait=%s: status %d envelope %+v, want 400 invalid_config", q, code, b.Error)
		}
	}
}

// countStatus mounts m behind a handler counting the status requests of
// one job, and lets strip rewrite each one first.
func countStatus(t *testing.T, m *Manager, strip bool) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var n atomic.Int64
	h := m.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v2/jobs/") && strings.Count(r.URL.Path, "/") == 3 {
			n.Add(1)
			if strip {
				// An older server: it knows no ?wait= and answers at once.
				r.URL.RawQuery = ""
			}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &n
}

// client.Wait asks once for a job that ends inside the server's wait
// bound — whatever Poll says — and against a server that ignores
// ?wait= it polls at Poll, never faster.
func TestClientWaitRequests(t *testing.T) {
	m := New(Options{Workers: 1, QueueDepth: 4})
	t.Cleanup(func() { drain(t, m) })
	ctx := v2ctx(t)

	srv, n := countStatus(t, m, false)
	c := client.New(srv.URL, nil)
	c.Poll = time.Millisecond
	meta, err := c.Submit(ctx, clientSpec(midSpec(6300)))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Terminal() {
		t.Fatalf("the job was over before the wait: %+v", meta)
	}
	final, err := c.Wait(ctx, meta.ID)
	if err != nil || final.State != "done" {
		t.Fatalf("wait: %+v, %v", final, err)
	}
	if got := n.Load(); got != 1 {
		t.Fatalf("%d status requests for one job, want 1", got)
	}

	old, n := countStatus(t, m, true)
	c = client.New(old.URL, nil)
	c.Poll = 20 * time.Millisecond
	spec := clientSpec(longSpec())
	spec.Config.Seed = 6301
	spec.TimeoutSeconds = 0.3
	meta, err = c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	final, err = c.Wait(ctx, meta.ID)
	elapsed := time.Since(start)
	if err != nil || final.State != "failed" {
		t.Fatalf("wait: %+v, %v", final, err)
	}
	if got, most := n.Load(), int64(elapsed/c.Poll)+2; got < 3 || got > most {
		t.Fatalf("%d status requests over %s at a %s poll, want 3 … %d", got, elapsed, c.Poll, most)
	}
}

// client.Wait on an unknown job fails at once, typed not_found.
func TestClientWaitUnknownJob(t *testing.T) {
	_, c := startV2(t, Options{Workers: 1})
	_, err := c.Wait(v2ctx(t), "job-missing")
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Code != CodeNotFound {
		t.Fatalf("wait on an unknown job: %v", err)
	}
}
