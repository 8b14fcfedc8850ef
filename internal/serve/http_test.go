package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ggpdes"
)

func startServer(t *testing.T, opts Options) (*Manager, *httptest.Server) {
	t.Helper()
	m := New(opts)
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		srv.Close()
		drain(t, m)
	})
	return m, srv
}

// wireBody is whichever of the job payload or the error envelope a
// POST answered with.
type wireBody struct {
	Job   JobMeta    `json:"job"`
	Error *ErrorInfo `json:"error"`
}

func post(t *testing.T, url string, body io.Reader) (*http.Response, wireBody) {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b wireBody
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatalf("POST %s: status %d with an undecodable body: %v", url, resp.StatusCode, err)
	}
	if (resp.StatusCode >= 300) != (b.Error != nil) {
		t.Fatalf("POST %s: status %d, error envelope %+v", url, resp.StatusCode, b.Error)
	}
	return resp, b
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postJob(t *testing.T, srv *httptest.Server, spec JobSpec) (*http.Response, JobMeta) {
	t.Helper()
	resp, b := post(t, srv.URL+"/v2/jobs", bytes.NewReader(mustJSON(t, spec)))
	return resp, b.Job
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// The happy path over the wire: submit → 202, poll → done, result →
// 200 with payload, resubmit → 200 cache hit.
func TestHTTPSubmitPollResult(t *testing.T) {
	_, srv := startServer(t, Options{Workers: 2, QueueDepth: 4})

	resp, st := postJob(t, srv, quickSpec(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.State != StateQueued && st.State != StateRunning && st.State != StateDone {
		t.Fatalf("submit body: %+v", st)
	}

	deadline := time.Now().Add(60 * time.Second)
	var polled JobMeta
	for {
		var body jobBody
		if code := getJSON(t, srv.URL+"/v2/jobs/"+st.ID, &body); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		polled = body.Job
		if polled.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", polled.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if polled.State != StateDone {
		t.Fatalf("job finished %s (%+v)", polled.State, polled.Error)
	}

	var result struct {
		Job     JobMeta `json:"job"`
		Results struct {
			CommittedEvents uint64
		} `json:"results"`
	}
	if code := getJSON(t, srv.URL+"/v2/jobs/"+st.ID+"/result", &result); code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if result.Job.ID != st.ID || result.Results.CommittedEvents == 0 {
		t.Fatalf("result payload: job %+v, %d committed events", result.Job, result.Results.CommittedEvents)
	}

	resp2, st2 := postJob(t, srv, quickSpec(1))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cache-hit submit status %d, want 200", resp2.StatusCode)
	}
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("cache-hit body: %+v", st2)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := startServer(t, Options{Workers: 1})

	invalid := quickSpec(1)
	invalid.Config.EndTime = 0
	for _, tc := range []struct{ name, body string }{
		{"malformed JSON", "{not json"},
		// A revision-1 flat spec is an unknown-field error now — the
		// config lives under "config".
		{"revision-1 spec", `{"model":"phold","threads":2,"end_time":10}`},
		{"invalid spec", string(mustJSON(t, invalid))},
		// Retired options fail typed rather than run, and are cached as,
		// a different simulation.
		{"lazy_cancellation", `{"config":{"model":{"name":"phold"},"threads":2,"end_time":10,"lazy_cancellation":true}}`},
		{"adaptive_gvt", `{"config":{"model":{"name":"phold"},"threads":2,"end_time":10,"adaptive_gvt":{"min_frequency":4,"max_frequency":64}}}`},
		{"chaos.drop_send_rate", `{"config":{"model":{"name":"phold"},"threads":2,"end_time":10,"chaos":{"drop_send_rate":0.01}}}`},
		{"state_saving", `{"config":{"model":{"name":"phold"},"threads":2,"end_time":10,"state_saving":"reverse"}}`},
		{"queue heap", `{"config":{"model":{"name":"phold"},"threads":2,"end_time":10,"queue":"heap"}}`},
		{"queue calendar", `{"config":{"model":{"name":"phold"},"threads":2,"end_time":10,"queue":"calendar"}}`},
		{"machine.numa_nodes", `{"config":{"model":{"name":"phold"},"threads":2,"end_time":10,"machine":{"numa_nodes":4}}}`},
		// DD-PDES's controller thread takes a core of its own.
		{"dd-pdes on 1 core", `{"config":{"model":{"name":"phold"},"threads":2,"end_time":10,"system":"dd-pdes","machine":{"cores":1}}}`},
		// A stall rate of 1 would stall every iteration until the deadline.
		{"chaos.stall_rate 1", `{"config":{"model":{"name":"phold"},"threads":2,"end_time":10,"chaos":{"stall_rate":1}}}`},
		// A probability above 1 is no probability.
		{"model.transmission_prob 2", `{"config":{"model":{"name":"epidemics","lps_per_thread":4,"transmission_prob":2},"threads":4,"end_time":10}}`},
	} {
		resp, b := post(t, srv.URL+"/v2/jobs", strings.NewReader(tc.body))
		if resp.StatusCode != http.StatusBadRequest || b.Error.Code != CodeInvalidConfig {
			t.Fatalf("%s: status %d envelope %+v, want 400 invalid_config", tc.name, resp.StatusCode, b.Error)
		}
	}

	// The one injected fault that survives is admitted.
	stall := quickSpec(1)
	stall.Config.Chaos = &ggpdes.ChaosOptions{StallRate: 0.1}
	if resp, st := postJob(t, srv, stall); resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("stall-only spec: status %d, job %+v", resp.StatusCode, st)
	}

	for _, url := range []string{"/v2/jobs/job-nope", "/v2/jobs/job-nope/result"} {
		if code := getJSON(t, srv.URL+url, nil); code != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", url, code)
		}
	}
}

// Every POST endpoint reads its body through the one bounded decoder:
// a body over maxBodyBytes (here a valid spec behind that much leading
// whitespace) and anything after the first JSON value are both 400
// invalid_config, and neither admits a job.
func TestHTTPBodyLimits(t *testing.T) {
	m, srv := startServer(t, Options{Workers: 1, QueueDepth: 4})

	job := mustJSON(t, quickSpec(1))
	sweep := mustJSON(t, SweepSpec{Defaults: quickSpec(1), Seeds: []uint64{1, 2}})
	pad := strings.Repeat(" ", maxBodyBytes)
	for _, ep := range []struct {
		path  string
		valid []byte
	}{
		{"/v2/jobs", job},
		{"/v2/sweeps", sweep},
		{"/v2/cluster/jobs", job},
	} {
		for _, tc := range []struct {
			name string
			body io.Reader
		}{
			{"oversized", io.MultiReader(strings.NewReader(pad), bytes.NewReader(ep.valid))},
			{"trailing value", io.MultiReader(bytes.NewReader(ep.valid), strings.NewReader(` {"second":"value"} garbage`))},
		} {
			resp, b := post(t, srv.URL+ep.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest || b.Error.Code != CodeInvalidConfig {
				t.Errorf("%s %s: status %d envelope %+v, want 400 invalid_config", ep.path, tc.name, resp.StatusCode, b.Error)
			}
		}
	}
	if n := m.Registry().Counters()[MetricJobsSubmitted]; n != 0 {
		t.Errorf("%d jobs admitted from rejected bodies", n)
	}
}

// Past the admission bound the API answers 429 with a Retry-After hint
// rather than hanging the client.
func TestHTTPQueueFull429(t *testing.T) {
	m, srv := startServer(t, Options{Workers: 1, QueueDepth: 1})

	_, running := postJob(t, srv, longSpec())
	waitRunning(t, m, running.ID)
	queuedSpec := longSpec()
	queuedSpec.Config.Seed = 2
	_, queued := postJob(t, srv, queuedSpec)

	overflow := longSpec()
	overflow.Config.Seed = 3
	resp, _ := postJob(t, srv, overflow)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v2/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: status %d", id, resp.StatusCode)
		}
	}
	waitState(t, m, running.ID, StateCancelled)
	waitState(t, m, queued.ID, StateCancelled)

	// A cancelled job's result endpoint reports the conflict.
	if code := getJSON(t, srv.URL+"/v2/jobs/"+running.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("cancelled result status %d, want 409", code)
	}
}

func TestHTTPHealthzAndStats(t *testing.T) {
	m, srv := startServer(t, Options{Workers: 2, QueueDepth: 4})

	var health Health
	if code := getJSON(t, srv.URL+"/v2/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health.Status != "ok" || health.Workers != 2 || health.QueueDepth != 4 {
		t.Fatalf("healthz body: %+v", health)
	}

	_, st := postJob(t, srv, quickSpec(1))
	waitState(t, m, st.ID, StateDone)

	var stats statsBody
	if code := getJSON(t, srv.URL+"/v2/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Counters["serve.jobs_completed"] != 1 {
		t.Fatalf("stats counters: %v", stats.Counters)
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v2/stats", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "serve.jobs_completed") {
		t.Fatal("text stats missing serve.jobs_completed")
	}
}

// After Drain begins, submissions get 503 and healthz flips to
// draining so load balancers stop routing here.
func TestHTTPDraining503(t *testing.T) {
	m := New(Options{Workers: 1, QueueDepth: 1})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	drain(t, m)
	resp, b := post(t, srv.URL+"/v2/jobs", bytes.NewReader(mustJSON(t, quickSpec(1))))
	if resp.StatusCode != http.StatusServiceUnavailable || b.Error.Code != CodeDraining || !b.Error.Retryable {
		t.Fatalf("draining submit: status %d envelope %+v, want 503 draining retryable", resp.StatusCode, b.Error)
	}
	var health Health
	if code := getJSON(t, srv.URL+"/v2/healthz", &health); code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", code)
	}
	if health.Status != "draining" {
		t.Fatalf("draining healthz body: %+v", health)
	}
}

// The result endpoint reports 202 for a job still in flight.
func TestHTTPResultInFlight(t *testing.T) {
	m, srv := startServer(t, Options{Workers: 1, QueueDepth: 1})

	_, st := postJob(t, srv, longSpec())
	waitRunning(t, m, st.ID)
	if code := getJSON(t, srv.URL+"/v2/jobs/"+st.ID+"/result", nil); code != http.StatusAccepted {
		t.Fatalf("in-flight result status %d, want 202", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v2/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, m, st.ID, StateCancelled)
}
