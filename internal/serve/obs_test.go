package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ggpdes/internal/telemetry"
)

// startObsServer mounts the full observability surface the way
// ggserved does: the /v2 API plus /metrics.
func startObsServer(t *testing.T, opts Options) (*Manager, *httptest.Server) {
	t.Helper()
	m := New(opts)
	mux := http.NewServeMux()
	mux.Handle("/v2/", m.Handler())
	mux.Handle("/metrics", m.MetricsHandler())
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		drain(t, m)
	})
	return m, srv
}

func scrape(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestMetricsEndpointExposition(t *testing.T) {
	m, srv := startObsServer(t, Options{Workers: 2})
	_, st := postJob(t, srv, quickSpec(1))
	waitState(t, m, st.ID, StateDone)

	body, ctype := scrape(t, srv.URL+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("content type %q", ctype)
	}
	// Serving plane and (imported) engine plane must both be present,
	// in OpenMetrics shape.
	for _, want := range []string{
		"# TYPE ggpdes_serve_jobs_completed counter",
		"ggpdes_serve_jobs_completed_total 1",
		"# TYPE ggpdes_serve_run_wall_ms histogram",
		"ggpdes_serve_run_wall_ms_bucket{le=\"+Inf\"} 1",
		"ggpdes_serve_run_wall_ms_sum",
		"ggpdes_serve_run_wall_ms_count 1",
		"ggpdes_tw_committed_events_total",
		"ggpdes_gvt_rounds_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	// Never-set gauges must be absent rather than zero.
	if strings.Contains(body, "ggpdes_tw_uncommitted_peak 0\n") {
		t.Fatal("unset gauge exposed as 0")
	}
}

func TestSeriesEndpoint(t *testing.T) {
	m, srv := startObsServer(t, Options{Workers: 1})
	_, st := postJob(t, srv, quickSpec(1))
	waitState(t, m, st.ID, StateDone)

	var body struct {
		Job    JobMeta                 `json:"job"`
		Total  int                     `json:"total_points"`
		Points []telemetry.SeriesPoint `json:"points"`
	}
	if code := getJSON(t, srv.URL+"/v2/jobs/"+st.ID+"/series", &body); code != http.StatusOK {
		t.Fatalf("series status %d", code)
	}
	if body.Job.ID != st.ID || body.Job.State != StateDone {
		t.Fatalf("series identity: %+v", body.Job)
	}
	if len(body.Points) == 0 || body.Total < len(body.Points) {
		t.Fatalf("series shape: %d points, total %d", len(body.Points), body.Total)
	}
	last := body.Points[len(body.Points)-1]
	if last.GVT < 10 || len(last.ThreadLVTs) != 2 {
		t.Fatalf("last point malformed: %+v", last)
	}

	if code := getJSON(t, srv.URL+"/v2/jobs/nope/series", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job series status %d, want 404", code)
	}

	// A cache-hit job (no run of its own) serves the cached run's series.
	_, st2 := postJob(t, srv, quickSpec(1))
	if !st2.Cached {
		t.Fatalf("resubmit was not a cache hit: %+v", st2)
	}
	if code := getJSON(t, srv.URL+"/v2/jobs/"+st2.ID+"/series", &body); code != http.StatusOK {
		t.Fatalf("cached series status %d", code)
	}
	if len(body.Points) == 0 {
		t.Fatal("cached job has no series")
	}
}

func TestSeriesDisabled(t *testing.T) {
	m, srv := startObsServer(t, Options{Workers: 1, SeriesLimit: -1})
	_, st := postJob(t, srv, quickSpec(1))
	waitState(t, m, st.ID, StateDone)
	pts, _, _, err := m.Series(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	// SeriesLimit < 0 disables the live ring; the recorded result also
	// has none because no SeriesOptions was attached.
	if len(pts) != 0 {
		t.Fatalf("series disabled but %d points recorded", len(pts))
	}
	if code := getJSON(t, srv.URL+"/v2/jobs/"+st.ID+"/series", nil); code != http.StatusOK {
		t.Fatalf("series status %d (disabled should still 200 with empty points)", code)
	}
}

// TestScrapeMidRun hammers /metrics and /v2/stats while 8 jobs record
// through shard handles — the contention pattern the sharded registry
// exists for. Run with -race it doubles as the data-race audit.
func TestScrapeMidRun(t *testing.T) {
	m, srv := startObsServer(t, Options{Workers: 4, QueueDepth: 16})

	specs := make([]JobMeta, 0, 8)
	for i := 0; i < 8; i++ {
		spec := quickSpec(uint64(i + 1))
		spec.Config.EndTime = 40
		_, st := postJob(t, srv, spec)
		specs = append(specs, st)
	}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if body, _ := scrape(t, srv.URL+"/metrics"); strings.Contains(body, "\x00") {
						t.Error("NUL in exposition")
					}
					_ = getJSON(t, srv.URL+"/v2/stats", nil)
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	for _, st := range specs {
		waitState(t, m, st.ID, StateDone)
	}
	close(stop)
	scrapers.Wait()

	body, _ := scrape(t, srv.URL+"/metrics")
	if !strings.Contains(body, "ggpdes_serve_jobs_completed_total 8") {
		t.Fatalf("expected 8 completions in final scrape:\n%s", body)
	}
}
