package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ggpdes"
	"ggpdes/internal/serve"
	"ggpdes/internal/telemetry"
)

// scrape renders a registry through the real OpenMetrics writer and
// the real strict parser — the same round trip a live ggtop makes.
func scrape(t *testing.T, reg *telemetry.Registry) *exposition {
	t.Helper()
	var b strings.Builder
	if err := telemetry.WriteOpenMetrics(&b, reg.Export()); err != nil {
		t.Fatal(err)
	}
	exp, err := parseOpenMetrics(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// An unclustered replica never registers cluster.* counters, so the
// fleet line must not render.
func TestRenderServiceSkipsFleetWithoutCluster(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("serve.jobs_submitted").Inc()
	var b strings.Builder
	renderService(&b, scrape(t, reg))
	if strings.Contains(b.String(), "fleet") {
		t.Errorf("fleet line rendered without clustering:\n%s", b.String())
	}
}

// A clustered replica's registry carries the cluster.* counters (all
// registered together by cluster.New), and the fleet line renders the
// dedup ledger.
func TestRenderServiceFleetLine(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Gauge("cluster.peers.connected").Set(2)
	reg.Counter("cluster.fills").Add(12)
	reg.Counter("cluster.fills_served").Add(7)
	reg.Counter("cluster.delegated").Add(5)
	reg.Counter("cluster.remote_jobs").Add(9)
	reg.Counter("cluster.failovers").Add(1)
	reg.Counter("cluster.spills").Add(3)
	reg.Counter("serve.simulations").Add(40)
	reg.Counter("serve.dedup_inflight").Add(6)
	reg.Counter("serve.resumes").Add(1)
	var b strings.Builder
	renderService(&b, scrape(t, reg))
	out := b.String()
	for _, want := range []string{
		"fleet   peers up 2", "sims 40", "dedup(inflight) 6", "resumes 1",
		"fills 12", "served 7", "delegated 5", "remote 9", "failovers 1", "spills 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet line missing %q:\n%s", want, out)
		}
	}
}

// The job pane end to end: one PHOLD job on a real Manager mounted the
// way ggserved mounts it, then render must show that job's GVT,
// rollback and horizon lines — and name the job it cannot find.
func TestRenderFollowsJob(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	mgr := serve.New(serve.Options{Workers: 1})
	mux := http.NewServeMux()
	mux.Handle("/v2/", mgr.Handler())
	mux.Handle("/metrics", mgr.MetricsHandler())
	srv := httptest.NewServer(mux)
	defer func() {
		srv.Close()
		if err := mgr.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	st, err := mgr.Submit(serve.JobSpec{Config: ggpdes.Config{
		Model:   ggpdes.PHOLD{LPsPerThread: 2},
		Threads: 2,
		System:  ggpdes.GGPDES,
		GVT:     ggpdes.WaitFree,
		Machine: ggpdes.Machine{Cores: 4, SMTWidth: 2},
		EndTime: 10,
		Seed:    1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := mgr.Wait(ctx, st.ID); err != nil || final.State != serve.StateDone {
		t.Fatalf("job finished %+v, %v", final, err)
	}

	frame, err := render(ctx, srv.Client(), srv.URL, st.ID, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"job " + st.ID + "  state=done", "gvt=", "rollbacks / round", "horizon width"} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}

	if _, err := render(ctx, srv.Client(), srv.URL, "job-missing", 40); err == nil || !strings.Contains(err.Error(), "job-missing") {
		t.Errorf("unknown job: error %v, want one naming job-missing", err)
	}
}
