package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ggpdes"
	"ggpdes/internal/serve/client"
	"ggpdes/internal/serve/cluster"
	"ggpdes/internal/telemetry"
)

// startV2 boots one server and a typed client against it. New /v2
// coverage goes through the client: the round trip is the compile-
// and run-time proof the client and server wire shapes agree.
func startV2(t *testing.T, opts Options) (*Manager, *client.Client) {
	t.Helper()
	m, srv := startServer(t, opts)
	return m, client.New(srv.URL, nil)
}

func v2ctx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// clientSpec converts a server-side test spec to the client shape.
func clientSpec(spec JobSpec) client.JobSpec {
	return client.JobSpec{
		Config:          spec.Config,
		TimeoutSeconds:  spec.TimeoutSeconds,
		NoCache:         spec.NoCache,
		CheckpointEvery: spec.CheckpointEvery,
	}
}

// The full happy path through the typed client: submit, wait, result,
// series, cached resubmit, version, stats.
func TestV2ClientRoundTrip(t *testing.T) {
	_, c := startV2(t, Options{Workers: 2, QueueDepth: 4, SeriesLimit: 64})
	ctx := v2ctx(t)

	meta, err := c.Submit(ctx, clientSpec(quickSpec(4600)))
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID == "" || meta.Key == "" {
		t.Fatalf("submit meta: %+v", meta)
	}
	final, err := c.Wait(ctx, meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.QueueSeconds < 0 {
		t.Fatalf("final meta: %+v", final)
	}

	rmeta, res, err := c.Result(ctx, meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rmeta.ID != meta.ID || res == nil || res.CommittedEvents == 0 {
		t.Fatalf("result: meta %+v res %+v", rmeta, res)
	}

	_, pts, total, err := c.Series(ctx, meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || len(pts) == 0 {
		t.Fatalf("series empty: total %d, %d points", total, len(pts))
	}

	again, err := c.Submit(ctx, clientSpec(quickSpec(4600)))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Source != "cache" || again.State != "done" {
		t.Fatalf("resubmit not a typed cache hit: %+v", again)
	}

	ver, err := c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ver.API != "v2" || ver.APIRevision != apiRevision {
		t.Fatalf("version: %+v", ver)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters[MetricSimulations] != 1 || stats.Counters[MetricCacheHits] != 1 {
		t.Fatalf("stats counters: %v", stats.Counters)
	}
}

// Every /v2 failure arrives as *client.Error carrying the envelope's
// code, message, and retryability.
func TestV2ErrorEnvelope(t *testing.T) {
	_, c := startV2(t, Options{Workers: 1, QueueDepth: 2})
	ctx := v2ctx(t)

	check := func(err error, code string, status int, retryable bool) *client.Error {
		t.Helper()
		var ce *client.Error
		if !errors.As(err, &ce) {
			t.Fatalf("error %v is not a *client.Error", err)
		}
		if ce.Code != code || ce.HTTPStatus != status || ce.Retryable != retryable {
			t.Fatalf("envelope %+v, want code %s status %d retryable %t", ce, code, status, retryable)
		}
		return ce
	}

	// Invalid config → 400 invalid_config.
	bad := clientSpec(quickSpec(1))
	bad.Config.Threads = -1
	_, err := c.Submit(ctx, bad)
	check(err, CodeInvalidConfig, http.StatusBadRequest, false)

	// Unknown job → 404 not_found, on every job endpoint.
	_, err = c.Status(ctx, "job-missing")
	check(err, CodeNotFound, http.StatusNotFound, false)
	_, _, err = c.Result(ctx, "job-missing")
	check(err, CodeNotFound, http.StatusNotFound, false)
	_, err = c.Cancel(ctx, "job-missing")
	check(err, CodeNotFound, http.StatusNotFound, false)
	_, err = c.GetSweep(ctx, "sweep-missing")
	check(err, CodeNotFound, http.StatusNotFound, false)

	// A sweep with no members → 400 invalid_config.
	_, err = c.Sweep(ctx, client.SweepSpec{Defaults: clientSpec(quickSpec(1))})
	check(err, CodeInvalidConfig, http.StatusBadRequest, false)

	// A cancelled job's result → 409 cancelled, with the job meta
	// alongside the envelope.
	long := clientSpec(longSpec())
	long.NoCache = true
	meta, err := c.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, meta.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "cancelled" || final.Error == nil || final.Error.Code != CodeCancelled {
		t.Fatalf("cancelled meta: %+v", final)
	}
	_, _, err = c.Result(ctx, meta.ID)
	check(err, CodeCancelled, http.StatusConflict, false)
}

// A full queue answers 429 with a Retry-After derived from queue
// occupancy — deterministic, not wall-clock — and the queue_full
// envelope marks it retryable.
func TestV2QueueFullRetryAfter(t *testing.T) {
	m, c := startV2(t, Options{Workers: 1, QueueDepth: 3})
	ctx := v2ctx(t)

	// One running plus a full queue: all distinct NoCache long jobs so
	// nothing coalesces.
	var ids []string
	for i := 0; i < 4; i++ {
		spec := clientSpec(longSpec())
		spec.Config.Seed = uint64(4700 + i)
		spec.NoCache = true
		meta, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, meta.ID)
	}
	waitRunning(t, m, ids[0])

	spec := clientSpec(longSpec())
	spec.Config.Seed = 4799
	spec.NoCache = true
	_, err := c.Submit(ctx, spec)
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Code != CodeQueueFull || !ce.Retryable {
		t.Fatalf("full queue error: %v", err)
	}
	// 3 queued jobs, 1 worker → exactly ceil(3/1) = 3 seconds, every
	// time.
	if ce.RetryAfterSeconds != 3 {
		t.Fatalf("Retry-After %d, want 3", ce.RetryAfterSeconds)
	}
	for _, id := range ids {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRetryAfterSecondsTable(t *testing.T) {
	cases := []struct{ queue, workers, want int }{
		{0, 1, 1},
		{1, 1, 1},
		{3, 1, 3},
		{8, 4, 2},
		{9, 4, 3},
		{1000, 2, 60}, // capped
		{5, 0, 5},     // workers floored at 1
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.queue, tc.workers); got != tc.want {
			t.Errorf("retryAfterSeconds(%d, %d) = %d, want %d", tc.queue, tc.workers, got, tc.want)
		}
	}
}

// healthz reports queue occupancy, and — when clustered — the fleet:
// reachable peers keep status "ok", an unreachable peer degrades it
// without turning away traffic (200).
func TestV2HealthzCluster(t *testing.T) {
	ctx := v2ctx(t)

	// Single node: no cluster block at all.
	_, c := startV2(t, Options{Workers: 2, QueueDepth: 4})
	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 2 || h.QueueDepth != 4 || h.ClusterSize != 0 || len(h.Peers) != 0 {
		t.Fatalf("single-node health: %+v", h)
	}
	if h.QueueFree != 4 {
		t.Fatalf("idle queue reports %d free of %d", h.QueueFree, h.QueueDepth)
	}

	// Clustered with a dead peer: degraded, still 200, peer error named.
	reg := telemetry.NewRegistry()
	clu := cluster.New(cluster.Options{
		Self:        "127.0.0.1:1",
		Peers:       []string{"127.0.0.1:2"}, // reserved port, nothing listens
		Registry:    reg,
		PingTimeout: 100 * time.Millisecond,
	})
	m := New(Options{Workers: 1, Registry: reg, Cluster: clu})
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(func() { srv.Close(); drain(t, m) })
	dc := client.New(srv.URL, nil)

	h, err = dc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.ClusterSize != 2 || len(h.Peers) != 1 {
		t.Fatalf("degraded health: %+v", h)
	}
	if h.Peers[0].OK || h.Peers[0].Error == "" {
		t.Fatalf("dead peer reported healthy: %+v", h.Peers[0])
	}

	// Draining is the one state that flips healthz to 503.
	drain(t, m)
	resp, err := http.Get(srv.URL + "/v2/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
}

// API revision 5 removed the v1 routes: each former method+path pair is
// an ordinary mux 404 now, with no shim behind it.
func TestFormerV1Routes404(t *testing.T) {
	_, srv := startServer(t, Options{Workers: 1})

	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/v1/jobs"},
		{http.MethodGet, "/v1/jobs/job-00000001"},
		{http.MethodGet, "/v1/jobs/job-00000001/result"},
		{http.MethodGet, "/v1/jobs/job-00000001/series"},
		{http.MethodDelete, "/v1/jobs/job-00000001"},
		{http.MethodGet, "/v1/version"},
		{http.MethodGet, "/v1/healthz"},
		{http.MethodGet, "/v1/stats"},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// Sweeps on a single node: members validated atomically, duplicates
// deduped locally, cancellation settles the rest.
func TestV2SweepSingleNode(t *testing.T) {
	_, c := startV2(t, Options{Workers: 2, QueueDepth: 16})
	ctx := v2ctx(t)

	// A sweep mixing seeds and config members.
	cfg := quickSpec(4801).Config
	cfg.Seed = 4802
	st, err := c.Sweep(ctx, client.SweepSpec{
		Defaults: clientSpec(quickSpec(0)),
		Seeds:    []uint64{4801, 4801},
		Configs:  []ggpdes.Config{cfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 3 {
		t.Fatalf("sweep total %d, want 3", st.Total)
	}
	final, err := c.SweepEvents(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Done != 3 {
		t.Fatalf("final sweep: %+v", final)
	}

	// The duplicated seed simulated once (cache or in-flight dedup).
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters[MetricSimulations] != 2 {
		t.Fatalf("%d simulations for 3 members (2 unique), want 2", stats.Counters[MetricSimulations])
	}

	// Cancelling a running sweep settles every member.
	long := client.SweepSpec{Defaults: clientSpec(longSpec()), Seeds: []uint64{4901, 4902, 4903}}
	long.Defaults.NoCache = true
	lst, err := c.Sweep(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelSweep(ctx, lst.ID); err != nil {
		t.Fatal(err)
	}
	lfinal, err := c.SweepEvents(ctx, lst.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lfinal.State != "cancelled" || lfinal.Cancelled == 0 {
		t.Fatalf("cancelled sweep: %+v", lfinal)
	}
}

// Cancelling a sweep while its fan-out is still blocked on a full
// queue must also settle the members submitted afterwards; they used
// to start after the cancel and run to their own end.
func TestCancelSweepDuringFanOut(t *testing.T) {
	m, _ := startServer(t, Options{Workers: 1, QueueDepth: 1})

	spec := SweepSpec{Defaults: longSpec(), Seeds: []uint64{9201, 9202, 9203, 9204}}
	spec.Defaults.NoCache = true
	st, err := m.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		sw, _ := m.GetSweep(st.ID)
		if sw.Members[0].State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("member 0 never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := m.CancelSweep(st.ID); !ok {
		t.Fatal("sweep unknown")
	}
	for {
		sw, _ := m.GetSweep(st.ID)
		if sw.State == StateCancelled && sw.Cancelled == 4 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never settled after cancel: %+v", sw)
		}
		time.Sleep(time.Millisecond)
	}
}

// A sweep evicted from retention while its SSE stream is open must end
// the stream with a terminal error event; the client surfaces it as a
// typed not_found *client.Error instead of the generic "stream ended
// without a done event".
func TestV2SweepEvictedMidStream(t *testing.T) {
	m, c := startV2(t, Options{Workers: 2, QueueDepth: 8})
	ctx := v2ctx(t)

	// Member 0 finishes fast (its event proves the stream is live);
	// member 1 runs until cancelled, holding the stream open.
	spec := client.SweepSpec{
		Defaults: client.JobSpec{Config: quickSpec(9100).Config},
		Configs:  []ggpdes.Config{quickSpec(9100).Config, longSpec().Config},
	}
	st, err := c.Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	gotEvent := make(chan struct{}, 1)
	streamDone := make(chan struct{})
	var streamErr error
	go func() {
		defer close(streamDone)
		_, streamErr = c.SweepEvents(ctx, st.ID, func(ev client.SweepEvent) error {
			select {
			case gotEvent <- struct{}{}:
			default:
			}
			return nil
		})
	}()
	<-gotEvent

	// The fan-out submits members in order, so member 1 may not have a
	// job ID the instant member 0's event lands.
	var memberID string
	deadline := time.Now().Add(30 * time.Second)
	for memberID == "" {
		sw, ok := m.GetSweep(st.ID)
		if !ok {
			t.Fatal("sweep disappeared before eviction")
		}
		memberID = sw.Members[1].ID
		if time.Now().After(deadline) {
			t.Fatal("member 1 was never submitted")
		}
		time.Sleep(time.Millisecond)
	}

	// Evict the sweep out from under the open stream, then settle the
	// remaining member so the stream wakes and notices.
	m.mu.Lock()
	delete(m.sweeps, st.ID)
	m.mu.Unlock()
	if _, ok := m.Cancel(memberID); !ok {
		t.Fatal("cancelling the long member failed")
	}

	<-streamDone
	var ce *client.Error
	if !errors.As(streamErr, &ce) || ce.Code != "not_found" {
		t.Fatalf("stream ended with %v, want a typed not_found error", streamErr)
	}
}
