package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ggpdes"
	"ggpdes/internal/serve/client"
	"ggpdes/internal/telemetry"
)

// Results live in the cache and nowhere else, so CacheEntries is the one
// bound on them: with 4 entries and 12 distinct jobs the newest result
// is served, while the oldest job — its key long evicted — still answers
// its status and answers 410 result_evicted on its result and series.
func TestResultEvictedPastCacheBound(t *testing.T) {
	_, c := startV2(t, Options{Workers: 2, QueueDepth: 16, CacheEntries: 4})
	ctx := v2ctx(t)
	var ids []string
	for i := 0; i < 12; i++ {
		meta, err := c.Submit(ctx, clientSpec(quickSpec(uint64(6400+i))))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, meta.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, meta.ID)
	}
	if _, res, err := c.Result(ctx, ids[11]); err != nil || res == nil || res.CommittedEvents == 0 {
		t.Fatalf("newest result: %+v, %v", res, err)
	}
	if meta, err := c.Status(ctx, ids[0]); err != nil || meta.State != "done" {
		t.Fatalf("oldest status: %+v, %v", meta, err)
	}
	evicted := func(what string, err error) {
		t.Helper()
		var ce *client.Error
		if !errors.As(err, &ce) || ce.Code != CodeResultEvicted || ce.HTTPStatus != http.StatusGone || ce.Retryable {
			t.Fatalf("oldest %s: %v, want 410 result_evicted, not retryable", what, err)
		}
	}
	_, _, err := c.Result(ctx, ids[0])
	evicted("result", err)
	_, _, _, err = c.Series(ctx, ids[0])
	evicted("series", err)
}

// A sweep replayed after its members' results were evicted still ends
// normally: each member's event carries its meta, and no results.
func TestSweepReplayAfterEviction(t *testing.T) {
	_, c := startV2(t, Options{Workers: 2, QueueDepth: 16, CacheEntries: 2})
	ctx := v2ctx(t)
	st, err := c.Sweep(ctx, client.SweepSpec{Defaults: clientSpec(quickSpec(0)), Seeds: []uint64{6501, 6502}})
	if err != nil {
		t.Fatal(err)
	}
	stream := func() []client.SweepEvent {
		t.Helper()
		var evs []client.SweepEvent
		final, err := c.SweepEvents(ctx, st.ID, func(ev client.SweepEvent) error {
			evs = append(evs, ev)
			return nil
		})
		if err != nil || final.State != "done" || final.Done != 2 || len(evs) != 2 {
			t.Fatalf("stream: %+v with %d events, %v", final, len(evs), err)
		}
		return evs
	}
	for _, ev := range stream() {
		if ev.Results == nil {
			t.Fatalf("member %d streamed without results while cached", ev.Index)
		}
	}
	for i := uint64(0); i < 2; i++ {
		meta, err := c.Submit(ctx, clientSpec(quickSpec(6510+i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, meta.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range stream() {
		if ev.Job.State != "done" || ev.Job.ID == "" || ev.Results != nil {
			t.Fatalf("replayed member %d: %+v with results %t, want its done meta alone", ev.Index, ev.Job, ev.Results != nil)
		}
	}
}

// A done job keeps what is served and nothing else. Its series — and a
// cache hit's — is the run's recorded one, point for point a direct
// run's but for the wall-clock fields; the live ring is gone; and the
// cached copy carries no Metrics, which /metrics still counts exactly
// once.
func TestDoneJobKeepsWhatIsServed(t *testing.T) {
	m, c := startV2(t, Options{Workers: 1, QueueDepth: 4})
	ctx := v2ctx(t)
	spec := quickSpec(6600)
	meta, err := c.Submit(ctx, clientSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, meta.ID); err != nil {
		t.Fatal(err)
	}
	hit, err := c.Submit(ctx, clientSpec(spec))
	if err != nil || !hit.Cached {
		t.Fatalf("resubmit: %+v, %v", hit, err)
	}

	cfg := spec.Config
	cfg.Series = &ggpdes.SeriesOptions{}
	direct, err := ggpdes.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := hostFree(direct.Series)
	for _, id := range []string{meta.ID, hit.ID} {
		_, pts, total, err := c.Series(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || total != len(want) || !reflect.DeepEqual(hostFree(pts), want) {
			t.Fatalf("job %s: %d points (total %d), want the direct run's %d", id, len(pts), total, len(want))
		}
	}

	m.mu.Lock()
	ring := m.jobs[meta.ID].series
	m.mu.Unlock()
	if ring != nil {
		t.Error("the done job kept its live series ring")
	}
	if res, _, _ := m.Result(meta.ID); !reflect.DeepEqual(res.Metrics, ggpdes.MetricsState{}) {
		t.Errorf("the cached result carries Metrics: %+v", res.Metrics)
	}
	rec := httptest.NewRecorder()
	m.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if line := fmt.Sprintf("ggpdes_tw_committed_events_total %d\n", direct.CommittedEvents); !strings.Contains(rec.Body.String(), line) {
		t.Errorf("/metrics lacks %q", line)
	}
}

// hostFree drops what a series point reads off the host clock.
func hostFree(pts []telemetry.SeriesPoint) []telemetry.SeriesPoint {
	out := make([]telemetry.SeriesPoint, len(pts))
	for i, p := range pts {
		p.WallSeconds, p.AdvanceRate = 0, 0
		out[i] = p
	}
	return out
}
