package serve

import (
	"encoding/json"
	"net/http"
	"strings"

	"ggpdes/internal/telemetry"
)

// apiRevision identifies the service wire contract, reported by
// /v2/version and bumped whenever a route or a wire shape changes:
// /v2 is the only API version, every failure wears the typed envelope
// {"error":{"code","message","retryable"}}, and every job is a JobMeta.
// Revision 6 added the status request's ?wait= and result_evicted;
// revision 7 removed in-process retries: the retry budget from the spec
// and the version payload, the attempt count and last retried error
// from JobMeta, and the stalled code.
const apiRevision = 7

// Handler returns the service's HTTP API:
//
//	POST   /v2/jobs              submit a JobSpec; 202 queued, 200 cache
//	                             hit; errors wear the typed envelope
//	                             (400 invalid_config, 429 queue_full
//	                             with deterministic Retry-After, 503
//	                             draining)
//	GET    /v2/jobs/{id}         job status as {"job": JobMeta};
//	                             ?wait=<seconds> holds the answer until
//	                             the job is terminal (at most 30 s)
//	GET    /v2/jobs/{id}/result  200 job+results when done, 202 in
//	                             flight, 410 result_evicted once the
//	                             cache let the result go; terminal
//	                             failures map the error code's status
//	GET    /v2/jobs/{id}/series  per-GVT-round time series (410
//	                             result_evicted as for the result)
//	DELETE /v2/jobs/{id}         cancel; 200 with post-cancel meta
//	POST   /v2/sweeps            fan one SweepSpec into K member jobs
//	GET    /v2/sweeps/{id}       aggregate + per-member status
//	GET    /v2/sweeps/{id}/events  SSE stream: one event per member in
//	                             completion order, then "done"
//	DELETE /v2/sweeps/{id}       cancel all non-terminal members
//	GET    /v2/version           API revision + checkpoint format
//	GET    /v2/healthz           queue occupancy + peer connectivity;
//	                             503 only when draining
//	GET    /v2/stats             telemetry counters/gauges/histograms
//	GET    /v2/cluster/ping      cluster-internal liveness probe
//	GET    /v2/cluster/result/{key}  cluster-internal cache fill
//	POST   /v2/cluster/jobs      cluster-internal delegated run
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/jobs", m.v2Submit)
	mux.HandleFunc("GET /v2/jobs/{id}", m.v2Status)
	mux.HandleFunc("GET /v2/jobs/{id}/result", m.v2Result)
	mux.HandleFunc("GET /v2/jobs/{id}/series", m.v2Series)
	mux.HandleFunc("DELETE /v2/jobs/{id}", m.v2Cancel)
	mux.HandleFunc("POST /v2/sweeps", m.v2SubmitSweep)
	mux.HandleFunc("GET /v2/sweeps/{id}", m.v2SweepStatus)
	mux.HandleFunc("GET /v2/sweeps/{id}/events", m.v2SweepEvents)
	mux.HandleFunc("DELETE /v2/sweeps/{id}", m.v2CancelSweep)
	mux.HandleFunc("GET /v2/version", m.v2Version)
	mux.HandleFunc("GET /v2/healthz", m.v2Healthz)
	mux.HandleFunc("GET /v2/stats", m.handleStats)
	mux.HandleFunc("GET /v2/cluster/ping", m.v2ClusterPing)
	mux.HandleFunc("GET /v2/cluster/result/{key}", m.v2ClusterResult)
	mux.HandleFunc("POST /v2/cluster/jobs", m.v2ClusterRun)
	return mux
}

// MetricsHandler returns the OpenMetrics/Prometheus text exposition of
// the serving registry: the serve.* plane plus the engine metrics of
// every completed job, merged. ggserved mounts it at /metrics, outside
// the versioned API, so generic scrapers find it at the conventional
// path.
func (m *Manager) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = telemetry.WriteOpenMetrics(w, m.reg.Snapshot())
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// versionBody is the /v2/version payload: what a client needs to know
// before speaking to this server.
type versionBody struct {
	Service string `json:"service"`
	API     string `json:"api"`
	// APIRevision bumps when the wire shapes change; see the
	// compatibility note in the README.
	APIRevision int `json:"api_revision"`
	// CheckpointFormat is the snapshot file version this server reads
	// and writes.
	CheckpointFormat int    `json:"checkpoint_format"`
	GoVersion        string `json:"go_version"`
}

// statsBody is the /v2/stats payload: a full registry snapshot.
// Gauges carry their set flag: a gauge that was registered but never
// recorded reports {"set":false} instead of a value indistinguishable
// from a real 0.
type statsBody struct {
	Counters   map[string]uint64               `json:"counters"`
	Gauges     map[string]telemetry.GaugeState `json:"gauges"`
	Histograms map[string]telemetry.Summary    `json:"histograms"`
}

func (m *Manager) handleStats(w http.ResponseWriter, r *http.Request) {
	reg := m.Registry()
	if strings.Contains(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.WriteText(w)
		return
	}
	writeJSON(w, http.StatusOK, statsBody{
		Counters:   reg.Counters(),
		Gauges:     reg.Snapshot().Gauges,
		Histograms: reg.Histograms(),
	})
}
