package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"ggpdes/internal/checkpoint"
)

// This file is the HTTP handlers behind Manager.Handler: the typed
// error envelope everywhere, JobMeta-shaped payloads, sweeps with SSE
// streaming, healthz, and the cluster-internal fill/delegate endpoints.

// maxBodyBytes bounds every POST body. The largest legal request is a
// 4096-member sweep, and a config with every field spelled out is
// well under 2 KiB of JSON, so 4096 of them fit in 8 MiB.
const maxBodyBytes = 8 << 20

// writeError writes the envelope for err via classify, at the status
// its code rides on.
func writeError(w http.ResponseWriter, err error, fbCode string) {
	info := classify(err, fbCode)
	writeJSON(w, codeHTTPStatus(info.Code), errorEnvelope{Error: info})
}

// decodeBody decodes a POST body into v, the one place request JSON is
// read: at most maxBodyBytes, no unknown fields, and nothing but
// whitespace after the first value. Any violation answers the
// invalid_config envelope and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("unexpected data after the JSON value")
		}
	}
	if err != nil {
		writeError(w, fmt.Errorf("invalid JSON body: %w", err), CodeInvalidConfig)
		return false
	}
	return true
}

// writeNotFound writes the envelope for an unknown job or sweep id.
func writeNotFound(w http.ResponseWriter, what string) {
	writeJSON(w, http.StatusNotFound, errorEnvelope{Error: ErrorInfo{
		Code: CodeNotFound, Message: "unknown " + what,
	}})
}

// retryAfterSeconds derives the 429 backoff hint from queue occupancy
// instead of the wall clock: with every worker busy, a full queue
// drains in about queueLen/workers service times, so that ratio (in
// seconds, floored at 1, capped at 60) is the deterministic hint.
// Identical server state always produces an identical header, which
// keeps backpressure tests timing-insensitive.
func retryAfterSeconds(queueLen, workers int) int {
	if workers < 1 {
		workers = 1
	}
	s := (queueLen + workers - 1) / workers
	if s < 1 {
		s = 1
	}
	if s > 60 {
		s = 60
	}
	return s
}

// writeSubmitError answers a rejected Submit; a queue-full rejection
// also carries the deterministic Retry-After header.
func (m *Manager) writeSubmitError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrQueueFull) {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(len(m.queue), m.opts.Workers)))
	}
	writeError(w, err, CodeInternal)
}

// jobBody is the /v2 job payload: JobMeta alone for status, plus
// results or series where the endpoint carries them.
type jobBody struct {
	Job JobMeta `json:"job"`
}

type jobResultBody struct {
	Job     JobMeta `json:"job"`
	Results any     `json:"results"`
}

// jobErrorBody is the non-2xx body for a job that reached a terminal
// failure: the standard envelope (so every /v2 error body has a
// top-level "error") plus the job's full meta.
type jobErrorBody struct {
	Error ErrorInfo `json:"error"`
	Job   JobMeta   `json:"job"`
}

// writeJobError writes a terminal job's failure at its code's status.
func writeJobError(w http.ResponseWriter, meta JobMeta) {
	info := ErrorInfo{Code: CodeFailed, Message: "job failed"}
	if meta.Error != nil {
		info = *meta.Error
	}
	writeJSON(w, metaStatus(meta), jobErrorBody{Error: info, Job: meta})
}

// writeEvicted answers the result of a done job whose cache entry is
// gone: 410 result_evicted, with the job's meta alongside.
func writeEvicted(w http.ResponseWriter, meta JobMeta) {
	writeJSON(w, http.StatusGone, jobErrorBody{Error: classify(ErrResultEvicted, CodeInternal), Job: meta})
}

// maxStatusWait caps how long a status request's ?wait= may hold it:
// long enough that a client waiting on a job asks about once per job,
// short enough that no proxy idle timeout cuts the request first.
const maxStatusWait = 30 * time.Second

// statusWait parses a status request's ?wait=<seconds>: absent or 0
// answers at once, anything past maxStatusWait waits that long, and a
// value that does not parse or is negative is an error.
func statusWait(r *http.Request) (time.Duration, error) {
	q := r.URL.Query().Get("wait")
	if q == "" {
		return 0, nil
	}
	s, err := strconv.ParseFloat(q, 64)
	if err != nil || !(s >= 0) { // NaN is not >= 0 either
		return 0, fmt.Errorf("wait=%q: want a non-negative number of seconds", q)
	}
	if s >= maxStatusWait.Seconds() {
		return maxStatusWait, nil
	}
	return time.Duration(s * float64(time.Second)), nil
}

func (m *Manager) v2Submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	st, err := m.Submit(spec)
	switch {
	case err != nil:
		m.writeSubmitError(w, err)
	case st.Cached:
		writeJSON(w, http.StatusOK, jobBody{Job: st})
	default:
		writeJSON(w, http.StatusAccepted, jobBody{Job: st})
	}
}

// v2Status answers a job's meta. With ?wait=<seconds> it first blocks
// on the job's done channel — until the job is terminal, the client
// hangs up, or min(wait, maxStatusWait) passes — so a waiting client
// costs one request instead of a poll loop.
func (m *Manager) v2Status(w http.ResponseWriter, r *http.Request) {
	wait, err := statusWait(r)
	if err != nil {
		writeError(w, err, CodeInvalidConfig)
		return
	}
	j, ok := m.job(r.PathValue("id"))
	if !ok {
		writeNotFound(w, "job")
		return
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-j.done:
		case <-r.Context().Done():
		case <-t.C:
		}
		t.Stop()
	}
	writeJSON(w, http.StatusOK, jobBody{Job: m.snapshot(j)})
}

func (m *Manager) v2Result(w http.ResponseWriter, r *http.Request) {
	res, st, ok := m.Result(r.PathValue("id"))
	if !ok {
		writeNotFound(w, "job")
		return
	}
	switch st.State {
	case StateDone:
		if res == nil {
			writeEvicted(w, st)
			return
		}
		writeJSON(w, http.StatusOK, jobResultBody{Job: st, Results: res})
	case StateFailed, StateCancelled:
		writeJobError(w, st)
	default:
		writeJSON(w, http.StatusAccepted, jobBody{Job: st})
	}
}

// jobSeriesBody wraps a job's per-round series with its identity.
// Points arrive oldest-first; Total counts every point ever recorded,
// so total > len(points) tells the client the ring has wrapped.
type jobSeriesBody struct {
	Job    JobMeta `json:"job"`
	Total  int     `json:"total_points"`
	Points any     `json:"points"`
}

func (m *Manager) v2Series(w http.ResponseWriter, r *http.Request) {
	pts, total, st, err := m.Series(r.PathValue("id"))
	switch {
	case errors.Is(err, errUnknownJob):
		writeNotFound(w, "job")
		return
	case err != nil:
		writeEvicted(w, st)
		return
	}
	body := jobSeriesBody{Job: st, Total: total, Points: pts}
	if pts == nil {
		body.Points = []struct{}{}
	}
	writeJSON(w, http.StatusOK, body)
}

func (m *Manager) v2Cancel(w http.ResponseWriter, r *http.Request) {
	st, ok := m.Cancel(r.PathValue("id"))
	if !ok {
		writeNotFound(w, "job")
		return
	}
	writeJSON(w, http.StatusOK, jobBody{Job: st})
}

type sweepBody struct {
	Sweep SweepStatus `json:"sweep"`
}

func (m *Manager) v2SubmitSweep(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	st, err := m.SubmitSweep(spec)
	if err != nil {
		writeError(w, err, CodeInternal)
		return
	}
	writeJSON(w, http.StatusAccepted, sweepBody{Sweep: st})
}

func (m *Manager) v2SweepStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := m.GetSweep(r.PathValue("id"))
	if !ok {
		writeNotFound(w, "sweep")
		return
	}
	writeJSON(w, http.StatusOK, sweepBody{Sweep: st})
}

func (m *Manager) v2CancelSweep(w http.ResponseWriter, r *http.Request) {
	st, ok := m.CancelSweep(r.PathValue("id"))
	if !ok {
		writeNotFound(w, "sweep")
		return
	}
	writeJSON(w, http.StatusOK, sweepBody{Sweep: st})
}

// v2SweepEvents streams the sweep's completions as Server-Sent
// Events: one `event: result` per member in completion order (already
// settled members replay immediately, so a late subscriber misses
// nothing), then exactly one terminal frame — `event: done` carrying
// the final SweepStatus, or, for a sweep evicted from retention while
// the stream was open, `event: error` carrying the /v2 envelope, so the
// client sees a typed failure instead of a silent close it can't tell
// from success. Only a client that went away gets no terminal frame.
func (m *Manager) v2SweepEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := m.GetSweep(id); !ok {
		writeNotFound(w, "sweep")
		return
	}
	fl, canFlush := w.(http.Flusher)
	flush := func() {
		if canFlush {
			fl.Flush()
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	next := 0
	for {
		evs, final, wake, ok := m.sweepEventsSince(id, next)
		for _, ev := range evs {
			if err := writeSSE(w, "result", ev.Seq, ev); err != nil {
				return
			}
		}
		next += len(evs)
		if len(evs) > 0 {
			flush()
		}
		if !ok || final != nil {
			// The one terminal write site (TestSweepStreamTerminatesOnce).
			event, body := "error", any(errorEnvelope{Error: ErrorInfo{
				Code:    CodeNotFound,
				Message: "sweep evicted from retention before the stream finished",
			}})
			if ok {
				event, body = "done", sweepBody{Sweep: *final}
			}
			_ = writeSSE(w, event, next, body)
			flush()
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE writes one Server-Sent Event with a JSON data payload.
func writeSSE(w http.ResponseWriter, event string, id int, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data)
	return err
}

func (m *Manager) v2Version(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, versionBody{
		Service:          "ggserved",
		API:              "v2",
		APIRevision:      apiRevision,
		CheckpointFormat: checkpoint.Version,
		GoVersion:        runtime.Version(),
	})
}

func (m *Manager) v2Healthz(w http.ResponseWriter, r *http.Request) {
	h := m.Health(r.Context())
	code := http.StatusOK
	if h.Draining {
		// Degraded still answers 200 — this replica can serve; peers
		// being down is advisory. Draining is the only state a load
		// balancer must stop routing to.
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// Cluster-internal endpoints. They live under /v2/cluster/ and speak
// the same envelope; replicas are the only intended callers.

func (m *Manager) v2ClusterPing(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// v2ClusterResult is the fill protocol's server side: a bare cache
// lookup, 200 with the Results on a hit, not_found on a miss. It
// never simulates — fills must stay cheap or routing would amplify
// load instead of shedding it.
func (m *Manager) v2ClusterResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	res, ok := m.cache.get(key)
	if !ok {
		writeNotFound(w, "cached result")
		return
	}
	if m.clu != nil {
		m.clu.NoteFillServed()
	}
	writeJSON(w, http.StatusOK, res)
}

// v2ClusterRun is delegation's server side: run the spec as our own
// job (cache, single-flight and all) and block until it
// settles, answering with the result or its typed failure. NoForward
// is forced so a stale peer list cannot create routing loops.
func (m *Manager) v2ClusterRun(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	spec.NoForward = true
	if m.clu != nil {
		m.clu.NoteRemoteJob()
	}
	st, err := m.Submit(spec)
	if err != nil {
		m.writeSubmitError(w, err)
		return
	}
	res, final, err := m.wait(r.Context(), st.ID)
	if err != nil {
		// The requester hung up (or died); the job keeps running here
		// and lands in the cache for a resubmission.
		return
	}
	switch {
	case final.State != StateDone:
		writeJobError(w, final)
	case res == nil:
		writeEvicted(w, final)
	default:
		writeJSON(w, http.StatusOK, jobResultBody{Job: final, Results: res})
	}
}
