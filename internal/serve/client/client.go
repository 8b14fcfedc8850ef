// Package client is the typed Go client for the ggserved /v2 API
// (API revision 6). It speaks the typed error envelope — every
// non-2xx answer surfaces as an *Error carrying the server's code,
// message, and retryability — and mirrors the /v2 wire shapes with
// plain structs so callers never touch raw JSON.
//
// The package deliberately does not import internal/serve: the serve
// package's own tests exercise their HTTP surface through this client
// (compile-time proof the two stay in sync), which is only possible
// if the dependency points one way. The wire shapes are therefore
// declared again here; the round-trip tests in serve are what keep
// them honest.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"ggpdes"
	"ggpdes/internal/telemetry"
)

// Error is a /v2 failure: the server's typed envelope plus the HTTP
// status it rode on. Every non-2xx response becomes one of these.
type Error struct {
	// Code is the envelope's machine-readable error code
	// ("invalid_config", "queue_full", "not_found", ...).
	Code    string
	Message string
	// Retryable means the same request may succeed if repeated.
	Retryable bool
	// HTTPStatus is the response status the envelope arrived on.
	HTTPStatus int
	// RetryAfterSeconds is the server's deterministic backoff hint,
	// parsed from the Retry-After header when present (queue_full).
	RetryAfterSeconds int
}

func (e *Error) Error() string {
	return fmt.Sprintf("ggserved: %s: %s (http %d)", e.Code, e.Message, e.HTTPStatus)
}

// ErrorInfo is the envelope payload as it appears inside JobMeta.
type ErrorInfo struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// JobSpec is the body of POST /v2/jobs. See internal/serve.JobSpec
// for field semantics; this is the same wire shape minus the
// cluster-internal no_forward flag.
type JobSpec struct {
	Config          ggpdes.Config `json:"config"`
	TimeoutSeconds  float64       `json:"timeout_seconds,omitempty"`
	NoCache         bool          `json:"no_cache,omitempty"`
	CheckpointEvery int           `json:"checkpoint_every,omitempty"`
}

// JobMeta is the shared job-identity shape every /v2 payload carries.
type JobMeta struct {
	ID     string     `json:"id"`
	State  string     `json:"state"`
	Key    string     `json:"key,omitempty"`
	Cached bool       `json:"cached,omitempty"`
	Source string     `json:"source,omitempty"`
	Error  *ErrorInfo `json:"error,omitempty"`

	ResumedFrom string `json:"resumed_from,omitempty"`

	SubmittedAt  time.Time `json:"submitted_at"`
	StartedAt    time.Time `json:"started_at,omitempty"`
	FinishedAt   time.Time `json:"finished_at,omitempty"`
	QueueSeconds float64   `json:"queue_seconds"`
	RunSeconds   float64   `json:"run_seconds"`
}

// Terminal reports whether the job has reached a final state.
func (m JobMeta) Terminal() bool {
	switch m.State {
	case "done", "failed", "cancelled":
		return true
	}
	return false
}

// SweepSpec is the body of POST /v2/sweeps.
type SweepSpec struct {
	Defaults JobSpec         `json:"defaults"`
	Seeds    []uint64        `json:"seeds,omitempty"`
	Configs  []ggpdes.Config `json:"configs,omitempty"`
}

// SweepStatus is the /v2/sweeps/{id} payload.
type SweepStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Total     int    `json:"total"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	Cancelled int    `json:"cancelled"`

	SubmittedAt time.Time `json:"submitted_at"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`

	Members []JobMeta `json:"members"`
}

// SweepEvent is one member completion on the sweep's SSE stream.
type SweepEvent struct {
	Seq     int             `json:"seq"`
	Index   int             `json:"index"`
	Job     JobMeta         `json:"job"`
	Results *ggpdes.Results `json:"results,omitempty"`
}

// PeerHealth is one peer's reachability in the healthz payload.
type PeerHealth struct {
	Addr  string `json:"addr"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// Health is the /v2/healthz payload.
type Health struct {
	Status      string       `json:"status"`
	Draining    bool         `json:"draining,omitempty"`
	Workers     int          `json:"workers"`
	QueueDepth  int          `json:"queue_depth"`
	QueueLen    int          `json:"queue_len"`
	QueueFree   int          `json:"queue_free"`
	Queued      int          `json:"queued"`
	Running     int          `json:"running"`
	ClusterSize int          `json:"cluster_size,omitempty"`
	Peers       []PeerHealth `json:"peers,omitempty"`
}

// Version is the /v2/version payload.
type Version struct {
	Service          string `json:"service"`
	API              string `json:"api"`
	APIRevision      int    `json:"api_revision"`
	CheckpointFormat int    `json:"checkpoint_format"`
	GoVersion        string `json:"go_version"`
}

// Stats is the /v2/stats payload: a full telemetry snapshot.
type Stats struct {
	Counters   map[string]uint64               `json:"counters"`
	Gauges     map[string]telemetry.GaugeState `json:"gauges"`
	Histograms map[string]telemetry.Summary    `json:"histograms"`
}

// Client talks to one ggserved replica over /v2.
type Client struct {
	base string
	http *http.Client
	// Poll is how long Wait pauses after a non-terminal status answer
	// before asking again (default 25ms). A server that holds status
	// requests until the job ends answers non-terminal only at its wait
	// cap; one that answers at once is polled at this cadence.
	Poll time.Duration
}

// New builds a client for the replica at base ("http://host:port").
// The optional http.Client overrides the transport (nil uses a
// dedicated default client with no global state).
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: strings.TrimRight(base, "/"), http: hc, Poll: 25 * time.Millisecond}
}

// Base returns the server address the client was built with.
func (c *Client) Base() string { return c.base }

// wire body wrappers (mirroring httpv2.go).
type jobBody struct {
	Job JobMeta `json:"job"`
}

type jobResultBody struct {
	Job     JobMeta         `json:"job"`
	Results *ggpdes.Results `json:"results"`
}

type jobSeriesBody struct {
	Job    JobMeta                 `json:"job"`
	Total  int                     `json:"total_points"`
	Points []telemetry.SeriesPoint `json:"points"`
}

type sweepBody struct {
	Sweep SweepStatus `json:"sweep"`
}

// do performs one /v2 request: in (when non-nil) is the JSON body,
// out (when non-nil) receives the decoded 2xx response. Every non-2xx
// answer is returned as *Error, decoded from the envelope when the
// body carries one.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError turns a non-2xx response into *Error.
func decodeError(resp *http.Response) error {
	e := &Error{Code: "internal", Message: resp.Status, HTTPStatus: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		e.RetryAfterSeconds, _ = strconv.Atoi(ra)
	}
	var envelope struct {
		Error *ErrorInfo `json:"error"`
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err == nil && json.Unmarshal(data, &envelope) == nil && envelope.Error != nil {
		e.Code = envelope.Error.Code
		e.Message = envelope.Error.Message
		e.Retryable = envelope.Error.Retryable
	}
	return e
}

// Submit posts one job. A warm cache answers with a done JobMeta
// immediately (Cached=true); otherwise the job is queued.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobMeta, error) {
	var out jobBody
	err := c.do(ctx, http.MethodPost, "/v2/jobs", spec, &out)
	return out.Job, err
}

// Status fetches a job's current JobMeta.
func (c *Client) Status(ctx context.Context, id string) (JobMeta, error) {
	var out jobBody
	err := c.do(ctx, http.MethodGet, "/v2/jobs/"+url.PathEscape(id), nil, &out)
	return out.Job, err
}

// Result fetches a done job's results. A still-running job returns
// its meta with nil Results and nil error (check meta.Terminal());
// a failed or cancelled job returns the typed *Error alongside the
// zero meta.
func (c *Client) Result(ctx context.Context, id string) (JobMeta, *ggpdes.Results, error) {
	var out jobResultBody
	err := c.do(ctx, http.MethodGet, "/v2/jobs/"+url.PathEscape(id)+"/result", nil, &out)
	return out.Job, out.Results, err
}

// Series fetches a job's per-GVT-round observability series.
func (c *Client) Series(ctx context.Context, id string) (JobMeta, []telemetry.SeriesPoint, int, error) {
	var out jobSeriesBody
	err := c.do(ctx, http.MethodGet, "/v2/jobs/"+url.PathEscape(id)+"/series", nil, &out)
	return out.Job, out.Points, out.Total, err
}

// Cancel requests a job's cancellation and returns its updated meta.
func (c *Client) Cancel(ctx context.Context, id string) (JobMeta, error) {
	var out jobBody
	err := c.do(ctx, http.MethodDelete, "/v2/jobs/"+url.PathEscape(id), nil, &out)
	return out.Job, err
}

// maxWait is the longest Wait asks the server to hold one status
// request: the server's own cap.
const maxWait = 30 * time.Second

// Wait blocks until the job reaches a terminal state or ctx expires.
// The terminal meta is returned even for failed jobs — the error is the
// context's when the wait was cut short. Each round is one status
// request with ?wait=, which the server holds until the job ends (up to
// 30 s, or half the http.Client's Timeout); only after a non-terminal
// answer does Wait pause Poll before asking again. A server that
// ignores ?wait= answers at once, and is then polled every Poll.
func (c *Client) Wait(ctx context.Context, id string) (JobMeta, error) {
	poll := c.Poll
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	hold := maxWait
	if t := c.http.Timeout; t > 0 && t/2 < hold {
		hold = t / 2
	}
	path := "/v2/jobs/" + url.PathEscape(id) + "?wait=" + strconv.FormatFloat(hold.Seconds(), 'f', -1, 64)
	for {
		var out jobBody
		if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
			return out.Job, err
		}
		if out.Job.Terminal() {
			return out.Job, nil
		}
		t := time.NewTimer(poll)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return out.Job, context.Cause(ctx)
		}
	}
}

// Sweep submits a parameter sweep and returns its initial status.
func (c *Client) Sweep(ctx context.Context, spec SweepSpec) (SweepStatus, error) {
	var out sweepBody
	err := c.do(ctx, http.MethodPost, "/v2/sweeps", spec, &out)
	return out.Sweep, err
}

// GetSweep fetches a sweep's aggregate status.
func (c *Client) GetSweep(ctx context.Context, id string) (SweepStatus, error) {
	var out sweepBody
	err := c.do(ctx, http.MethodGet, "/v2/sweeps/"+url.PathEscape(id), nil, &out)
	return out.Sweep, err
}

// CancelSweep cancels every still-running member of a sweep.
func (c *Client) CancelSweep(ctx context.Context, id string) (SweepStatus, error) {
	var out sweepBody
	err := c.do(ctx, http.MethodDelete, "/v2/sweeps/"+url.PathEscape(id), nil, &out)
	return out.Sweep, err
}

// SweepEvents subscribes to a sweep's SSE stream and invokes fn once
// per member completion, in completion order (members settled before
// the subscription are replayed first). It returns the final sweep
// status from the stream's closing "done" event; a stream the server
// ends with a terminal "error" event instead (sweep evicted from
// retention mid-stream) returns that envelope as *Error. fn returning
// an error aborts the stream with that error.
func (c *Client) SweepEvents(ctx context.Context, id string, fn func(SweepEvent) error) (SweepStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v2/sweeps/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return SweepStatus{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return SweepStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return SweepStatus{}, decodeError(resp)
	}

	var event string
	var data bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		// The SSE spec terminates lines with LF, CRLF, or CR; Scanner
		// splits on LF, so a CRLF stream leaves the CR for us to strip.
		line := strings.TrimSuffix(sc.Text(), "\r")
		switch {
		case line == "":
			// Blank line: dispatch the accumulated event.
			switch event {
			case "result":
				var ev SweepEvent
				if err := json.Unmarshal(data.Bytes(), &ev); err != nil {
					return SweepStatus{}, fmt.Errorf("sweep event: %w", err)
				}
				if fn != nil {
					if err := fn(ev); err != nil {
						return SweepStatus{}, err
					}
				}
			case "done":
				var out sweepBody
				if err := json.Unmarshal(data.Bytes(), &out); err != nil {
					return SweepStatus{}, fmt.Errorf("sweep done event: %w", err)
				}
				return out.Sweep, nil
			case "error":
				// The server ended the stream abnormally (e.g. the sweep
				// was evicted from retention mid-stream) and sent the
				// envelope as a terminal event instead of a done.
				var envelope struct {
					Error *ErrorInfo `json:"error"`
				}
				if err := json.Unmarshal(data.Bytes(), &envelope); err != nil || envelope.Error == nil {
					return SweepStatus{}, fmt.Errorf("sweep error event: %s", data.String())
				}
				return SweepStatus{}, &Error{
					Code:       envelope.Error.Code,
					Message:    envelope.Error.Message,
					Retryable:  envelope.Error.Retryable,
					HTTPStatus: resp.StatusCode,
				}
			}
			event = ""
			data.Reset()
		case strings.HasPrefix(line, ":"):
			// Comment line — heartbeats proxies and servers inject to
			// keep the connection alive. Ignored per spec.
		case strings.HasPrefix(line, "event:"):
			event = sseFieldValue(line, "event:")
		case strings.HasPrefix(line, "data:"):
			// Multiple data: lines in one event concatenate with a
			// newline between them (the spec appends LF after each and
			// strips the final one — equivalent to joining with "\n").
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(sseFieldValue(line, "data:"))
		}
		// id: lines are informational; seq rides in the payload too.
	}
	if err := sc.Err(); err != nil {
		return SweepStatus{}, err
	}
	return SweepStatus{}, fmt.Errorf("sweep stream ended without a done event")
}

// sseFieldValue extracts an SSE field's value: everything after the
// "name:" prefix, minus at most one leading space (the spec makes the
// space after the colon optional, and only the first one is cosmetic).
func sseFieldValue(line, prefix string) string {
	v := strings.TrimPrefix(line, prefix)
	return strings.TrimPrefix(v, " ")
}

// Healthz fetches the health payload. The body is returned even when
// the server answers 503 (draining) — check Status/Draining; the
// error is non-nil only for transport or decode failures.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v2/healthz", nil)
	if err != nil {
		return Health{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return Health{}, err
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return Health{}, err
	}
	return h, nil
}

// Version fetches the server's version payload.
func (c *Client) Version(ctx context.Context) (Version, error) {
	var v Version
	err := c.do(ctx, http.MethodGet, "/v2/version", nil, &v)
	return v, err
}

// Stats fetches the server's full telemetry snapshot.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var s Stats
	err := c.do(ctx, http.MethodGet, "/v2/stats", nil, &s)
	return s, err
}
