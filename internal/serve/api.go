package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ggpdes"
	"ggpdes/internal/serve/cluster"
)

// This file is the wire vocabulary: one typed error envelope for every
// failure, one JobMeta shape shared by job, sweep, and SSE payloads,
// and the mapping between the repo's typed sentinel errors and
// envelope codes.

// Error codes carried in the envelope. Each code corresponds to
// exactly one sentinel (or terminal condition) and one HTTP status
// (codeHTTPStatus), so clients can switch on code instead of parsing
// message strings.
const (
	CodeInvalidConfig     = "invalid_config"     // 400 ggpdes.ErrInvalidConfig
	CodeNotFound          = "not_found"          // 404 unknown job or sweep
	CodeCancelled         = "cancelled"          // 409 ggpdes.ErrCancelled / client cancel
	CodeFailed            = "failed"             // 409 unclassified terminal failure
	CodeCheckpointCorrupt = "checkpoint_corrupt" // 410 ggpdes.ErrCheckpointCorrupt
	CodeResultEvicted     = "result_evicted"     // 410 ErrResultEvicted (resubmit re-simulates)
	CodeQueueFull         = "queue_full"         // 429 ErrQueueFull (retryable)
	CodePeerLost          = "peer_lost"          // 502 cluster.ErrPeerLost (retryable)
	CodeDraining          = "draining"           // 503 ErrDraining (retryable)
	CodeDeadline          = "deadline"           // 504 ggpdes.ErrDeadline
	CodeInternal          = "internal"           // 500 anything else
)

// ErrorInfo is the typed error payload: the single shape every
// failure wears, whether it rejects a request or describes a job's
// terminal state inside JobMeta.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Retryable means the same request may succeed if repeated —
	// against this replica later (queue_full, draining) or was caused
	// by a recoverable environmental fault (lost peer).
	Retryable bool `json:"retryable"`
}

// errorEnvelope is the body of every non-2xx response.
type errorEnvelope struct {
	Error ErrorInfo `json:"error"`
}

// classify maps an error to its envelope payload via the typed
// sentinels. Unrecognized errors get the given fallback code
// (submissions pass internal, terminal job causes failed).
func classify(err error, fbCode string) ErrorInfo {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	info := func(code string, retry bool) ErrorInfo {
		return ErrorInfo{Code: code, Message: msg, Retryable: retry}
	}
	switch {
	case errors.Is(err, ggpdes.ErrInvalidConfig):
		return info(CodeInvalidConfig, false)
	case errors.Is(err, ErrQueueFull):
		return info(CodeQueueFull, true)
	case errors.Is(err, ErrDraining):
		return info(CodeDraining, true)
	case errors.Is(err, ggpdes.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return info(CodeDeadline, false)
	case errors.Is(err, ggpdes.ErrCheckpointCorrupt):
		return info(CodeCheckpointCorrupt, false)
	case errors.Is(err, ErrResultEvicted):
		return info(CodeResultEvicted, false)
	case errors.Is(err, ggpdes.ErrCancelled), errors.Is(err, context.Canceled):
		return info(CodeCancelled, false)
	case errors.Is(err, cluster.ErrPeerLost):
		return info(CodePeerLost, true)
	default:
		return info(fbCode, false)
	}
}

// remoteFailure converts a peer's envelope error back into the local
// sentinel it was mapped from, so a delegated job's terminal state
// classifies (and re-serializes) exactly as if the run were local.
func remoteFailure(p string, re *cluster.RemoteError) error {
	var sentinel error
	switch re.Code {
	case CodeInvalidConfig:
		sentinel = ggpdes.ErrInvalidConfig
	case CodeDeadline:
		sentinel = ggpdes.ErrDeadline
	case CodeCheckpointCorrupt:
		sentinel = ggpdes.ErrCheckpointCorrupt
	case CodeCancelled:
		sentinel = ggpdes.ErrCancelled
	default:
		return fmt.Errorf("peer %s: %s: %s", p, re.Code, re.Message)
	}
	return fmt.Errorf("peer %s: %w: %s", p, sentinel, re.Message)
}

// Result sources reported in JobMeta.Source: where a job's results
// came from when it did not simulate locally.
const (
	SourceCache    = "cache"    // local result-cache hit at submit
	SourceInflight = "inflight" // coalesced onto an identical in-flight job
	SourcePeer     = "peer"     // filled from the owning peer's cache
	SourceRemote   = "remote"   // delegated to and run by the owning peer
)

// JobMeta is the one shape a job is read in, in Go and on the wire: a
// consistent, immutable snapshot that job status, result and series
// wrappers, sweep members and SSE events all embed.
type JobMeta struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Key is the config's content-addressed cache key.
	Key string `json:"key,omitempty"`
	// Cached is true when the job produced no local simulation: its
	// results came from the cache, an in-flight duplicate, or a peer.
	Cached bool `json:"cached,omitempty"`
	// Source qualifies Cached: "cache" (local hit), "inflight"
	// (coalesced onto an identical in-flight job), "peer" (filled from
	// the owning replica's cache), "remote" (delegated to and run by
	// the owning replica); empty for a locally simulated run.
	Source string `json:"source,omitempty"`
	// Error is the typed terminal failure, present only for failed or
	// cancelled jobs.
	Error *ErrorInfo `json:"error,omitempty"`
	// ResumedFrom names the keyed checkpoint file a local run resumed
	// from — on a failover, the dead owner's latest — when it did not
	// start from scratch.
	ResumedFrom string `json:"resumed_from,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
	// QueueSeconds and RunSeconds break down where the job spent its
	// wall-clock time so far.
	QueueSeconds float64 `json:"queue_seconds"`
	RunSeconds   float64 `json:"run_seconds"`
}

// Status is JobMeta under the name the Go API first gave a job's
// snapshot.
type Status = JobMeta

// metaStatus maps a terminal job's meta back to the HTTP status its
// error code rides on (200 for done).
func metaStatus(m JobMeta) int {
	if m.Error == nil {
		return http.StatusOK
	}
	return codeHTTPStatus(m.Error.Code)
}

// codeHTTPStatus is the one error → HTTP status table: the status each
// envelope code is defined to ride on.
func codeHTTPStatus(code string) int {
	switch code {
	case CodeInvalidConfig:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeCheckpointCorrupt, CodeResultEvicted:
		return http.StatusGone
	case CodeQueueFull:
		return http.StatusTooManyRequests
	case CodePeerLost:
		return http.StatusBadGateway
	case CodeDraining:
		return http.StatusServiceUnavailable
	case CodeDeadline:
		return http.StatusGatewayTimeout
	case CodeInternal:
		return http.StatusInternalServerError
	default: // cancelled, failed
		return http.StatusConflict
	}
}
