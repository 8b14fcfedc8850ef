// Package serve turns the ggpdes engine into a simulation service: a
// bounded job queue with backpressure, a worker pool sized to the
// host, a deterministic content-addressed result cache, and an HTTP
// JSON API. A job runs once; a fault ends it typed, and a resubmission
// replays the same trajectory. The one fault recovered is a clustered
// peer's death: the replica that delegated the job resumes it from the
// dead owner's keyed checkpoints. The scheduling problem the source
// paper solves for simulation threads on constrained cores reappears
// one level up — concurrent jobs on a shared host — and this package is
// that level.
package serve

import (
	"fmt"

	"ggpdes"
)

// JobSpec is the wire-format description of one simulation job — the
// JSON body of POST /v2/jobs. The simulation itself is described by
// the embedded ggpdes.Config in its native JSON codec; the remaining
// fields are serving policy.
type JobSpec struct {
	// Config is the simulation to run, in the ggpdes.Config wire
	// format: enums by name ("system":"gg", "gvt":"async"), the model
	// as a tagged object ({"name":"phold","lps_per_thread":4}), zero
	// values selecting the same defaults as the Go API.
	Config ggpdes.Config `json:"config"`

	// TimeoutSeconds bounds the job's real-time execution; 0 uses the
	// server's default deadline.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// NoCache bypasses the result cache for this submission (the run
	// still populates it).
	NoCache bool `json:"no_cache,omitempty"`
	// CheckpointEvery sets the job's checkpoint cadence in GVT rounds
	// (0 = server default, negative = no checkpointing). Ignored when
	// the config already carries its own Checkpoint settings.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// NoForward marks a spec a peer already routed here: the receiving
	// replica must serve it itself (cache or local run) rather than
	// forward it onward, which breaks routing loops. The cluster layer
	// sets it on delegated jobs; clients normally leave it unset.
	NoForward bool `json:"no_forward,omitempty"`
}

// config applies the server defaults and serving-policy fields to the
// embedded config and validates it. Every rejection wraps
// ggpdes.ErrInvalidConfig so the HTTP layer can map it to 400.
func (s JobSpec) config(defaults Options) (ggpdes.Config, error) {
	cfg := s.Config
	if s.TimeoutSeconds < 0 {
		return cfg, fmt.Errorf("%w: timeout_seconds must be non-negative", ggpdes.ErrInvalidConfig)
	}
	every := s.CheckpointEvery
	if every == 0 {
		every = defaults.CheckpointEvery
	}
	if cfg.Checkpoint == nil && every > 0 {
		// Dir is assigned per job when the run starts; Every alone is
		// enough for the cache key (Dir is placement, not trajectory).
		cfg.Checkpoint = &ggpdes.CheckpointOptions{Every: every}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}
