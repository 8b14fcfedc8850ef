package serve

import (
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"ggpdes"
	"ggpdes/internal/chaos"
	"ggpdes/internal/checkpoint"
	"ggpdes/internal/serve/cluster"
)

// chaosSpec is a checkpointed job long enough to cross several GVT
// round boundaries, so a crashed attempt has snapshots to resume from.
func chaosSpec(seed uint64) JobSpec {
	s := quickSpec(seed)
	s.Config.EndTime = 40
	s.Config.GVTFrequency = 10
	return s
}

// The acceptance bar for fault tolerance: with crash injection on
// every eligible attempt, all jobs still complete — retried from their
// latest checkpoint — and the served results are identical to an
// uninterrupted run of the same config. Run under -race via `make
// test-race`.
func TestChaosCrashRetryCompletes(t *testing.T) {
	const jobs = 6
	m := New(Options{
		Workers:         4,
		QueueDepth:      2 * jobs,
		MaxAttempts:     3,
		RetryBackoff:    time.Millisecond,
		CheckpointEvery: 2,
		CheckpointRoot:  t.TempDir(),
		CrashRate:       1, // every non-final attempt is crashed
		ChaosSeed:       7,
	})
	defer drain(t, m)

	ids := make([]string, jobs)
	for i := range ids {
		st, err := m.Submit(chaosSpec(uint64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	sawRetry, sawResume := false, false
	for _, id := range ids {
		st := waitState(t, m, id, StateDone)
		if st.Attempts > 1 {
			sawRetry = true
			if st.LastError == "" {
				t.Errorf("job %s retried with empty last_error", id)
			}
		}
		if st.ResumedFrom != "" {
			sawResume = true
		}
	}
	if !sawRetry {
		t.Fatal("no job needed a retry despite 100% crash injection")
	}
	if !sawResume {
		t.Fatal("no retry resumed from a checkpoint")
	}

	c := m.Registry().Counters()
	if c["serve.jobs_completed"] != jobs {
		t.Fatalf("jobs_completed = %d, want %d", c["serve.jobs_completed"], jobs)
	}
	if c["serve.injected_crashes"] == 0 || c["serve.retries"] == 0 || c["serve.resumes"] == 0 {
		t.Fatalf("chaos counters not exercised: crashes=%d retries=%d resumes=%d",
			c["serve.injected_crashes"], c["serve.retries"], c["serve.resumes"])
	}

	// Correctness, not just completion: a crashed-and-resumed job's
	// result must equal a clean in-process run of the same config.
	served, _, ok := m.Result(ids[0])
	if !ok || served == nil {
		t.Fatal("no result for job 0")
	}
	cfg := chaosSpec(1).Config
	cfg.Checkpoint = &ggpdes.CheckpointOptions{Every: 2} // same trajectory, no persistence
	clean, err := ggpdes.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if served.CommittedEvents != clean.CommittedEvents || served.FinalGVT != clean.FinalGVT {
		t.Fatalf("served result diverged from clean run: committed %d vs %d, GVT %v vs %v",
			served.CommittedEvents, clean.CommittedEvents, served.FinalGVT, clean.FinalGVT)
	}
}

// A job that publishes no GVT rounds trips the stall watchdog on every
// attempt and fails once the retry budget is spent.
func TestStallWatchdogKillsAndRetries(t *testing.T) {
	m := New(Options{
		Workers:      1,
		QueueDepth:   1,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
		StallTimeout: 150 * time.Millisecond,
	})
	defer drain(t, m)

	spec := longSpec()
	// A GVT round every 2^30 iterations: the run makes event progress
	// but never publishes GVT, which is exactly what the watchdog is
	// for.
	spec.Config.GVTFrequency = 1 << 30
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, StateFailed)
	if final.Error == nil || final.Error.Code != CodeStalled {
		t.Fatalf("terminal error %+v, want code %s", final.Error, CodeStalled)
	}
	if final.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", final.Attempts)
	}
	c := m.Registry().Counters()
	if c["serve.stalls_detected"] != 2 || c["serve.retries"] != 1 {
		t.Fatalf("stalls=%d retries=%d, want 2/1", c["serve.stalls_detected"], c["serve.retries"])
	}
}

// The typed error sentinels map to documented HTTP statuses: classify
// picks the code, codeHTTPStatus — the one status table — the status.
// An unclassified error takes the call site's fallback code: internal
// for a rejected submit, failed for a terminal job.
func TestErrorStatusMapping(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("outer: %w", err) }
	for _, tc := range []struct {
		name      string
		err       error
		fbCode    string
		code      string
		status    int
		retryable bool
	}{
		{"invalid config", wrap(ggpdes.ErrInvalidConfig), CodeInternal, CodeInvalidConfig, http.StatusBadRequest, false},
		{"queue full", ErrQueueFull, CodeInternal, CodeQueueFull, http.StatusTooManyRequests, true},
		{"draining", ErrDraining, CodeInternal, CodeDraining, http.StatusServiceUnavailable, true},
		{"submit unclassified", errors.New("other"), CodeInternal, CodeInternal, http.StatusInternalServerError, false},
		{"malformed body", errors.New("other"), CodeInvalidConfig, CodeInvalidConfig, http.StatusBadRequest, false},
		{"deadline", wrap(ggpdes.ErrDeadline), CodeFailed, CodeDeadline, http.StatusGatewayTimeout, false},
		{"corrupt checkpoint", wrap(ggpdes.ErrCheckpointCorrupt), CodeFailed, CodeCheckpointCorrupt, http.StatusGone, false},
		{"cancelled", wrap(ggpdes.ErrCancelled), CodeFailed, CodeCancelled, http.StatusConflict, false},
		{"stalled", wrap(ErrStalled), CodeFailed, CodeStalled, http.StatusGatewayTimeout, true},
		{"peer lost", wrap(cluster.ErrPeerLost), CodeFailed, CodePeerLost, http.StatusBadGateway, true},
		{"injected crash", wrap(chaos.ErrInjectedCrash), CodeFailed, CodeFailed, http.StatusConflict, true},
		{"result unclassified", errors.New("other"), CodeFailed, CodeFailed, http.StatusConflict, false},
	} {
		info := classify(tc.err, tc.fbCode)
		if info.Code != tc.code || info.Retryable != tc.retryable || codeHTTPStatus(info.Code) != tc.status {
			t.Errorf("%s: code %s retryable %t status %d, want %s %t %d", tc.name,
				info.Code, info.Retryable, codeHTTPStatus(info.Code), tc.code, tc.retryable, tc.status)
		}
	}
	if got := codeHTTPStatus(CodeNotFound); got != http.StatusNotFound {
		t.Errorf("not_found: status %d, want 404", got)
	}
}

// End to end over the wire: a deadline failure answers 504 on the
// result endpoint, and /v2/version reports the contract.
func TestHTTPDeadline504AndVersion(t *testing.T) {
	m, srv := startServer(t, Options{Workers: 1, QueueDepth: 1})

	spec := longSpec()
	spec.TimeoutSeconds = 0.2
	_, st := postJob(t, srv, spec)
	waitState(t, m, st.ID, StateFailed)
	if code := getJSON(t, srv.URL+"/v2/jobs/"+st.ID+"/result", nil); code != http.StatusGatewayTimeout {
		t.Fatalf("deadline result status %d, want 504", code)
	}

	var v struct {
		API              string `json:"api"`
		APIRevision      int    `json:"api_revision"`
		CheckpointFormat int    `json:"checkpoint_format"`
	}
	if code := getJSON(t, srv.URL+"/v2/version", &v); code != http.StatusOK {
		t.Fatalf("version status %d", code)
	}
	if v.API != "v2" || v.APIRevision != 6 || v.CheckpointFormat != checkpoint.Version {
		t.Fatalf("version body: %+v", v)
	}
}

// Backoff is deterministic in (key, attempt) and stays inside the
// jittered exponential envelope.
func TestBackoffDeterministicBounded(t *testing.T) {
	base := 10 * time.Millisecond
	for attempt := 1; attempt <= 8; attempt++ {
		d := backoff(base, "sha256:abc", attempt)
		if d != backoff(base, "sha256:abc", attempt) {
			t.Fatalf("attempt %d: backoff not deterministic", attempt)
		}
		exp := base << uint(attempt-1)
		if exp > 32*base {
			exp = 32 * base
		}
		if d < exp/2 || d > 3*exp/2 {
			t.Fatalf("attempt %d: backoff %s outside [%s, %s]", attempt, d, exp/2, 3*exp/2)
		}
	}
	if backoff(base, "sha256:abc", 1) == backoff(base, "sha256:def", 1) {
		t.Fatal("different keys produced identical jitter")
	}
}
