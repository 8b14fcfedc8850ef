package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ggpdes"
	"ggpdes/internal/checkpoint"
	"ggpdes/internal/serve/client"
	"ggpdes/internal/serve/cluster"
)

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
		{"peer lost", wrap(cluster.ErrPeerLost), CodeFailed, CodePeerLost, http.StatusBadGateway, true},
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
	if v.API != "v2" || v.APIRevision != 7 || v.CheckpointFormat != checkpoint.Version {
		t.Fatalf("version body: %+v", v)
	}
}

// jsonKeys lists a JSON object's keys in the order they were written.
func jsonKeys(t *testing.T, data []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// Revision 7's wire contract: the version payload says 7 and carries no
// retry budget, a spec that still asks for one is refused typed — as a
// job and as a sweep's defaults — and JobMeta's keys are pinned in the
// order they are written, in the server's shape and in the client's.
func TestWireRevision7(t *testing.T) {
	_, srv := startServer(t, Options{Workers: 1})

	var v map[string]any
	if code := getJSON(t, srv.URL+"/v2/version", &v); code != http.StatusOK {
		t.Fatalf("version status %d", code)
	}
	if v["api_revision"] != float64(7) {
		t.Errorf("api_revision %v, want 7", v["api_revision"])
	}
	// The retired retry budget's wire key.
	const retired = "max_attempts"
	if _, ok := v[retired]; ok {
		t.Errorf("the version payload still reports %s: %v", retired, v)
	}

	job := `{"config":{"model":{"name":"phold"},"threads":2,"end_time":10},"` + retired + `":2}`
	for path, body := range map[string]string{
		"/v2/jobs":   job,
		"/v2/sweeps": `{"defaults":` + job + `,"seeds":[1,2]}`,
	} {
		resp, b := post(t, srv.URL+path, strings.NewReader(body))
		if resp.StatusCode != http.StatusBadRequest || b.Error == nil || b.Error.Code != CodeInvalidConfig {
			t.Errorf("POST %s with %s: status %d, envelope %+v; want 400 invalid_config", path, retired, resp.StatusCode, b.Error)
		}
	}

	now := time.Now()
	meta := JobMeta{
		ID: "job-00000001", State: StateDone, Key: "sha256:k", Cached: true, Source: SourceCache,
		Error: &ErrorInfo{Code: CodeFailed}, ResumedFrom: "ckpt-00000001.ckpt",
		SubmittedAt: now, StartedAt: now, FinishedAt: now, QueueSeconds: 1, RunSeconds: 1,
	}
	var cmeta client.JobMeta
	if err := json.Unmarshal(mustJSON(t, meta), &cmeta); err != nil {
		t.Fatal(err)
	}
	want := "id state key cached source error resumed_from submitted_at started_at finished_at queue_seconds run_seconds"
	for name, m := range map[string]any{"serve.JobMeta": meta, "client.JobMeta": cmeta} {
		if got := strings.Join(jsonKeys(t, mustJSON(t, m)), " "); got != want {
			t.Errorf("%s JSON keys\n got %s\nwant %s", name, got, want)
		}
	}
}

// A single-node manager writes no snapshot files, because nothing would
// ever read them back. Its jobs keep their cadence, which is part of the
// trajectory: a done job's result is byte-identical to a run with the
// same Every and no Dir. Whether a checkpointed job ends done, cancelled
// or on its deadline, CheckpointRoot is empty after Drain, and so is a
// Dir the spec itself carried.
func TestSingleNodeWritesNoCheckpoints(t *testing.T) {
	root := t.TempDir()
	m := New(Options{Workers: 3, QueueDepth: 4, CheckpointEvery: 2, CheckpointRoot: root})

	spec := quickSpec(6500)
	spec.Config.EndTime = 40
	spec.Config.GVTFrequency = 10
	spec.Config.Checkpoint = &ggpdes.CheckpointOptions{Every: 2, Dir: filepath.Join(root, "from-spec")}
	expire := longSpecSeed(6502)
	expire.TimeoutSeconds = 1
	var ids []string
	for _, s := range []JobSpec{spec, longSpecSeed(6501), expire} {
		st, err := m.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// Cancel only once the job has crossed several checkpoint boundaries.
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, rounds, _, err := m.Series(ids[1]); err != nil || rounds >= 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the long job never reached 8 GVT rounds")
		}
	}
	m.Cancel(ids[1])
	waitState(t, m, ids[0], StateDone)
	waitState(t, m, ids[1], StateCancelled)
	if st := waitState(t, m, ids[2], StateFailed); st.Error == nil || st.Error.Code != CodeDeadline {
		t.Fatalf("the expiring job failed with %+v, want %s", st.Error, CodeDeadline)
	}
	drain(t, m)

	if left, err := os.ReadDir(root); err != nil || len(left) > 0 {
		t.Errorf("a single-node manager left %d entries under CheckpointRoot (%v)", len(left), err)
	}

	served, _, _ := m.Result(ids[0])
	cfg := spec.Config
	cfg.Checkpoint = &ggpdes.CheckpointOptions{Every: 2}
	plain, err := ggpdes.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, served), mustJSON(t, plain); !bytes.Equal(got, want) {
		t.Fatalf("served results differ from a run with no Dir:\n got %s\nwant %s", got, want)
	}
}
