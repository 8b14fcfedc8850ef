package ggpdes

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ggpdes/internal/checkpoint"
)

// inProcWorkers returns a WorkerDialer whose "processes" are
// goroutines serving the wire protocol over a net.Pipe — the full
// framed JSON protocol with none of the process management, so the
// golden matrix stays fast and hermetic. Every dial serves a fresh
// connection, which is exactly what a redialing coordinator expects.
func inProcWorkers() WorkerDialer {
	return func(shard int) (io.ReadWriteCloser, error) {
		local, remote := net.Pipe()
		go func() {
			_ = ServeWorkerConn(remote)
			remote.Close()
		}()
		return local, nil
	}
}

// distCfg is a small checkpointed configuration; checkpoints make the
// matrix exercise the distributed quiesce/capture/restore cycle, not
// just steady-state forwarding.
func distCfg(model Model, dir string) Config {
	return Config{
		Model:                model,
		Threads:              4,
		System:               GGPDES,
		GVT:                  WaitFree,
		EndTime:              30,
		Machine:              SmallMachine(),
		GVTFrequency:         10,
		ZeroCounterThreshold: 60,
		Checkpoint:           &CheckpointOptions{Every: 2, Dir: dir},
		Series:               &SeriesOptions{},
	}
}

// scrubDist removes the dist.* wire metrics, which only the
// distributed run has; everything else in Results must match the
// in-process run exactly.
func scrubDist(res *Results) {
	for name := range res.Counters {
		if strings.HasPrefix(name, "dist.") {
			delete(res.Counters, name)
		}
	}
	for name := range res.Gauges {
		if strings.HasPrefix(name, "dist.") {
			delete(res.Gauges, name)
		}
	}
	for name := range res.Metrics.Counters {
		if strings.HasPrefix(name, "dist.") {
			delete(res.Metrics.Counters, name)
		}
	}
	for name := range res.Metrics.Gauges {
		if strings.HasPrefix(name, "dist.") {
			delete(res.Metrics.Gauges, name)
		}
	}
}

// The tentpole acceptance property: a run sharded across worker
// processes produces Results identical to the in-process run — same
// trajectory, same statistics, same histograms, same per-round series
// — for multiple models, worker counts, schedulers and GVT algorithms.
// The (System, GVT) axis reaches the bridge paths GG-PDES/WaitFree
// never takes: Barrier GVT's fused DrainLocalMin, and Baseline's
// DrainProcess without the HasExecutableWork prefetch. The variants
// are what the quiet set has to survive: an optimism window (a peer is
// quiet because its head lies beyond the horizon, until GVT advances),
// lazy cancellation (rollbacks leave cancelled heads and deferred
// anti-messages behind), a third model, and a shard of more than 64
// peers (the set is not one machine word).
func TestDistributedGoldenMatrix(t *testing.T) {
	phold := PHOLD{LPsPerThread: 4, Imbalance: 2}
	traffic := Traffic{LPsPerThread: 4, CenterStartEvents: 6}
	cases := []struct {
		model   Model
		system  System
		gvt     GVT
		workers []int
		variant string
		mutate  func(*Config)
	}{
		{model: phold, system: GGPDES, gvt: WaitFree, workers: []int{2, 4}},
		{model: traffic, system: GGPDES, gvt: WaitFree, workers: []int{2, 4}},
		{model: phold, system: Baseline, gvt: Barrier, workers: []int{2}},
		{model: phold, system: Baseline, gvt: WaitFree, workers: []int{2}},
		{model: phold, system: DDPDES, gvt: WaitFree, workers: []int{2}},
		{model: phold, system: GGPDES, gvt: Barrier, workers: []int{2}},
		{model: phold, system: GGPDES, gvt: WaitFree, workers: []int{2}, variant: "window",
			mutate: func(c *Config) { c.OptimismWindow = 2 }},
		{model: phold, system: Baseline, gvt: WaitFree, workers: []int{2}, variant: "window",
			mutate: func(c *Config) { c.OptimismWindow = 2 }},
		{model: traffic, system: GGPDES, gvt: WaitFree, workers: []int{2}, variant: "lazy",
			mutate: func(c *Config) { c.LazyCancellation = true }},
		{model: traffic, system: Baseline, gvt: WaitFree, workers: []int{2}, variant: "lazy-window",
			mutate: func(c *Config) { c.LazyCancellation, c.OptimismWindow = true, 1 }},
		{model: Epidemics{LPsPerThread: 8}, system: GGPDES, gvt: WaitFree, workers: []int{2}},
		{model: PHOLD{LPsPerThread: 1, Imbalance: 2}, system: Baseline, gvt: WaitFree, workers: []int{1}, variant: "72-threads",
			mutate: func(c *Config) { c.Threads, c.EndTime = 72, 10 }},
	}
	for _, c := range cases {
		cfg := func(dir string) Config {
			cfg := distCfg(c.model, dir)
			cfg.System, cfg.GVT = c.system, c.gvt
			if c.mutate != nil {
				c.mutate(&cfg)
			}
			return cfg
		}
		name := c.model.Name()
		if c.system != GGPDES || c.gvt != WaitFree {
			name = fmt.Sprintf("%s/%v-%v", name, c.system, c.gvt)
		}
		if c.variant != "" {
			name += "/" + c.variant
		}
		golden, err := Run(cfg(t.TempDir()))
		if err != nil {
			t.Fatalf("%s in-process: %v", name, err)
		}
		if end := cfg("").EndTime; golden.FinalGVT < end {
			t.Fatalf("%s in-process run incomplete: GVT %v", name, golden.FinalGVT)
		}
		for _, workers := range c.workers {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				res, err := RunDistributed(context.Background(), cfg(t.TempDir()),
					DistOptions{Workers: workers, Dial: inProcWorkers()})
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Gauges["dist.workers.connected"]; got != float64(workers) {
					t.Errorf("dist.workers.connected = %v, want %d", got, workers)
				}
				if res.Counters["dist.msgs_sent"] == 0 || res.Counters["dist.gvt_rounds"] == 0 {
					t.Errorf("wire counters not booked: %v", res.Counters)
				}
				if res.Counters["dist.polls_elided"] == 0 {
					t.Errorf("no poll was elided: %v", res.Counters)
				}
				scrubDist(res)
				if !reflect.DeepEqual(golden, res) {
					t.Errorf("distributed run diverged from in-process:\nin-proc: %+v\ndist:    %+v", golden, res)
				}
			})
		}
	}
}

// The data plane's shape, pinned by count: how many frames the
// coordinator sends for one fixed configuration, how many of them are
// coalesced batches, how many round trips coalescing saved, how many
// reads the cache answered and how many polls the quiet set answered
// with no frame at all. The run is deterministic, so these are exact on
// any machine; a change that silently stops coalescing, caching,
// eliding or deferring relays moves them.
func TestDistributedFrameCounts(t *testing.T) {
	res, err := RunDistributed(context.Background(), distCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}, t.TempDir()),
		DistOptions{Workers: 2, Dial: inProcWorkers()})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{
		"dist.msgs_sent":     442,
		"dist.batches":       340,
		"dist.ops_coalesced": 465,
		"dist.reads_cached":  6275,
		"dist.polls_elided":  6055,
	} {
		if got := res.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// A distributed checkpointed run writes per-shard files next to each
// full snapshot, and each shard file is a valid snapshot carrying that
// shard's slice of the engine.
func TestDistributedShardCheckpoints(t *testing.T) {
	dir := t.TempDir()
	cfg := distCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}, dir)
	if _, err := RunDistributed(context.Background(), cfg, DistOptions{Workers: 2, Dial: inProcWorkers()}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	full, shard := 0, 0
	for _, e := range entries {
		if strings.Contains(e.Name(), ".shard") {
			shard++
		} else {
			full++
		}
	}
	if full < 2 || shard != 2*full {
		t.Fatalf("want n full snapshots and 2n shard files, got %d full, %d shard", full, shard)
	}
	snap, err := checkpoint.Read(filepath.Join(dir, checkpoint.ShardFileName(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(snap.Engine.Pending); got != cfg.Threads {
		t.Fatalf("shard snapshot pending width %d, want %d", got, cfg.Threads)
	}
	for i, pend := range snap.Engine.Pending {
		if i < 2 && len(pend) > 0 {
			t.Errorf("shard 1 file holds pending events of peer %d (other shard)", i)
		}
	}
	// Latest must keep resuming from full snapshots only.
	latest, err := checkpoint.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(latest, ".shard") {
		t.Fatalf("Latest picked a shard file: %s", latest)
	}
}

// The recovery property: a seeded chaos kill of a worker mid-run makes
// the coordinator redial it, restore its shard from the last per-shard
// checkpoint, replay the interrupted segment, and finish with Results
// identical to a crash-free distributed run.
func TestDistributedWorkerCrashRecovery(t *testing.T) {
	cfg := func(dir string) Config { return distCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}, dir) }
	clean, err := RunDistributed(context.Background(), cfg(t.TempDir()),
		DistOptions{Workers: 2, Dial: inProcWorkers()})
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := RunDistributed(context.Background(), cfg(t.TempDir()), DistOptions{
		Workers:     2,
		Dial:        inProcWorkers(),
		MaxAttempts: 3,
		CrashRate:   1,
		ChaosSeed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, crashed) {
		t.Errorf("crash-recovered run diverged from crash-free run:\nclean:   %+v\ncrashed: %+v", clean, crashed)
	}
}

// A deadline reports as ErrDeadline wherever in the run it lands — the
// serving layer maps ErrDeadline to 504 and ErrCancelled to 409. Here
// it lands in the retry backoff: every non-final attempt crashes, and
// the backoff outlasts the context.
func TestDistributedDeadlineDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := RunDistributed(ctx, distCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}, t.TempDir()), DistOptions{
		Workers:      2,
		Dial:         inProcWorkers(),
		MaxAttempts:  3,
		CrashRate:    1,
		RetryBackoff: 5 * time.Second,
	})
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline during retry backoff returned %v, want ErrDeadline wrapping context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrCancelled) {
		t.Fatalf("deadline during retry backoff also reports ErrCancelled: %v", err)
	}
}

// Distributed runs reject the in-process-only features and impossible
// shardings loudly instead of silently diverging.
func TestDistributedConfigRejections(t *testing.T) {
	base := distCfg(PHOLD{LPsPerThread: 4}, "")
	cases := map[string]func() (Config, DistOptions){
		"no workers": func() (Config, DistOptions) {
			return base, DistOptions{Dial: inProcWorkers()}
		},
		"no dialer": func() (Config, DistOptions) {
			return base, DistOptions{Workers: 2}
		},
		"uneven shards": func() (Config, DistOptions) {
			return base, DistOptions{Workers: 3, Dial: inProcWorkers()}
		},
		"chaos": func() (Config, DistOptions) {
			c := base
			c.Chaos = &ChaosOptions{DropSendRate: 0.1}
			return c, DistOptions{Workers: 2, Dial: inProcWorkers()}
		},
		"trace": func() (Config, DistOptions) {
			c := base
			c.Trace = &TraceOptions{}
			return c, DistOptions{Workers: 2, Dial: inProcWorkers()}
		},
		"telemetry": func() (Config, DistOptions) {
			c := base
			c.Telemetry = NewRegistry()
			return c, DistOptions{Workers: 2, Dial: inProcWorkers()}
		},
	}
	for name, mk := range cases {
		c, opts := mk()
		if _, err := RunDistributed(context.Background(), c, opts); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}
