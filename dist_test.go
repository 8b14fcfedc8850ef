package ggpdes

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"ggpdes/internal/dist"
)

// inProcWorkers returns a WorkerDialer whose "processes" are
// goroutines serving the wire protocol over a net.Pipe — the full
// framed protocol with none of the process management, so the golden
// matrix stays fast and hermetic. Every dial serves a fresh connection.
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

// distCfg is a small configuration every distributed test starts from.
func distCfg(model Model) Config {
	return Config{
		Model:                model,
		Threads:              4,
		System:               GGPDES,
		GVT:                  WaitFree,
		EndTime:              30,
		Machine:              SmallMachine(),
		GVTFrequency:         10,
		ZeroCounterThreshold: 60,
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
// trajectory, same statistics, same histograms — for multiple models,
// worker counts, schedulers and GVT algorithms.
// The (System, GVT) axis reaches the bridge paths GG-PDES/WaitFree
// never takes: Barrier GVT's fused DrainLocalMin, and Baseline's
// DrainProcess without the HasExecutableWork prefetch. The variants
// are what the quiet set has to survive: an optimism window (a peer is
// quiet because its head lies beyond the horizon, until GVT advances),
// rollback-heavy Traffic behind a window (rollbacks leave cancelled
// heads behind), a third model, and a shard of more than 64 peers (the
// set is not one machine word).
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
		{model: traffic, system: Baseline, gvt: WaitFree, workers: []int{2}, variant: "window",
			mutate: func(c *Config) { c.OptimismWindow = 1 }},
		{model: Epidemics{LPsPerThread: 8}, system: GGPDES, gvt: WaitFree, workers: []int{2}},
		{model: PHOLD{LPsPerThread: 1, Imbalance: 2}, system: Baseline, gvt: WaitFree, workers: []int{1}, variant: "72-threads",
			mutate: func(c *Config) { c.Threads, c.EndTime = 72, 10 }},
	}
	for _, c := range cases {
		cfg := func() Config {
			cfg := distCfg(c.model)
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
		golden, err := Run(cfg())
		if err != nil {
			t.Fatalf("%s in-process: %v", name, err)
		}
		if end := cfg().EndTime; golden.FinalGVT < end {
			t.Fatalf("%s in-process run incomplete: GVT %v", name, golden.FinalGVT)
		}
		for _, workers := range c.workers {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				res, err := RunDistributed(context.Background(), cfg(),
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
// eliding or deferring relays moves them. The pins were read off the
// parent of the change that removed series recording from distributed
// runs, on this same series-free config (with a series attached that
// parent also sent one probe frame per worker per sample, 14 more
// msgs_sent): equal pins mean the hot path sends the same frames it
// did.
func TestDistributedFrameCounts(t *testing.T) {
	res, err := RunDistributed(context.Background(), distCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}),
		DistOptions{Workers: 2, Dial: inProcWorkers()})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{
		"dist.msgs_sent":     181,
		"dist.batches":       171,
		"dist.ops_coalesced": 225,
		"dist.reads_cached":  1932,
		"dist.polls_elided":  1815,
	} {
		if got := res.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// Distributed runs reject the in-process-only features and impossible
// shardings loudly, as invalid configs, instead of silently diverging.
func TestDistributedConfigRejections(t *testing.T) {
	base := distCfg(PHOLD{LPsPerThread: 4})
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
		"checkpoint": func() (Config, DistOptions) {
			c := base
			c.Checkpoint = &CheckpointOptions{Every: 2}
			return c, DistOptions{Workers: 2, Dial: inProcWorkers()}
		},
		"chaos": func() (Config, DistOptions) {
			c := base
			c.Chaos = &ChaosOptions{StallRate: 0.1}
			return c, DistOptions{Workers: 2, Dial: inProcWorkers()}
		},
		"trace": func() (Config, DistOptions) {
			c := base
			c.Trace = &TraceOptions{}
			return c, DistOptions{Workers: 2, Dial: inProcWorkers()}
		},
		"series": func() (Config, DistOptions) {
			c := base
			c.Series = &SeriesOptions{}
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
		if _, err := RunDistributed(context.Background(), c, opts); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: got %v, want ErrInvalidConfig", name, err)
		}
	}
}

// droppingConn is a coordinator-side worker connection that goes away
// after a fixed number of writes: the remote end sees EOF and its
// ServeWorkerConn returns, the coordinator sees a transport failure.
type droppingConn struct {
	io.ReadWriteCloser
	writes int // writes left before the connection drops
}

func (c *droppingConn) Write(p []byte) (int, error) {
	if c.writes == 0 {
		c.ReadWriteCloser.Close()
		return 0, io.ErrClosedPipe
	}
	c.writes--
	return c.ReadWriteCloser.Write(p)
}

// A distributed run is one attempt: a worker lost mid-run fails it with
// an error wrapping dist.ErrWorkerLost and no Results, and that error
// is neither ErrCancelled nor ErrDeadline, so the serving layer cannot
// read a lost worker as a client cancel or a timeout.
func TestDistributedWorkerLossFailsRun(t *testing.T) {
	serve := inProcWorkers()
	var lost *droppingConn
	dial := func(shard int) (io.ReadWriteCloser, error) {
		c, err := serve(shard)
		if err != nil || shard != 1 {
			return c, err
		}
		lost = &droppingConn{ReadWriteCloser: c, writes: 40}
		return lost, nil
	}
	done := make(chan struct{})
	var res *Results
	var err error
	go func() {
		defer close(done)
		res, err = RunDistributed(context.Background(), distCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}),
			DistOptions{Workers: 2, Dial: dial})
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("run with a lost worker did not return")
	}
	if res != nil || !errors.Is(err, dist.ErrWorkerLost) {
		t.Fatalf("run returned %+v, %v; want an error wrapping dist.ErrWorkerLost", res, err)
	}
	if errors.Is(err, ErrCancelled) || errors.Is(err, ErrDeadline) {
		t.Fatalf("worker loss also reports a context stop: %v", err)
	}
	if lost == nil || lost.writes != 0 {
		t.Fatalf("worker 1's connection never dropped (%+v); the run failed for another reason: %v", lost, err)
	}
}

// countingConn is a coordinator-side worker connection that calls
// onWrite for every frame the coordinator sends (the client ships one
// frame per Write).
type countingConn struct {
	io.ReadWriteCloser
	onWrite func()
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.onWrite()
	return c.ReadWriteCloser.Write(p)
}

// A context stop lands mid-run on the coordinator's machine and reports
// as it does in process: ErrCancelled for a cancel, ErrDeadline for an
// expired deadline, each wrapping the context's error and not the other
// sentinel — the serving layer maps them to 409 and 504.
func TestDistributedContextStop(t *testing.T) {
	cases := []struct {
		name      string
		want, not error
		ctxErr    error
		arm       func() (context.Context, func())
	}{
		{"cancelled", ErrCancelled, ErrDeadline, context.Canceled, func() (context.Context, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			return ctx, cancel
		}},
		{"deadline", ErrDeadline, ErrCancelled, context.DeadlineExceeded, func() (context.Context, func()) {
			ctx := &expiringContext{context.Background(), make(chan struct{})}
			return ctx, func() { close(ctx.done) }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, stop := c.arm()
			// Stop at the coordinator's third frame — the first batch
			// after both workers' init — well before EndTime.
			frames := 0
			serve := inProcWorkers()
			dial := func(shard int) (io.ReadWriteCloser, error) {
				conn, err := serve(shard)
				if err != nil {
					return nil, err
				}
				return &countingConn{ReadWriteCloser: conn, onWrite: func() {
					if frames++; frames == 3 {
						stop()
					}
				}}, nil
			}
			res, err := RunDistributed(ctx, distCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}),
				DistOptions{Workers: 2, Dial: dial})
			if frames < 3 {
				t.Fatalf("run ended after %d of 3 coordinator frames: %v", frames, err)
			}
			if res != nil || !errors.Is(err, c.want) || !errors.Is(err, c.ctxErr) {
				t.Fatalf("run returned %+v, %v; want %v wrapping %v", res, err, c.want, c.ctxErr)
			}
			if errors.Is(err, c.not) || errors.Is(err, dist.ErrWorkerLost) {
				t.Fatalf("%s run also reports %v or a lost worker: %v", c.name, c.not, err)
			}
		})
	}
}
