// Command ggserved serves simulations over HTTP: a bounded job queue
// with 429 backpressure, a GOMAXPROCS worker pool, and a deterministic
// content-addressed result cache. A job runs once; a failed one is
// resubmitted by its client and replays the same trajectory.
//
//	ggserved -addr :8347
//	curl -s localhost:8347/v2/jobs -d '{"config":{"model":{"name":"phold"},"threads":8,"end_time":30}}'
//	curl -s localhost:8347/v2/jobs/job-00000001
//
// Observability: GET /metrics serves the OpenMetrics exposition of
// the serve.* plane plus the engine metrics of every completed job;
// GET /v2/jobs/{id}/series streams a job's per-GVT-round time series;
// -pprof-addr opens net/http/pprof on a separate listener so profiling
// never shares a port with the public API.
//
// Clustering: -peers (or GGSERVED_PEERS) lists the other replicas of
// a static fleet. Replicas route jobs by consistent hashing on the
// config's cache key — the owner simulates, everyone else fills from
// its cache or delegates to it — so identical submissions anywhere in
// the fleet simulate once. A shared -checkpoint-root lets any replica
// resume a dead peer's job from its latest checkpoint.
//
// SIGTERM/SIGINT drains gracefully: admission stops (503), running
// jobs finish, then the process exits.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ggpdes/internal/serve"
	"ggpdes/internal/serve/cluster"
	"ggpdes/internal/telemetry"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so idle or trickling clients cannot pin connections
// open forever. Bodies are bounded separately, by size, in the handlers.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr       = flag.String("addr", ":8347", "listen address (use :0 for an ephemeral port)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using :0)")
		workers    = flag.Int("workers", 0, "concurrent simulation runs (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 64, "jobs admitted but not yet running before 429s")
		cacheSize  = flag.Int("cache-entries", 256, "result cache bound, and so how many finished jobs' results stay readable (at least 1)")
		retainJobs = flag.Int("retain-jobs", 4096, "finished jobs whose status stays queryable (negative = unlimited)")
		defTimeout = flag.Duration("default-timeout", 0, "per-job real-time deadline unless the spec sets one (0 = none)")
		drainGrace = flag.Duration("drain-timeout", 5*time.Minute, "how long to wait for in-flight jobs on shutdown")
		ckptRoot   = flag.String("checkpoint-root", "", "directory the fleet shares for keyed checkpoints, read only with -peers (empty = no checkpoint files)")
		ckptEvery  = flag.Int("checkpoint-every", 0, "checkpoint every N GVT rounds unless the spec sets it (0 = off)")
		seriesLim  = flag.Int("series-limit", 0, "per-job live series ring size in GVT rounds (0 = default, negative disables)")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		peersFlag  = flag.String("peers", "", "comma-separated peer addresses (host:port) forming a static fleet (or GGSERVED_PEERS)")
		advertise  = flag.String("advertise", "", "address peers reach this replica at (default: the bound listen address)")
	)
	flag.Parse()
	if *cacheSize < 1 {
		// The cache is where finished jobs' results live: there is no
		// running without one.
		fmt.Fprintf(os.Stderr, "ggserved: -cache-entries %d: must be at least 1\nusage: ggserved [-cache-entries N] (N >= 1 results kept; see -h)\n", *cacheSize)
		os.Exit(2)
	}

	peersSpec := *peersFlag
	if peersSpec == "" {
		peersSpec = os.Getenv("GGSERVED_PEERS")
	}
	var peers []string
	for _, p := range strings.Split(peersSpec, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}

	// Listen before building the manager: the cluster layer needs this
	// replica's advertised address, and with -addr :0 that only exists
	// once the socket is bound.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fatalf("%v", err)
		}
	}

	reg := telemetry.NewRegistry()
	var clu *cluster.Cluster
	if len(peers) > 0 {
		self := *advertise
		if self == "" {
			self = ln.Addr().String()
		}
		clu = cluster.New(cluster.Options{Self: self, Peers: peers, Registry: reg})
		fmt.Fprintf(os.Stderr, "ggserved: clustered as %s with peers %s\n", self, strings.Join(peers, ","))
	}

	// Every job context derives from procCtx, so cancelling it after an
	// incomplete drain hard-stops stragglers instead of abandoning them.
	procCtx, stopJobs := context.WithCancel(context.Background())
	defer stopJobs()

	mgr := serve.NewContext(procCtx, serve.Options{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CacheEntries:    *cacheSize,
		RetainJobs:      *retainJobs,
		DefaultTimeout:  *defTimeout,
		CheckpointRoot:  *ckptRoot,
		CheckpointEvery: *ckptEvery,
		SeriesLimit:     *seriesLim,
		Registry:        reg,
		Cluster:         clu,
	})

	// Publish the serve registry under expvar so one scrape covers the
	// Go runtime vars and the service counters.
	expvar.Publish("ggserved", expvar.Func(func() any {
		reg := mgr.Registry()
		return map[string]any{
			"counters":   reg.Counters(),
			"gauges":     reg.Gauges(),
			"histograms": reg.Histograms(),
		}
	}))

	mux := http.NewServeMux()
	mux.Handle("/v2/", mgr.Handler())
	mux.Handle("/metrics", mgr.MetricsHandler())
	mux.Handle("/debug/vars", expvar.Handler())

	// pprof goes on its own listener: profiling endpoints expose heap
	// contents and should never ride on the public API port by accident.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatalf("pprof listen: %v", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(os.Stderr, "ggserved: pprof on %s\n", pln.Addr())
		//ggvet:allow(process-lifetime debug listener: the pprof server serves until exit and holds no job state worth draining)
		go func() { _ = http.Serve(pln, pmux) }()
	}

	fmt.Fprintf(os.Stderr, "ggserved: listening on %s (%d workers, queue %d, cache %d)\n",
		ln.Addr(), mgr.Workers(), mgr.QueueDepth(), *cacheSize)

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "ggserved: %s, draining (up to %s)\n", s, *drainGrace)
	case err := <-done:
		fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := mgr.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "ggserved: drain incomplete: %v, cancelling in-flight jobs\n", err)
		stopJobs()
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "ggserved: shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "ggserved: bye")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ggserved: "+format+"\n", args...)
	os.Exit(2)
}
