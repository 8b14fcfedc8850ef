// Command ggload drives one or more ggserved replicas: a closed-loop
// or open-loop load generator that doubles as a serving benchmark,
// plus the deterministic smoke sequences behind `make serve-smoke` and
// `make cluster-smoke`.
//
//	ggload -addr localhost:8347 -concurrency 16 -jobs 200        # closed loop
//	ggload -addr localhost:8347 -rate 50 -duration 30s           # open loop
//	ggload -addr localhost:8347 -smoke                           # CI smoke test
//	ggload -addrs a,b,c -cluster-smoke -pids p1,p2,p3 \
//	       -checkpoint-root /dir                                 # CI cluster test
//
// Closed loop keeps -concurrency submissions in flight, each waited to
// a terminal state before the next is issued — the sweep axis for the
// EXPERIMENTS.md throughput-vs-concurrency curve. Open loop submits at
// a fixed -rate regardless of completions, exercising the 429
// backpressure path. All transport rides the typed /v2 client
// (internal/serve/client).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ggpdes"
	"ggpdes/internal/checkpoint"
	"ggpdes/internal/serve"
	"ggpdes/internal/serve/client"
	"ggpdes/internal/serve/cluster"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8347", "ggserved host:port")
		addrsFlag   = flag.String("addrs", "", "comma-separated replica host:ports (cluster modes; load gen round-robins)")
		concurrency = flag.Int("concurrency", 8, "closed-loop in-flight submissions")
		jobs        = flag.Int("jobs", 64, "closed-loop total jobs")
		rate        = flag.Float64("rate", 0, "open-loop submissions per second (0 = closed loop)")
		duration    = flag.Duration("duration", 10*time.Second, "open-loop run length")
		model       = flag.String("model", "phold", "workload: phold | epidemics | traffic")
		threads     = flag.Int("threads", 4, "simulation threads per job")
		lps         = flag.Int("lps", 4, "LPs per thread")
		endTime     = flag.Float64("end", 20, "virtual end time per job")
		cores       = flag.Int("cores", 8, "simulated cores per job")
		smt         = flag.Int("smt", 2, "SMT contexts per core")
		seedBase    = flag.Uint64("seed-base", 1, "first seed; each job gets seed-base+i unless -same-config")
		sameConfig  = flag.Bool("same-config", false, "submit identical configs (measures the cache path)")
		jobTimeout  = flag.Float64("job-timeout", 120, "timeout_seconds sent with each job")
		pollEvery   = flag.Duration("poll", 20*time.Millisecond, "pause after a non-terminal status answer before asking again (the server holds each status request until the job ends, up to 30s)")
		smoke       = flag.Bool("smoke", false, "run the deterministic smoke sequence and exit 0/1")
		cluSmoke    = flag.Bool("cluster-smoke", false, "run the clustered-serving smoke against -addrs and exit 0/1")
		pidsFlag    = flag.String("pids", "", "cluster-smoke: replica pids matching -addrs order (enables the kill/failover leg)")
		ckptRoot    = flag.String("checkpoint-root", "", "cluster-smoke: the fleet's shared checkpoint root (for kill timing)")
		freePorts   = flag.Int("free-ports", 0, "print N free 127.0.0.1 host:ports and exit (for scripts wiring static -peers fleets)")
	)
	flag.Parse()

	// Static peer fleets need every replica's address before any of
	// them starts, so :0 can't be used directly; this reserves ports by
	// binding and releasing them (the usual benign reuse race).
	if *freePorts > 0 {
		lns := make([]net.Listener, *freePorts)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				exitOn("free-ports", err)
			}
			lns[i] = ln
		}
		for _, ln := range lns {
			fmt.Println(ln.Addr().String())
			ln.Close()
		}
		return
	}

	addrs := []string{*addr}
	if *addrsFlag != "" {
		addrs = addrs[:0]
		for _, a := range strings.Split(*addrsFlag, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
	}
	clients := make([]*client.Client, len(addrs))
	for i, a := range addrs {
		clients[i] = client.New("http://"+a, nil)
		clients[i].Poll = *pollEvery
	}
	ctx := context.Background()

	switch {
	case *smoke:
		exitOn("smoke", runSmoke(ctx, clients[0]))
		return
	case *cluSmoke:
		exitOn("cluster smoke", runClusterSmoke(ctx, addrs, clients, *pidsFlag, *ckptRoot))
		return
	}

	spec := func(i int) client.JobSpec {
		seed := *seedBase
		if !*sameConfig {
			seed += uint64(i)
		}
		var m ggpdes.Model
		switch *model {
		case "epidemics":
			m = ggpdes.Epidemics{LPsPerThread: *lps}
		case "traffic":
			m = ggpdes.Traffic{LPsPerThread: *lps}
		default:
			m = ggpdes.PHOLD{LPsPerThread: *lps}
		}
		return client.JobSpec{
			Config: ggpdes.Config{
				Model:   m,
				Threads: *threads,
				System:  ggpdes.GGPDES,
				GVT:     ggpdes.WaitFree,
				Machine: ggpdes.Machine{Cores: *cores, SMTWidth: *smt},
				EndTime: *endTime,
				Seed:    seed,
			},
			TimeoutSeconds: *jobTimeout,
		}
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		states    = map[string]int{}
		rejected  atomic.Uint64
		failures  atomic.Uint64
	)
	record := func(state string, d time.Duration) {
		mu.Lock()
		states[state]++
		latencies = append(latencies, d)
		mu.Unlock()
	}

	runOne := func(i int) {
		c := clients[i%len(clients)]
		start := time.Now()
		meta, err := c.Submit(ctx, spec(i))
		if err != nil {
			var ce *client.Error
			if isClientError(err, &ce) && ce.Code == "queue_full" {
				rejected.Add(1)
			} else {
				failures.Add(1)
			}
			return
		}
		final, err := c.Wait(ctx, meta.ID)
		if err != nil {
			failures.Add(1)
			return
		}
		state := final.State
		if final.Cached {
			state = "cached"
		}
		record(state, time.Since(start))
	}

	wallStart := time.Now()
	if *rate > 0 {
		var wg sync.WaitGroup
		tick := time.NewTicker(time.Duration(float64(time.Second) / *rate))
		defer tick.Stop()
		stop := time.After(*duration)
		i := 0
	open:
		for {
			select {
			case <-stop:
				break open
			case <-tick.C:
				wg.Add(1)
				go func(i int) { defer wg.Done(); runOne(i) }(i)
				i++
			}
		}
		wg.Wait()
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					runOne(i)
				}
			}()
		}
		for i := 0; i < *jobs; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	wall := time.Since(wallStart)

	mu.Lock()
	defer mu.Unlock()
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	q := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	fmt.Printf("wall            : %s\n", wall.Round(time.Millisecond))
	fmt.Printf("completed       : %d (%.1f jobs/s)\n", len(latencies), float64(len(latencies))/wall.Seconds())
	for state, n := range states {
		fmt.Printf("  %-14s: %d\n", state, n)
	}
	fmt.Printf("rejected (429)  : %d\n", rejected.Load())
	fmt.Printf("errors          : %d\n", failures.Load())
	if len(latencies) > 0 {
		fmt.Printf("latency p50     : %s\n", q(0.50).Round(time.Millisecond))
		fmt.Printf("latency p90     : %s\n", q(0.90).Round(time.Millisecond))
		fmt.Printf("latency p99     : %s\n", q(0.99).Round(time.Millisecond))
		fmt.Printf("latency max     : %s\n", latencies[len(latencies)-1].Round(time.Millisecond))
	}
	if failures.Load() > 0 {
		os.Exit(1)
	}
}

func exitOn(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ggload: %s FAILED: %v\n", what, err)
		os.Exit(1)
	}
	fmt.Printf("ggload: %s OK\n", what)
}

// isClientError unwraps err into *client.Error.
func isClientError(err error, target **client.Error) bool {
	return errors.As(err, target)
}

// pholdSpec is the smoke workload: small, fast, deterministic.
func pholdSpec(seed uint64, end float64) client.JobSpec {
	return client.JobSpec{
		Config: ggpdes.Config{
			Model:   ggpdes.PHOLD{LPsPerThread: 4},
			Threads: 4,
			System:  ggpdes.GGPDES,
			GVT:     ggpdes.WaitFree,
			Machine: ggpdes.Machine{Cores: 8, SMTWidth: 2},
			EndTime: end,
			Seed:    seed,
		},
		TimeoutSeconds: 120,
	}
}

// waitDone waits the job to a terminal state and requires done.
func waitDone(ctx context.Context, c *client.Client, id string) (client.JobMeta, error) {
	wctx, cancel := context.WithTimeout(ctx, 10*time.Minute)
	defer cancel()
	final, err := c.Wait(wctx, id)
	if err != nil {
		return final, fmt.Errorf("wait %s: %w", id, err)
	}
	if final.State != "done" {
		msg := "no error"
		if final.Error != nil {
			msg = final.Error.Message
		}
		return final, fmt.Errorf("job %s finished %s (%s)", id, final.State, msg)
	}
	return final, nil
}

// runSmoke is the deterministic CI sequence behind `make serve-smoke`:
// healthz, submit a small PHOLD job, wait it to done, fetch the
// result, resubmit the identical spec and require a cache hit backed
// by the server's hit counter.
func runSmoke(ctx context.Context, c *client.Client) error {
	h, err := c.Healthz(ctx)
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if h.Status != "ok" {
		return fmt.Errorf("healthz status %q", h.Status)
	}

	spec := pholdSpec(424242, 20)
	meta, err := c.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if _, err := waitDone(ctx, c, meta.ID); err != nil {
		return err
	}
	_, res, err := c.Result(ctx, meta.ID)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	if res == nil || res.CommittedEvents == 0 {
		return fmt.Errorf("result has zero committed events")
	}

	meta2, err := c.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("resubmit: %w", err)
	}
	if !meta2.Cached || meta2.State != "done" || meta2.Source != "cache" {
		return fmt.Errorf("resubmit not served from cache: %+v", meta2)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if stats.Counters["serve.cache_hits"] == 0 {
		return fmt.Errorf("server reports zero cache hits after a hit: %v", stats.Counters)
	}
	return nil
}

// fleetSimulations sums serve.simulations (jobs the engine actually
// ran) across every replica — the fleet-wide dedup ledger.
func fleetSimulations(ctx context.Context, clients []*client.Client) (uint64, error) {
	var total uint64
	for _, c := range clients {
		stats, err := c.Stats(ctx)
		if err != nil {
			return 0, fmt.Errorf("stats %s: %w", c.Base(), err)
		}
		total += stats.Counters["serve.simulations"]
	}
	return total, nil
}

// runClusterSmoke is the CI sequence behind `make cluster-smoke`,
// against a 3-replica fleet sharing a checkpoint root:
//
//  1. every replica reports the full fleet healthy;
//  2. an identical config submitted to two different replicas
//     simulates exactly once fleet-wide, the second answered from the
//     owner's cache;
//  3. a sweep with duplicated members streams every member over SSE
//     and simulates only the unique configs;
//  4. (with -pids) the replica owning a long job is killed mid-run
//     and a survivor finishes the job from the shared checkpoint.
func runClusterSmoke(ctx context.Context, addrs []string, clients []*client.Client, pidsFlag, ckptRoot string) error {
	if len(addrs) < 3 {
		return fmt.Errorf("cluster smoke needs -addrs with >= 3 replicas, got %d", len(addrs))
	}

	// 1: fleet health.
	for i, c := range clients {
		h, err := c.Healthz(ctx)
		if err != nil {
			return fmt.Errorf("healthz %s: %w", addrs[i], err)
		}
		if h.Status != "ok" || h.ClusterSize != len(addrs) || len(h.Peers) != len(addrs)-1 {
			return fmt.Errorf("replica %s unhealthy: %+v", addrs[i], h)
		}
		for _, p := range h.Peers {
			if !p.OK {
				return fmt.Errorf("replica %s cannot reach peer %s: %s", addrs[i], p.Addr, p.Error)
			}
		}
	}

	// 2: duplicate submit across replicas simulates once.
	before, err := fleetSimulations(ctx, clients)
	if err != nil {
		return err
	}
	spec := pholdSpec(909090, 20)
	meta, err := clients[0].Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("submit to %s: %w", addrs[0], err)
	}
	if _, err := waitDone(ctx, clients[0], meta.ID); err != nil {
		return err
	}
	meta2, err := clients[1].Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("duplicate submit to %s: %w", addrs[1], err)
	}
	final2, err := waitDone(ctx, clients[1], meta2.ID)
	if err != nil {
		return err
	}
	if !final2.Cached {
		return fmt.Errorf("duplicate submit simulated again: %+v", final2)
	}
	after, err := fleetSimulations(ctx, clients)
	if err != nil {
		return err
	}
	if after-before != 1 {
		return fmt.Errorf("duplicate config ran %d fleet simulations, want 1", after-before)
	}
	fmt.Printf("ggload: duplicate submit deduped (source %q, 1 fleet simulation)\n", final2.Source)

	// 3: sweep with duplicated members over SSE.
	before = after
	sweep := client.SweepSpec{
		Defaults: pholdSpec(0, 20),
		Seeds:    []uint64{611, 612, 613, 614, 611, 612, 613, 614},
	}
	st, err := clients[2].Sweep(ctx, sweep)
	if err != nil {
		return fmt.Errorf("sweep submit: %w", err)
	}
	events := 0
	finalSt, err := clients[2].SweepEvents(ctx, st.ID, func(ev client.SweepEvent) error {
		if ev.Seq != events {
			return fmt.Errorf("sweep event out of order: seq %d at position %d", ev.Seq, events)
		}
		events++
		if ev.Job.State != "done" {
			return fmt.Errorf("sweep member %d finished %s", ev.Index, ev.Job.State)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sweep events: %w", err)
	}
	if events != len(sweep.Seeds) || finalSt.State != "done" || finalSt.Done != len(sweep.Seeds) {
		return fmt.Errorf("sweep streamed %d events, final %+v", events, finalSt)
	}
	after, err = fleetSimulations(ctx, clients)
	if err != nil {
		return err
	}
	if after-before != 4 {
		return fmt.Errorf("sweep of 8 members (4 unique) ran %d fleet simulations, want 4", after-before)
	}
	fmt.Printf("ggload: sweep streamed %d members over SSE, 4 fleet simulations\n", events)

	// 4: kill the owner mid-job; a survivor resumes from the shared
	// checkpoint.
	if pidsFlag == "" {
		fmt.Println("ggload: no -pids, skipping the failover leg")
		return nil
	}
	pids := make([]int, 0, len(addrs))
	for _, p := range strings.Split(pidsFlag, ",") {
		pid, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return fmt.Errorf("bad -pids entry %q: %w", p, err)
		}
		pids = append(pids, pid)
	}
	if len(pids) != len(addrs) {
		return fmt.Errorf("-pids has %d entries for %d addrs", len(pids), len(addrs))
	}
	return runFailover(ctx, addrs, clients, pids, ckptRoot)
}

// runFailover submits a long checkpointing job to a non-owner
// replica, kills the owner once a checkpoint exists, and requires the
// submitting replica to finish the job itself from that checkpoint.
func runFailover(ctx context.Context, addrs []string, clients []*client.Client, pids []int, ckptRoot string) error {
	if ckptRoot == "" {
		return fmt.Errorf("the failover leg needs -checkpoint-root (the fleet's shared root)")
	}
	// The same ring the fleet uses tells us each config's owner; pick a
	// seed whose owner is not the replica we submit to.
	ring := cluster.New(cluster.Options{Self: addrs[0], Peers: addrs[1:]})
	var spec client.JobSpec
	victim := -1
	for seed := uint64(777000); victim < 0; seed++ {
		spec = pholdSpec(seed, 20000)
		spec.Config.GVTFrequency = 10
		// Set Checkpoint on the Config itself, not via CheckpointEvery:
		// the cadence is part of the cache key, and the key computed
		// here must match the one the fleet hashes server-side.
		spec.Config.Checkpoint = &ggpdes.CheckpointOptions{Every: 10}
		spec.TimeoutSeconds = 600
		key, err := spec.Config.CacheKey()
		if err != nil {
			return err
		}
		owner, self := ring.Owner(key)
		ownerAddr := addrs[0]
		if !self {
			ownerAddr = owner.Addr()
		}
		for i, a := range addrs {
			if a == ownerAddr && i != 0 {
				victim = i
			}
		}
	}
	key, _ := spec.Config.CacheKey()
	fmt.Printf("ggload: failover job owned by %s, submitting via %s\n", addrs[victim], addrs[0])

	meta, err := clients[0].Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("failover submit: %w", err)
	}

	// Kill only after the owner has written a checkpoint, so the
	// survivor has something to resume from.
	dir := serve.KeyedCheckpointDir(ckptRoot, key)
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if names, err := filepath.Glob(filepath.Join(dir, checkpoint.Glob)); err == nil && len(names) > 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no checkpoint appeared in %s", dir)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(pids[victim], syscall.SIGKILL); err != nil {
		return fmt.Errorf("kill replica %s (pid %d): %w", addrs[victim], pids[victim], err)
	}
	fmt.Printf("ggload: killed %s (pid %d) mid-job\n", addrs[victim], pids[victim])

	final, err := waitDone(ctx, clients[0], meta.ID)
	if err != nil {
		return fmt.Errorf("job did not survive the owner's death: %w", err)
	}
	if final.ResumedFrom == "" {
		return fmt.Errorf("failover job did not resume from a checkpoint: %+v", final)
	}
	stats, err := clients[0].Stats(ctx)
	if err != nil {
		return err
	}
	if stats.Counters["cluster.failovers"] == 0 {
		return fmt.Errorf("cluster.failovers is zero after a failover: %v", stats.Counters)
	}
	fmt.Printf("ggload: job finished on the survivor, resumed from %s (failovers=%d)\n",
		final.ResumedFrom, stats.Counters["cluster.failovers"])
	return nil
}
