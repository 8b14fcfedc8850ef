package serve

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ggpdes/internal/checkpoint"
	"ggpdes/internal/serve/client"
	"ggpdes/internal/serve/cluster"
	"ggpdes/internal/telemetry"
)

// fleet is an in-process cluster: one Manager + HTTP server per
// member, real TCP between them, one shared checkpoint root.
type fleet struct {
	addrs   []string
	mgrs    []*Manager
	regs    []*telemetry.Registry
	servers []*http.Server
	cancels []context.CancelFunc
	clients []*client.Client
	root    string
	killed  []bool
}

// startFleet boots n replicas. Listeners are bound before any manager
// is built so every member knows the full address list up front (the
// same order ggserved's -peers flag establishes).
func startFleet(t *testing.T, n int, mutate func(i int, o *Options)) *fleet {
	t.Helper()
	f := &fleet{root: t.TempDir(), killed: make([]bool, n)}
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		f.addrs = append(f.addrs, ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		var peers []string
		for j, a := range f.addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		reg := telemetry.NewRegistry()
		clu := cluster.New(cluster.Options{Self: f.addrs[i], Peers: peers, Registry: reg})
		ctx, cancel := context.WithCancel(context.Background())
		opts := Options{
			Workers:         2,
			QueueDepth:      32,
			CheckpointRoot:  f.root,
			CheckpointEvery: 2,
			Registry:        reg,
			Cluster:         clu,
		}
		if mutate != nil {
			mutate(i, &opts)
		}
		m := NewContext(ctx, opts)
		srv := &http.Server{Handler: m.Handler()}
		go func(srv *http.Server, ln net.Listener) { _ = srv.Serve(ln) }(srv, listeners[i])
		f.mgrs = append(f.mgrs, m)
		f.regs = append(f.regs, reg)
		f.servers = append(f.servers, srv)
		f.cancels = append(f.cancels, cancel)
		f.clients = append(f.clients, client.New("http://"+f.addrs[i], nil))
	}
	t.Cleanup(func() {
		for i := range f.mgrs {
			if f.killed[i] {
				continue
			}
			_ = f.servers[i].Close()
			drain(t, f.mgrs[i])
			f.cancels[i]()
		}
	})
	return f
}

// kill simulates a replica dying: active connections are severed and
// its in-flight jobs hard-stopped, exactly what SIGKILL does to a
// real ggserved.
func (f *fleet) kill(i int) {
	f.killed[i] = true
	_ = f.servers[i].Close()
	f.cancels[i]()
}

// simulations sums serve.simulations across the fleet — the number of
// times any engine actually ran.
func (f *fleet) simulations() uint64 {
	var total uint64
	for _, reg := range f.regs {
		total += reg.Counters()[MetricSimulations]
	}
	return total
}

// counter sums one counter across the fleet.
func (f *fleet) counter(name string) uint64 {
	var total uint64
	for _, reg := range f.regs {
		total += reg.Counters()[name]
	}
	return total
}

// jobKey computes the cache key a spec will be routed by, exactly as
// Submit does.
func jobKey(t *testing.T, m *Manager, spec JobSpec) string {
	t.Helper()
	cfg, err := spec.config(m.opts)
	if err != nil {
		t.Fatal(err)
	}
	key, err := cfg.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// ownerIndex resolves which fleet member owns a key on the ring.
func (f *fleet) ownerIndex(key string) int {
	owner, self := f.mgrs[0].clu.Owner(key)
	addr := f.addrs[0]
	if !self {
		addr = owner.Addr()
	}
	for i, a := range f.addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

// pickSeed finds a seed whose config is owned by the given member.
func (f *fleet) pickSeed(t *testing.T, base uint64, wantOwner int, make func(seed uint64) JobSpec) (JobSpec, string) {
	t.Helper()
	for seed := base; seed < base+1000; seed++ {
		spec := make(seed)
		key := jobKey(t, f.mgrs[0], spec)
		if f.ownerIndex(key) == wantOwner {
			return spec, key
		}
	}
	t.Fatalf("no seed in [%d,%d) hashes to member %d", base, base+1000, wantOwner)
	return JobSpec{}, ""
}

// A config submitted to every replica simulates exactly once
// fleet-wide: the first submission runs on the key's owner (delegated
// when submitted elsewhere), later ones are answered from the owner's
// cache over the fill protocol.
func TestClusterFleetDedup(t *testing.T) {
	f := startFleet(t, 3, nil)

	// Owned by member 1, submitted to member 0 — the first submit must
	// delegate, proving routing, not just caching.
	spec, key := f.pickSeed(t, 4100, 1, quickSpec)

	st, err := f.mgrs[0].Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	first := waitState(t, f.mgrs[0], st.ID, StateDone)
	if first.Source != SourceRemote || !first.Cached {
		t.Fatalf("delegated job has source %q cached %t, want remote/true", first.Source, first.Cached)
	}
	if got := f.simulations(); got != 1 {
		t.Fatalf("first submit ran %d fleet simulations, want 1", got)
	}
	if f.regs[0].Counters()[cluster.MetricDelegated] != 1 {
		t.Fatalf("member 0 delegated %d jobs, want 1", f.regs[0].Counters()[cluster.MetricDelegated])
	}
	if f.regs[1].Counters()[cluster.MetricRemoteJobs] != 1 {
		t.Fatalf("owner accepted %d remote jobs, want 1", f.regs[1].Counters()[cluster.MetricRemoteJobs])
	}

	// Same config on every member: no further simulations anywhere.
	for i, m := range f.mgrs {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		final := waitState(t, m, st.ID, StateDone)
		if !final.Cached {
			t.Fatalf("member %d resubmit not deduped: %+v", i, final)
		}
	}
	if got := f.simulations(); got != 1 {
		t.Fatalf("fleet ran %d simulations for one config, want 1", got)
	}
	if fills := f.counter(cluster.MetricFills); fills == 0 {
		t.Fatal("no peer fills recorded for the non-owner resubmits")
	}

	// The results delivered everywhere are byte-identical to the
	// owner's: content addressing would be unsound otherwise.
	ownerRes, _, ok := f.mgrs[1].Result(mustJob(t, f.mgrs[1], key))
	if !ok || ownerRes == nil {
		t.Fatal("owner lost its own result")
	}
	remoteRes, _, _ := f.mgrs[0].Result(st.ID)
	want, err := json.Marshal(ownerRes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(remoteRes)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("delegated results differ from the owner's:\n got %s\nwant %s", got, want)
	}
}

// mustJob finds the owner's job for a key (the delegated run it
// accepted over /v2/cluster/jobs).
func mustJob(t *testing.T, m *Manager, key string) string {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, j := range m.jobs {
		if j.key == key {
			return id
		}
	}
	t.Fatal("no job with the delegated key on the owner")
	return ""
}

// A sweep with duplicated members streams one SSE event per member in
// completion order and simulates only the unique configs, fleet-wide.
func TestClusterSweepSSE(t *testing.T) {
	f := startFleet(t, 3, nil)

	seeds := []uint64{4211, 4212, 4213, 4214, 4211, 4212, 4213, 4214}
	spec := client.SweepSpec{
		Defaults: client.JobSpec{Config: quickSpec(0).Config},
		Seeds:    seeds,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := f.clients[0].Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != len(seeds) || st.ID == "" {
		t.Fatalf("sweep accepted as %+v", st)
	}

	events := 0
	final, err := f.clients[0].SweepEvents(ctx, st.ID, func(ev client.SweepEvent) error {
		if ev.Seq != events {
			t.Fatalf("event %d arrived with seq %d", events, ev.Seq)
		}
		if ev.Job.State != "done" {
			t.Fatalf("member %d finished %s: %+v", ev.Index, ev.Job.State, ev.Job)
		}
		if ev.Results == nil || ev.Results.CommittedEvents == 0 {
			t.Fatalf("member %d event carries no results", ev.Index)
		}
		events++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if events != len(seeds) {
		t.Fatalf("streamed %d events, want %d", events, len(seeds))
	}
	if final.State != "done" || final.Done != len(seeds) {
		t.Fatalf("final sweep status %+v", final)
	}
	if got := f.simulations(); got != 4 {
		t.Fatalf("sweep of %d members (4 unique) ran %d fleet simulations, want 4", len(seeds), got)
	}

	// A late subscriber replays the full event log.
	replayed := 0
	if _, err := f.clients[0].SweepEvents(ctx, st.ID, func(ev client.SweepEvent) error {
		replayed++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if replayed != len(seeds) {
		t.Fatalf("late subscriber replayed %d events, want %d", replayed, len(seeds))
	}
}

// Killing the replica that owns a running job lets the submitting
// replica finish it from the shared checkpoint directory, with
// results byte-identical to an undisturbed run.
func TestClusterFailoverResume(t *testing.T) {
	f := startFleet(t, 3, nil)

	longEnough := func(seed uint64) JobSpec {
		spec := quickSpec(seed)
		spec.Config.EndTime = 20000 // ~250ms of simulation: room to die mid-run
		spec.Config.GVTFrequency = 10
		// Checkpoint early but not constantly — every-round snapshots
		// turn the run into disk I/O.
		spec.CheckpointEvery = 25
		return spec
	}
	// Owned by member 2, submitted to member 0.
	spec, key := f.pickSeed(t, 4300, 2, longEnough)

	st, err := f.mgrs[0].Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the owner only after it has checkpointed, so the survivor
	// has state to resume from rather than restarting.
	dir := KeyedCheckpointDir(f.root, key)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if names, _ := filepath.Glob(filepath.Join(dir, checkpoint.Glob)); len(names) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner wrote no checkpoint under %s", dir)
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.kill(2)

	final := waitState(t, f.mgrs[0], st.ID, StateDone)
	if final.ResumedFrom == "" {
		t.Fatalf("failover run did not resume from the shared checkpoint: %+v", final)
	}
	if f.regs[0].Counters()[cluster.MetricFailovers] == 0 {
		t.Fatal("cluster.failovers not incremented on the surviving submitter")
	}
	if final.Source != "" || final.Cached {
		t.Fatalf("failover run should count as a local simulation, got source %q", final.Source)
	}

	// Byte-identical to a clean, unclustered run of the same config.
	res, _, _ := f.mgrs[0].Result(st.ID)
	clean := New(Options{Workers: 1})
	defer drain(t, clean)
	cst, err := clean.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, clean, cst.ID, StateDone)
	cleanRes, _, _ := clean.Result(cst.ID)

	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(cleanRes)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("failover results differ from a clean run:\n got %s\nwant %s", got, want)
	}
}

// K identical concurrent submissions to one replica coalesce onto a
// single in-flight run.
func TestInflightDedup(t *testing.T) {
	m := New(Options{Workers: 2, QueueDepth: 8})
	defer drain(t, m)

	spec := quickSpec(4400)
	spec.Config.EndTime = 20000 // slow enough for followers to arrive mid-run

	leader, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var followers []Status
	for i := 0; i < 3; i++ {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		followers = append(followers, st)
	}

	lead := waitState(t, m, leader.ID, StateDone)
	leadRes, _, _ := m.Result(leader.ID)
	for _, st := range followers {
		final := waitState(t, m, st.ID, StateDone)
		if !final.Cached || final.Source != SourceInflight {
			t.Fatalf("follower %s source %q cached %t, want inflight/true", st.ID, final.Source, final.Cached)
		}
		res, _, _ := m.Result(st.ID)
		if res != leadRes {
			t.Fatal("follower got a different *Results than the leader")
		}
	}
	c := m.Registry().Counters()
	if c[MetricSimulations] != 1 {
		t.Fatalf("%d simulations for 4 identical submissions, want 1", c[MetricSimulations])
	}
	if c[MetricDedupInflight] != 3 {
		t.Fatalf("dedup_inflight = %d, want 3", c[MetricDedupInflight])
	}
	if lead.Cached {
		t.Fatalf("leader reported cached: %+v", lead)
	}
}

// Checkpoint directories for clustered cacheable jobs are keyed and
// shared, and outlive the job: a peer may be resuming from them. (A
// single-node job writes none: TestSingleNodeWritesNoCheckpoints.)
func TestClusterKeyedCheckpointDirs(t *testing.T) {
	f := startFleet(t, 1, nil)
	spec := quickSpec(4500)
	spec.CheckpointEvery = 2
	key := jobKey(t, f.mgrs[0], spec)

	st, err := f.mgrs[0].Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, f.mgrs[0], st.ID, StateDone)

	// The name is on disk under a shared root, so it is pinned: every
	// replica, and ggload's failover leg, must find the same place.
	dir := KeyedCheckpointDir(f.root, key)
	if want := filepath.Join(f.root, "key-"+strings.ReplaceAll(key, ":", "-")); dir != want {
		t.Fatalf("keyed checkpoint dir %s, want %s", dir, want)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("keyed checkpoint dir not retained after success: %v", err)
	}
}

// Drain accounting for delegations: the remote conversation runs on
// its own goroutine so the worker can return to the queue (see run),
// but that goroutine is wg-tracked — Drain must not return while a
// delegated job is still in flight. If the goroutine ever escaped the
// WaitGroup, Drain would return with the job stuck Running and the
// settle would race process exit.
func TestDrainWaitsForDelegation(t *testing.T) {
	f := startFleet(t, 2, nil)

	longEnough := func(seed uint64) JobSpec {
		spec := quickSpec(seed)
		spec.Config.EndTime = 20000 // ~250ms of simulation: room to drain mid-run
		return spec
	}
	// Owned by member 1, submitted to member 0: member 0 delegates.
	spec, _ := f.pickSeed(t, 4900, 1, longEnough)

	st, err := f.mgrs[0].Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Only once the job is Running has run() handed it to the
	// delegation goroutine — the window Drain has to account for.
	waitRunning(t, f.mgrs[0], st.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := f.mgrs[0].Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	final, ok := f.mgrs[0].Get(st.ID)
	if !ok {
		t.Fatal("job disappeared across Drain")
	}
	if final.State != StateDone {
		t.Fatalf("Drain returned with the delegated job still %s: the delegation goroutine escaped drain accounting", final.State)
	}
	if final.Source != SourceRemote || !final.Cached {
		t.Fatalf("delegated job settled with source %q cached %t, want remote/true", final.Source, final.Cached)
	}
}

// Two single-worker replicas submitting each other's keys must not
// deadlock. A delegation blocks for the whole remote run, so if it
// held the submitting worker, each replica's only worker would sit in
// RunJob against its peer while the jobs they delegated to each other
// sat queued behind them forever. Handing the wait to a goroutine
// keeps both workers free: each replica runs the job the other
// delegated to it, and both submissions settle as remote results.
func TestMutualDelegationNoDeadlock(t *testing.T) {
	f := startFleet(t, 2, func(i int, o *Options) { o.Workers = 1 })

	spec0, _ := f.pickSeed(t, 4700, 1, quickSpec) // submitted on 0, owned by 1
	spec1, _ := f.pickSeed(t, 4800, 0, quickSpec) // submitted on 1, owned by 0

	st0, err := f.mgrs[0].Submit(spec0)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := f.mgrs[1].Submit(spec1)
	if err != nil {
		t.Fatal(err)
	}
	final0 := waitState(t, f.mgrs[0], st0.ID, StateDone)
	final1 := waitState(t, f.mgrs[1], st1.ID, StateDone)
	for i, final := range []Status{final0, final1} {
		if !final.Cached || final.Source != SourceRemote {
			t.Fatalf("member %d job has cached=%t source=%q, want a delegated remote run",
				i, final.Cached, final.Source)
		}
	}
	if got := f.counter(cluster.MetricDelegated); got != 2 {
		t.Fatalf("fleet recorded %d delegations, want 2", got)
	}
	if got := f.counter(cluster.MetricRemoteJobs); got != 2 {
		t.Fatalf("fleet accepted %d remote jobs, want 2", got)
	}
	if got := f.simulations(); got != 2 {
		t.Fatalf("fleet ran %d simulations, want 2", got)
	}
}
