package main

import (
	"encoding/json"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"ggpdes"
	"ggpdes/internal/machine"
	"ggpdes/internal/models"
	"ggpdes/internal/pq"
	"ggpdes/internal/rng"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/tw"
)

// The layer drivers: each calls one layer's exported functions with a
// synthetic load and times the calls from outside. They run only in
// the traced run. Every figure is the median of layerReps repeats.

const layerReps = 5

// driverSizes scales the drivers' operation counts.
type driverSizes struct {
	pqOps, rngOps, machineIters, telemetryOps, glueReps int
}

func sizesFor(s scale) driverSizes {
	if s == scaleTiny {
		return driverSizes{pqOps: 2_000, rngOps: 2_000, machineIters: 50, telemetryOps: 2_000, glueReps: 5}
	}
	return driverSizes{pqOps: 100_000, rngOps: 500_000, machineIters: 5_000, telemetryOps: 1_000_000, glueReps: 300}
}

// repeatMedian runs f layerReps times and returns the median of what
// it reports.
func repeatMedian(f func() float64) float64 {
	v := make([]float64, layerReps)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// ---- pq ----

type pqItem struct {
	ts float64
}

// pqDriver runs the classic hold model — pop the minimum, push it back
// at minimum + delta — on a queue held at a steady size, and the
// straggler case Time Warp adds: a push below the current minimum.
func pqDriver(seed uint64, sz driverSizes, out map[string]float64) {
	x := seed
	deltas := make([]float64, 1024)
	for i := range deltas {
		u := float64(splitmix64(&x)>>11+1) / (1 << 53)
		deltas[i] = -math.Log(u)
	}
	newQueue := func(kind pq.Kind, n int) pq.Queue[*pqItem] {
		q := pq.New(kind, func(a, b *pqItem) bool { return a.ts < b.ts }, func(it *pqItem) float64 { return it.ts })
		for i := 0; i < n; i++ {
			q.Push(&pqItem{ts: deltas[i%len(deltas)] * float64(n)})
		}
		return q
	}
	hold := func(kind pq.Kind, n int) (nsOp, allocsOp float64) {
		q := newQueue(kind, n)
		m0 := mallocs()
		t := time.Now()
		for i := 0; i < sz.pqOps; i++ {
			it, _ := q.Pop()
			it.ts += deltas[i%len(deltas)]
			q.Push(it)
		}
		ns := float64(time.Since(t).Nanoseconds())
		return ns / float64(sz.pqOps), float64(mallocs()-m0) / float64(sz.pqOps)
	}
	for _, c := range []struct {
		name string
		kind pq.Kind
		n    int
	}{
		{"pq.splay.hold_ns_op_n256", pq.Splay, 256},
		{"pq.heap.hold_ns_op_n256", pq.Heap, 256},
		{"pq.calendar.hold_ns_op_n256", pq.Calendar, 256},
		{"pq.splay.hold_ns_op_n4096", pq.Splay, 4096},
	} {
		out[c.name] = repeatMedian(func() float64 { ns, _ := hold(c.kind, c.n); return ns })
	}
	out["pq.splay.allocs_op_n256"] = repeatMedian(func() float64 { _, a := hold(pq.Splay, 256); return a })
	out["pq.splay.straggler_ns_op_n256"] = repeatMedian(func() float64 {
		q := newQueue(pq.Splay, 256)
		late := &pqItem{}
		t := time.Now()
		for i := 0; i < sz.pqOps; i++ {
			head, _ := q.Peek()
			late.ts = head.ts - deltas[i%len(deltas)]
			q.Push(late)
			q.Pop()
		}
		return float64(time.Since(t).Nanoseconds()) / float64(sz.pqOps)
	})
}

// ---- rng ----

var rngSink float64

func rngDriver(seed uint64, sz driverSizes, out map[string]float64) {
	s := rng.New(seed, 1)
	draw := func(f func() float64) float64 {
		return repeatMedian(func() float64 {
			t := time.Now()
			acc := 0.0
			for i := 0; i < sz.rngOps; i++ {
				acc += f()
			}
			rngSink = acc
			return float64(time.Since(t).Nanoseconds()) / float64(sz.rngOps)
		})
	}
	out["rng.exponential_ns_op"] = draw(func() float64 { return s.Exponential(1) })
	// The Traffic model's travel-time shape parameters.
	out["rng.burr_ns_op"] = draw(func() float64 { return s.Burr(12.4, 0.46) })
}

// ---- tw + models: bare engine, no machine ----

// countCPU is the tw.CPU the bare drivers hand the engine: it only
// adds up the simulated cycles it is charged.
type countCPU struct{ cycles uint64 }

func (c *countCPU) Work(n uint64) { c.cycles += n }

// site is a per-call-site aggregate: calls and total host time, not
// one span per call — the bare loop makes millions of calls.
type site struct {
	calls int64
	ns    int64
}

// begin and end bracket one call; both are no-ops on a nil site, which
// is how the untimed pass runs the same loop without reading the clock.
func (s *site) begin() (t time.Time) {
	if s != nil {
		t = time.Now()
	}
	return t
}

func (s *site) end(t time.Time) {
	if s != nil {
		s.calls++
		s.ns += int64(time.Since(t))
	}
}

// sites are the bare loop's four call sites.
type sites struct{ drain, process, gvtMin, fossil site }

// bareRun is what driving an engine by hand produced.
type bareRun struct {
	wallNS                         int64
	drain, process, gvtMin, fossil site
	stats                          tw.PeerStats
	mallocs                        uint64
}

// gvtEvery is how many round-robin passes separate two GVT
// computations of the bare loop (the workloads' GVTFrequency).
const gvtEvery = 40

// driveBare plays the simulation threads' main loop by hand, with no
// machine underneath: every pass lets each peer drain its input queue
// and process one batch, and every gvtEvery passes computes GVT from
// the peers' local minima and fossil-collects. hot gives peer 0 that
// many turns per pass, which runs it ahead of the others so that
// their events arrive in its past — stragglers, rollbacks and
// anti-messages. until stops the loop early (0 = run to EndTime).
// With at set, every call is timed into its site; the clock reads cost
// about as much as a short call, so cost per event is taken from passes
// with at nil and only the shares from a timed one.
func driveBare(eng *tw.Engine, hot int, until tw.VT, at *sites) bareRun {
	var r bareRun
	var drain, process, gvtMin, fossil *site
	if at != nil {
		drain, process, gvtMin, fossil = &at.drain, &at.process, &at.gvtMin, &at.fossil
	}
	cpu := &countCPU{}
	peers := eng.Peers()
	order := make([]*tw.Peer, 0, len(peers)+hot)
	for i := 0; i < hot-1; i++ {
		order = append(order, peers[0])
	}
	order = append(order, peers...)
	m0 := mallocs()
	start := time.Now()
	for pass := 1; !eng.Done() && (until == 0 || eng.GVT() < until); pass++ {
		for _, p := range order {
			t := drain.begin()
			p.Drain(cpu)
			drain.end(t)
			t = process.begin()
			p.ProcessBatch(cpu)
			process.end(t)
		}
		if pass%gvtEvery != 0 {
			continue
		}
		t := gvtMin.begin()
		low := math.Inf(1)
		for _, p := range peers {
			low = math.Min(low, p.LocalMin(cpu))
		}
		for _, p := range peers {
			low = math.Min(low, p.TakeMinSent())
		}
		eng.SetGVT(math.Min(low, eng.EndTime()))
		gvtMin.end(t)
		t = fossil.begin()
		for _, p := range peers {
			p.FossilCollect(cpu, eng.GVT())
		}
		fossil.end(t)
	}
	r.wallNS = int64(time.Since(start))
	r.mallocs = mallocs() - m0
	r.stats = eng.TotalStats()
	return r
}

func twDriver(seed uint64, s scale, out map[string]float64) error {
	// The models in the shapes of workloads 1, 3 and 4.
	threads, lps, pholdEnd, trafficEnd := 16, 16, 400.0, 16.0
	eThreads, eLPs, eEnd := 16, 64, 30.0
	if s == scaleTiny {
		threads, lps, pholdEnd, trafficEnd = 4, 4, 20, 5
		eThreads, eLPs, eEnd = 4, 8, 20
	}
	bare := func(model tw.Model, end float64, hot int, at *sites) (bareRun, error) {
		eng, err := tw.NewEngine(tw.Config{NumThreads: threads, Model: model, EndTime: end, Seed: seed})
		if err != nil {
			return bareRun{}, err
		}
		return driveBare(eng, hot, 0, at), nil
	}
	// repeat runs the bare loop layerReps times untimed and returns the
	// runs for pick to take medians over.
	var runs []bareRun
	repeat := func(newModel func() (tw.Model, error), end float64, hot int) error {
		runs = runs[:0]
		for i := 0; i < layerReps; i++ {
			model, err := newModel()
			if err != nil {
				return err
			}
			r, err := bare(model, end, hot, nil)
			if err != nil {
				return err
			}
			runs = append(runs, r)
		}
		return nil
	}
	pick := func(f func(bareRun) float64) float64 {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = f(r)
		}
		return median(v)
	}

	phold := func() (tw.Model, error) {
		return models.NewPHOLD(models.PHOLDConfig{Threads: threads, LPsPerThread: lps, Imbalance: 1, EndTime: pholdEnd})
	}
	if err := repeat(phold, pholdEnd, 1); err != nil {
		return err
	}
	out["tw.bare_phold.ns_per_committed_event"] = pick(func(r bareRun) float64 { return float64(r.wallNS) / float64(r.stats.Committed) })
	out["tw.bare_phold.allocs_per_committed_event"] = pick(func(r bareRun) float64 { return float64(r.mallocs) / float64(r.stats.Committed) })
	// One more pass with the call sites timed, for the shares.
	model, err := phold()
	if err != nil {
		return err
	}
	var at sites
	timed, err := bare(model, pholdEnd, 1, &at)
	if err != nil {
		return err
	}
	out["tw.process_batch_share"] = float64(at.process.ns) / float64(timed.wallNS)
	out["tw.drain_share"] = float64(at.drain.ns) / float64(timed.wallNS)
	out["tw.gvt_min_share"] = float64(at.gvtMin.ns) / float64(timed.wallNS)
	out["tw.fossil_share"] = float64(at.fossil.ns) / float64(timed.wallNS)

	// Traffic with peer 0 driven 8x as often: the rollback path.
	traffic := func() (tw.Model, error) {
		return models.NewTraffic(models.TrafficConfig{Threads: threads, LPsPerThread: lps})
	}
	if err := repeat(traffic, trafficEnd, 8); err != nil {
		return err
	}
	out["tw.bare_traffic.ns_per_processed_event"] = pick(func(r bareRun) float64 { return float64(r.wallNS) / float64(r.stats.Processed) })
	out["tw.bare_traffic.efficiency"] = float64(runs[0].stats.Committed) / float64(runs[0].stats.Processed)
	out["tw.bare_traffic.rollbacks"] = float64(runs[0].stats.Rollbacks)

	// Engine build, capture and restore on workload 4's model, captured
	// halfway through.
	var build, capture, restore []float64
	for i := 0; i < layerReps; i++ {
		model, err := models.NewEpidemics(models.EpidemicsConfig{Threads: eThreads, LPsPerThread: eLPs, LockdownGroups: 4, SeedsPerWindow: 24, EndTime: eEnd})
		if err != nil {
			return err
		}
		cfg := tw.Config{NumThreads: eThreads, Model: model, EndTime: eEnd, Seed: seed}
		t := time.Now()
		eng, err := tw.NewEngine(cfg)
		if err != nil {
			return err
		}
		build = append(build, time.Since(t).Seconds()*1e3)
		driveBare(eng, 1, eEnd/2, nil)
		t = time.Now()
		st, err := eng.Capture()
		if err != nil {
			return err
		}
		capture = append(capture, time.Since(t).Seconds()*1e3)
		t = time.Now()
		if _, err := tw.NewEngineFromState(cfg, st); err != nil {
			return err
		}
		restore = append(restore, time.Since(t).Seconds()*1e3)
	}
	out["tw.new_engine_ms"] = median(build)
	out["tw.capture_ms"] = median(capture)
	out["tw.restore_ms"] = median(restore)
	return nil
}

// ---- machine: bare machine, synthetic thread bodies ----

func bareMachineConfig() machine.Config {
	c := machine.KNL7230()
	c.Name = "bench8x2"
	c.Cores, c.SMTWidth = 8, 2
	c.SMTAggregate = c.SMTAggregate[:2]
	c.MaxTicks = 1 << 26
	return c
}

// runMachine builds a machine, lets spawn add its threads, runs it to
// completion and returns the host nanoseconds of the whole thing and
// the machine's counters.
func runMachine(spawn func(m *machine.Machine)) (float64, machine.Stats, error) {
	t := time.Now()
	m, err := machine.New(bareMachineConfig())
	if err != nil {
		return 0, machine.Stats{}, err
	}
	spawn(m)
	if err := m.Run(); err != nil {
		return 0, machine.Stats{}, err
	}
	return float64(time.Since(t).Nanoseconds()), m.Stats(), nil
}

func machineDriver(sz driverSizes, out map[string]float64) error {
	var firstErr error
	// run is runMachine with the first error kept for the end: a driver
	// that failed leaves its metric to be reported as not produced.
	run := func(spawn func(m *machine.Machine)) (float64, machine.Stats) {
		ns, st, err := runMachine(spawn)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return ns, st
	}
	n := sz.machineIters
	// perSegment times a run of `threads` threads that each execute
	// `segments` machine calls, and divides.
	perSegment := func(threads, segments int, pinned bool, body func(p *machine.Proc)) (float64, machine.Stats) {
		var stats machine.Stats
		ns := repeatMedian(func() float64 {
			ns, st := run(func(m *machine.Machine) {
				for t := 0; t < threads; t++ {
					if pinned {
						m.SpawnPinned("t", t%8, body)
					} else {
						m.Spawn("t", body)
					}
				}
			})
			stats = st
			return ns / float64(threads*segments)
		})
		return ns, stats
	}
	// One thread per hardware context doing real work in every
	// segment: the price of handing control to a thread and back.
	out["machine.handoff_ns_per_segment"], _ = perSegment(16, n, true, func(p *machine.Proc) {
		for i := 0; i < n; i++ {
			p.Work(200)
		}
	})
	// The polling shape of a wait-free thread with nothing to do.
	out["machine.spin_ns_per_segment"], _ = perSegment(16, 2*n, true, func(p *machine.Proc) {
		for i := 0; i < n; i++ {
			p.Op()
			p.Yield()
		}
	})
	// 128 threads on 16 contexts: run queues, preemption, migration.
	var st machine.Stats
	out["machine.oversub_ns_per_segment"], st = perSegment(128, n/8, false, func(p *machine.Proc) {
		for i := 0; i < n/8; i++ {
			p.Work(200)
		}
	})
	out["machine.oversub_ctx_switches"] = float64(st.CtxSwitches)
	// Two threads handing a token back and forth through semaphores.
	out["machine.sem_pingpong_ns"] = repeatMedian(func() float64 {
		ns, _ := run(func(m *machine.Machine) {
			ping, pong := m.NewSem("ping", 0), m.NewSem("pong", 0)
			m.SpawnPinned("a", 0, func(p *machine.Proc) {
				for i := 0; i < n; i++ {
					p.SemPost(ping)
					p.SemWait(pong)
				}
			})
			m.SpawnPinned("b", 1, func(p *machine.Proc) {
				for i := 0; i < n; i++ {
					p.SemWait(ping)
					p.SemPost(pong)
				}
			})
		})
		return ns / float64(n)
	})
	rounds := n / 4
	out["machine.barrier_ns_per_arrival"] = repeatMedian(func() float64 {
		ns, _ := run(func(m *machine.Machine) {
			b := m.NewBarrier("b", 16)
			for t := 0; t < 16; t++ {
				m.SpawnPinned("t", t%8, func(p *machine.Proc) {
					for i := 0; i < rounds; i++ {
						p.BarrierWait(b)
					}
				})
			}
		})
		return ns / float64(16*rounds)
	})
	// Build, spawn 16 empty threads, run: what every segment of a
	// checkpointed run pays before the first event.
	spawns := make([]float64, 0, 20*layerReps)
	for i := 0; i < cap(spawns); i++ {
		ns, _ := run(func(m *machine.Machine) {
			for t := 0; t < 16; t++ {
				m.SpawnPinned("t", t%8, func(*machine.Proc) {})
			}
		})
		spawns = append(spawns, ns/1e3)
	}
	out["machine.spawn_run_us"] = median(spawns)
	return firstErr
}

// ---- telemetry ----

func telemetryDriver(sz driverSizes, nproc int, sample *ggpdes.Results, obsCfg ggpdes.Config, out map[string]float64) error {
	// One writer per CPU, each through its own shard handle: the
	// contention A/B behind Registry.SetSharding. The one driver that
	// needs every CPU.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(nproc))
	inc := func(sharded bool) float64 {
		return repeatMedian(func() float64 {
			reg := telemetry.NewRegistry()
			reg.SetSharding(sharded)
			var wg sync.WaitGroup
			t := time.Now()
			for tid := 0; tid < nproc; tid++ {
				c := reg.Shard(tid).Counter(tw.MetricRollbacks)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < sz.telemetryOps; i++ {
						c.Inc()
					}
				}()
			}
			wg.Wait()
			return float64(time.Since(t).Nanoseconds()) / float64(sz.telemetryOps)
		})
	}
	out["telemetry.counter_inc_ns_sharded"] = inc(true)
	out["telemetry.counter_inc_ns_shared"] = inc(false)
	out["telemetry.hist_observe_ns"] = repeatMedian(func() float64 {
		h := telemetry.NewRegistry().Shard(0).Histogram(tw.MetricRollbackDepth)
		t := time.Now()
		for i := 0; i < sz.telemetryOps; i++ {
			h.Observe(float64(i & 63))
		}
		return float64(time.Since(t).Nanoseconds()) / float64(sz.telemetryOps)
	})
	// A registry holding one run's worth of metrics.
	reg := telemetry.NewRegistry()
	reg.Import(sample.Metrics)
	var snap telemetry.MetricsState
	out["telemetry.snapshot_us"] = repeatMedian(func() float64 {
		t := time.Now()
		for i := 0; i < sz.glueReps; i++ {
			snap = reg.Snapshot()
		}
		return float64(time.Since(t).Nanoseconds()) / 1e3 / float64(sz.glueReps)
	})
	var werr error
	out["telemetry.openmetrics_us"] = repeatMedian(func() float64 {
		t := time.Now()
		for i := 0; i < sz.glueReps; i++ {
			if err := telemetry.WriteOpenMetrics(io.Discard, snap); err != nil {
				werr = err
			}
		}
		return float64(time.Since(t).Nanoseconds()) / 1e3 / float64(sz.glueReps)
	})
	if werr != nil {
		return werr
	}
	// The whole observability plane on against all of it off, on
	// workload 1's config, alternating so drift hits both arms.
	shared := ggpdes.NewRegistry()
	var on, off []float64
	for i := 0; i < 2*layerReps; i++ {
		cfg := obsCfg
		if i%2 == 0 {
			cfg.Series = &ggpdes.SeriesOptions{}
			cfg.Telemetry = shared
			cfg.Trace = &ggpdes.TraceOptions{}
		}
		t := time.Now()
		if _, err := ggpdes.Run(cfg); err != nil {
			return err
		}
		d := time.Since(t).Seconds()
		if i%2 == 0 {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	out["telemetry.obs_on_over_off_ratio"] = median(on) / median(off)
	return nil
}

// ---- ggpdes: root glue ----

func glueDriver(sz driverSizes, jobCfg ggpdes.Config, sample *ggpdes.Results, buildCfg ggpdes.Config, out map[string]float64) error {
	var err error
	perCall := func(f func() error) float64 {
		return repeatMedian(func() float64 {
			t := time.Now()
			for i := 0; i < sz.glueReps; i++ {
				if e := f(); e != nil {
					err = e
				}
			}
			return float64(time.Since(t).Nanoseconds()) / 1e3 / float64(sz.glueReps)
		})
	}
	out["ggpdes.cachekey_us"] = perCall(func() error { _, e := jobCfg.CacheKey(); return e })
	out["ggpdes.config_json_roundtrip_us"] = perCall(func() error {
		data, e := json.Marshal(jobCfg)
		if e != nil {
			return e
		}
		var back ggpdes.Config
		return json.Unmarshal(data, &back)
	})
	out["ggpdes.results_json_encode_us"] = perCall(func() error { _, e := json.Marshal(sample); return e })
	// A run that ends at once: validate, build model, engine, machine
	// and scheduler, one GVT round, tear down.
	buildCfg.Checkpoint = nil
	buildCfg.EndTime = 1e-9
	out["ggpdes.run_build_ms"] = repeatMedian(func() float64 {
		t := time.Now()
		if _, e := ggpdes.Run(buildCfg); e != nil {
			err = e
		}
		return time.Since(t).Seconds() * 1e3
	})
	return err
}
