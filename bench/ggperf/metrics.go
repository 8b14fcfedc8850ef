package main

// The benchmark's vocabulary: six workloads, twelve end-to-end metrics
// and the per-layer ledger. BENCHMARK.json at the repository root
// repeats the names, units and directions (plus the regression bounds,
// which live only there); TestBenchmarkJSONMatchesTables keeps the two
// in step.

const (
	wPholdSync   = "phold-sync"
	wPholdAsync  = "phold-imbalanced-async"
	wTraffic     = "traffic-oversub-rollback"
	wEpidemics   = "epidemics-ckpt-resume"
	wPholdDist   = "phold-dist-2w"
	wServeMix    = "serve-mix"
	betterHigher = "higher"
	betterLower  = "lower"
)

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Exact marks values the simulated clock or a counter produces:
	// two runs of one seed must agree to the last digit, and -compare
	// tests them with ==.
	Exact bool
	// On lists the workloads the metric is defined on (nil = all). On
	// the others the contract line still carries a value — the driver
	// wants every metric from every workload — filled by the rule in
	// notApplicable; ggperf's own table and -compare skip them.
	On []string
}

func (m metricDef) appliesTo(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: betterLower},
	{Name: "committed_ev_per_host_s", Unit: "1/s", Better: betterHigher},
	{Name: "allocs_per_committed_event", Unit: "count", Better: betterLower},
	{Name: "peak_rss_mb", Unit: "MB", Better: betterLower},
	{Name: "sim_committed_ev_per_sim_s", Unit: "1/s", Better: betterHigher, Exact: true},
	{Name: "sim_gg_over_baseline_speedup", Unit: "ratio", Better: betterHigher, Exact: true, On: []string{wPholdAsync}},
	{Name: "async_over_sync_host_ratio", Unit: "ratio", Better: betterLower, On: []string{wPholdAsync}},
	{Name: "dist_slowdown_ratio", Unit: "ratio", Better: betterLower, On: []string{wPholdDist}},
	{Name: "resume_ms_p50", Unit: "ms", Better: betterLower, On: []string{wEpidemics}},
	{Name: "jobs_per_s", Unit: "1/s", Better: betterHigher},
	{Name: "miss_ms_p50", Unit: "ms", Better: betterLower, On: []string{wServeMix}},
	{Name: "hit_ms_p50", Unit: "ms", Better: betterLower, On: []string{wServeMix}},
}

func inNS(name string) metricDef  { return metricDef{Name: name, Unit: "ns", Better: betterLower} }
func inUS(name string) metricDef  { return metricDef{Name: name, Unit: "us", Better: betterLower} }
func inMS(name string) metricDef  { return metricDef{Name: name, Unit: "ms", Better: betterLower} }
func share(name string) metricDef { return metricDef{Name: name, Unit: "ratio", Better: betterLower} }
func count(name string) metricDef {
	return metricDef{Name: name, Unit: "count", Better: betterLower, Exact: true}
}

// perLayer is the ledger of the traced run. README.md carries, for
// each row, the end-to-end metric and workload it is predicted to
// move; on every other pairing the prediction is no change.
var perLayer = []metricDef{
	// pq: hold model at steady size N.
	inNS("pq.splay.hold_ns_op_n256"), inNS("pq.heap.hold_ns_op_n256"), inNS("pq.calendar.hold_ns_op_n256"),
	inNS("pq.splay.hold_ns_op_n4096"), inNS("pq.splay.straggler_ns_op_n256"),
	{Name: "pq.splay.allocs_op_n256", Unit: "count", Better: betterLower},
	// rng
	inNS("rng.exponential_ns_op"), inNS("rng.burr_ns_op"),
	// tw + models: bare engine, no machine.
	inNS("tw.bare_phold.ns_per_committed_event"),
	{Name: "tw.bare_phold.allocs_per_committed_event", Unit: "count", Better: betterLower},
	inNS("tw.bare_traffic.ns_per_processed_event"),
	{Name: "tw.bare_traffic.efficiency", Unit: "ratio", Better: betterHigher, Exact: true},
	count("tw.bare_traffic.rollbacks"),
	share("tw.process_batch_share"), share("tw.drain_share"), share("tw.gvt_min_share"), share("tw.fossil_share"),
	inMS("tw.new_engine_ms"), inMS("tw.capture_ms"), inMS("tw.restore_ms"),
	// machine: bare machine, synthetic thread bodies.
	inNS("machine.handoff_ns_per_segment"), inNS("machine.spin_ns_per_segment"), inNS("machine.oversub_ns_per_segment"),
	count("machine.oversub_ctx_switches"), inNS("machine.sem_pingpong_ns"), inNS("machine.barrier_ns_per_arrival"),
	inUS("machine.spawn_run_us"),
	// gvt, core: read from the workloads' own Results and timings.
	count("gvt.rounds"), inUS("gvt.host_us_per_round"),
	{Name: "gvt.sim_cpu_us_per_round", Unit: "us", Better: betterLower, Exact: true},
	inMS("core.baseline_sync_host_ms"), inMS("core.baseline_async_host_ms"), inMS("core.dd_async_host_ms"), inMS("core.gg_async_host_ms"),
	count("core.deactivations"), count("core.activations"), count("core.repins"),
	// ggpdes: root glue.
	inNS("ggpdes.run_minus_bare_tw_ns_per_event"), inMS("ggpdes.run_build_ms"),
	{Name: "ggpdes.efficiency", Unit: "ratio", Better: betterHigher, Exact: true},
	inUS("ggpdes.cachekey_us"), inUS("ggpdes.config_json_roundtrip_us"), inUS("ggpdes.results_json_encode_us"),
	// checkpoint
	inMS("checkpoint.encode_ms"), inMS("checkpoint.decode_ms"), inMS("checkpoint.write_ms"), inMS("checkpoint.read_ms"),
	// Not exact: the snapshot records its own scratch directory's path.
	{Name: "checkpoint.snapshot_bytes", Unit: "bytes", Better: betterLower},
	count("checkpoint.segments"), share("checkpoint.run_over_plain_ratio"),
	// dist
	count("dist.frames"), count("dist.batches"), count("dist.bytes_sent"),
	{Name: "dist.bytes_per_committed_event", Unit: "bytes", Better: betterLower, Exact: true},
	{Name: "dist.ops_coalesced", Unit: "count", Better: betterHigher, Exact: true},
	{Name: "dist.reads_cached", Unit: "count", Better: betterHigher, Exact: true},
	inUS("dist.rtt_us_p50"), inUS("dist.rtt_us_p95"), inUS("dist.worker_busy_us_p50"),
	share("dist.wire_wait_share"), share("dist.coord_self_share"),
	inNS("dist.encode_batch_ns"), inNS("dist.decode_batch_ns"), inNS("dist.encode_reply_ns"), inNS("dist.decode_reply_ns"),
	// telemetry
	inNS("telemetry.counter_inc_ns_sharded"), inNS("telemetry.counter_inc_ns_shared"), inNS("telemetry.hist_observe_ns"),
	inUS("telemetry.snapshot_us"), inUS("telemetry.openmetrics_us"), share("telemetry.obs_on_over_off_ratio"),
	// serve
	inMS("serve.submit_ms_p50"), inMS("serve.queue_wait_ms_p50"), inMS("serve.run_ms_p50"), inMS("serve.poll_lag_ms_p50"),
	inMS("serve.wait_ms_p50"), inMS("serve.result_ms_p50"), inMS("serve.miss_ms_p95"), inMS("serve.hit_ms_p95"),
	inMS("serve.dedup_ms_p50"), inMS("serve.direct_miss_ms_p50"), inMS("serve.http_overhead_ms"),
	{Name: "serve.hit_share", Unit: "ratio", Better: betterHigher},
	{Name: "serve.dedup_share", Unit: "ratio", Better: betterHigher},
	{Name: "serve.simulations", Unit: "count", Better: betterLower},
	{Name: "serve.rejected", Unit: "count", Better: betterLower},
	// bench: the instrument itself.
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: betterLower},
	share("bench.unattributed_share"), inMS("bench.iter_ms_tail"),
}

// workloadDef names a workload and records why it was chosen.
type workloadDef struct {
	Name string
	Why  string
	New  func() workload
}

var workloads = []workloadDef{
	{wPholdSync, "engine-bound: tw, pq, models and rng do the work, machine handoff little; a handoff optimisation must predict no change here", newPholdSync},
	{wPholdAsync, "inverse of phold-sync: spinning wait-free threads make machine handoff, gvt phases and core de-scheduling dominate; carries the paper's headline", newPholdAsync},
	{wTraffic, "same tw and machine layers on their other path: rollback and anti-messages, CFS run queues at 8x over-subscription", newTraffic},
	{wEpidemics, "checkpoint encode/write/read, engine capture/restore and per-segment rebuild do the work; Resume is timed from the middle snapshot", newEpidemics},
	{wPholdDist, "dist framing and codec, the coordinator bridge and loopback socket round trips do the work; 2 in-process workers over TCP", newPholdDist},
	{wServeMix, "HTTP, JSON, admission queue, cache and CacheKey do the work: 2 closed-loop clients, 50% miss, 30% hit, 20% in-flight twins", newServeMix},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
