package main

import (
	"ggpdes"
	"ggpdes/bench/span"
)

// The three single-process simulation workloads. Their configs take
// the settings bench_test.go's figure benchmarks use (16 hardware
// contexts, GVT every 40 iterations, zero-counter threshold 400) so
// the numbers line up with the BENCH_PR*.json history.

// pholdSyncConfig is workload 1's config: balanced PHOLD under
// Baseline + Barrier GVT with one thread per hardware context.
func pholdSyncConfig(s scale) ggpdes.Config {
	cfg := ggpdes.Config{
		Model: ggpdes.PHOLD{LPsPerThread: 16}, Threads: 16,
		System: ggpdes.Baseline, GVT: ggpdes.Barrier, Affinity: ggpdes.ConstantAffinity,
		Machine: benchMachine(), EndTime: 400,
		GVTFrequency: 40, ZeroCounterThreshold: 400, OptimismWindow: 10,
	}
	if s == scaleTiny {
		cfg.Model, cfg.Threads, cfg.Machine, cfg.EndTime = ggpdes.PHOLD{LPsPerThread: 2}, 4, tinyMachine(), 20
	}
	return cfg
}

// single is the loop of a workload whose iteration is one Run.
func (l *simLoop) single(env *runEnv, cfg ggpdes.Config) {
	l.init(env)
	l.headline = "run"
	run := runCfg(cfg)
	l.calls = []simCall{{name: "run", endTime: cfg.EndTime, primary: true,
		run: func(k int) (*ggpdes.Results, error) { return run(env.modelSeed(k)) }}}
}

// pholdSync is workload 1. Threads run full batches per segment, so
// the engine layers do most of the work and machine handoff little.
type pholdSync struct{ simLoop }

func newPholdSync() workload { return &pholdSync{} }

func (w *pholdSync) setup(env *runEnv) error {
	w.single(env, pholdSyncConfig(env.scale))
	return nil
}

// pholdAsync is workload 2: 1-16 imbalanced PHOLD, the same model run
// under four systems per iteration. Baseline-Sync is the host-time
// reference; the three wait-free runs are the primary call. Most
// threads have nothing to do most of the time, so they spin through
// near-empty machine segments: handoff, GVT phases and de-scheduling
// dominate while the engine does little.
type pholdAsync struct{ simLoop }

func newPholdAsync() workload { return &pholdAsync{} }

const (
	callBaselineSync  = "baseline-sync"
	callBaselineAsync = "baseline-async"
	callDDAsync       = "dd-async"
	callGGAsync       = "gg-async"
)

func (w *pholdAsync) setup(env *runEnv) error {
	w.init(env)
	w.headline = callGGAsync
	base := ggpdes.Config{
		Model: ggpdes.PHOLD{LPsPerThread: 4, Imbalance: 16}, Threads: 16,
		Affinity: ggpdes.ConstantAffinity, Machine: benchMachine(), EndTime: 160,
		GVTFrequency: 40, ZeroCounterThreshold: 400, OptimismWindow: 10,
	}
	if env.scale == scaleTiny {
		base.Model, base.Threads, base.Machine, base.EndTime = ggpdes.PHOLD{LPsPerThread: 2, Imbalance: 4}, 4, tinyMachine(), 40
	}
	for _, s := range []struct {
		name    string
		system  ggpdes.System
		gvt     ggpdes.GVT
		primary bool
	}{
		{callBaselineSync, ggpdes.Baseline, ggpdes.Barrier, false},
		{callBaselineAsync, ggpdes.Baseline, ggpdes.WaitFree, true},
		{callDDAsync, ggpdes.DDPDES, ggpdes.WaitFree, true},
		{callGGAsync, ggpdes.GGPDES, ggpdes.WaitFree, true},
	} {
		cfg := base
		cfg.System, cfg.GVT = s.system, s.gvt
		run := runCfg(cfg)
		w.calls = append(w.calls, simCall{name: s.name, endTime: cfg.EndTime, primary: s.primary,
			run: func(k int) (*ggpdes.Results, error) { return run(env.modelSeed(k)) }})
	}
	return nil
}

func (w *pholdAsync) endToEnd(p *phase) map[string]valued {
	out := w.simLoop.endToEnd(p)
	if base := w.simRate(callBaselineAsync); base > 0 {
		out["sim_gg_over_baseline_speedup"] = scalar(w.simRate(callGGAsync) / base)
	}
	if sync := p.med(callBaselineSync); sync > 0 {
		out["async_over_sync_host_ratio"] = scalar(p.med(callBaselineAsync) / sync)
	}
	return out
}

func (w *pholdAsync) layers(p *phase, _ *span.Tracer) map[string]float64 {
	gg := w.first(callGGAsync)
	if gg == nil {
		return map[string]float64{}
	}
	out := map[string]float64{
		"gvt.rounds":                  float64(gg.GVTRounds),
		"gvt.sim_cpu_us_per_round":    gg.GVTCPUSecondsPerRound() * 1e6,
		"core.baseline_sync_host_ms":  p.med(callBaselineSync),
		"core.baseline_async_host_ms": p.med(callBaselineAsync),
		"core.dd_async_host_ms":       p.med(callDDAsync),
		"core.gg_async_host_ms":       p.med(callGGAsync),
		"core.deactivations":          float64(gg.Deactivations),
		"core.activations":            float64(gg.Activations),
	}
	if gg.GVTRounds > 0 {
		out["gvt.host_us_per_round"] = p.med(callGGAsync) * 1e3 / float64(gg.GVTRounds)
	}
	return out
}

// traffic is workload 3: the Traffic model with 8 simulation threads
// per hardware context under GG-PDES, wait-free GVT and dynamic
// affinity. Close to half of all processed events are rolled back,
// and the machine multiplexes threads through its CFS run queues.
type traffic struct{ simLoop }

func newTraffic() workload { return &traffic{} }

func (w *traffic) setup(env *runEnv) error {
	cfg := ggpdes.Config{
		// 128 threads x 2 intersections = a 16 x 16 grid.
		Model: ggpdes.Traffic{LPsPerThread: 2}, Threads: 128,
		System: ggpdes.GGPDES, GVT: ggpdes.WaitFree, Affinity: ggpdes.DynamicAffinity,
		Machine: benchMachine(), EndTime: 16,
		GVTFrequency: 40, ZeroCounterThreshold: 400,
	}
	if env.scale == scaleTiny {
		cfg.Model, cfg.Threads, cfg.Machine, cfg.EndTime = ggpdes.Traffic{LPsPerThread: 1, CenterStartEvents: 6}, 16, tinyMachine(), 5
	}
	w.single(env, cfg)
	return nil
}

func (w *traffic) layers(*phase, *span.Tracer) map[string]float64 {
	if res := w.first("run"); res != nil {
		return map[string]float64{"core.repins": float64(res.Repins)}
	}
	return map[string]float64{}
}
