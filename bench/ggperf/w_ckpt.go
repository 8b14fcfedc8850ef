package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"ggpdes"
	"ggpdes/bench/span"
	"ggpdes/internal/checkpoint"
)

// epidemics is workload 4: the Epidemics model under GG-PDES-Async,
// checkpointed every 2 GVT rounds. Each iteration runs the
// checkpointed Run, then Resume from the middle snapshot it wrote.
// Snapshot encode/write/read, engine capture/restore and the
// per-segment machine and engine rebuild do most of the work.
type epidemics struct {
	simLoop
	cfg ggpdes.Config
	dir string
	// resumeFrom is the snapshot the iteration's Resume starts from;
	// snapshots is how many files each model seed's run wrote.
	resumeFrom string
	snapshots  [modelSeeds]int
}

func newEpidemics() workload { return &epidemics{} }

const (
	callCkptRun = "ckpt-run"
	callResume  = "resume"
)

// epidemicsConfig is workload 4's config without its checkpoint
// settings: the plain run checkpoint.run_over_plain_ratio is based on.
func epidemicsConfig(s scale) ggpdes.Config {
	cfg := ggpdes.Config{
		Model: ggpdes.Epidemics{LPsPerThread: 64, SeedsPerWindow: 24}, Threads: 16,
		System: ggpdes.GGPDES, GVT: ggpdes.WaitFree, Affinity: ggpdes.ConstantAffinity,
		Machine: benchMachine(), EndTime: 30,
		GVTFrequency: 40, ZeroCounterThreshold: 400, OptimismWindow: 10,
	}
	if s == scaleTiny {
		cfg.Model, cfg.Threads, cfg.Machine = ggpdes.Epidemics{LPsPerThread: 8}, 4, tinyMachine()
		cfg.EndTime, cfg.GVTFrequency, cfg.ZeroCounterThreshold = 30, 10, 60
	}
	return cfg
}

func (w *epidemics) setup(env *runEnv) error {
	w.init(env)
	w.headline = callCkptRun
	w.dir = filepath.Join(env.tmp, "ckpt")
	w.cfg = epidemicsConfig(env.scale)
	w.cfg.Checkpoint = &ggpdes.CheckpointOptions{Every: 2, Dir: w.dir}
	// Each iteration starts from an empty directory, so the snapshot
	// count and the middle snapshot are the iteration's own.
	w.before = func(int) error {
		if err := os.RemoveAll(w.dir); err != nil {
			return err
		}
		return os.MkdirAll(w.dir, 0o755)
	}
	run := runCfg(w.cfg)
	w.calls = []simCall{
		{name: callCkptRun, endTime: w.cfg.EndTime, primary: true,
			run: func(k int) (*ggpdes.Results, error) { return run(env.modelSeed(k)) }},
		{name: callResume, endTime: w.cfg.EndTime,
			prep: w.findMiddle,
			run:  func(int) (*ggpdes.Results, error) { return ggpdes.Resume(w.resumeFrom) }},
	}
	w.check = func(_ int, res map[string]*ggpdes.Results) error {
		if !reflect.DeepEqual(res[callCkptRun], res[callResume]) {
			return fmt.Errorf("Resume from %s diverged from the uninterrupted checkpointed run", filepath.Base(w.resumeFrom))
		}
		return nil
	}
	return nil
}

// findMiddle counts the snapshots the checkpointed run just wrote
// (numbered from 1) and selects the middle one.
func (w *epidemics) findMiddle(k int) error {
	n := 0
	for {
		if _, err := os.Stat(filepath.Join(w.dir, checkpoint.FileName(n+1))); err != nil {
			break
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("checkpointed run wrote no snapshot to %s", w.dir)
	}
	w.snapshots[k] = n
	w.resumeFrom = filepath.Join(w.dir, checkpoint.FileName((n+1)/2))
	return nil
}

func (w *epidemics) endToEnd(p *phase) map[string]valued {
	out := w.simLoop.endToEnd(p)
	out["resume_ms_p50"] = medianOf(p.samples[callResume])
	return out
}

// layers times the checkpoint package's own functions on the middle
// snapshot of the last iteration, and the same config without
// checkpointing as the base of run_over_plain_ratio.
func (w *epidemics) layers(p *phase, tr *span.Tracer) map[string]float64 {
	out := map[string]float64{}
	for _, n := range w.snapshots {
		if n > 0 {
			out["checkpoint.segments"] = float64(n)
			break
		}
	}
	if w.resumeFrom == "" {
		return out
	}
	data, err := os.ReadFile(w.resumeFrom)
	if err != nil {
		return out
	}
	out["checkpoint.snapshot_bytes"] = float64(len(data))
	snap, err := checkpoint.Decode(data)
	if err != nil {
		return out
	}
	scratch := filepath.Join(w.env.tmp, "ckpt-layer")
	const reps = 15
	timed := func(name string, f func() error) {
		var ms []float64
		for i := 0; i < reps; i++ {
			id := tr.Start(name, 0, int64(i), 1)
			t := time.Now()
			err := f()
			ms = append(ms, time.Since(t).Seconds()*1e3)
			tr.End(id)
			if err != nil {
				return
			}
		}
		out[name] = median(ms)
	}
	timed("checkpoint.read_ms", func() error { _, err := checkpoint.Read(w.resumeFrom); return err })
	timed("checkpoint.decode_ms", func() error { _, err := checkpoint.Decode(data); return err })
	timed("checkpoint.encode_ms", func() error { _, err := checkpoint.Encode(snap); return err })
	timed("checkpoint.write_ms", func() error { _, err := checkpoint.Write(scratch, snap); return err })

	plain := epidemicsConfig(w.env.scale)
	var plainMS []float64
	for i := 0; i < reps; i++ {
		plain.Seed = w.env.modelSeed(i % modelSeeds)
		t := time.Now()
		if _, err := ggpdes.Run(plain); err != nil {
			return out
		}
		plainMS = append(plainMS, time.Since(t).Seconds()*1e3)
	}
	if base := median(plainMS); base > 0 {
		out["checkpoint.run_over_plain_ratio"] = p.med(callCkptRun) / base
	}
	return out
}

func (w *epidemics) close() { os.RemoveAll(w.dir) }
