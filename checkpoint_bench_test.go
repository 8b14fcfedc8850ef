package ggpdes

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"ggpdes/internal/checkpoint"
	"ggpdes/internal/tw"
)

// ckptBenchCfg is the benchmark's epidemics-ckpt-resume config
// (bench/ggperf/w_ckpt.go), so `make bench` sees the checkpoint layer
// at the size the ledger quotes.
func ckptBenchCfg(dir string) Config {
	return Config{
		Model: Epidemics{LPsPerThread: 64, SeedsPerWindow: 24}, Threads: 16,
		System: GGPDES, GVT: WaitFree, Affinity: ConstantAffinity,
		Machine: Machine{Cores: 8, SMTWidth: 2, FreqHz: 1.3e9}, EndTime: 30,
		GVTFrequency: 40, ZeroCounterThreshold: 400, OptimismWindow: 10,
		Seed:       1,
		Checkpoint: &CheckpointOptions{Every: 2, Dir: dir},
	}
}

// BenchmarkCheckpointedRun is one checkpointed run, stepped through the
// same four calls runSegment and checkpoint make so each can be timed:
// what a segment costs to build, to run, to capture, and what the
// critical path still waits for the snapshot writer (joining the
// previous boundary's write, building the snapshot, and the final join).
func BenchmarkCheckpointedRun(b *testing.B) {
	cfg := ckptBenchCfg(b.TempDir())
	ctx := context.Background()
	var build, run, capture, write time.Duration
	segments := 0
	timed := func(into *time.Duration, f func() error) {
		start := time.Now()
		if err := f(); err != nil {
			b.Fatal(err)
		}
		*into += time.Since(start)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := &runState{cfg: cfg}
		if err := rs.prepare(); err != nil {
			b.Fatal(err)
		}
		for {
			segments++
			var seg *segment
			timed(&build, func() (err error) { seg, err = rs.buildSegment(); return })
			timed(&run, func() error { return seg.m.RunContext(ctx) })
			if !seg.eng.Paused() {
				timed(&write, func() error { _, err := rs.finishWrites(rs.finish(seg)); return err })
				break
			}
			var est *tw.EngineState
			timed(&capture, func() (err error) { est, err = rs.capture(seg); return })
			timed(&write, func() error { return rs.commit(seg, est) })
		}
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(segments) }
	b.ReportMetric(per(build), "build-ns/segment")
	b.ReportMetric(per(run), "run-ns/segment")
	b.ReportMetric(per(capture), "capture-ns/segment")
	b.ReportMetric(per(write), "write-wait-ns/segment")
	b.ReportMetric(float64(segments)/float64(b.N), "segments/op")
}

// BenchmarkResumeMiddle is the benchmark's other timed call: Resume
// from the middle snapshot of the run above.
func BenchmarkResumeMiddle(b *testing.B) {
	dir := b.TempDir()
	if _, err := Run(ckptBenchCfg(dir)); err != nil {
		b.Fatal(err)
	}
	latest, err := checkpoint.Latest(dir)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := checkpoint.Read(latest)
	if err != nil {
		b.Fatal(err)
	}
	middle := filepath.Join(dir, checkpoint.FileName((snap.Segments+1)/2))
	opts := &ResumeOptions{CheckpointDir: b.TempDir()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ResumeContext(context.Background(), middle, opts); err != nil {
			b.Fatal(err)
		}
	}
}
