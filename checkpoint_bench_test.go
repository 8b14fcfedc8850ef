package ggpdes

import (
	"context"
	"path/filepath"
	"runtime"
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

// segmentLedger steps runs through the same calls runSegment and
// checkpoint make, in their order — build, run, then at a boundary join
// the previous boundary's writer, capture over the state the engine was
// built from, and commit — so that each can be timed: what a segment
// costs to build, to run, to capture, and what the critical path still
// waits for the snapshot writer (the join, building the snapshot, and
// the final join). It counts what a boundary is there to avoid: heap
// objects and bytes, the collector cycles they cost, and LP states that
// were decoded into new objects where the quiesced engine's own could
// have been installed.
type segmentLedger struct {
	build, run, capture, write time.Duration
	segments, decoded          int
	mallocs, bytes, gcs        uint64
}

// step runs rs, prepared or loaded from a snapshot, to completion.
func (l *segmentLedger) step(b *testing.B, rs *runState) {
	ctx := context.Background()
	timed := func(into *time.Duration, f func() error) {
		start := time.Now()
		if err := f(); err != nil {
			b.Fatal(err)
		}
		*into += time.Since(start)
	}
	timed(&l.write, rs.prepare)
	// Only now, with the config encoded: the counter has no wire form.
	rs.cfg.Model = decodeCounter{rs.cfg.Model, &l.decoded}
	for {
		l.segments++
		var seg *segment
		timed(&l.build, func() (err error) { seg, err = rs.buildSegment(); return })
		timed(&l.run, func() error { return seg.m.RunContext(ctx) })
		if !seg.eng.Paused() {
			timed(&l.write, func() error { _, err := rs.finishWrites(rs.finish(seg)); return err })
			return
		}
		var est *tw.EngineState
		timed(&l.write, rs.waitWriter)
		timed(&l.capture, func() (err error) { est, err = rs.capture(seg); return })
		timed(&l.write, func() error { rs.commit(seg, est); return nil })
	}
}

// decodeCounter is a Model whose engine model counts the LP states it
// is asked to decode.
type decodeCounter struct {
	Model
	n *int
}

func (c decodeCounter) build(threads int, endTime float64) (tw.Model, error) {
	m, err := c.Model.build(threads, endTime)
	if err != nil {
		return nil, err
	}
	return countedModel{m.(tw.CheckpointModel), c.n}, nil
}

type countedModel struct {
	tw.CheckpointModel
	n *int
}

func (m countedModel) DecodeState(data []byte) (tw.State, error) {
	*m.n++
	return m.CheckpointModel.DecodeState(data)
}

// measure runs the benchmark loop around one, which steps one run per
// iteration, and reports the ledger per segment.
func (l *segmentLedger) measure(b *testing.B, one func()) {
	b.ReportAllocs()
	b.ResetTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		one()
	}
	runtime.ReadMemStats(&after)
	l.mallocs = after.Mallocs - before.Mallocs
	l.bytes = after.TotalAlloc - before.TotalAlloc
	l.gcs = uint64(after.NumGC - before.NumGC)
	per := func(n float64) float64 { return n / float64(l.segments) }
	b.ReportMetric(per(float64(l.build.Nanoseconds())), "build-ns/segment")
	b.ReportMetric(per(float64(l.run.Nanoseconds())), "run-ns/segment")
	b.ReportMetric(per(float64(l.capture.Nanoseconds())), "capture-ns/segment")
	b.ReportMetric(per(float64(l.write.Nanoseconds())), "write-wait-ns/segment")
	b.ReportMetric(per(float64(l.mallocs)), "allocs/segment")
	b.ReportMetric(per(float64(l.bytes)), "bytes/segment")
	b.ReportMetric(per(float64(l.gcs)), "gc/segment")
	b.ReportMetric(per(float64(l.decoded)), "decode_states/segment")
	b.ReportMetric(float64(l.segments)/float64(b.N), "segments/op")
}

// BenchmarkCheckpointedRun is one checkpointed run of the benchmark's
// config: eight segments, none of which decodes a state.
func BenchmarkCheckpointedRun(b *testing.B) {
	cfg := ckptBenchCfg(b.TempDir())
	var l segmentLedger
	l.measure(b, func() { l.step(b, &runState{cfg: cfg}) })
}

// BenchmarkResumeMiddle is the benchmark's other timed call: Resume
// from the middle snapshot of the run above, whose first segment decodes
// every state from the file and whose others decode none.
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
	var l segmentLedger
	l.measure(b, func() {
		rs, err := resumeState(middle, opts)
		if err != nil {
			b.Fatal(err)
		}
		l.step(b, rs)
	})
}
