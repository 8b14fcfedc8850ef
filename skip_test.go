package ggpdes

import (
	"bytes"
	"context"
	"math"
	"testing"
)

// neverFiring is a chaos configuration whose stall injector exists and,
// in practice, never fires: an iteration stalls only when its 53-bit
// draw is exactly 0, probability 2⁻⁵³, and the draws are fixed by the
// seed. A configured injector is consulted on every iteration, so the
// run executes every iteration; without one it books the idle ones
// arithmetically (core.Runner's skipIdle). Nothing but host time may
// tell the two apart. Were a stall ever to fire, the comparison would
// fail loudly, not pass vacuously.
func neverFiring() *ChaosOptions { return &ChaosOptions{StallRate: math.SmallestNonzeroFloat64} }

// observedRun runs cfg with every observer on and returns its Results,
// its Perfetto export and its loop-iteration counts.
func observedRun(t *testing.T, cfg Config) (res *Results, perfetto []byte, executed, skipped uint64) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Series = &SeriesOptions{}
	cfg.Trace = &TraceOptions{Perfetto: &buf}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rs := &runState{cfg: cfg}
	res, err := rs.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes(), rs.loopExecuted, rs.loopSkipped
}

// benchAsyncArm is one arm of bench/ggperf's phold-imbalanced-async
// workload, the one the skip exists for.
func benchAsyncArm(system System, gvt GVT) Config {
	return Config{
		Model: PHOLD{LPsPerThread: 4, Imbalance: 16}, Threads: 16, System: system, GVT: gvt,
		Affinity: ConstantAffinity, Machine: Machine{Cores: 8, SMTWidth: 2, FreqHz: 1.3e9}, EndTime: 160,
		GVTFrequency: 40, ZeroCounterThreshold: 400, OptimismWindow: 10,
	}
}

// TestSkipAheadInvisibleThroughAPI is the skip's oracle at the public
// surface: for the benchmark's simulation configs and Epidemics, a run
// that skips and a run that executes return the same Results —
// every counter, histogram percentile and series row — and the same
// Perfetto export, byte for byte.
func TestSkipAheadInvisibleThroughAPI(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"phold-sync", benchPholdSyncCfg()},
		{"phold-imbalanced-async/baseline-sync", benchAsyncArm(Baseline, Barrier)},
		{"phold-imbalanced-async/baseline-async", benchAsyncArm(Baseline, WaitFree)},
		{"phold-imbalanced-async/dd-async", benchAsyncArm(DDPDES, WaitFree)},
		{"phold-imbalanced-async/gg-async", benchAsyncArm(GGPDES, WaitFree)},
		{"traffic-oversub-rollback", benchTrafficCfg()},
		{"phold-dist-2w/in-process", Config{
			Model: PHOLD{LPsPerThread: 8}, Threads: 16, System: GGPDES, GVT: WaitFree,
			Affinity: ConstantAffinity, Machine: Machine{Cores: 16, SMTWidth: 2}, EndTime: 60,
			GVTFrequency: 10, ZeroCounterThreshold: 60,
		}},
		{"epidemics", Config{
			Model:   Epidemics{LPsPerThread: 8, LockdownGroups: 4, ContactRate: 3, TransmissionProb: 0.5},
			Threads: 8, System: GGPDES, GVT: WaitFree, EndTime: 30, GVTFrequency: 20, ZeroCounterThreshold: 100,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = 12345
			skipRes, skipTrace, skipExecuted, skipped := observedRun(t, cfg)
			cfg.Chaos = neverFiring()
			execRes, execTrace, executed, execSkipped := observedRun(t, cfg)
			if skipped == 0 || execSkipped != 0 {
				t.Fatalf("vacuous comparison: the plain run skipped %d iterations, the chaos run %d", skipped, execSkipped)
			}
			if skipExecuted+skipped != executed {
				t.Errorf("executed %d + skipped %d iterations, the executing run made %d", skipExecuted, skipped, executed)
			}
			if len(skipRes.Series) == 0 || len(skipRes.Counters) == 0 || len(skipTrace) == 0 {
				t.Fatalf("vacuous comparison: %d series rows, %d counters, %d trace bytes",
					len(skipRes.Series), len(skipRes.Counters), len(skipTrace))
			}
			diffResults(t, "skipping", "executing", skipRes, execRes)
			if !bytes.Equal(skipTrace, execTrace) {
				t.Errorf("Perfetto exports differ (%d and %d bytes)", len(skipTrace), len(execTrace))
			}
		})
	}
}

// TestSkipAheadLoopIterations pins what the skip is for on the
// benchmark's phold-imbalanced-async config: the iterations executed
// and the iterations booked add up, arm by arm, to what the run
// executed before there was a skip (counted at e1fb1e2), and the
// polling arm executes a small fraction of them.
func TestSkipAheadLoopIterations(t *testing.T) {
	for _, arm := range []struct {
		name          string
		cfg           Config
		total, atMost uint64
	}{
		{"baseline-sync", benchAsyncArm(Baseline, Barrier), 21_120, 21_120},
		{"baseline-async", benchAsyncArm(Baseline, WaitFree), 746_580, 30_000},
		{"dd-async", benchAsyncArm(DDPDES, WaitFree), 75_050, 75_050},
		{"gg-async", benchAsyncArm(GGPDES, WaitFree), 54_422, 54_422},
	} {
		arm.cfg.Seed = 12345
		_, _, executed, skipped := observedRun(t, arm.cfg)
		if executed+skipped != arm.total {
			t.Errorf("%s: %d executed + %d booked = %d iterations, want %d", arm.name, executed, skipped, executed+skipped, arm.total)
		}
		if executed > arm.atMost {
			t.Errorf("%s: %d iterations executed, want at most %d", arm.name, executed, arm.atMost)
		}
		t.Logf("%s: %d executed, %d booked", arm.name, executed, skipped)
	}
}
