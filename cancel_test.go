package ggpdes

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// longCfg returns a configuration that would run for a very long time,
// so cancellation is guaranteed to land mid-simulation.
func longCfg() Config {
	cfg := quickCfg()
	cfg.EndTime = 1e12
	cfg.Machine.MaxTicks = 1 << 40
	return cfg
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, longCfg())
	if err == nil || res != nil {
		t.Fatalf("cancelled run returned res=%v err=%v", res, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, longCfg())
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error %v does not wrap context.Canceled", err)
		}
		if !strings.Contains(err.Error(), "cancelled") {
			t.Fatalf("error %v does not mention cancellation", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, longCfg())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("deadline ignored for %v", elapsed)
	}
}

// A finished context must not poison a run that completes normally:
// RunContext with a background context equals Run.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	a, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.CommittedEvents != b.CommittedEvents || a.TotalCycles != b.TotalCycles {
		t.Fatal("RunContext(Background) diverged from Run")
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	good := quickCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	good.Chaos = &ChaosOptions{StallRate: math.Nextafter(1, 0)}
	if err := good.Validate(); err != nil {
		t.Fatalf("stall rate just under 1 rejected: %v", err)
	}
	for _, m := range []Model{Epidemics{LPsPerThread: 4, TransmissionProb: 1}, Traffic{LPsPerThread: 2}} {
		edge := quickCfg()
		edge.Model = m
		if err := edge.Validate(); err != nil {
			t.Fatalf("%s rejected: %v", m.Name(), err)
		}
	}
	bad := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no-model", func(c *Config) { c.Model = nil }},
		{"zero-threads", func(c *Config) { c.Threads = 0 }},
		{"zero-end", func(c *Config) { c.EndTime = 0 }},
		// NaN passes an EndTime <= 0 test, and neither NaN nor +Inf
		// ever lets GVT reach the end: the run never finishes.
		{"nan-end", func(c *Config) { c.EndTime = math.NaN() }},
		{"inf-end", func(c *Config) { c.EndTime = math.Inf(1) }},
		{"neg-inf-end", func(c *Config) { c.EndTime = math.Inf(-1) }},
		{"unknown-system", func(c *Config) { c.System = System(99) }},
		{"unknown-gvt", func(c *Config) { c.GVT = GVT(99) }},
		{"unknown-affinity", func(c *Config) { c.Affinity = Affinity(99) }},
		{"baseline-dynamic-affinity", func(c *Config) { c.System = Baseline; c.Affinity = DynamicAffinity }},
		// The DD-PDES controller thread takes a core of its own.
		{"dd-pdes-one-core", func(c *Config) { c.System = DDPDES; c.Machine.Cores = 1 }},
		{"neg-gvt-frequency", func(c *Config) { c.GVTFrequency = -1 }},
		{"neg-zero-counter", func(c *Config) { c.ZeroCounterThreshold = -1 }},
		{"neg-batch", func(c *Config) { c.BatchSize = -1 }},
		{"neg-window", func(c *Config) { c.OptimismWindow = -1 }},
		{"nan-window", func(c *Config) { c.OptimismWindow = math.NaN() }},
		{"inf-window", func(c *Config) { c.OptimismWindow = math.Inf(1) }},
		{"neg-inf-window", func(c *Config) { c.OptimismWindow = math.Inf(-1) }},
		{"neg-cores", func(c *Config) { c.Machine.Cores = -1 }},
		{"nan-freq", func(c *Config) { c.Machine.FreqHz = math.NaN() }},
		{"inf-freq", func(c *Config) { c.Machine.FreqHz = math.Inf(1) }},
		{"neg-inf-freq", func(c *Config) { c.Machine.FreqHz = math.Inf(-1) }},
		{"bad-model", func(c *Config) { c.Model = PHOLD{LPsPerThread: 1, Imbalance: 3} }},
		// A stall rate of 1 stalls every iteration forever.
		{"stall-rate-one", func(c *Config) { c.Chaos = &ChaosOptions{StallRate: 1} }},
		{"neg-stall-rate", func(c *Config) { c.Chaos = &ChaosOptions{StallRate: -0.1} }},
		{"nan-stall-rate", func(c *Config) { c.Chaos = &ChaosOptions{StallRate: math.NaN()} }},
		// The models default a parameter only when it is <= 0, which NaN
		// never is; an infinite contact rate makes the per-contact
		// float-to-int conversion implementation-defined.
		{"inf-contact-rate", func(c *Config) { c.Model = Epidemics{LPsPerThread: 4, ContactRate: math.Inf(1)} }},
		{"nan-contact-rate", func(c *Config) { c.Model = Epidemics{LPsPerThread: 4, ContactRate: math.NaN()} }},
		{"nan-transmission-prob", func(c *Config) { c.Model = Epidemics{LPsPerThread: 4, TransmissionProb: math.NaN()} }},
		{"transmission-prob-above-one", func(c *Config) { c.Model = Epidemics{LPsPerThread: 4, TransmissionProb: 2} }},
		{"nan-density-gradient", func(c *Config) { c.Model = Traffic{LPsPerThread: 2, DensityGradient: math.NaN()} }},
		{"inf-density-gradient", func(c *Config) { c.Model = Traffic{LPsPerThread: 2, DensityGradient: math.Inf(1)} }},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg()
			tc.mutate(&cfg)
			if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("invalid config: Validate returned %v, want ErrInvalidConfig", err)
			}
		})
	}
}
