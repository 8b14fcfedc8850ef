package ggpdes

import (
	"strings"
	"testing"
)

func TestCacheKeyDeterministic(t *testing.T) {
	a, err := quickCfg().CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	b, err := quickCfg().CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same config, different keys: %s vs %s", a, b)
	}
	if !strings.HasPrefix(a, "sha256:") || len(a) != len("sha256:")+64 {
		t.Fatalf("malformed key %q", a)
	}
}

// Defaults applied explicitly must hash identically to zero values, so
// equivalent submissions share a cache entry.
func TestCacheKeyNormalizesDefaults(t *testing.T) {
	zero := quickCfg()
	explicit := quickCfg()
	explicit.Seed = 1
	explicit.BatchSize = 8
	a, err := zero.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("explicit defaults changed the key")
	}
}

// Every semantically meaningful field must perturb the key.
func TestCacheKeyFieldSensitivity(t *testing.T) {
	base, err := quickCfg().CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	perturbations := map[string]func(*Config){
		"seed":          func(c *Config) { c.Seed = 2 },
		"threads":       func(c *Config) { c.Threads = 16 },
		"system":        func(c *Config) { c.System = Baseline },
		"gvt":           func(c *Config) { c.GVT = Barrier },
		"affinity":      func(c *Config) { c.Affinity = ConstantAffinity },
		"endtime":       func(c *Config) { c.EndTime = 31 },
		"model-lps":     func(c *Config) { c.Model = PHOLD{LPsPerThread: 8, Imbalance: 2} },
		"model-imb":     func(c *Config) { c.Model = PHOLD{LPsPerThread: 4, Imbalance: 4} },
		"model-kind":    func(c *Config) { c.Model = Traffic{LPsPerThread: 8} },
		"machine-cores": func(c *Config) { c.Machine.Cores = 8 },
		"machine-smt":   func(c *Config) { c.Machine.SMTWidth = 4 },
		"gvtfreq":       func(c *Config) { c.GVTFrequency = 40 },
		"zerothr":       func(c *Config) { c.ZeroCounterThreshold = 100 },
		"batch":         func(c *Config) { c.BatchSize = 16 },
		"optimism":      func(c *Config) { c.OptimismWindow = 10 },
	}
	seen := map[string]string{}
	for name, mutate := range perturbations {
		t.Run(name, func(t *testing.T) {
			cfg := quickCfg()
			mutate(&cfg)
			key, err := cfg.CacheKey()
			if err != nil {
				t.Fatal(err)
			}
			if key == base {
				t.Error("perturbing the field did not change the key")
			}
			if prev, dup := seen[key]; dup {
				t.Errorf("collides with perturbation %s", prev)
			}
			seen[key] = name
		})
	}
}

// Observability options must NOT perturb the key: they do not change
// the simulation trajectory, and serve-layer hits should not depend on
// them.
func TestCacheKeyIgnoresObservability(t *testing.T) {
	base, err := quickCfg().CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.Trace = &TraceOptions{Limit: 100, Ring: true}
	cfg.Series = &SeriesOptions{Limit: 8, Func: func(SeriesPoint) {}}
	key, err := cfg.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if key != base {
		t.Fatal("observability options changed the key")
	}
}

func TestCacheKeyRejectsInvalid(t *testing.T) {
	if _, err := (Config{}).CacheKey(); err == nil {
		t.Fatal("invalid config produced a key")
	}
}

// Golden keys: if these change, the canonical serialization changed
// and every deployed result cache silently invalidates. That can be
// intentional (bump cacheKeyVersion when semantics change), but never
// accidental — update the constants only with a matching version bump
// or a conscious format change.
func TestCacheKeyGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "quick-phold",
			cfg:  quickCfg(),
			want: "sha256:76aee2d72f08bccc9895397625b6717d4f4eabceabdeb0e35051dabd13a5c2aa",
		},
		{
			name: "paper-default",
			cfg: Config{
				Model:   PHOLD{},
				Threads: 256,
				System:  GGPDES,
				GVT:     WaitFree,
				EndTime: 50,
			},
			want: "sha256:54dd69aeadce5f971b021dce1541167e99fa2c7a601dd02fb2a107c2b2c6422b",
		},
		{
			name: "epidemics-sync",
			cfg: Config{
				Model:   Epidemics{LPsPerThread: 8},
				Threads: 4,
				System:  DDPDES,
				GVT:     Barrier,
				EndTime: 20,
				Machine: SmallMachine(),
			},
			want: "sha256:79039c8a449f8250193d73ed4eb82da7d5ea34aa84642de4c2c5a6fbf20bc123",
		},
		{
			// Every field that survived the retired options' removal, set:
			// its key was taken while those options still existed.
			name: "every-surviving-field",
			cfg: Config{
				Model:                Traffic{LPsPerThread: 8, DensityGradient: 0.5},
				Threads:              8,
				System:               GGPDES,
				GVT:                  WaitFree,
				Affinity:             DynamicAffinity,
				EndTime:              12,
				Seed:                 7,
				Machine:              Machine{Cores: 4, SMTWidth: 2, FreqHz: 1.3e9},
				GVTFrequency:         40,
				ZeroCounterThreshold: 300,
				BatchSize:            4,
				OptimismWindow:       5,
				Checkpoint:           &CheckpointOptions{Every: 3},
				Chaos:                &ChaosOptions{Seed: 9, StallRate: 0.02},
			},
			want: "sha256:4d89b605b42f594e2249f006e68b81db7901491a9a577f3bea8455ff7b0bb054",
		},
	}
	for _, tc := range cases {
		got, err := tc.cfg.CacheKey()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			canon, _ := tc.cfg.CanonicalString()
			t.Errorf("%s: key %s, want %s\ncanonical:\n%s", tc.name, got, tc.want, canon)
		}
	}
}
