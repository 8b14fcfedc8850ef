package ggpdes

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// Wire-field round-trip: every run-defining field must survive
// encode→decode exactly. The checkpoint layer additionally enforces
// this at runtime by comparing cache keys, but a unit-level DeepEqual
// catches lossiness with a better diagnostic.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfgs := []Config{
		quickCfg(),
		{
			Model: Epidemics{LPsPerThread: 8, LockdownGroups: 8, AgentsPerHousehold: 3,
				ContactRate: 2.5, TransmissionProb: 0.4, SeedsPerWindow: 2},
			Threads:              4,
			System:               DDPDES,
			GVT:                  Barrier,
			Affinity:             ConstantAffinity,
			EndTime:              12.5,
			Seed:                 42,
			Machine:              Machine{Cores: 8, SMTWidth: 2, FreqHz: 2e9, MaxTicks: 1 << 20},
			GVTFrequency:         33,
			ZeroCounterThreshold: 77,
			BatchSize:            4,
			OptimismWindow:       5,
			Checkpoint:           &CheckpointOptions{Every: 3, Dir: "/tmp/ck"},
			Chaos:                &ChaosOptions{Seed: 7, StallRate: 0.005},
		},
		{
			Model:   Traffic{LPsPerThread: 4, DensityGradient: 0.5, CenterStartEvents: 12},
			Threads: 16, EndTime: 9, GVT: WaitFree, System: GGPDES, Affinity: DynamicAffinity,
		},
	}
	for i, cfg := range cfgs {
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		var back Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("case %d: %v\njson: %s", i, err, data)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Errorf("case %d: round trip lost data\n  in:  %+v\n  out: %+v\n  json: %s", i, cfg, back, data)
		}
	}
}

// Decoding overwrites wire fields but preserves the non-wire
// observability attachments on the receiver.
func TestConfigJSONPreservesAttachments(t *testing.T) {
	data, err := json.Marshal(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var cfg Config
	cfg.Trace = &TraceOptions{Limit: 5}
	cfg.Series = &SeriesOptions{Limit: 5}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Trace == nil || cfg.Series == nil {
		t.Fatal("decode dropped observability attachments")
	}
	if cfg.Threads != quickCfg().Threads {
		t.Fatal("decode did not install wire fields")
	}
}

func TestConfigJSONRejectsBadEnums(t *testing.T) {
	cases := []string{
		`{"model":{"name":"nope"},"threads":1,"end_time":1}`,
		`{"system":"vax"}`,
		`{"gvt":"psychic"}`,
		`{"affinity":"strong"}`,
		`{"queue":"deque"}`,
		`{"state_saving":"none"}`,
	}
	for _, js := range cases {
		t.Run(js, func(t *testing.T) {
			var cfg Config
			if err := json.Unmarshal([]byte(js), &cfg); err == nil {
				t.Errorf("accepted %s", js)
			}
		})
	}
}

// A retired option, turned on, fails typed and names itself: ignored
// like an unknown key, it would run — and be cached as — a different
// simulation than the one asked for. Turned off it asks for what every
// run is, and decodes.
func TestConfigJSONRejectsRetiredOptions(t *testing.T) {
	const spec = `{"model":{"name":"phold"},"threads":2,"end_time":5,`
	for _, tc := range []struct{ key, js string }{
		{"lazy_cancellation", spec + `"lazy_cancellation":true}`},
		{"adaptive_gvt", spec + `"adaptive_gvt":{"min_frequency":4,"max_frequency":64}}`},
		{"drop_send_rate", spec + `"chaos":{"drop_send_rate":0.01}}`},
		{"delay_send_rate", spec + `"chaos":{"delay_send_rate":0.05}}`},
		{"delay_send_hold", spec + `"chaos":{"stall_rate":0.1,"delay_send_hold":16}}`},
		{"kill_thread", spec + `"chaos":{"kill_thread":1}}`},
		{"kill_at_iter", spec + `"chaos":{"kill_at_iter":100}}`},
		{"lps_per_kp", spec + `"lps_per_kp":2}`},
		{"state_saving", spec + `"state_saving":"reverse"}`},
		{`queue "heap"`, spec + `"queue":"heap"}`},
		{`queue "calendar"`, spec + `"queue":"calendar"}`},
		{"machine.numa_nodes", spec + `"machine":{"cores":8,"numa_nodes":2}}`},
	} {
		t.Run(tc.key, func(t *testing.T) {
			var cfg Config
			err := json.Unmarshal([]byte(tc.js), &cfg)
			if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), tc.key) {
				t.Errorf("error %v, want ErrInvalidConfig naming the option", err)
			}
		})
	}
	t.Run("off", func(t *testing.T) {
		var cfg Config
		off := `"lazy_cancellation":false,"adaptive_gvt":null,"lps_per_kp":1,"state_saving":"copy","queue":"splay",` +
			`"chaos":{"stall_rate":0.1,"drop_send_rate":0,"delay_send_rate":0,"delay_send_hold":0,"kill_thread":0,"kill_at_iter":0}}`
		if err := json.Unmarshal([]byte(spec+off), &cfg); err != nil {
			t.Errorf("retired options turned off: %v", err)
		}
		if want := (ChaosOptions{StallRate: 0.1}); cfg.Chaos == nil || *cfg.Chaos != want {
			t.Errorf("chaos decoded as %+v, want %+v", cfg.Chaos, want)
		}
	})
}

// A config written while multi-LP kernel processes, reverse computation
// and the choice of pending queue existed carries "queue":"splay" and
// "state_saving":"copy" (and, set to one, "lps_per_kp"). It decodes to
// the config it named, under the key it was cached and checkpointed
// with, and is written back without the retired keys; a parent reads
// the missing keys as splay and copy.
func TestConfigJSONReadsRetiredDefaults(t *testing.T) {
	const parent = `{"model":{"name":"traffic","lps_per_thread":8,"density_gradient":0.5},"threads":8,` +
		`"system":"gg-pdes","gvt":"waitfree","affinity":"dynamic","end_time":12,"seed":7,` +
		`"machine":{"cores":4,"smt_width":2,"freq_hz":1300000000},"gvt_frequency":40,` +
		`"zero_counter_threshold":300,"batch_size":4,"queue":"splay","state_saving":"copy",` +
		`"optimism_window":5,"checkpoint":{"every":3},"chaos":{"seed":9,"stall_rate":0.02}}`
	want := Config{
		Model:   Traffic{LPsPerThread: 8, DensityGradient: 0.5},
		Threads: 8, System: GGPDES, GVT: WaitFree, Affinity: DynamicAffinity,
		EndTime: 12, Seed: 7,
		Machine:      Machine{Cores: 4, SMTWidth: 2, FreqHz: 1.3e9},
		GVTFrequency: 40, ZeroCounterThreshold: 300, BatchSize: 4,
		OptimismWindow: 5,
		Checkpoint:     &CheckpointOptions{Every: 3},
		Chaos:          &ChaosOptions{Seed: 9, StallRate: 0.02},
	}
	for _, js := range []string{parent, strings.Replace(parent, `"state_saving"`, `"lps_per_kp":1,"state_saving"`, 1)} {
		var cfg Config
		if err := json.Unmarshal([]byte(js), &cfg); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cfg, want) {
			t.Fatalf("decoded %+v, want %+v", cfg, want)
		}
		// The key the parent computed for this config.
		if key, err := cfg.CacheKey(); err != nil || key != "sha256:4d89b605b42f594e2249f006e68b81db7901491a9a577f3bea8455ff7b0bb054" {
			t.Fatalf("key %s (%v), not the one the config was written under", key, err)
		}
	}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(data); got != strings.Replace(parent, `"queue":"splay","state_saving":"copy",`, "", 1) {
		t.Fatalf("encoded %s", got)
	}
}

// The memory-recycling switch left with the unpooled engine. It never
// changed a trajectory and was never in the cache key, so its key is
// ignored like any unknown key: either value decodes to the config
// without it, under that config's cache key, and is written back
// without it.
func TestConfigJSONIgnoresRetiredPoolingKey(t *testing.T) {
	want := quickCfg()
	plain, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	wantKey, err := want.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"true", "false"} {
		data := append(bytes.TrimSuffix(bytes.Clone(plain), []byte("}")), `,"disable_pooling":`+v+`}`...)
		var cfg Config
		if err := json.Unmarshal(data, &cfg); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if !reflect.DeepEqual(cfg, want) {
			t.Fatalf("%s decoded %+v, want %+v", data, cfg, want)
		}
		if key, err := cfg.CacheKey(); err != nil || key != wantKey {
			t.Fatalf("%s: key %s (%v), want %s", data, key, err, wantKey)
		}
		back, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, plain) {
			t.Fatalf("%s re-encoded as %s, want %s", data, back, plain)
		}
	}
}

// The retired numa_nodes key is wire-only too. 0 and 1 named the
// uniform machine every run now has, so they decode to the config
// without the key, under its cache key, and are written back without
// it; any other value asked for sub-NUMA clustering and fails typed.
func TestConfigJSONRetiredNUMANodes(t *testing.T) {
	const spec = `{"model":{"name":"phold"},"threads":2,"end_time":5,"machine":{"cores":8,"smt_width":2`
	var plain Config
	if err := json.Unmarshal([]byte(spec+"}}"), &plain); err != nil {
		t.Fatal(err)
	}
	plainKey, err := plain.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	plainJSON, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"0", "1"} {
		var cfg Config
		if err := json.Unmarshal([]byte(spec+`,"numa_nodes":`+v+"}}"), &cfg); err != nil {
			t.Fatalf("numa_nodes %s: %v", v, err)
		}
		if !reflect.DeepEqual(cfg, plain) {
			t.Errorf("numa_nodes %s decoded %+v, want %+v", v, cfg, plain)
		}
		if key, err := cfg.CacheKey(); err != nil || key != plainKey {
			t.Errorf("numa_nodes %s: key %s (%v), want %s", v, key, err, plainKey)
		}
		if data, err := json.Marshal(cfg); err != nil || !bytes.Equal(data, plainJSON) {
			t.Errorf("numa_nodes %s encoded %s (%v), want %s", v, data, err, plainJSON)
		}
	}
	for _, v := range []string{"2", "4", "-1"} {
		var cfg Config
		err := json.Unmarshal([]byte(spec+`,"numa_nodes":`+v+"}}"), &cfg)
		if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), "machine.numa_nodes") {
			t.Errorf("numa_nodes %s: error %v, want ErrInvalidConfig naming machine.numa_nodes", v, err)
		}
	}
}

// The retired queue key is wire-only. A config that names the splay
// tree, in any case, or leaves the key empty, decodes to the config
// without the key, under the same cache key, and is written back
// without it; "heap" and "calendar" ask for runs that no longer exist
// and fail typed; anything else was never a queue and fails untyped.
func TestConfigJSONRetiredQueueField(t *testing.T) {
	const spec = `{"model":{"name":"phold"},"threads":2,"end_time":5`
	var plain Config
	if err := json.Unmarshal([]byte(spec+"}"), &plain); err != nil {
		t.Fatal(err)
	}
	plainKey, err := plain.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	const (
		accepted = iota
		retired
		unknown
	)
	for _, tc := range []struct {
		name, value string
		outcome     int
	}{
		{"splay", `"splay"`, accepted},
		{"Splay", `"Splay"`, accepted},
		{"SPLAY", `"SPLAY"`, accepted},
		{"empty", `""`, accepted},
		{"null", `null`, accepted},
		{"heap", `"heap"`, retired},
		{"HEAP", `"HEAP"`, retired},
		{"calendar", `"calendar"`, retired},
		{"Calendar", `"Calendar"`, retired},
		{"ladder", `"ladder"`, unknown},
		{"padded", `" splay"`, unknown},
		{"number", `1`, unknown},
		{"bool", `true`, unknown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cfg Config
			err := json.Unmarshal([]byte(spec+`,"queue":`+tc.value+"}"), &cfg)
			switch tc.outcome {
			case retired:
				if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), "queue") {
					t.Fatalf("error %v, want ErrInvalidConfig naming the queue", err)
				}
				return
			case unknown:
				if err == nil || errors.Is(err, ErrInvalidConfig) {
					t.Fatalf("error %v, want an untyped decode error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cfg, plain) {
				t.Fatalf("decoded %+v, want %+v", cfg, plain)
			}
			if key, err := cfg.CacheKey(); err != nil || key != plainKey {
				t.Fatalf("key %s (%v), want %s", key, err, plainKey)
			}
			data, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(data), `"queue"`) {
				t.Fatalf("encoded %s", data)
			}
		})
	}
}

// Every accepted enum spelling decodes, not just the canonical one.
func TestConfigJSONEnumSpellings(t *testing.T) {
	js := `{"system":"dd","gvt":"sync","affinity":"constant"}`
	var cfg Config
	if err := json.Unmarshal([]byte(js), &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.System != DDPDES || cfg.GVT != Barrier || cfg.Affinity != ConstantAffinity {
		t.Fatalf("alternate spellings decoded wrong: %+v", cfg)
	}
}

// FuzzConfigJSON feeds arbitrary bytes to the decoder (it must never
// panic and must fail cleanly or produce a re-encodable config), and
// checks decode→encode→decode stability for inputs that parse.
func FuzzConfigJSON(f *testing.F) {
	seedCfgs := []Config{quickCfg(), {Model: Traffic{}, Threads: 2, EndTime: 4}}
	for _, cfg := range seedCfgs {
		data, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add(`{"model":{"name":"epidemics","contact_rate":1.5},"threads":3,"end_time":2.25,"seed":9}`)
	f.Add(`{}`)
	f.Add(`{"machine":{"cores":1},"lazy_cancellation":false,"adaptive_gvt":null}`)
	f.Add(`{"machine":{"cores":1},"adaptive_gvt":{"min_frequency":1,"max_frequency":2}}`)
	f.Add(`{"chaos":{"seed":3,"stall_rate":0.25,"kill_at_iter":0}}`)
	f.Add(`{"chaos":{"drop_send_rate":0.5}}`)
	f.Add(`{"lps_per_kp":1,"state_saving":"copy"}`)
	f.Add(`{"lps_per_kp":4}`)
	f.Add(`{"state_saving":"reverse"}`)
	f.Add(`{"queue":"heap"}`)
	f.Add(`{"queue":"calendar"}`)
	f.Fuzz(func(t *testing.T, in string) {
		var cfg Config
		if err := json.Unmarshal([]byte(in), &cfg); err != nil {
			return // invalid inputs must only error, never panic
		}
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("decoded config failed to re-encode: %v", err)
		}
		var back Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("re-encoded config failed to decode: %v\njson: %s", err, data)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Fatalf("encode/decode not stable\n  first:  %+v\n  second: %+v", cfg, back)
		}
	})
}
