package ggpdes

import (
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
			Machine:              Machine{Cores: 8, SMTWidth: 2, FreqHz: 2e9, NUMANodes: 2, MaxTicks: 1 << 20},
			GVTFrequency:         33,
			ZeroCounterThreshold: 77,
			BatchSize:            4,
			LPsPerKP:             2,
			Queue:                CalendarQueue,
			StateSaving:          ReverseComputation,
			OptimismWindow:       5,
			DisablePooling:       true,
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
	cfg.Progress = &ProgressOptions{Every: 0.5}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Trace == nil || cfg.Progress == nil {
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
		var cfg Config
		if err := json.Unmarshal([]byte(js), &cfg); err == nil {
			t.Errorf("accepted %s", js)
		}
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
		off := `"lazy_cancellation":false,"adaptive_gvt":null,` +
			`"chaos":{"stall_rate":0.1,"drop_send_rate":0,"delay_send_rate":0,"delay_send_hold":0,"kill_thread":0,"kill_at_iter":0}}`
		if err := json.Unmarshal([]byte(spec+off), &cfg); err != nil {
			t.Errorf("retired options turned off: %v", err)
		}
		if want := (ChaosOptions{StallRate: 0.1}); cfg.Chaos == nil || *cfg.Chaos != want {
			t.Errorf("chaos decoded as %+v, want %+v", cfg.Chaos, want)
		}
	})
}

// Every accepted enum spelling decodes, not just the canonical one.
func TestConfigJSONEnumSpellings(t *testing.T) {
	js := `{"system":"dd","gvt":"sync","affinity":"constant","queue":"heap","state_saving":"reverse"}`
	var cfg Config
	if err := json.Unmarshal([]byte(js), &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.System != DDPDES || cfg.GVT != Barrier || cfg.Affinity != ConstantAffinity ||
		cfg.Queue != HeapQueue || cfg.StateSaving != ReverseComputation {
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
