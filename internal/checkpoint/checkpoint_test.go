package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"ggpdes/internal/core"
	"ggpdes/internal/machine"
	"ggpdes/internal/rng"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/tw"
)

// testSnapshot is a small snapshot with every field populated, so a
// codec that drops or renames one cannot round-trip it.
func testSnapshot() *Snapshot {
	return &Snapshot{
		Config:       json.RawMessage(`{"threads":2,"end_time":30}`),
		CacheKey:     "0123abcd",
		Segments:     3,
		Rounds:       17,
		MachineTicks: 1 << 40,
		MachineStats: machine.Stats{Ticks: 1 << 40, CtxSwitches: 9, Migrations: 4, SemWaits: 2, Wakeups: 5},
		SchedStats:   core.SchedulingStats{Deactivations: 6, Activations: 5, LockContention: 1, Repins: 2},
		TotalCycles:  ^uint64(0), // full 64-bit precision must survive
		GVTFrequency: 12,
		Engine: &tw.EngineState{
			Seq:             991,
			GVT:             14.000000000000002, // shortest-form float round-trip
			PeakUncommitted: 41,
			LPs: []tw.LPRecord{
				{State: []byte{1, 2, 3}, Rng: rng.State{State: 7, Inc: 9}, LVT: 13.5},
				{State: []byte{}, Rng: rng.State{State: 8, Inc: 11}, LVT: 14.25},
			},
			Pending: [][]tw.EventRecord{
				{{Ts: 14.5, Seq: 990, Src: 1, Dst: 0, Kind: 2, A: -3, B: 4}},
				{},
			},
			PeerStats: []tw.PeerStats{{Processed: 100, Committed: 90, RolledBack: 10, Rollbacks: 3}, {Processed: 80}},
		},
		Metrics: telemetry.MetricsState{
			Counters: map[string]uint64{"tw.events.committed": 90},
			Gauges:   map[string]telemetry.GaugeState{"tw.uncommitted.peak": {Value: 41, Set: true}},
			Histograms: map[string]telemetry.HistogramState{
				"tw.rollback.depth": {Counts: []uint64{0, 2, 1}, Count: 3, Sum: 7, Min: 1, Max: 4},
			},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := testSnapshot()
	data, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("snapshot changed across Encode/Decode:\nwant %+v\ngot  %+v", want, got)
	}
	again, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoding the decoded snapshot produced different bytes")
	}
}

// Every damaged input is rejected with ErrCorrupt — never accepted,
// never a panic.
func TestDecodeRejectsDamage(t *testing.T) {
	good, err := Encode(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	reject := func(t *testing.T, what string, data []byte) {
		t.Helper()
		snap, err := Decode(data)
		if err == nil {
			t.Fatalf("%s: decoded to %+v, want an error", what, snap)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: error %v does not wrap ErrCorrupt", what, err)
		}
	}
	replace := func(t *testing.T, old, new string) []byte {
		t.Helper()
		if !bytes.Contains(good, []byte(old)) {
			t.Fatalf("encoded snapshot does not contain %s", old)
		}
		return bytes.Replace(good, []byte(old), []byte(new), 1)
	}

	t.Run("truncated", func(t *testing.T) {
		for n := 0; n < len(good); n++ {
			reject(t, "prefix", good[:n])
		}
	})
	t.Run("bit-flipped", func(t *testing.T) {
		// Every bit of the checksummed payload: a flip either breaks the
		// JSON or fails the CRC, which detects all single-bit errors.
		var env envelope
		if err := json.Unmarshal(good, &env); err != nil {
			t.Fatal(err)
		}
		lo := bytes.Index(good, env.Data)
		if lo < 0 {
			t.Fatal("payload not found verbatim in the envelope")
		}
		for i := lo; i < lo+len(env.Data); i++ {
			for bit := 0; bit < 8; bit++ {
				bad := bytes.Clone(good)
				bad[i] ^= 1 << bit
				reject(t, "flip", bad)
			}
		}
	})
	t.Run("wrong-magic", func(t *testing.T) {
		reject(t, "magic", replace(t, `"magic":"`+Magic+`"`, `"magic":"ggpdes-checkpoinT"`))
	})
	t.Run("wrong-version", func(t *testing.T) {
		reject(t, "version", replace(t, `"version":1,`, `"version":2,`))
	})
	t.Run("wrong-crc", func(t *testing.T) {
		var env envelope
		if err := json.Unmarshal(good, &env); err != nil {
			t.Fatal(err)
		}
		env.CRC++
		bad, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		reject(t, "crc", bad)
	})
	t.Run("engine-less", func(t *testing.T) {
		s := testSnapshot()
		s.Engine = nil
		bad, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		reject(t, "no engine", bad)
	})
	t.Run("not-json", func(t *testing.T) {
		reject(t, "empty", nil)
		reject(t, "garbage", []byte("ckpt"))
	})
}
