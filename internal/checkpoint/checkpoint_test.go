package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ggpdes/internal/core"
	"ggpdes/internal/machine"
	"ggpdes/internal/rng"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/tw"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/v2.ckpt from testSnapshot (after a deliberate Version bump)")

// testSnapshot is a small snapshot with every field populated, so a
// codec that drops or renames one cannot round-trip it. Its slices mix
// nil, empty and filled: the format keeps the three apart.
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
			GVT:             14.000000000000002, // one ulp above 14: exact or wrong
			PeakUncommitted: 41,
			LPs: []tw.LPRecord{
				{State: []byte{1, 2, 3}, Rng: rng.State{State: ^uint64(0), Inc: 9}, LVT: 13.5},
				{State: []byte{}, Rng: rng.State{State: 8, Inc: 11}, LVT: 14.25},
				{State: nil, Rng: rng.State{State: 9, Inc: 13}},
			},
			Pending: [][]tw.EventRecord{
				{{Ts: 14.5, Seq: 990, Src: 1, Dst: 0, Kind: 2, A: -3, B: 4}},
				{},
				nil,
			},
			PeerStats: []tw.PeerStats{{Processed: 100, Committed: 90, RolledBack: 10, Rollbacks: 3}, {Processed: 80}, {}},
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

// seal wraps body in a valid file header — magic, version, the CRC of
// body — so damage tests and the fuzzer reach the decoder behind the
// checksum.
func seal(body []byte) []byte {
	out := append([]byte(Magic), Version, 0, 0, 0, 0)
	out = append(out, body...)
	binary.LittleEndian.PutUint32(out[bodyOff-4:], crc32.ChecksumIEEE(body))
	return out
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

// The checked-in file pins format version 2: it must decode to
// testSnapshot and re-encode to itself, so a layout change that forgets
// to bump Version fails here rather than in a fleet with old files.
func TestGoldenSnapshot(t *testing.T) {
	path := filepath.Join("testdata", "v2.ckpt")
	if *updateGolden {
		data, err := Encode(testSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(golden)
	if err != nil {
		t.Fatalf("checked-in v%d snapshot no longer decodes: %v", Version, err)
	}
	if want := testSnapshot(); !reflect.DeepEqual(want, snap) {
		t.Fatalf("checked-in snapshot decodes differently:\nwant %+v\ngot  %+v", want, snap)
	}
	again, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, again) {
		t.Fatalf("the encoder no longer writes the checked-in bytes: the format changed, bump Version (and run with -update-golden)")
	}
}

// damaged returns the corruption table: every entry must be refused.
// TestDecodeRejectsDamage walks it and FuzzCheckpointDecode starts
// from it.
func damaged(good []byte) map[string][][]byte {
	out := map[string][][]byte{}
	for n := 0; n < len(good); n++ {
		out["truncated"] = append(out["truncated"], good[:n])
	}
	// Every bit of the file. A flip in the magic, version or CRC field
	// fails that field's check; one in the body fails the CRC, which
	// detects all single-bit errors.
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			bad := bytes.Clone(good)
			bad[i] ^= 1 << bit
			out["bit-flipped"] = append(out["bit-flipped"], bad)
		}
	}
	magic := bytes.Clone(good)
	magic[len(Magic)-1] = 'T'
	out["wrong-magic"] = [][]byte{magic}
	for _, v := range []byte{0, 1, Version + 1, '{'} {
		bad := bytes.Clone(good)
		bad[len(Magic)] = v
		out["wrong-version"] = append(out["wrong-version"], bad)
	}
	crc := bytes.Clone(good)
	binary.LittleEndian.PutUint32(crc[bodyOff-4:], binary.LittleEndian.Uint32(crc[bodyOff-4:])+1)
	out["wrong-crc"] = [][]byte{crc}

	// Behind a valid checksum: a header with no engine state after it, a
	// header that is not JSON, bytes after the engine state, and counts
	// no input of this size could hold.
	hlen, n := binary.Uvarint(good[bodyOff:])
	header := good[bodyOff : bodyOff+n+int(hlen)]
	out["engine-less"] = [][]byte{seal(header)}
	out["not-json"] = [][]byte{
		nil,
		[]byte("ckpt"),
		[]byte(`{"magic":"ggpdes-checkpoint","version":1,"crc32":0,"data":{}}`), // a v1 file
		seal(append(tw.AppendWireUint(nil, 4), "ckpt"...)),
		seal(tw.AppendWireUint(nil, 1<<40)),
	}
	out["trailing"] = [][]byte{seal(append(bytes.Clone(good[bodyOff:]), 0))}
	// The engine body up to its first count, then count fields of n+1
	// each: 2^63-1 LPs; no LPs and 2^62-1 peers; neither and 2^61-1
	// peer statistics.
	counts := func(fields ...uint64) []byte {
		b := tw.AppendWireUint(bytes.Clone(header), 1) // Seq
		b = tw.AppendWireF64(b, 0)                     // GVT
		b = tw.AppendWireInt(b, 0)                     // PeakUncommitted
		for _, v := range fields {
			b = tw.AppendWireUint(b, v)
		}
		return seal(b)
	}
	out["hostile-count"] = [][]byte{counts(1 << 63), counts(1, 1<<62), counts(1, 1, 1<<61)}
	return out
}

// Every damaged input is rejected with ErrCorrupt — never accepted,
// never a panic.
func TestDecodeRejectsDamage(t *testing.T) {
	good, err := Encode(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	for what, inputs := range damaged(good) {
		t.Run(what, func(t *testing.T) {
			for i, data := range inputs {
				snap, err := Decode(data)
				if err == nil {
					t.Fatalf("%s %d: decoded to %+v, want an error", what, i, snap)
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s %d: error %v does not wrap ErrCorrupt", what, i, err)
				}
			}
		})
	}
	if _, err := Encode(&Snapshot{}); err == nil {
		t.Fatal("encoded a snapshot with no engine state")
	}
}

// FuzzCheckpointDecode feeds Decode arbitrary bytes, raw and re-sealed
// behind a valid checksum. Whatever it is given it must return a
// snapshot that survives a re-encode or an error wrapping ErrCorrupt,
// without panicking and without allocating more than a constant factor
// of the input: counts are checked against the remaining bytes before
// any make.
func FuzzCheckpointDecode(f *testing.F) {
	good, err := Encode(testSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for what, inputs := range damaged(good) {
		if what == "truncated" || what == "bit-flipped" {
			// Thousands of near-identical files; a spread is enough
			// to seed from.
			for i := 0; i < len(inputs); i += 97 {
				f.Add(inputs[i])
			}
			continue
		}
		for _, data := range inputs {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, seal(data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			snap, err := Decode(in)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(in)+1<<16); got > limit {
				t.Fatalf("decoding %d bytes allocated %d, limit %d", len(in), got, limit)
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error %v does not wrap ErrCorrupt", err)
				}
				continue
			}
			again, err := Encode(snap)
			if err != nil {
				t.Fatalf("decoded snapshot does not re-encode: %v", err)
			}
			back, err := Decode(again)
			if err != nil {
				t.Fatalf("re-encoded snapshot does not decode: %v", err)
			}
			if !reflect.DeepEqual(snap, back) {
				t.Fatalf("snapshot changed across a re-encode:\nfirst  %+v\nsecond %+v", snap, back)
			}
		}
	})
}

// Any number of writers may land the same file while a reader polls it
// — a failover replica overlapping a slow but live owner does exactly
// that to a keyed directory. The reader sees no file or a whole one,
// never a torn one, and no staging file is left behind.
func TestConcurrentWritersSameName(t *testing.T) {
	dir := t.TempDir()
	snap := testSnapshot()
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName(snap.Segments))
	const writers, rounds = 8, 40
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := Read(path); err != nil && !errors.Is(err, os.ErrNotExist) {
				t.Errorf("reader saw %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := WriteNamed(dir, FileName(snap.Segments), data); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != FileName(snap.Segments) {
		t.Fatalf("directory holds %v, want only %s", entries, FileName(snap.Segments))
	}
	if latest, err := Latest(dir); err != nil || latest != path {
		t.Fatalf("Latest = %q, %v; want %q", latest, err, path)
	}
}

// A failed write leaves nothing behind, and Latest sees neither staging
// files, nor longer names (the per-shard files distributed runs once
// wrote), nor files of format version 1.
func TestWriteFailureAndLatest(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteNamed(filepath.Join(dir, "missing"), FileName(1), []byte("x")); err == nil {
		t.Fatal("wrote into a directory that does not exist")
	}
	// The final name is taken by a directory: the rename fails after the
	// bytes were staged.
	if err := os.Mkdir(filepath.Join(dir, FileName(2)), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteNamed(dir, FileName(2), []byte("x")); err == nil {
		t.Fatal("renamed a file over a directory")
	}
	for _, name := range []string{"ckpt-00000009.json", "ckpt-00000009.shard00" + Ext, FileName(9) + ".123.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if path, err := Latest(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Latest = %q, %v; want os.ErrNotExist", path, err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 1 {
		t.Fatalf("staging files after failed writes: %v", left)
	}
	snap := testSnapshot()
	want, err := Write(filepath.Join(dir, "fresh"), snap)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Latest(filepath.Join(dir, "fresh")); err != nil || got != want {
		t.Fatalf("Latest = %q, %v; want %q", got, err, want)
	}
}

// benchSnapshot has the shape of the epidemics benchmark's snapshots:
// 1,024 LPs of 44 state bytes and about a thousand pending events.
func benchSnapshot() *Snapshot {
	s := testSnapshot()
	st := &tw.EngineState{Seq: 1 << 20, GVT: 15, Pending: make([][]tw.EventRecord, 16), PeerStats: make([]tw.PeerStats, 16)}
	r := rng.New(1, 1)
	for i := 0; i < 1024; i++ {
		st.LPs = append(st.LPs, tw.LPRecord{State: make([]byte, 44), Rng: rng.State{State: r.Uint64(), Inc: r.Uint64() | 1}, LVT: 15 * r.Float64()})
		st.Pending[i%16] = append(st.Pending[i%16], tw.EventRecord{
			Ts: 15 + 10*r.Float64(), Seq: uint64(1<<19 + i), Src: r.Intn(1024), Dst: i, Kind: uint8(i % 3), A: int64(r.Intn(100)),
		})
	}
	s.Engine = st
	return s
}

var benchSink int

func BenchmarkSnapshotEncode(b *testing.B) {
	snap := benchSnapshot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := Encode(snap)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(data)
	}
	b.SetBytes(int64(benchSink / b.N))
}

func BenchmarkSnapshotDecode(b *testing.B) {
	data, err := Encode(benchSnapshot())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += snap.Segments
	}
}
