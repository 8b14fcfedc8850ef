package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strconv"
	"testing"

	"ggpdes/internal/telemetry"
	"ggpdes/internal/tw"
)

// headerOf returns the JSON header AppendEncode wrote into a file.
func headerOf(t testing.TB, data []byte) []byte {
	t.Helper()
	n, rest, ok := tw.ConsumeWireUint(data[bodyOff:])
	if !ok || n > uint64(len(rest)) {
		t.Fatalf("no header length in %d bytes", len(data))
	}
	return rest[:n]
}

// checkHeader holds AppendEncode's header to json.Marshal(s), the
// oracle: the same bytes, or the same error wrapped.
func checkHeader(t testing.TB, s *Snapshot) {
	t.Helper()
	if s.Engine == nil {
		s.Engine = &tw.EngineState{}
	}
	want, jerr := json.Marshal(s)
	data, err := AppendEncode([]byte("prefix"), s)
	if jerr != nil {
		if err == nil || err.Error() != "checkpoint: encoding snapshot: "+jerr.Error() {
			t.Fatalf("json.Marshal fails with %q, AppendEncode with %v", jerr, err)
		}
		if string(data) != "prefix" {
			t.Fatalf("a failed AppendEncode returned %q, not dst", data)
		}
		return
	}
	if err != nil {
		t.Fatalf("json.Marshal succeeds, AppendEncode fails: %v", err)
	}
	if got := headerOf(t, data[len("prefix"):]); !bytes.Equal(got, want) {
		t.Fatalf("header differs from json.Marshal:\ngot  %s\nwant %s", got, want)
	}
	if _, err := Decode(data[len("prefix"):]); err != nil {
		t.Fatalf("the file does not decode: %v", err)
	}
}

// filled is a snapshot whose every header field, and every field of
// the structs inside it, holds a distinct nonzero value set by
// reflection, so a field added later that the writer does not write
// fails TestHeaderIsJSONMarshal.
func filled(t *testing.T) *Snapshot {
	s := &Snapshot{}
	next := uint64(1)
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		next++
		switch v.Kind() {
		case reflect.Uint64, reflect.Uint32, reflect.Uint:
			v.SetUint(next << 20)
		case reflect.Int, reflect.Int64:
			v.SetInt(-int64(next))
		case reflect.Float64:
			v.SetFloat(float64(next) / 3)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.String:
			v.SetString(path)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.Name != "Engine" {
					fill(v.Field(i), path+"."+f.Name)
				}
			}
		case reflect.Slice:
			switch v.Type() {
			case reflect.TypeOf(json.RawMessage(nil)):
				v.SetBytes([]byte(`{"path":"` + path + `","n":[1,2.5e-7,true,null]}`))
			default:
				v.Set(reflect.MakeSlice(v.Type(), 3, 3))
				for i := 0; i < 3; i++ {
					fill(v.Index(i), path)
				}
			}
		case reflect.Map:
			v.Set(reflect.MakeMap(v.Type()))
			for _, k := range []string{"b.second", "a.first", "c.third"} {
				e := reflect.New(v.Type().Elem()).Elem()
				fill(e, path+"."+k)
				v.SetMapIndex(reflect.ValueOf(k), e)
			}
		default:
			t.Fatalf("%s: the filler knows no %s; teach it, and the header writer the field", path, v.Kind())
		}
	}
	fill(reflect.ValueOf(s).Elem(), "snapshot")
	s.Engine = &tw.EngineState{}
	return s
}

// metrics is a MetricsState with entries in all three maps, under name
// and under names that sort before and after it.
func metrics(name string, f float64, counts []uint64) telemetry.MetricsState {
	return telemetry.MetricsState{
		Counters:   map[string]uint64{name: 7, "z" + name: 1 << 63},
		Gauges:     map[string]telemetry.GaugeState{name: {Value: f, Set: true}, "a": {Value: -f}},
		Histograms: map[string]telemetry.HistogramState{name: {Counts: counts, Count: 3, Sum: f, Min: -f, Max: 2 * f}},
	}
}

func TestHeaderIsJSONMarshal(t *testing.T) {
	type tc struct {
		name string
		snap *Snapshot
	}
	cases := []tc{
		{"test snapshot", testSnapshot()},
		{"every field", filled(t)},
		{"no config, no metrics", &Snapshot{}},
		{"empty maps", &Snapshot{Metrics: telemetry.MetricsState{Counters: map[string]uint64{}, Gauges: map[string]telemetry.GaugeState{}, Histograms: map[string]telemetry.HistogramState{}}}},
		{"gauges alone", &Snapshot{Metrics: telemetry.MetricsState{Gauges: map[string]telemetry.GaugeState{"g": {Value: 1}}}}},
		{"histograms alone", &Snapshot{Metrics: telemetry.MetricsState{Histograms: map[string]telemetry.HistogramState{"h": {}}}}},
		{"config with spaces, newlines and <>&", &Snapshot{Config: json.RawMessage(" {\n\t\"a\" : \"x <b> & c \" ,\"b\":[ 1 , 2 ]}\n")}},
		{"config that is not JSON", &Snapshot{Config: json.RawMessage(`{"a":`)}},
		{"config that is empty", &Snapshot{Config: json.RawMessage{}}},
		{"config with trailing bytes", &Snapshot{Config: json.RawMessage(`{}x`)}},
	}
	for _, name := range []string{"<script>&amp;", "line sep ", "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "bad\xff\xfeutf8", `quote"back\slash`, "ünïcödé", ""} {
		s := &Snapshot{CacheKey: name, Metrics: metrics(name, 1.5, []uint64{1, 2})}
		cases = append(cases, tc{"name " + name, s})
	}
	for _, f := range []float64{
		1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-9, 1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1e100, 1e-300,
		math.Copysign(0, -1), 0, 5e-324, math.MaxFloat64, -math.MaxFloat64, 0.1, 123456789.125, 1 << 53,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		cases = append(cases, tc{"float " + strconv.FormatFloat(f, 'g', -1, 64), &Snapshot{Metrics: metrics("f", f, nil)}})
	}
	for _, n := range []int{0, 1, 2, 65, 100} {
		counts := make([]uint64, n)
		for i := range counts {
			counts[i] = uint64(i) * 1e15
		}
		cases = append(cases, tc{"counts " + strconv.Itoa(n), &Snapshot{Metrics: metrics("h", 2, counts)}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkHeader(t, c.snap) })
	}
}

// The non-finite floats fail as json.Marshal fails them.
func TestHeaderRefusesNonFinite(t *testing.T) {
	ms := telemetry.MetricsState{Gauges: map[string]telemetry.GaugeState{"g": {Value: math.Inf(-1)}}}
	_, err := AppendEncode(nil, &Snapshot{Engine: &tw.EngineState{}, Metrics: ms})
	var uv *json.UnsupportedValueError
	if !errors.As(err, &uv) || err.Error() != "checkpoint: encoding snapshot: json: unsupported value: -Inf" {
		t.Fatalf("got %v, want json's unsupported value -Inf", err)
	}
}

// A snapshot encoded into a buffer that held one already allocates
// nothing: the header is written into the file's buffer, its maps in
// sorted order without a key slice on the heap.
func TestAppendEncodeAllocs(t *testing.T) {
	s := testSnapshot()
	for i := range 40 {
		s.Metrics.Counters["tw.counter."+strconv.Itoa(i)] = uint64(i)
	}
	buf, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { buf, err = AppendEncode(buf[:0], s) }); n != 0 || err != nil {
		t.Fatalf("AppendEncode into a reused buffer: %v allocations a file, error %v; want 0", n, err)
	}
}

func FuzzSnapshotHeader(f *testing.F) {
	f.Add("tw.rollbacks", "0123abcd", 1.5, 1e21, uint8(65), []byte(`{"threads":2}`))
	f.Add("<&> ", "\x00\xff", math.Copysign(0, -1), 1e-7, uint8(0), []byte(" [ 1 ,\n2 ] "))
	f.Add("", "", math.NaN(), 5e-324, uint8(3), []byte(nil))
	f.Add("a", "b", 1e-6, math.Inf(1), uint8(1), []byte(`{"a":`))
	f.Fuzz(func(t *testing.T, name, key string, f1, f2 float64, n uint8, cfg []byte) {
		counts := make([]uint64, n)
		for i := range counts {
			counts[i] = uint64(i) * math.Float64bits(f2)
		}
		ms := metrics(name, f1, counts)
		ms.Gauges[key] = telemetry.GaugeState{Value: f2, Set: n%2 == 0}
		if n%3 == 0 {
			ms.Histograms = nil
		}
		checkHeader(t, &Snapshot{Config: cfg, CacheKey: key, Segments: int(n) - 100, Rounds: uint64(n), GVTFrequency: -int(n), Metrics: ms})
	})
}

func TestFileName(t *testing.T) {
	for n, want := range map[int]string{0: "ckpt-00000000.ckpt", 7: "ckpt-00000007.ckpt", 12345678: "ckpt-12345678.ckpt",
		123456789: "ckpt-123456789.ckpt", math.MaxInt64: "ckpt-9223372036854775807.ckpt"} {
		if got := FileName(n); got != want {
			t.Errorf("FileName(%d) = %q, want %q", n, got, want)
		}
	}
}
