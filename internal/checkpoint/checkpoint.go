// Package checkpoint defines the versioned on-disk snapshot format for
// deterministic run checkpoint/restore. A snapshot is written at a GVT
// round boundary after the engine has been quiesced onto its committed
// cut (see internal/tw's checkpoint support); restoring it and running
// the remaining segments reproduces the uninterrupted run's Results
// byte for byte.
//
// File layout, format version 2:
//
//	magic    "ggpdes-checkpoint"
//	version  one byte
//	crc32    IEEE, little-endian, over every byte after it
//	header   uvarint length, then that many bytes of JSON: every
//	         Snapshot field except Engine (about 2.5 KB)
//	engine   tw.AppendEngineState, to the end of the file
//
// The header stays JSON because the root package owns the Config codec
// and telemetry names are open-ended; the engine state — LP states and
// pending events, nearly all of the bytes — uses the binary event codec
// the wire plane already has (internal/tw/wire_binary.go), so there is
// one event codec in the tree. Both halves are exact: the binary half
// stores virtual times as raw IEEE-754 bits and integers as
// varints/zigzags or raw words, and the header has floats in shortest
// round-trip form and uint64s as full-precision decimals.
//
// The header is written by hand, straight into the file's buffer
// (header, below), and not marshalled: encoding/json spent about fifty
// heap objects a file on the metric maps alone, and a run writes a file
// at every boundary. It writes the bytes json.Marshal(s) writes — the
// same field order, map keys sorted, empty metric maps omitted, floats
// in encoding/json's format, strings escaped as it escapes them, and a
// non-finite float refused with its error — and encoding/json stays
// the decoder. Those bytes are pinned three ways: testdata/v2.ckpt
// must decode and re-encode byte for byte, TestHeaderIsJSONMarshal and
// FuzzSnapshotHeader hold every header to json.Marshal of the same
// snapshot (names with <, > and &, U+2028, control bytes and invalid
// UTF-8, floats across encoding/json's format switches, nil and empty
// maps, every field filled by reflection so that a field added later
// and not written fails), and the root package's
// TestCheckpointBytesDeterministic holds whole files across runs.
// Decode checks every count against the bytes that remain before it
// allocates, and wraps every failure — wrong magic, version or CRC,
// truncation, trailing bytes, a malformed header or engine body — in
// ErrCorrupt so callers can classify it. Version 1 (a JSON payload in a
// JSON envelope, files named *.json) is no longer read; Latest does not
// see its files.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ggpdes/internal/core"
	"ggpdes/internal/machine"
	"ggpdes/internal/telemetry"
	"ggpdes/internal/tw"
)

const (
	// Magic identifies a ggpdes checkpoint file.
	Magic = "ggpdes-checkpoint"
	// Version is the snapshot format revision; readers reject others.
	Version = 2
	// Ext is the snapshot file extension, and Glob matches every
	// snapshot file of a directory.
	Ext  = ".ckpt"
	Glob = "ckpt-*" + Ext

	// bodyOff is where the checksummed body starts.
	bodyOff = len(Magic) + 1 + 4
)

// ErrCorrupt reports an unreadable, truncated, checksum-mismatched or
// version-incompatible snapshot. The public API re-exports it as
// ggpdes.ErrCheckpointCorrupt.
var ErrCorrupt = errors.New("checkpoint: corrupt or incompatible snapshot")

// Snapshot is everything a fresh process needs to continue a run from
// a GVT round boundary.
type Snapshot struct {
	// Config is the run configuration in its canonical JSON wire form.
	// It is kept raw here — the root package owns the Config codec —
	// which also avoids an import cycle.
	Config json.RawMessage `json:"config"`
	// CacheKey fingerprints Config; restore verifies the decoded config
	// hashes back to it, so a lossy codec cannot silently fork the
	// trajectory.
	CacheKey string `json:"cache_key"`
	// Segments counts checkpoints taken so far (this file is number
	// Segments); Rounds is cumulative GVT publications.
	Segments int    `json:"segments"`
	Rounds   uint64 `json:"rounds"`
	// MachineTicks is the cumulative machine tick count — the next
	// segment's StartTick, keeping wall-clock metrics cumulative.
	MachineTicks uint64 `json:"machine_ticks"`
	// MachineStats and SchedStats accumulate per-segment scheduler
	// counters; TotalCycles accumulates consumed CPU cycles.
	MachineStats machine.Stats        `json:"machine_stats"`
	SchedStats   core.SchedulingStats `json:"sched_stats"`
	TotalCycles  uint64               `json:"total_cycles"`
	// GVTFrequency is the run's resolved GVT round frequency. Resume
	// takes the frequency from Config and does not read it; it is still
	// written so snapshot bytes stay what format v2 has always written.
	GVTFrequency int `json:"gvt_frequency"`
	// Engine is the quiesced Time Warp state. It is not part of the
	// JSON header: it follows it in tw's binary form.
	Engine *tw.EngineState `json:"-"`
	// Metrics is the raw telemetry registry export.
	Metrics telemetry.MetricsState `json:"metrics"`
}

// Encode serializes a snapshot into its on-disk byte form.
func Encode(s *Snapshot) ([]byte, error) { return AppendEncode(nil, s) }

// AppendEncode appends Encode's output to dst and returns the extended
// buffer, growing it at most once for a typical snapshot: a writer that
// encodes snapshot after snapshot into dst[:0] allocates only when one
// outgrows the last. On error it returns dst as it was.
func AppendEncode(dst []byte, s *Snapshot) ([]byte, error) {
	if s.Engine == nil {
		return dst, errors.New("checkpoint: encoding snapshot: no engine state")
	}
	out := slices.Grow(dst, bodyOff+binary.MaxVarintLen64+headerSizeHint+engineSizeHint(s.Engine))
	base := len(out)
	out = append(out, Magic...)
	out = append(out, Version, 0, 0, 0, 0)
	// The header is written behind room for the longest length, the one
	// thing not known before it, then moved up to its length's end.
	at := len(out)
	h := header{b: out[:at+binary.MaxVarintLen64]}
	h.snapshot(s)
	if h.err != nil {
		return dst, fmt.Errorf("checkpoint: encoding snapshot: %w", h.err)
	}
	out = h.b
	n := len(tw.AppendWireUint(out[at:at], uint64(len(out)-at-binary.MaxVarintLen64)))
	out = append(out[:at+n], out[at+binary.MaxVarintLen64:]...)
	out = tw.AppendEngineState(out, s.Engine)
	body := base + bodyOff
	binary.LittleEndian.PutUint32(out[body-4:], crc32.ChecksumIEEE(out[body:]))
	return out, nil
}

// header writes a snapshot's JSON header, every field but Engine, as
// the bytes json.Marshal(s) writes: fields in declaration order, map
// keys sorted, empty metric maps omitted, floats in encoding/json's
// shortest form, and a non-finite float refused with the error it
// returns. The config and the strings are copied as they are when
// there is nothing in them encoding/json would compact or escape;
// anything else goes through its encoder. TestHeaderIsJSONMarshal and
// FuzzSnapshotHeader hold the bytes to json.Marshal.
type header struct {
	b   []byte
	err error
}

func (h *header) snapshot(s *Snapshot) {
	h.b = append(h.b, `{"config":`...)
	if raw := s.Config; raw != nil && !bytes.ContainsFunc(raw, func(r rune) bool {
		return r <= ' ' || r >= 0x7f || strings.ContainsRune("<>&", r)
	}) && json.Valid(raw) {
		h.b = append(h.b, raw...)
	} else {
		h.escaped(raw)
	}
	h.str(`,"cache_key":`, s.CacheKey)
	h.b = strconv.AppendInt(append(h.b, `,"segments":`...), int64(s.Segments), 10)
	ms, ss := &s.MachineStats, &s.SchedStats
	for _, f := range [...]struct {
		key string
		v   uint64
	}{
		{`,"rounds":`, s.Rounds}, {`,"machine_ticks":`, s.MachineTicks},
		{`,"machine_stats":{"Ticks":`, ms.Ticks}, {`,"CtxSwitches":`, ms.CtxSwitches},
		{`,"Migrations":`, ms.Migrations}, {`,"CrossNodeMigrations":`, ms.CrossNodeMigrations},
		{`,"SemWaits":`, ms.SemWaits}, {`,"SemPosts":`, ms.SemPosts}, {`,"BarrierWaits":`, ms.BarrierWaits},
		{`,"Wakeups":`, ms.Wakeups}, {`,"Preempts":`, ms.Preempts},
		{`},"sched_stats":{"Deactivations":`, ss.Deactivations}, {`,"Activations":`, ss.Activations},
		{`,"LockContention":`, ss.LockContention}, {`,"Repins":`, ss.Repins},
		{`},"total_cycles":`, s.TotalCycles},
	} {
		h.b = strconv.AppendUint(append(h.b, f.key...), f.v, 10)
	}
	h.b = strconv.AppendInt(append(h.b, `,"gvt_frequency":`...), int64(s.GVTFrequency), 10)
	h.b = append(h.b, `,"metrics":{`...)
	writeMap(h, `"counters":{`, s.Metrics.Counters, func(v uint64) { h.b = strconv.AppendUint(h.b, v, 10) })
	writeMap(h, `"gauges":{`, s.Metrics.Gauges, func(g telemetry.GaugeState) {
		h.float(`{"value":`, g.Value)
		h.b = append(strconv.AppendBool(append(h.b, `,"set":`...), g.Set), '}')
	})
	writeMap(h, `"histograms":{`, s.Metrics.Histograms, func(hs telemetry.HistogramState) {
		if hs.Counts == nil {
			h.b = append(h.b, `{"counts":null`...)
		} else {
			h.b = append(h.b, `{"counts":[`...)
			for _, c := range hs.Counts {
				h.b = append(strconv.AppendUint(h.b, c, 10), ',')
			}
			h.b = append(bytes.TrimSuffix(h.b, []byte(",")), ']')
		}
		h.b = strconv.AppendUint(append(h.b, `,"count":`...), hs.Count, 10)
		h.float(`,"sum":`, hs.Sum)
		h.float(`,"min":`, hs.Min)
		h.float(`,"max":`, hs.Max)
		h.b = append(h.b, '}')
	})
	h.b = append(h.b, "}}"...)
}

// writeMap writes the metric map m, opened by key, unless it is empty:
// its entries in key order, the byte order encoding/json sorts them in,
// each value by value.
func writeMap[V any](h *header, key string, m map[string]V, value func(V)) {
	if len(m) == 0 {
		return
	}
	if h.b[len(h.b)-1] == '}' { // a map before this one
		h.b = append(h.b, ',')
	}
	var room [64]string
	keys := slices.AppendSeq(room[:0], maps.Keys(m))
	slices.Sort(keys)
	h.b = append(h.b, key...)
	for i, k := range keys {
		if i > 0 {
			h.b = append(h.b, ',')
		}
		h.str("", k)
		h.b = append(h.b, ':')
		value(m[k])
	}
	h.b = append(h.b, '}')
}

// str writes key, then s as a JSON string.
func (h *header) str(key, s string) {
	h.b = append(h.b, key...)
	if strings.ContainsFunc(s, func(r rune) bool { return r < ' ' || r >= 0x7f || strings.ContainsRune(`"\<>&`, r) }) {
		h.escaped(s)
		return
	}
	h.b = append(append(append(h.b, '"'), s...), '"')
}

// escaped writes v as encoding/json encodes it, or fails as it fails.
func (h *header) escaped(v any) {
	j, err := json.Marshal(v)
	if err != nil && h.err == nil {
		h.err = err
	}
	h.b = append(h.b, j...)
}

// float writes key, then f as encoding/json formats a float64.
func (h *header) float(key string, f float64) {
	h.b = append(h.b, key...)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		h.escaped(f) // refused, as encoding/json refuses it
		return
	}
	if abs := math.Abs(f); abs == 0 || 1e-6 <= abs && abs < 1e21 {
		h.b = strconv.AppendFloat(h.b, f, 'f', -1, 64)
		return
	}
	h.b = strconv.AppendFloat(h.b, f, 'e', -1, 64)
	if n := len(h.b); string(h.b[n-4:n-1]) == "e-0" {
		h.b = append(h.b[:n-2], h.b[n-1]) // as encoding/json does: e-09 becomes e-9
	}
}

// headerSizeHint is room for a typical header: the benchmark's are
// about 2.5 KB.
const headerSizeHint = 4 << 10

// engineSizeHint estimates the encoded size of st from above for
// typical states, so Encode appends into one allocation.
func engineSizeHint(st *tw.EngineState) int {
	n := 64 + 100*len(st.PeerStats)
	for i := range st.LPs {
		n += 32 + len(st.LPs[i].State)
	}
	for _, evs := range st.Pending {
		n += 4 + 40*len(evs)
	}
	return n
}

// Decode parses and verifies Encode's output. The returned snapshot's
// LP state bytes alias data.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < bodyOff {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the file header", ErrCorrupt, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrCorrupt, data[:len(Magic)], Magic)
	}
	if v := data[len(Magic)]; v != Version {
		return nil, fmt.Errorf("%w: format version %d, reader supports %d", ErrCorrupt, v, Version)
	}
	body := data[bodyOff:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(data[bodyOff-4:]); got != want {
		return nil, fmt.Errorf("%w: crc32 %08x, want %08x", ErrCorrupt, got, want)
	}
	n, rest, ok := tw.ConsumeWireUint(body)
	if !ok || n > uint64(len(rest)) {
		return nil, fmt.Errorf("%w: header length overruns the file", ErrCorrupt)
	}
	var s Snapshot
	if err := json.Unmarshal(rest[:n], &s); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	engine, rest, ok := tw.ConsumeEngineState(rest[n:])
	if !ok {
		return nil, fmt.Errorf("%w: malformed engine state", ErrCorrupt)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the engine state", ErrCorrupt, len(rest))
	}
	s.Engine = engine
	return &s, nil
}

// FileName returns the canonical file name of checkpoint n >= 0; zero
// padding keeps lexicographic and numeric order identical, which is
// what Latest relies on.
func FileName(n int) string {
	d := strconv.AppendInt(make([]byte, 0, 20), int64(n), 10)
	return "ckpt-" + "00000000"[min(len(d), 8):] + string(d) + Ext
}

// Write encodes a snapshot and atomically persists it as file number
// s.Segments under dir, creating the directory as needed.
func Write(dir string, s *Snapshot) (string, error) {
	data, err := Encode(s)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	return WriteNamed(dir, FileName(s.Segments), data)
}

// WriteNamed atomically persists encoded snapshot bytes as name under
// dir, which must exist. The bytes are staged in a temporary file of
// their own and renamed into place, so a reader sees either no file or
// a complete one, and any number of writers of the same name — a
// failover replica overlapping a slow but live owner writes the same
// keyed directory — each land a complete file; they write identical
// bytes, so which rename comes last does not matter. No temporary file
// outlives the call.
func WriteNamed(dir, name string, data []byte) (path string, err error) {
	tmp, err := os.CreateTemp(dir, name+".*.tmp")
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		tmp.Close()
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	// CreateTemp makes the file 0600; snapshots are shared between the
	// replicas of a fleet, which need not run as one user.
	if err = os.Chmod(tmp.Name(), 0o644); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	path = filepath.Join(dir, name)
	if err = os.Rename(tmp.Name(), path); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	return path, nil
}

// Read loads and verifies the snapshot at path.
func Read(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return Decode(data)
}

// Latest returns the path of the highest-numbered checkpoint file in
// dir. It returns os.ErrNotExist (wrapped) when the directory holds no
// checkpoints or does not exist.
func Latest(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && len(name) == len(FileName(0)) &&
			strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, Ext) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return "", fmt.Errorf("checkpoint: no checkpoints in %s: %w", dir, os.ErrNotExist)
	}
	sort.Strings(names)
	return filepath.Join(dir, names[len(names)-1]), nil
}
