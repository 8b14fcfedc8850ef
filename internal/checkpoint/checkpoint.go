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
// varints/zigzags or raw words, and encoding/json writes floats in
// shortest round-trip form and uint64s as full-precision decimals.
// Decode checks every count against the bytes that remain before it
// allocates, and wraps every failure — wrong magic, version or CRC,
// truncation, trailing bytes, a malformed header or engine body — in
// ErrCorrupt so callers can classify it. Version 1 (a JSON payload in a
// JSON envelope, files named *.json) is no longer read; Latest does not
// see its files.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
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
func Encode(s *Snapshot) ([]byte, error) {
	if s.Engine == nil {
		return nil, errors.New("checkpoint: encoding snapshot: no engine state")
	}
	header, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding snapshot: %w", err)
	}
	out := make([]byte, 0, bodyOff+binary.MaxVarintLen64+len(header)+engineSizeHint(s.Engine))
	out = append(out, Magic...)
	out = append(out, Version, 0, 0, 0, 0)
	out = tw.AppendWireUint(out, uint64(len(header)))
	out = append(out, header...)
	out = tw.AppendEngineState(out, s.Engine)
	binary.LittleEndian.PutUint32(out[bodyOff-4:], crc32.ChecksumIEEE(out[bodyOff:]))
	return out, nil
}

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

// FileName returns the canonical file name of checkpoint n; zero
// padding keeps lexicographic and numeric order identical, which is
// what Latest relies on.
func FileName(n int) string { return fmt.Sprintf("ckpt-%08d%s", n, Ext) }

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
