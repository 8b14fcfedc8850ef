package ggpdes

import (
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// scripts/layers.awk buckets a `pprof -top` listing by layer: canned rows
// go in, one function per layer and several units, and every function
// comes out in its layer's row, once, so the rows add up to the total
// and to the profile's own.
func TestLayersAwkBucketsEverySample(t *testing.T) {
	awk, err := exec.LookPath("awk")
	if err != nil {
		t.Skip("no awk on this machine")
	}
	rows := []struct {
		fn, flat, layer string
	}{
		{"ggpdes/internal/tw.(*Engine).send", "1.29s", "tw: send, anti-messages, event allocation"},
		{"ggpdes/internal/tw.(*Peer).allocEvent (inline)", "870ms", "tw: send, anti-messages, event allocation"},
		{"ggpdes/internal/tw.(*LP).straggles", "1.26s", "tw: drain, stragglers, rollback"},
		{"ggpdes/internal/tw.(*Peer).FossilCollect", "750ms", "tw: fossil collection"},
		{"ggpdes/internal/tw.(*Peer).acquireSnapshot", "300ms", "tw: snapshots and model state copies"},
		{"ggpdes/internal/models.(*PHOLDState).CopyFrom", "0.78s", "tw: snapshots and model state copies"},
		{"ggpdes/internal/tw.(*Peer).DrainProcess", "500ms", "tw: everything else"},
		{"ggpdes/internal/pq.entry[go.shape.*uint8].before (inline)", "1.23s", "pq (the binary heap)"},
		{"iter.Pull[go.shape.struct {}].func2", "20ms", "machine and coroutine switches"},
		{"runtime.coroswitch_m", "90ms", "machine and coroutine switches"},
		{"ggpdes/internal/machine.(*Machine).tickOnce", "400ms", "machine and coroutine switches"},
		{"ggpdes/internal/gvt.(*waitFree).Step", "60ms", "gvt"},
		{"ggpdes/internal/core.(*Runner).threadBody", "50ms", "core (schedulers, affinity)"},
		{"ggpdes/internal/rng.(*Rand).Uint64 (inline)", "40ms", "models and rng"},
		{"ggpdes/internal/telemetry.(*Counter).Inc", "10ms", "telemetry"},
		{"encoding/json.(*decodeState).object", "30ms", "checkpoint and encoding/json"},
		{"ggpdes/internal/checkpoint.(*header).float", "10ms", "checkpoint and encoding/json"},
		{"ggpdes.(*runState).buildSegment", "20ms", "run glue (ggpdes.*)"},
		{"runtime.scanobject", "120ms", "runtime: GC"},
		{"runtime.(*mspan).sweep", "10ms", "runtime: GC"},
		{"runtime.mallocgc", "150ms", "runtime: everything else"},
		{"slices.Grow[go.shape.[]*ggpdes/internal/tw.Event,go.shape.*uint8]", "0", "other"},
		{"syscall.Syscall6", "1.5mins", "other"},
	}
	want := map[string]float64{}
	var in strings.Builder
	var total float64
	for _, r := range rows {
		s := pprofSeconds(t, r.flat)
		want[r.layer] += s
		total += s
		fmt.Fprintf(&in, "%10s  1.00%%  1.00%% %10s  1.00%%  %s\n", r.flat, r.flat, r.fn)
	}
	header := fmt.Sprintf("File: ggsim\nType: cpu\nDuration: 99s, Total samples = %.2fs (99%%)\n"+
		"Showing nodes accounting for 1s, 100%% of 1s total\n      flat  flat%%   sum%%        cum   cum%%\n", total)
	cmd := exec.Command(awk, "-f", "scripts/layers.awk")
	cmd.Stdin = strings.NewReader(header + in.String())
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	got := map[string]float64{}
	var sum float64
	for _, m := range regexp.MustCompile(`(?m)^\| (.+?) \| ([0-9.]+) \| [0-9.]+ % \|$`).FindAllStringSubmatch(string(out), -1) {
		v, _ := strconv.ParseFloat(m[2], 64)
		if m[1] == "total" {
			if d := v - sum; d > 0.01 || d < -0.01 || v < total-0.01 || v > total+0.01 {
				t.Errorf("total %.2f: the rows add up to %.2f, the samples to %.2f\n%s", v, sum, total, out)
			}
			continue
		}
		if _, dup := got[m[1]]; dup {
			t.Errorf("layer %q printed twice\n%s", m[1], out)
		}
		got[m[1]] = v
		sum += v
	}
	if len(got) != 16 {
		t.Fatalf("%d layers, want the table's 16\n%s", len(got), out)
	}
	for layer, w := range want {
		if g := got[layer]; g < w-0.01 || g > w+0.01 {
			t.Errorf("layer %q: %.2f s, want %.2f\n%s", layer, g, w, out)
		}
	}
	if !strings.Contains(string(out), fmt.Sprintf("pprof total: %.2f s", total)) {
		t.Errorf("no pprof total of %.2f s in\n%s", total, out)
	}
}

// pprofSeconds reads one of pprof's durations as seconds.
func pprofSeconds(t *testing.T, d string) float64 {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"ms", 1e-3}, {"s", 1}} {
		if v, ok := strings.CutSuffix(d, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f * u.scale
		}
	}
	if d != "0" {
		t.Fatalf("duration %q", d)
	}
	return 0
}
