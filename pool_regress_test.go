package ggpdes

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// poolFingerprint renders every trajectory-derived field of a Results
// into a comparable string. The telemetry counter map is included too,
// minus the pool-traffic counters themselves — those measure memory
// recycling, which DisablePooling switches off by design.
func poolFingerprint(t *testing.T, res *Results) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "committed=%d processed=%d rolledback=%d rollbacks=%d stragglers=%d\n",
		res.CommittedEvents, res.ProcessedEvents, res.RolledBackEvents, res.Rollbacks, res.Stragglers)
	fmt.Fprintf(&b, "anti=%d lazyreused=%d lazycancelled=%d\n",
		res.AntiMessages, res.LazyReused, res.LazyCancelled)
	fmt.Fprintf(&b, "wall=%v cycles=%d gvtrounds=%d gvtcpu=%v finalgvt=%v\n",
		res.WallClockSeconds, res.TotalCycles, res.GVTRounds, res.GVTCPUSeconds, res.FinalGVT)
	fmt.Fprintf(&b, "peakuncommitted=%d deact=%d act=%d ctxsw=%d mig=%d\n",
		res.PeakUncommittedEvents, res.Deactivations, res.Activations, res.ContextSwitches, res.Migrations)
	names := make([]string, 0, len(res.Counters))
	for name := range res.Counters {
		if strings.HasPrefix(name, "tw.pool.") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "counter %s=%d\n", name, res.Counters[name])
	}
	return b.String()
}

// The full-stack pooling gold test: through the public API — machine,
// scheduler, GVT and engine all live — switching event/snapshot
// recycling off must not move a single counter of the trajectory.
func TestPoolingIsTrajectoryInvariant(t *testing.T) {
	cfg := quickCfg()
	pooled, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisablePooling = true
	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := poolFingerprint(t, pooled), poolFingerprint(t, bare)
	if a != b {
		t.Fatalf("pooling changed the trajectory:\npooled:\n%s\nunpooled:\n%s", a, b)
	}
	if pooled.Rollbacks == 0 {
		t.Fatal("run had no rollbacks; invariance test exercises nothing")
	}
	if pooled.Counters["tw.pool.event_recycled"] == 0 {
		t.Fatal("pooled run recycled nothing")
	}
	if bare.Counters["tw.pool.event_recycled"] != 0 {
		t.Fatal("unpooled run recycled events")
	}
}
