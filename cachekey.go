package ggpdes

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// cacheKeyVersion tags the canonical serialization format. Bump it
// whenever the meaning of any serialized field changes, so stale
// cached results can never be served for a semantically different
// configuration.
const cacheKeyVersion = "ggpdes-config-v2"

// CanonicalString renders every Run-relevant field of the Config —
// defaults applied — as a stable multi-line text. Two configs with the
// same canonical string produce bit-identical Results: runs are
// deterministic functions of this string. Settings that cannot affect
// the simulation trajectory — observability (Trace, Series) — are
// deliberately excluded.
//
// It returns an error for configs Validate rejects, since those have
// no defined run semantics.
func (c Config) CanonicalString() (string, error) {
	if err := c.Validate(); err != nil {
		return "", err
	}
	mc, err := c.Machine.build()
	if err != nil {
		return "", err
	}
	model, err := c.Model.canon(c.Threads, c.EndTime)
	if err != nil {
		return "", err
	}
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	or := func(v, def int) int {
		if v == 0 {
			return def
		}
		return v
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", cacheKeyVersion)
	fmt.Fprintf(&b, "model=%s\n", model)
	fmt.Fprintf(&b, "threads=%d\n", c.Threads)
	fmt.Fprintf(&b, "system=%s\n", c.System)
	fmt.Fprintf(&b, "gvt=%s\n", c.GVT)
	fmt.Fprintf(&b, "affinity=%s\n", c.Affinity)
	fmt.Fprintf(&b, "endtime=%g\n", c.EndTime)
	fmt.Fprintf(&b, "seed=%d\n", seed)
	// numa=0 xnode=0: sub-NUMA clustering is retired (DESIGN.md §5), so
	// every machine is the uniform one its keys always named.
	fmt.Fprintf(&b, "machine{cores=%d smt=%d freq=%g tick=%d agg=%v op=%d ctxsw=%d mig=%d numa=0 xnode=0 wake=%d barwake=%d preempt=%d lb=%d maxticks=%d}\n",
		mc.Cores, mc.SMTWidth, mc.FreqHz, mc.TickCycles, mc.SMTAggregate,
		mc.OpCycles, mc.CtxSwitchCycles, mc.MigrationCycles, mc.WakeCycles,
		mc.BarrierWakePerWaiterCycles, mc.PreemptGranularityTicks,
		mc.LoadBalancePeriodTicks, mc.MaxTicks)
	fmt.Fprintf(&b, "gvtfreq=%d\n", c.gvtFrequency())
	fmt.Fprintf(&b, "zerothreshold=%d\n", or(c.ZeroCounterThreshold, 2000))
	fmt.Fprintf(&b, "batch=%d\n", or(c.BatchSize, 8))
	// Multi-LP kernel processes, reverse computation, lazy cancellation,
	// adaptive GVT frequency and the choice of pending queue are retired
	// (DESIGN.md §5). Every run now is what a run with them at their
	// defaults was, so their lines stay, constant, and every key computed
	// while they existed still names its run.
	b.WriteString("lpsperkp=1\n")
	b.WriteString("queue=splay\n")
	b.WriteString("statesaving=copy\n")
	b.WriteString("lazy=false\n")
	fmt.Fprintf(&b, "optimism=%g\n", c.OptimismWindow)
	b.WriteString("adaptive=nil\n")
	// Checkpoint segmentation quiesces the engine at round boundaries,
	// which perturbs speculation — Every changes the trajectory. Dir is
	// pure placement and excluded.
	every := 0
	if c.Checkpoint != nil {
		every = c.Checkpoint.Every
	}
	fmt.Fprintf(&b, "checkpoint_every=%d\n", every)
	if ch := c.Chaos; ch != nil {
		cs := ch.Seed
		if cs == 0 {
			cs = seed
		}
		// Dropped and delayed sends and killed threads are retired
		// (DESIGN.md §5); their fields print as the zeros every
		// stall-only key was computed with.
		fmt.Fprintf(&b, "chaos{seed=%d drop=0 delay=0 hold=0 stall=%g kill=0@0}\n", cs, ch.StallRate)
	} else {
		fmt.Fprintf(&b, "chaos=nil\n")
	}
	return b.String(), nil
}

// CacheKey hashes the canonical serialization into a content-addressed
// key ("sha256:<hex>"). Because runs are deterministic, a result
// computed for one Config may be served for any other Config with the
// same key — the contract the serving layer's result cache relies on.
func (c Config) CacheKey() (string, error) {
	s, err := c.CanonicalString()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(s))
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}
