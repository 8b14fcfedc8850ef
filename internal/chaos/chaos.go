// Package chaos provides the deterministic in-run fault injector behind
// Config.Chaos: stalled simulation-thread iterations
// (core.ThreadFaultInjector).
//
// A stall burns one main-loop iteration and changes nothing but
// scheduling, so a stalled run commits what the sequential executor
// executes (internal/tw's TestOracleGenerated). Decisions come
// from per-thread PCG streams, so a given (seed, configuration) pair
// stalls the exact same iterations on every run. The injector is scoped
// to a single run segment; the driver rebuilds it per segment, which is
// itself deterministic because both the in-process and resumed restore
// paths rebuild at the same boundaries.
package chaos

import "ggpdes/internal/rng"

// ThreadFaults stalls simulation threads. It implements
// core.ThreadFaultInjector.
type ThreadFaults struct {
	stallRate float64
	streams   []*rng.Stream
}

// NewThreadFaults builds an injector for threads threads. Each thread
// iteration stalls with probability stallRate, drawn from a per-thread
// stream so decisions are independent of interleaving.
func NewThreadFaults(seed uint64, threads int, stallRate float64) *ThreadFaults {
	f := &ThreadFaults{stallRate: stallRate, streams: make([]*rng.Stream, threads)}
	for i := range f.streams {
		f.streams[i] = rng.New(seed, 0xfa17+uint64(i))
	}
	return f
}

// Stalled implements core.ThreadFaultInjector.
func (f *ThreadFaults) Stalled(tid int) bool {
	return f.streams[tid].Float64() < f.stallRate
}
