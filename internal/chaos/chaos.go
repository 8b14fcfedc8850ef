// Package chaos provides the deterministic in-run fault injectors
// behind Config.Chaos: dropped and delayed inter-peer sends
// (tw.SendFaultInjector) and killed and stalled simulation threads
// (core.ThreadFaultInjector).
//
// Every injector is seeded and decides faults from its own PCG streams,
// so a given (seed, configuration) pair injects the exact same fault
// sequence on every run — chaos tests are reproducible and failures
// replayable. Injectors are scoped to a single run segment; the driver
// rebuilds them per segment, which is itself deterministic because both
// the in-process and resumed restore paths rebuild at the same
// boundaries.
package chaos

import "ggpdes/internal/rng"

// SendFaults drops or delays positive cross-peer event sends. It
// implements tw.SendFaultInjector.
type SendFaults struct {
	stream    *rng.Stream
	dropRate  float64
	delayRate float64
	hold      uint64

	// Dropped and Delayed count injected faults (read after the run).
	Dropped uint64
	Delayed uint64
}

// DefaultDelayHold is how many subsequent cross-peer sends a delayed
// message waits for when no hold is configured.
const DefaultDelayHold = 64

// NewSendFaults builds an injector that drops each cross-peer send with
// probability dropRate and delays it by hold subsequent sends with
// probability delayRate (hold <= 0 selects DefaultDelayHold). Rates are
// disjoint: a send is dropped, delayed or delivered.
func NewSendFaults(seed uint64, dropRate, delayRate float64, hold int) *SendFaults {
	if hold <= 0 {
		hold = DefaultDelayHold
	}
	return &SendFaults{
		stream:    rng.New(seed, 0x5e4d),
		dropRate:  dropRate,
		delayRate: delayRate,
		hold:      uint64(hold),
	}
}

// Outcome implements tw.SendFaultInjector. Machine execution serializes
// engine sends, so drawing from one stream is deterministic.
func (f *SendFaults) Outcome(n uint64) (drop bool, hold uint64) {
	_ = n
	u := f.stream.Float64()
	switch {
	case u < f.dropRate:
		f.Dropped++
		return true, 0
	case u < f.dropRate+f.delayRate:
		f.Delayed++
		return false, f.hold
	}
	return false, 0
}

// ThreadFaults kills and stalls simulation threads. It implements
// core.ThreadFaultInjector.
type ThreadFaults struct {
	stallRate  float64
	killThread int
	killAtIter uint64
	streams    []*rng.Stream

	// Stalls counts injected stall iterations.
	Stalls uint64
}

// NewThreadFaults builds an injector for threads threads. Each thread
// iteration stalls with probability stallRate (drawn from a per-thread
// stream so decisions are independent of interleaving). When killAtIter
// is non-zero, thread killThread dies at that main-loop iteration.
func NewThreadFaults(seed uint64, threads int, stallRate float64, killThread int, killAtIter uint64) *ThreadFaults {
	f := &ThreadFaults{
		stallRate:  stallRate,
		killThread: killThread,
		killAtIter: killAtIter,
		streams:    make([]*rng.Stream, threads),
	}
	for i := range f.streams {
		f.streams[i] = rng.New(seed, 0xfa17+uint64(i))
	}
	return f
}

// Killed implements core.ThreadFaultInjector.
func (f *ThreadFaults) Killed(tid int, iter uint64) bool {
	return f.killAtIter != 0 && tid == f.killThread && iter >= f.killAtIter
}

// Stalled implements core.ThreadFaultInjector.
func (f *ThreadFaults) Stalled(tid int, iter uint64) bool {
	if f.stallRate <= 0 || tid >= len(f.streams) {
		return false
	}
	if f.streams[tid].Float64() < f.stallRate {
		f.Stalls++
		return true
	}
	return false
}
