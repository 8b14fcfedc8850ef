// Package machine simulates a many-core shared-memory processor with an
// OS-like thread scheduler. It is the hardware/OS substitute for the
// paper's Knights Landing testbed: Go's runtime exposes no portable
// thread pinning or core-level de-scheduling, so GG-PDES's mechanisms
// (semaphore de-scheduling, sched_setaffinity, CFS multiplexing, SMT
// sharing) are reproduced on a simulated machine instead.
//
// # Execution model
//
// Simulated threads are coroutines (iter.Pull) driven cooperatively,
// exactly one at a time, by the machine's tick loop; runs are therefore
// deterministic and shared PDES state needs no Go-level synchronization.
// A thread's program calls Proc methods (Work, SemWait, SemPost,
// BarrierWait, Lock, Unlock, SetAffinity, Yield); each call is a costed
// segment. The machine advances in ticks: every tick, each core runs
// its selected SMT contexts, granting each a share of the tick's cycles
// that depends on how many contexts are active (the SMT aggregate
// throughput curve), and switches to each thread's coroutine with that
// grant. A work segment that ends strictly inside the grant is charged
// where it is issued and the program goes on; a segment that reaches
// or crosses the grant, and every call that can affect another thread,
// switches back to the scheduler. Go-level code between two Proc calls
// therefore executes atomically, in the tick in which the earlier
// call's cycles were fully paid and cycles of the grant remained.
//
// Blocking calls (SemWait on an empty semaphore, BarrierWait, Lock on a
// held mutex) de-schedule the thread: it consumes no cycles until
// woken. Spinning threads keep paying for every loop iteration. This
// asymmetry is the entire subject of the reproduced paper.
//
// # Invariants
//
// Machine.CheckInvariants states the bookkeeping once: the cycles
// charged to threads are the cycles cores consumed, every live thread
// is in exactly one place (its core's running set, its core's CFS-ordered
// run queue, or a primitive's waiter list), no core runs more than
// SMTWidth threads, a pinned thread runs only on its pin, and no
// wake-up is lost. This package's tests run it at the end of every tick
// of every machine, and TestMachineGenerated adds what needs the tick
// before (a blocked thread gains no cycles; a core's min_vruntime never
// falls across a tick it stayed busy in, outside load balancing and
// SetAffinity) and laws over generated programs. The engine's oracle
// and core's skip tests run it after every Run.
package machine

import (
	"errors"
	"fmt"
)

// Config describes the simulated processor and scheduler.
type Config struct {
	// Name identifies the topology in reports.
	Name string
	// Cores is the number of physical cores.
	Cores int
	// SMTWidth is the number of hardware thread contexts per core.
	SMTWidth int
	// FreqHz converts cycles to seconds in reports.
	FreqHz float64
	// TickCycles is the scheduling quantum in cycles. Each tick, every
	// running context receives TickCycles·agg(k)/k cycles where k is
	// the number of active contexts on its core.
	TickCycles uint64
	// SMTAggregate[k-1] is the aggregate throughput of a core with k
	// active contexts, in single-context units. Must be non-decreasing
	// with SMTAggregate[0] == 1.
	SMTAggregate []float64
	// OpCycles is the baseline cost charged for every machine call.
	OpCycles uint64
	// CtxSwitchCycles is charged to a thread when it is switched onto a
	// context it was not already running on.
	CtxSwitchCycles uint64
	// MigrationCycles is charged (in addition to the context switch)
	// when a thread moves between cores, modelling cache refill.
	MigrationCycles uint64
	// WakeCycles is charged to a thread when it is woken from a
	// blocking call.
	WakeCycles uint64
	// BarrierWakePerWaiterCycles is charged to the thread completing a
	// barrier generation, per waiter released — the serialized futex
	// wake loop that makes pthread_barrier rounds grow with the thread
	// count.
	BarrierWakePerWaiterCycles uint64
	// PreemptGranularityTicks is the vruntime lead (in ticks) a waiting
	// thread must have before it preempts a running one; this sets the
	// effective CFS timeslice.
	PreemptGranularityTicks int
	// LoadBalancePeriodTicks is how often the CFS-style load balancer
	// migrates unpinned threads from busy to idle cores; 0 disables
	// periodic balancing (idle stealing still happens).
	LoadBalancePeriodTicks int
	// MaxTicks aborts the run if exceeded; 0 means unlimited.
	MaxTicks uint64
	// StartTick offsets the machine wall-clock: the tick counter begins
	// here instead of zero, so a machine resumed from a checkpoint
	// reports cumulative NowCycles/WallSeconds. MaxTicks remains an
	// absolute (cumulative) bound.
	StartTick uint64
}

// KNL7230 returns the topology of the paper's evaluation platform: an
// Intel Xeon Phi Knights Landing 7230 with 64 cores, 4-way SMT (256
// hardware threads) at 1.3 GHz.
func KNL7230() Config {
	return Config{
		Name:       "knl7230",
		Cores:      64,
		SMTWidth:   4,
		FreqHz:     1.3e9,
		TickCycles: 32768,
		// KNL SMT scaling: modest per-context gains beyond one thread.
		SMTAggregate:               []float64{1.0, 1.45, 1.7, 1.9},
		OpCycles:                   40,
		CtxSwitchCycles:            3000,
		MigrationCycles:            6000,
		WakeCycles:                 2000,
		BarrierWakePerWaiterCycles: 800,
		PreemptGranularityTicks:    3,
		LoadBalancePeriodTicks:     8,
	}
}

// Small returns a 4-core, 2-way-SMT machine, convenient for unit tests
// and quickstart examples.
func Small() Config {
	c := KNL7230()
	c.Name = "small4x2"
	c.Cores = 4
	c.SMTWidth = 2
	c.SMTAggregate = []float64{1.0, 1.5}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return errors.New("machine: Cores must be positive")
	case c.SMTWidth <= 0:
		return errors.New("machine: SMTWidth must be positive")
	case c.FreqHz <= 0:
		return errors.New("machine: FreqHz must be positive")
	case c.TickCycles == 0:
		return errors.New("machine: TickCycles must be positive")
	case c.OpCycles == 0:
		return errors.New("machine: OpCycles must be positive")
	case len(c.SMTAggregate) < c.SMTWidth:
		return fmt.Errorf("machine: SMTAggregate needs %d entries, has %d", c.SMTWidth, len(c.SMTAggregate))
	}
	if c.SMTAggregate[0] != 1.0 {
		return errors.New("machine: SMTAggregate[0] must be 1.0")
	}
	for i := 1; i < c.SMTWidth; i++ {
		if c.SMTAggregate[i] < c.SMTAggregate[i-1] {
			return errors.New("machine: SMTAggregate must be non-decreasing")
		}
	}
	return nil
}
