package machine

import (
	"fmt"
	"slices"
)

// tickCheck, when set, runs at the end of every tick, and an error it
// returns ends the run. Machine's own tests set it (export_test.go) to
// run CheckInvariants on every tick of every machine they build.
var tickCheck func(*Machine) error

// CheckInvariants reports the first rule of the machine's bookkeeping
// that its current state breaks, or nil. It reads only state the
// machine keeps anyway and allocates nothing unless a rule fails.
// Machine's tests run it at the end of every tick; the engine's oracle
// and core's skip matrix run it after every Run. The rules:
//   - conservation: the cycles charged to threads sum to the cycles
//     consumed on cores (TotalCycles), and no core consumed more than
//     its ticks could grant;
//   - hardware contexts: every thread that has not exited is in exactly
//     one place. A running thread is in its core's running set, a
//     runnable one in its core's run queue, which is in threadLess
//     order, and a blocked one in neither. No core runs more than
//     SMTWidth threads, and live counts the threads that have not
//     exited;
//   - a thread's vruntime is never behind its cycles (both grow by
//     every charge; the wake-up clamp only raises vruntime);
//   - affinity: a pinned thread that is runnable or running is on its
//     pin;
//   - no lost wake-up: a blocked thread is on the waiter list of the
//     primitive its last call named, and every waiter on that list is
//     blocked on it. A semaphore with waiters has count 0, a barrier
//     holds fewer waiters than its parties, and a mutex with waiters
//     has an owner.
//
// What needs the previous tick (a blocked thread gains no cycles, and
// the CFS min_vruntime rules) is checked by TestMachineGenerated.
func (m *Machine) CheckInvariants() error {
	var cycles, busy, grant uint64
	placed, queued, live := 0, 0, 0
	for _, t := range m.threads {
		cycles += t.cycles
		if t.state != StateExited {
			live++
		}
		switch {
		case t.vruntime < t.cycles:
			return fmt.Errorf("machine: thread %s has vruntime %d behind its %d cycles", t.name, t.vruntime, t.cycles)
		case t.state == StateBlocked:
			if err := t.checkWaiting(); err != nil {
				return err
			}
		case t.state == StateExited:
		case t.pinned != AnyCore && t.core != t.pinned:
			return fmt.Errorf("machine: thread %s is %s on core %d, pinned to %d", t.name, t.state, t.core, t.pinned)
		default:
			queued++
		}
	}
	for k, s := range m.share {
		grant = max(grant, uint64(k+1)*s)
	}
	for i := range m.cores {
		c := &m.cores[i]
		busy += c.busy
		placed += len(c.running) + len(c.runq)
		if c.busy > grant*(m.tick-m.cfg.StartTick) || len(c.running) > m.cfg.SMTWidth {
			return fmt.Errorf("machine: core %d consumed %d cycles in %d ticks on %d contexts", i, c.busy, m.tick-m.cfg.StartTick, len(c.running))
		}
		for j, t := range c.running {
			if t.state != StateRunning || t.core != i || slices.Contains(c.running[:j], t) {
				return fmt.Errorf("machine: core %d runs thread %s (%s, core %d) at context %d", i, t.name, t.state, t.core, j)
			}
		}
		for j, t := range c.runq {
			if t.state != StateRunnable || t.core != i || j > 0 && !threadLess(c.runq[j-1], t) {
				return fmt.Errorf("machine: core %d queues thread %s (%s, core %d) at position %d", i, t.name, t.state, t.core, j)
			}
		}
	}
	if busy != cycles || placed != queued || live != m.live {
		return fmt.Errorf("machine: cores consumed %d cycles and hold %d threads; threads were charged %d, %d are runnable or running, %d have not exited (live reads %d)",
			busy, placed, cycles, queued, live, m.live)
	}
	return nil
}

// checkWaiting checks a blocked thread against the primitive its last
// call named. The list's first waiter also checks the rest of it, so a
// check walks each list once.
func (t *Thread) checkWaiting() error {
	var waiters []*Thread
	switch s := &t.seg; {
	case s.kind == segSemWait && s.sem.count == 0:
		waiters = s.sem.waiters
	case s.kind == segBarrier && len(s.bar.waiters) < s.bar.parties:
		waiters = s.bar.waiters
	case s.kind == segLock && s.mu.owner != nil:
		waiters = s.mu.waiters
	}
	if !slices.Contains(waiters, t) {
		return fmt.Errorf("machine: thread %s is blocked on %s %s, which does not list it or could not have blocked it", t.name, t.blockKind, t.blockName)
	}
	if waiters[0] != t {
		return nil
	}
	for _, w := range waiters {
		if w.state != StateBlocked || w.seg != t.seg { // the same kind and primitive, cost 0
			return fmt.Errorf("machine: %s %s lists thread %s (%s), which waits on something else", t.blockKind, t.blockName, w.name, w.state)
		}
	}
	return nil
}
