// Fixture for the lockorder pass: a mutex acquired while already held,
// directly and through a call — the second in the shape of the
// injected bug that only this pass catches (DESIGN.md §11) — plus the
// disciplined shapes that must stay quiet.
package lockfx

import "sync"

// Registry mirrors the telemetry registry: readers share an RWMutex.
type Registry struct {
	mu     sync.RWMutex
	counts map[string]int
}

func (r *Registry) Counters() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.counts
}

// WriteText re-enters the read lock through Counters: harmless until a
// writer queues between the two RLocks, then a deadlock.
func (r *Registry) WriteText() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.Counters()) // want `call to Registry.Counters acquires mutex Registry.mu, which is already held`
}

func relockDirect(r *Registry) {
	r.mu.Lock()
	r.mu.Lock() // want `acquired while already held`
	r.mu.Unlock()
	r.mu.Unlock()
}

// ---- disciplined shapes: all quiet ----

type Manager struct {
	mu    sync.Mutex
	state int
}

func (m *Manager) snapshot() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// The early branch unlocks and returns, so the lock is not held where
// the snapshot re-acquires it.
func branchRelease(m *Manager, fail bool) int {
	m.mu.Lock()
	if fail {
		m.mu.Unlock()
		return 0
	}
	m.mu.Unlock()
	return m.snapshot()
}

// A launched goroutine does not inherit the launcher's locks.
func launches(m *Manager) {
	m.mu.Lock()
	defer m.mu.Unlock()
	go func() {
		_ = m.snapshot()
	}()
}
