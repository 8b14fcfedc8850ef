package machine

// Sem is a counting semaphore. Waiters are de-scheduled (zero cycles)
// and woken in FIFO order. It is the machine analogue of a POSIX
// counting semaphore, the primitive DD- and GG-PDES use to de-schedule
// inactive simulation threads.
type Sem struct {
	m       *Machine
	name    string
	count   int
	waiters []*Thread
	// one is waiters' first array: a semaphore per thread, as the
	// demand-driven schedulers keep, never has a second waiter.
	one [1]*Thread
}

// NewSem creates a semaphore with the given initial count, from the
// machine's slab.
func (m *Machine) NewSem(name string, initial int) *Sem {
	if initial < 0 {
		panic("machine: negative semaphore count")
	}
	s := m.semSlab.New()
	s.m, s.name, s.count = m, name, initial
	s.waiters = s.one[:0]
	return s
}

// Value returns the semaphore's current count (waiters imply zero).
func (s *Sem) Value() int { return s.count }

// wait is the P operation, executed by the machine on the calling
// thread's behalf; it reports whether the thread blocked.
func (s *Sem) wait(t *Thread) (blocked bool) {
	if s.count > 0 {
		s.count--
		return false
	}
	s.waiters = append(s.waiters, t)
	return true
}

// post is the V operation: wake the longest waiter, else bump count.
func (s *Sem) post() {
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		copy(s.waiters, s.waiters[1:])
		s.waiters = s.waiters[:len(s.waiters)-1]
		s.m.wake(w)
		return
	}
	s.count++
}

// Barrier de-schedules arriving threads until all parties have arrived,
// like pthread_barrier_wait. Parties may be changed between generations
// with Resize (the paper's "customised barrier functions" shrink the
// participant set as threads deactivate).
type Barrier struct {
	m       *Machine
	name    string
	parties int
	waiters []*Thread
}

// NewBarrier creates a barrier for the given number of parties.
func (m *Machine) NewBarrier(name string, parties int) *Barrier {
	if parties <= 0 {
		panic("machine: barrier needs at least one party")
	}
	return &Barrier{m: m, name: name, parties: parties}
}

// Resize changes the number of parties. If the waiting threads already
// satisfy the new count, the generation completes immediately and the
// most recent arriver receives the serial flag. Safe to call from any
// simulated thread (runs are serialized).
func (b *Barrier) Resize(parties int) {
	if parties <= 0 {
		panic("machine: barrier needs at least one party")
	}
	b.parties = parties
	if len(b.waiters) >= b.parties {
		b.release(b.waiters[len(b.waiters)-1])
	}
}

// arrive registers thread t at the barrier; it reports whether t
// blocked. When t completes the generation, every waiter is woken and t
// continues with the serial flag, paying the per-waiter wake cost.
func (b *Barrier) arrive(t *Thread) (blocked bool) {
	if len(b.waiters)+1 >= b.parties {
		t.barrierSerial = true
		t.penalty += uint64(len(b.waiters)) * b.m.cfg.BarrierWakePerWaiterCycles
		b.release(t)
		return false
	}
	b.waiters = append(b.waiters, t)
	return true
}

// release wakes all current waiters; serial keeps/gets the serial flag.
func (b *Barrier) release(serial *Thread) {
	for _, w := range b.waiters {
		w.barrierSerial = w == serial
		if w.state == StateBlocked {
			b.m.wake(w)
		}
	}
	b.waiters = b.waiters[:0]
}

// Mutex is a blocking mutual-exclusion lock with FIFO handoff,
// modelling the pthread mutexes that serialize DD-PDES's controller
// state.
type Mutex struct {
	m       *Machine
	name    string
	owner   *Thread
	waiters []*Thread
	// Contended counts Lock operations that had to block, a measure of
	// lock pressure.
	Contended uint64
	// Acquisitions counts successful lock acquisitions.
	Acquisitions uint64
}

// NewMutex creates an unlocked mutex.
func (m *Machine) NewMutex(name string) *Mutex {
	return &Mutex{m: m, name: name}
}

// lock attempts acquisition by t; it reports whether t blocked.
func (mu *Mutex) lock(t *Thread) (blocked bool) {
	if mu.owner == nil {
		mu.owner = t
		mu.Acquisitions++
		return false
	}
	mu.Contended++
	mu.waiters = append(mu.waiters, t)
	return true
}

// unlock releases the mutex, handing it directly to the longest waiter.
func (mu *Mutex) unlock(t *Thread) {
	if mu.owner != t {
		panic("machine: Unlock of mutex " + mu.name + " by non-owner " + t.name)
	}
	if len(mu.waiters) > 0 {
		w := mu.waiters[0]
		copy(mu.waiters, mu.waiters[1:])
		mu.waiters = mu.waiters[:len(mu.waiters)-1]
		mu.owner = w
		mu.Acquisitions++
		mu.m.wake(w)
		return
	}
	mu.owner = nil
}
