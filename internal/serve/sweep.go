package serve

import (
	"errors"
	"fmt"
	"time"

	"ggpdes"
)

// SweepSpec is the wire body of POST /v2/sweeps: one template spec
// fanned out into K member jobs. Members are ordinary jobs — they
// ride the same admission queue, cache, single-flight dedup, and
// cluster routing — so a sweep whose members repeat configs (or
// repeat another sweep's) simulates each distinct config at most once
// fleet-wide.
type SweepSpec struct {
	// Defaults is the template every member starts from: timeout,
	// retry, and checkpoint policy, plus the base Config.
	Defaults JobSpec `json:"defaults"`
	// Seeds adds one member per entry: the template config with Seed
	// overridden. The common sweep — same model, S seeds.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Configs adds one member per entry, replacing the template config
	// wholesale (for sweeps over threads, models, end times, ...).
	// Seed members come first, config members after, and member Index
	// in events refers to that combined order.
	Configs []ggpdes.Config `json:"configs,omitempty"`
}

// members expands the spec into concrete JobSpecs, validating each
// one so a sweep is accepted or rejected atomically — no partially
// submitted fan-out on a bad member.
func (s SweepSpec) members(defaults Options) ([]JobSpec, error) {
	n := len(s.Seeds) + len(s.Configs)
	if n == 0 {
		return nil, fmt.Errorf("%w: sweep has no members (need seeds or configs)", ggpdes.ErrInvalidConfig)
	}
	if n > 4096 {
		return nil, fmt.Errorf("%w: sweep has %d members (max 4096)", ggpdes.ErrInvalidConfig, n)
	}
	specs := make([]JobSpec, 0, n)
	for _, seed := range s.Seeds {
		spec := s.Defaults
		spec.Config.Seed = seed
		specs = append(specs, spec)
	}
	for _, cfg := range s.Configs {
		spec := s.Defaults
		spec.Config = cfg
		specs = append(specs, spec)
	}
	for i, spec := range specs {
		if _, err := spec.config(defaults); err != nil {
			return nil, fmt.Errorf("sweep member %d: %w", i, err)
		}
	}
	return specs, nil
}

// SweepEvent is one completion in a sweep's event log, streamed over
// SSE in the order members finished (Seq is that order; Index is the
// member's position in the spec). Results is set for done members.
type SweepEvent struct {
	Seq     int             `json:"seq"`
	Index   int             `json:"index"`
	Job     JobMeta         `json:"job"`
	Results *ggpdes.Results `json:"results,omitempty"`
}

// SweepStatus is the /v2/sweeps/{id} payload.
type SweepStatus struct {
	ID string `json:"id"`
	// State aggregates the members: running until every member is
	// terminal, then done (all done), failed (any failed), or
	// cancelled (any cancelled, none failed).
	State     State `json:"state"`
	Total     int   `json:"total"`
	Done      int   `json:"done"`
	Failed    int   `json:"failed"`
	Cancelled int   `json:"cancelled"`

	SubmittedAt time.Time `json:"submitted_at"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`

	// Members holds each member's current JobMeta in spec order.
	Members []JobMeta `json:"members"`
}

// sweepJob is the server-side sweep record. All fields are guarded by
// the owning Manager's mutex.
type sweepJob struct {
	id        string
	specs     []JobSpec
	metas     []JobMeta // last known meta per member, spec order
	events    []SweepEvent
	terminal  int // members that reached a terminal state
	submitted time.Time
	finished  time.Time
	// cancelled is set by CancelSweep so members the fan-out has not
	// submitted yet are cancelled as they arrive.
	cancelled bool
	// wake is closed and renewed whenever an event is appended (or the
	// sweep finishes), so SSE streams block without polling.
	wake chan struct{}
}

// SubmitSweep validates every member, registers the sweep, and starts
// the fan-out in the background: members are submitted in order, with
// a brief pause-and-retry whenever the admission queue is full, so a
// sweep larger than the queue still completes without the client
// managing backpressure.
func (m *Manager) SubmitSweep(spec SweepSpec) (SweepStatus, error) {
	specs, err := spec.members(m.opts)
	if err != nil {
		return SweepStatus{}, err
	}
	s := &sweepJob{
		specs:     specs,
		metas:     make([]JobMeta, len(specs)),
		submitted: time.Now(),
		wake:      make(chan struct{}),
	}
	for i := range s.metas {
		s.metas[i] = JobMeta{State: StateQueued, SubmittedAt: s.submitted}
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return SweepStatus{}, ErrDraining
	}
	m.seq++
	s.id = fmt.Sprintf("sweep-%08x", m.seq)
	m.sweeps[s.id] = s
	st := m.sweepStatusLocked(s)
	m.wg.Add(1)
	m.mu.Unlock()
	go m.runSweep(s)
	return st, nil
}

// runSweep is the fan-out goroutine: one Submit per member, then one
// watcher per submitted member.
func (m *Manager) runSweep(s *sweepJob) {
	defer m.wg.Done()
	for i, spec := range s.specs {
		var st Status
		var err error
		for {
			st, err = m.Submit(spec)
			if err == nil || !errors.Is(err, ErrQueueFull) {
				break
			}
			if !sleepCtx(m.baseCtx, 5*time.Millisecond) {
				err = m.baseCtx.Err()
				break
			}
		}
		if err != nil {
			// The member never became a job (draining, process exit);
			// record the failure as its terminal event.
			meta := JobMeta{State: StateFailed, SubmittedAt: time.Now(), FinishedAt: time.Now()}
			info := classify(err, CodeInternal)
			meta.Error = &info
			m.settleSweepMember(s, i, meta, nil)
			continue
		}
		m.mu.Lock()
		s.metas[i] = st.Meta()
		cancelled := s.cancelled
		m.mu.Unlock()
		m.wg.Add(1)
		go m.watchSweepMember(s, i, st.ID)
		if cancelled {
			m.Cancel(st.ID)
		}
	}
}

// watchSweepMember waits for one member job and appends its
// completion event.
func (m *Manager) watchSweepMember(s *sweepJob, i int, id string) {
	defer m.wg.Done()
	_, _ = m.Wait(m.baseCtx, id)
	res, st, ok := m.Result(id)
	if !ok {
		st = Status{ID: id, State: StateFailed, Error: "member job evicted before the sweep finished"}
	}
	if !st.State.Terminal() {
		// Only a base-context hard-stop gets here (Drain lets members
		// finish); record the interruption as a cancellation.
		st.State = StateCancelled
		st.Error = "server stopped before the member finished"
	}
	meta := st.Meta()
	if st.State != StateDone {
		res = nil
	}
	m.settleSweepMember(s, i, meta, res)
}

// settleSweepMember records a member's terminal outcome and wakes the
// sweep's SSE streams.
func (m *Manager) settleSweepMember(s *sweepJob, i int, meta JobMeta, res *ggpdes.Results) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s.metas[i] = meta
	s.events = append(s.events, SweepEvent{Seq: len(s.events), Index: i, Job: meta, Results: res})
	s.terminal++
	if s.terminal == len(s.specs) {
		s.finished = time.Now()
		m.retainSweepLocked(s.id)
	}
	close(s.wake)
	s.wake = make(chan struct{})
}

// retainSweepLocked bounds terminal sweep retention like job
// retention. Caller holds m.mu.
func (m *Manager) retainSweepLocked(id string) {
	m.sweepTerminal = append(m.sweepTerminal, id)
	if m.opts.RetainJobs < 0 {
		return
	}
	for len(m.sweepTerminal) > m.opts.RetainJobs {
		delete(m.sweeps, m.sweepTerminal[0])
		m.sweepTerminal = m.sweepTerminal[1:]
	}
}

// sweepStatusLocked builds the status snapshot, refreshing member
// metas from the live job table. Caller holds m.mu.
func (m *Manager) sweepStatusLocked(s *sweepJob) SweepStatus {
	st := SweepStatus{
		ID:          s.id,
		State:       StateRunning,
		Total:       len(s.specs),
		SubmittedAt: s.submitted,
		FinishedAt:  s.finished,
		Members:     make([]JobMeta, len(s.metas)),
	}
	for i, meta := range s.metas {
		if j, ok := m.jobs[meta.ID]; ok && meta.ID != "" {
			meta = j.status().Meta()
		}
		st.Members[i] = meta
		switch meta.State {
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	if s.terminal == len(s.specs) {
		switch {
		case st.Failed > 0:
			st.State = StateFailed
		case st.Cancelled > 0:
			st.State = StateCancelled
		default:
			st.State = StateDone
		}
	}
	return st
}

// GetSweep returns a sweep's status snapshot.
func (m *Manager) GetSweep(id string) (SweepStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sweeps[id]
	if !ok {
		return SweepStatus{}, false
	}
	return m.sweepStatusLocked(s), true
}

// CancelSweep cancels every non-terminal member, including those the
// fan-out has yet to submit. Already-finished members keep their
// results.
func (m *Manager) CancelSweep(id string) (SweepStatus, bool) {
	m.mu.Lock()
	s, ok := m.sweeps[id]
	if !ok {
		m.mu.Unlock()
		return SweepStatus{}, false
	}
	s.cancelled = true
	var ids []string
	for _, meta := range s.metas {
		if meta.ID != "" && !meta.State.Terminal() {
			ids = append(ids, meta.ID)
		}
	}
	m.mu.Unlock()
	for _, jid := range ids {
		// Cancel re-checks state under the lock, so racing completions
		// are left as-is.
		m.Cancel(jid)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sweepStatusLocked(s), true
}

// sweepEventsSince returns the event log from seq onward plus a wake
// channel that closes on the next append — the SSE handler's blocking
// primitive. finished reports whether every member has settled.
func (m *Manager) sweepEventsSince(id string, seq int) (evs []SweepEvent, finished bool, wake <-chan struct{}, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, found := m.sweeps[id]
	if !found {
		return nil, false, nil, false
	}
	if seq < len(s.events) {
		evs = make([]SweepEvent, len(s.events)-seq)
		copy(evs, s.events[seq:])
	}
	return evs, s.terminal == len(s.specs), s.wake, true
}
