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
	// cache and checkpoint policy, plus the base Config.
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

// newSweep expands the spec into its member jobs, validating and keying
// each one once, so a sweep is accepted or rejected atomically — no
// partially submitted fan-out on a bad member.
func (m *Manager) newSweep(spec SweepSpec) (*sweepJob, error) {
	n := len(spec.Seeds) + len(spec.Configs)
	if n == 0 {
		return nil, fmt.Errorf("%w: sweep has no members (need seeds or configs)", ggpdes.ErrInvalidConfig)
	}
	if n > 4096 {
		return nil, fmt.Errorf("%w: sweep has %d members (max 4096)", ggpdes.ErrInvalidConfig, n)
	}
	specs := make([]JobSpec, 0, n)
	for _, seed := range spec.Seeds {
		member := spec.Defaults
		member.Config.Seed = seed
		specs = append(specs, member)
	}
	for _, cfg := range spec.Configs {
		member := spec.Defaults
		member.Config = cfg
		specs = append(specs, member)
	}
	s := &sweepJob{jobs: make([]*Job, n), submitted: time.Now(), wake: make(chan struct{})}
	for i, member := range specs {
		j, err := m.newJob(member)
		if err != nil {
			return nil, fmt.Errorf("sweep member %d: %w", i, err)
		}
		j.sweep, j.index = s, i
		s.jobs[i] = j
	}
	return s, nil
}

// SweepEvent is one completion in a sweep's event log, streamed over
// SSE in the order members finished (Seq is that order; Index is the
// member's position in the spec). Results is set for done members whose
// result the cache still holds; it is resolved by key when the event is
// sent, so a replay after eviction sends the member's meta alone.
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
	id string
	// jobs are the members in spec order, held by pointer: job retention
	// bounds what the job table answers for, not what a sweep knows
	// about its own members.
	jobs []*Job
	// settled is the event log: the members in the order they settled.
	// A terminal member's meta no longer changes and its result lives in
	// the cache, so the members themselves are the log.
	settled   []*Job
	submitted time.Time
	// finished is set by the last member to settle; zero until then.
	finished time.Time
	// cancelled is set by CancelSweep so members the fan-out has not
	// admitted yet are cancelled as they arrive.
	cancelled bool
	// wake is closed and renewed whenever an event is appended, so SSE
	// streams block without polling.
	wake chan struct{}
}

// SubmitSweep validates every member, registers the sweep, and starts
// the fan-out in the background: members are admitted in order, with
// a brief pause-and-retry whenever the admission queue is full, so a
// sweep larger than the queue still completes without the client
// managing backpressure.
func (m *Manager) SubmitSweep(spec SweepSpec) (SweepStatus, error) {
	s, err := m.newSweep(spec)
	if err != nil {
		return SweepStatus{}, err
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

// runSweep is the fan-out goroutine, and exists for queue-full backoff
// only: how a member ends reaches the sweep through the member's own
// terminal edge (sweepSettledLocked).
func (m *Manager) runSweep(s *sweepJob) {
	defer m.wg.Done()
	for _, j := range s.jobs {
		_, err := m.admit(j)
		for errors.Is(err, ErrQueueFull) {
			if !sleepCtx(m.baseCtx, 5*time.Millisecond) {
				err = m.baseCtx.Err()
				break
			}
			_, err = m.admit(j)
		}
		if err != nil {
			// The server began draining, or stopped, after it accepted the
			// sweep: the member fails unrun, typed with that cause.
			m.mu.Lock()
			m.moveLocked(j, StateFailed, outcome{err: err})
			m.mu.Unlock()
		}
	}
}

// sweepSettledLocked is the sweep's share of a member's terminal edge:
// append the completion event, finish the sweep with its last member,
// and wake the SSE streams. Caller holds m.mu.
func (m *Manager) sweepSettledLocked(j *Job) {
	s := j.sweep
	s.settled = append(s.settled, j)
	if len(s.settled) == len(s.jobs) {
		s.finished = time.Now() // every member has settled
		retain(m.opts.RetainJobs, &m.sweepTerminal, m.sweeps, s.id)
	}
	close(s.wake)
	s.wake = make(chan struct{})
}

// sweepStatusLocked builds the status snapshot. Caller holds m.mu.
func (m *Manager) sweepStatusLocked(s *sweepJob) SweepStatus {
	st := SweepStatus{
		ID:          s.id,
		State:       StateRunning,
		Total:       len(s.jobs),
		SubmittedAt: s.submitted,
		FinishedAt:  s.finished,
		Members:     make([]JobMeta, len(s.jobs)),
	}
	for i, j := range s.jobs {
		st.Members[i] = j.meta()
		switch j.state {
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	if !s.finished.IsZero() {
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
// fan-out has yet to admit. Already-finished members keep their
// results.
func (m *Manager) CancelSweep(id string) (SweepStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sweeps[id]
	if !ok {
		return SweepStatus{}, false
	}
	s.cancelled = true
	for _, j := range s.jobs {
		m.cancelLocked(j)
	}
	return m.sweepStatusLocked(s), true
}

// sweepEventsSince returns the event log from seq onward, each done
// member's result resolved through the cache, plus a wake channel that
// closes on the next append — the SSE handler's blocking primitive.
// final is the finished sweep's status, nil until every member has
// settled; it is read under the same lock as the events, so a stream
// never has to find the sweep a second time to end.
func (m *Manager) sweepEventsSince(id string, seq int) (evs []SweepEvent, final *SweepStatus, wake <-chan struct{}, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, found := m.sweeps[id]
	if !found {
		return nil, nil, nil, false
	}
	for i := seq; i < len(s.settled); i++ {
		j := s.settled[i]
		ev := SweepEvent{Seq: i, Index: j.index, Job: j.meta()}
		if j.state == StateDone {
			ev.Results, _ = m.cache.peek(j.key)
		}
		evs = append(evs, ev)
	}
	if !s.finished.IsZero() {
		st := m.sweepStatusLocked(s)
		final = &st
	}
	return evs, final, s.wake, true
}
