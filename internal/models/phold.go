// Package models implements the paper's three simulation applications:
// the synthetic PHOLD benchmark (balanced and 1-K imbalanced variants
// with linear or non-linear temporal execution locality), the
// location-aware SEIR Epidemics model with shifting lock-down regions,
// and the Traffic model with inverse-power density gradients and
// Burr-distributed travel times.
package models

import (
	"errors"
	"fmt"

	"ggpdes/internal/slab"
	"ggpdes/internal/tw"
)

// PHOLDState is a PHOLD LP's state: counters only — PHOLD events carry
// no semantics beyond forwarding.
type PHOLDState struct {
	// Processed counts events this LP executed (committed trajectory).
	Processed int64
}

// Clone implements tw.State.
func (s *PHOLDState) Clone() tw.State {
	c := *s
	return &c
}

// CopyFrom implements tw.StateCopier, letting the engine recycle
// snapshot memory instead of cloning.
func (s *PHOLDState) CopyFrom(src tw.State) {
	*s = *src.(*PHOLDState)
}

// PHOLD is the classical hold-model benchmark: each received event
// schedules exactly one new event at now + lookahead to a random
// destination, so the event population stays constant.
//
// The imbalanced variants (1-2, 1-4, 1-8, 1-16) divide the simulated
// time into K windows; during window w only the threads of group w
// receive traffic, imitating real models' temporal execution locality.
// With Linear grouping the active threads are consecutive ids (group w
// = threads [w·T/K, (w+1)·T/K)); with non-linear grouping they are
// strided (group w = threads with id ≡ w mod K), the pathological case
// for constant round-robin affinity (Figure 7b).
type PHOLD struct {
	cfg PHOLDConfig
	// windowLen is EndTime / Imbalance, computed lazily at first use.
	windowLen tw.VT
	// states is where InitLP carves the LP states from: one block an
	// engine.
	states slab.Slab[PHOLDState]
}

// PHOLDConfig parameterizes the PHOLD model.
type PHOLDConfig struct {
	// Threads must equal the engine's NumThreads.
	Threads int
	// LPsPerThread is the LPs each simulation thread serves (paper:
	// 128).
	LPsPerThread int
	// Imbalance is K in the 1-K imbalanced models; 1 is the balanced
	// model.
	Imbalance int
	// NonLinear selects strided (non-consecutive) active groups.
	NonLinear bool
	// EndTime must equal the engine's EndTime (window computation).
	EndTime tw.VT
	// LookaheadMin and LookaheadMean shape the delay: min + Exp(mean).
	LookaheadMin, LookaheadMean float64
	// StartEventsPerLP is each LP's initial event count (paper: 1).
	StartEventsPerLP int
}

// NewPHOLD validates the configuration and returns the model.
func NewPHOLD(cfg PHOLDConfig) (*PHOLD, error) {
	if cfg.Threads <= 0 {
		return nil, errors.New("phold: Threads must be positive")
	}
	if cfg.LPsPerThread <= 0 {
		return nil, errors.New("phold: LPsPerThread must be positive")
	}
	if cfg.Imbalance <= 0 {
		cfg.Imbalance = 1
	}
	if cfg.Threads%cfg.Imbalance != 0 {
		return nil, fmt.Errorf("phold: Imbalance %d must divide Threads %d", cfg.Imbalance, cfg.Threads)
	}
	if cfg.EndTime <= 0 {
		return nil, errors.New("phold: EndTime must be positive")
	}
	if cfg.LookaheadMin <= 0 {
		cfg.LookaheadMin = 0.1
	}
	if cfg.LookaheadMean <= 0 {
		cfg.LookaheadMean = 0.9
	}
	if cfg.StartEventsPerLP <= 0 {
		cfg.StartEventsPerLP = 1
	}
	n := cfg.Threads * cfg.LPsPerThread
	return &PHOLD{cfg: cfg, windowLen: cfg.EndTime / tw.VT(cfg.Imbalance),
		states: slab.Slab[PHOLDState]{Min: n, Max: n}}, nil
}

// Config returns the validated configuration.
func (m *PHOLD) Config() PHOLDConfig { return m.cfg }

// LPsPerThread implements tw.Model.
func (m *PHOLD) LPsPerThread() int { return m.cfg.LPsPerThread }

// InitLP implements tw.Model: every LP starts with StartEventsPerLP
// self-addressed events at small random offsets.
func (m *PHOLD) InitLP(ic *tw.InitCtx, lp *tw.LP) {
	lp.SetState(m.states.New())
	for k := 0; k < m.cfg.StartEventsPerLP; k++ {
		ts := lp.Rand().Uniform(0, m.cfg.LookaheadMin+m.cfg.LookaheadMean)
		ic.ScheduleInit(lp.ID, ts, 0, 0, 0)
	}
}

// Window returns the locality window index for a virtual time.
func (m *PHOLD) Window(ts tw.VT) int {
	w := int(ts / m.windowLen)
	if w >= m.cfg.Imbalance {
		w = m.cfg.Imbalance - 1
	}
	if w < 0 {
		w = 0
	}
	return w
}

// ActiveThread returns the i-th active thread id of window w, for i in
// [0, Threads/Imbalance).
func (m *PHOLD) ActiveThread(w, i int) int {
	if m.cfg.NonLinear {
		// Strided: thread ids ≡ w (mod K).
		return w + i*m.cfg.Imbalance
	}
	// Linear: consecutive block.
	group := m.cfg.Threads / m.cfg.Imbalance
	return w*group + i
}

// GroupSize returns the number of threads active in any window.
func (m *PHOLD) GroupSize() int { return m.cfg.Threads / m.cfg.Imbalance }

// IsActiveThread reports whether thread tid is in window w's group.
func (m *PHOLD) IsActiveThread(w, tid int) bool {
	if m.cfg.NonLinear {
		return tid%m.cfg.Imbalance == w
	}
	group := m.cfg.Threads / m.cfg.Imbalance
	return tid/group == w
}

// OnEvent implements tw.Model: forward one event to a random LP in the
// destination timestamp's active group.
func (m *PHOLD) OnEvent(ctx *tw.EventCtx) {
	st := ctx.LP().State().(*PHOLDState)
	st.Processed++
	r := ctx.Rand()
	ts := ctx.Now() + m.cfg.LookaheadMin + r.Exponential(m.cfg.LookaheadMean)
	w := m.Window(ts)
	// Pick a uniform LP among the active group's LPs.
	thread := m.ActiveThread(w, r.Intn(m.GroupSize()))
	dst := thread*m.cfg.LPsPerThread + r.Intn(m.cfg.LPsPerThread)
	ctx.Send(dst, ts, 0, 0, 0)
}
