package models

import (
	"errors"
	"math"

	"ggpdes/internal/tw"
)

// Agent disease states of the SEIR compartment model.
const (
	// Susceptible agents can be exposed.
	Susceptible uint8 = iota
	// Exposed agents are incubating; they become infectious after the
	// incubation delay.
	Exposed
	// Infectious agents generate contact events.
	Infectious
	// Recovered agents are immune.
	Recovered
)

// Epidemics event kinds.
const (
	// EvContact is an exposure attempt against a household.
	EvContact uint8 = iota
	// EvBecomeInfectious transitions an exposed agent (index in A).
	EvBecomeInfectious
	// EvRecover transitions an infectious agent (index in A).
	EvRecover
	// EvSeed is an exogenous importation at a window boundary.
	EvSeed
)

// HouseholdState is one LP's state: a household of AgentsPerHousehold
// agents following SEIR.
type HouseholdState struct {
	// Agents holds each agent's compartment.
	Agents []uint8
	// Exposures, Infections and Recoveries count committed transitions.
	Exposures, Infections, Recoveries int64
	// ContactsSeen counts contact events received.
	ContactsSeen int64
	// inline is what Agents points at in a household of up to
	// len(inline) agents (the paper's have 4), so that a state, a
	// snapshot of it and a decoded copy are one object each, not a struct
	// and a 4-byte array. A HouseholdState must not be copied by value:
	// the copy's Agents would be the original's.
	inline [8]uint8
}

// sizeAgents points Agents at room for n agents of the receiver's own:
// its inline array when they fit, else the heap array it already has
// if that is large enough, else a new one. A zero value is a valid
// receiver, and what it gets is zeroed.
func (s *HouseholdState) sizeAgents(n int) {
	switch {
	case n <= len(s.inline):
		s.Agents = s.inline[:n:n]
	case n <= cap(s.Agents):
		s.Agents = s.Agents[:n]
	default:
		s.Agents = make([]uint8, n)
	}
}

// Clone implements tw.State.
func (s *HouseholdState) Clone() tw.State {
	c := &HouseholdState{}
	c.CopyFrom(s)
	return c
}

// CopyFrom implements tw.StateCopier, reusing the receiver's own room
// for Agents (household sizes are fixed, so after the first copy a
// large household's heap array always suffices).
func (s *HouseholdState) CopyFrom(src tw.State) {
	o := src.(*HouseholdState)
	s.sizeAgents(len(o.Agents))
	copy(s.Agents, o.Agents)
	s.Exposures = o.Exposures
	s.Infections = o.Infections
	s.Recoveries = o.Recoveries
	s.ContactsSeen = o.ContactsSeen
}

// Epidemics is the location-aware SEIR epidemiology model (§2.3.2):
// each LP is a household of agents; infectious agents schedule contact
// events against neighbouring households. A lock-down confines the
// disease to a fraction 1/K of the population: households outside the
// currently unlocked region never get exposed, so their threads go
// quiet and become de-scheduling candidates. The unlocked region shifts
// across the simulated time like the imbalanced PHOLD windows, and each
// window starts with a few exogenous seed infections.
type Epidemics struct {
	cfg       EpidemicsConfig
	windowLen tw.VT
}

// EpidemicsConfig parameterizes the model.
type EpidemicsConfig struct {
	// Threads must equal the engine's NumThreads.
	Threads int
	// LPsPerThread is households per simulation thread (paper: 4096).
	LPsPerThread int
	// AgentsPerHousehold is the constant household size (paper: 4).
	AgentsPerHousehold int
	// LockdownGroups is K: the population is split into K groups and
	// only one is unlocked at a time (paper: 4 for 3/4 lock-down, 8 for
	// 7/8).
	LockdownGroups int
	// EndTime must equal the engine's EndTime.
	EndTime tw.VT
	// IncubationMean is the mean E->I delay.
	IncubationMean float64
	// InfectiousMean is the mean I->R delay.
	InfectiousMean float64
	// ContactRate is mean contact events per infectious agent per unit
	// virtual time.
	ContactRate float64
	// TransmissionProb is the chance a contact exposes a susceptible.
	TransmissionProb float64
	// NeighborhoodRadius bounds contact distance in LP-id space within
	// the unlocked group (location-awareness); 0 selects group-wide.
	NeighborhoodRadius int
	// SeedsPerWindow is the number of exogenous importations scheduled
	// at each window start.
	SeedsPerWindow int
}

// NewEpidemics validates the configuration and returns the model.
func NewEpidemics(cfg EpidemicsConfig) (*Epidemics, error) {
	if cfg.Threads <= 0 {
		return nil, errors.New("epidemics: Threads must be positive")
	}
	if cfg.LPsPerThread <= 0 {
		return nil, errors.New("epidemics: LPsPerThread must be positive")
	}
	if cfg.AgentsPerHousehold <= 0 {
		cfg.AgentsPerHousehold = 4
	}
	if cfg.LockdownGroups <= 0 {
		cfg.LockdownGroups = 1
	}
	if cfg.Threads%cfg.LockdownGroups != 0 {
		return nil, errors.New("epidemics: LockdownGroups must divide Threads")
	}
	if cfg.EndTime <= 0 {
		return nil, errors.New("epidemics: EndTime must be positive")
	}
	// Checked before the defaults below, which NaN (never <= 0) slips
	// past; an infinite rate makes the per-contact float-to-int
	// conversion implementation-defined.
	if !finite(cfg.ContactRate) {
		return nil, errors.New("epidemics: ContactRate must be finite")
	}
	if !finite(cfg.TransmissionProb) || cfg.TransmissionProb > 1 {
		return nil, errors.New("epidemics: TransmissionProb must be a probability")
	}
	if cfg.IncubationMean <= 0 {
		cfg.IncubationMean = 1.0
	}
	if cfg.InfectiousMean <= 0 {
		cfg.InfectiousMean = 2.0
	}
	if cfg.ContactRate <= 0 {
		cfg.ContactRate = 2.0
	}
	if cfg.TransmissionProb <= 0 {
		cfg.TransmissionProb = 0.35
	}
	if cfg.SeedsPerWindow <= 0 {
		cfg.SeedsPerWindow = 3
	}
	return &Epidemics{cfg: cfg, windowLen: cfg.EndTime / tw.VT(cfg.LockdownGroups)}, nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Config returns the validated configuration.
func (m *Epidemics) Config() EpidemicsConfig { return m.cfg }

// LPsPerThread implements tw.Model.
func (m *Epidemics) LPsPerThread() int { return m.cfg.LPsPerThread }

// Window returns the lock-down window index for a virtual time.
func (m *Epidemics) Window(ts tw.VT) int {
	w := int(ts / m.windowLen)
	if w >= m.cfg.LockdownGroups {
		w = m.cfg.LockdownGroups - 1
	}
	if w < 0 {
		w = 0
	}
	return w
}

// groupLPRange returns the [lo, hi) LP-id range of window w's unlocked
// group (consecutive thread blocks).
func (m *Epidemics) groupLPRange(w int) (lo, hi int) {
	groupThreads := m.cfg.Threads / m.cfg.LockdownGroups
	lo = w * groupThreads * m.cfg.LPsPerThread
	hi = lo + groupThreads*m.cfg.LPsPerThread
	return lo, hi
}

// Unlocked reports whether household lp may be exposed at time ts.
func (m *Epidemics) Unlocked(lp int, ts tw.VT) bool {
	lo, hi := m.groupLPRange(m.Window(ts))
	return lp >= lo && lp < hi
}

// InitLP implements tw.Model: all agents susceptible; window-boundary
// seed events target each window's unlocked group.
func (m *Epidemics) InitLP(ic *tw.InitCtx, lp *tw.LP) {
	st := &HouseholdState{}
	st.sizeAgents(m.cfg.AgentsPerHousehold)
	lp.SetState(st)
	if lp.ID != 0 {
		return
	}
	// LP 0 seeds the whole simulation deterministically: a few
	// importations at the start of every lock-down window.
	r := lp.Rand()
	for w := 0; w < m.cfg.LockdownGroups; w++ {
		lo, hi := m.groupLPRange(w)
		for s := 0; s < m.cfg.SeedsPerWindow; s++ {
			ts := tw.VT(w)*m.windowLen + 0.001 + r.Float64()*0.2
			dst := lo + r.Intn(hi-lo)
			ic.ScheduleInit(dst, ts, EvSeed, 0, 0)
		}
	}
}

// OnEvent implements tw.Model.
func (m *Epidemics) OnEvent(ctx *tw.EventCtx) {
	st := ctx.LP().State().(*HouseholdState)
	switch ctx.Event().Kind {
	case EvSeed:
		// Exogenous importation: expose one susceptible agent directly
		// to infectious (skips incubation; it happened elsewhere).
		for i, a := range st.Agents {
			if a == Susceptible {
				st.Agents[i] = Infectious
				st.Infections++
				m.scheduleInfectiousCourse(ctx, i)
				break
			}
		}
	case EvContact:
		st.ContactsSeen++
		if !m.Unlocked(ctx.LP().ID, ctx.Now()) {
			return // curfew: the household cannot be exposed
		}
		if !ctx.Rand().Bernoulli(m.cfg.TransmissionProb) {
			return
		}
		for i, a := range st.Agents {
			if a == Susceptible {
				st.Agents[i] = Exposed
				st.Exposures++
				delay := ctx.Rand().Exponential(m.cfg.IncubationMean) + 0.05
				ctx.Send(ctx.LP().ID, ctx.Now()+delay, EvBecomeInfectious, int64(i), 0)
				break
			}
		}
	case EvBecomeInfectious:
		i := int(ctx.Event().A)
		if st.Agents[i] != Exposed {
			return // rolled-forward duplicate guard; should not happen
		}
		st.Agents[i] = Infectious
		st.Infections++
		m.scheduleInfectiousCourse(ctx, i)
	case EvRecover:
		i := int(ctx.Event().A)
		if st.Agents[i] == Infectious {
			st.Agents[i] = Recovered
			st.Recoveries++
		}
	}
}

// scheduleInfectiousCourse schedules the agent's recovery and its
// contact events against neighbouring unlocked households.
func (m *Epidemics) scheduleInfectiousCourse(ctx *tw.EventCtx, agent int) {
	r := ctx.Rand()
	duration := r.Exponential(m.cfg.InfectiousMean) + 0.1
	ctx.Send(ctx.LP().ID, ctx.Now()+duration, EvRecover, int64(agent), 0)
	// Contacts are Poisson over the infectious period.
	nContacts := int(m.cfg.ContactRate*duration + r.Float64())
	for c := 0; c < nContacts; c++ {
		when := ctx.Now() + r.Uniform(0.01, duration)
		dst := m.pickContact(ctx, when)
		ctx.Send(dst, when, EvContact, 0, 0)
	}
}

// pickContact chooses a contact household: nearby in LP-id space
// (location awareness), clipped to the window's unlocked group.
func (m *Epidemics) pickContact(ctx *tw.EventCtx, when tw.VT) int {
	r := ctx.Rand()
	lo, hi := m.groupLPRange(m.Window(when))
	if m.cfg.NeighborhoodRadius > 0 {
		self := ctx.LP().ID
		n := self + r.Intn(2*m.cfg.NeighborhoodRadius+1) - m.cfg.NeighborhoodRadius
		if n >= lo && n < hi {
			return n
		}
	}
	return lo + r.Intn(hi-lo)
}
