package models

import (
	"errors"
	"math"

	"ggpdes/internal/slab"
	"ggpdes/internal/tw"
)

// Traffic event kinds.
const (
	// EvArrival is a vehicle arriving at an intersection.
	EvArrival uint8 = iota
	// EvLaneSelect is a vehicle choosing its outbound lane.
	EvLaneSelect
	// EvDeparture is a vehicle leaving toward a neighbour.
	EvDeparture
)

// Cardinal directions, encoded in event payload B.
const (
	North int64 = iota
	East
	South
	West
)

// IntersectionState is one LP's state: a city intersection.
type IntersectionState struct {
	// Queued is the number of vehicles currently at the intersection.
	Queued int64
	// Arrivals, Departures count committed vehicle movements.
	Arrivals, Departures int64
}

// Clone implements tw.State.
func (s *IntersectionState) Clone() tw.State {
	c := *s
	return &c
}

// CopyFrom implements tw.StateCopier, letting the engine recycle
// snapshot memory instead of cloning.
func (s *IntersectionState) CopyFrom(src tw.State) {
	*s = *src.(*IntersectionState)
}

// Traffic is the ROSS traffic model variant of §2.3.3: vehicles move
// through a grid of intersections via arrival, lane-selection and
// departure events; each LP communicates with its four cardinal
// neighbours. Initial vehicles per intersection decay with distance
// from the city centre by an inverse power law (1+d)^-gradient, so
// central threads stay busy while the periphery idles — limited,
// spatially-fixed execution locality, unlike PHOLD's shifting windows.
type Traffic struct {
	cfg    TrafficConfig
	grid   int                          // grid side length; total LPs = grid*grid
	states slab.Slab[IntersectionState] // where InitLP carves the LP states from
}

// TrafficConfig parameterizes the model.
type TrafficConfig struct {
	// Threads must equal the engine's NumThreads.
	Threads int
	// LPsPerThread is intersections per thread (paper: 96). Threads ×
	// LPsPerThread must be a perfect square (the city grid).
	LPsPerThread int
	// DensityGradient is the inverse-power exponent (paper: 0.35, 0.5).
	DensityGradient float64
	// CenterStartEvents is the city-centre LP's initial vehicle count
	// (paper: 24).
	CenterStartEvents int
	// ServiceMean is the mean signal/queueing delay at an intersection.
	ServiceMean float64
	// BurrC and BurrK shape the travel-time distribution (paper: 12.4,
	// 0.46).
	BurrC, BurrK float64
	// CenterBias is the probability a departure heads toward the city
	// centre rather than uniformly; keeps density centralized.
	CenterBias float64
}

// NewTraffic validates the configuration and returns the model.
func NewTraffic(cfg TrafficConfig) (*Traffic, error) {
	if cfg.Threads <= 0 {
		return nil, errors.New("traffic: Threads must be positive")
	}
	if cfg.LPsPerThread <= 0 {
		return nil, errors.New("traffic: LPsPerThread must be positive")
	}
	n := cfg.Threads * cfg.LPsPerThread
	side := int(math.Round(math.Sqrt(float64(n))))
	if side*side != n {
		return nil, errors.New("traffic: Threads*LPsPerThread must be a perfect square")
	}
	if !finite(cfg.DensityGradient) { // before the default, which NaN slips past
		return nil, errors.New("traffic: DensityGradient must be finite")
	}
	if cfg.DensityGradient <= 0 {
		cfg.DensityGradient = 0.35
	}
	if cfg.CenterStartEvents <= 0 {
		cfg.CenterStartEvents = 24
	}
	if cfg.ServiceMean <= 0 {
		cfg.ServiceMean = 0.2
	}
	if cfg.BurrC <= 0 {
		cfg.BurrC = 12.4
	}
	if cfg.BurrK <= 0 {
		cfg.BurrK = 0.46
	}
	if cfg.CenterBias <= 0 {
		cfg.CenterBias = 0.3
	}
	return &Traffic{cfg: cfg, grid: side, states: slab.Slab[IntersectionState]{Min: n, Max: n}}, nil
}

// Config returns the validated configuration.
func (m *Traffic) Config() TrafficConfig { return m.cfg }

// GridSide returns the city grid's side length.
func (m *Traffic) GridSide() int { return m.grid }

// LPsPerThread implements tw.Model.
func (m *Traffic) LPsPerThread() int { return m.cfg.LPsPerThread }

// coords maps an LP id to grid coordinates (row-major).
func (m *Traffic) coords(lp int) (x, y int) { return lp % m.grid, lp / m.grid }

// lpAt maps grid coordinates to an LP id.
func (m *Traffic) lpAt(x, y int) int { return y*m.grid + x }

// centerDistance is the Euclidean distance from the grid centre.
func (m *Traffic) centerDistance(lp int) float64 {
	x, y := m.coords(lp)
	cx, cy := float64(m.grid-1)/2, float64(m.grid-1)/2
	dx, dy := float64(x)-cx, float64(y)-cy
	return math.Sqrt(dx*dx + dy*dy)
}

// StartEvents returns the initial vehicle count for an LP: the centre
// count scaled by the inverse-power density weight.
func (m *Traffic) StartEvents(lp int) int {
	w := math.Pow(1+m.centerDistance(lp), -m.cfg.DensityGradient)
	return int(math.Round(float64(m.cfg.CenterStartEvents) * w))
}

// InitLP implements tw.Model.
func (m *Traffic) InitLP(ic *tw.InitCtx, lp *tw.LP) {
	lp.SetState(m.states.New())
	r := lp.Rand()
	for k := 0; k < m.StartEvents(lp.ID); k++ {
		ic.ScheduleInit(lp.ID, r.Uniform(0, 0.5), EvArrival, int64(lp.ID)<<8|int64(k), 0)
	}
}

// neighbor returns the LP one step in the given direction, reflecting
// at the city boundary.
func (m *Traffic) neighbor(lp int, dir int64) int {
	x, y := m.coords(lp)
	switch dir {
	case North:
		y--
	case South:
		y++
	case East:
		x++
	case West:
		x--
	}
	if x < 0 {
		x = 1
	}
	if x >= m.grid {
		x = m.grid - 2
	}
	if y < 0 {
		y = 1
	}
	if y >= m.grid {
		y = m.grid - 2
	}
	if x < 0 || x >= m.grid || y < 0 || y >= m.grid {
		// Degenerate 1x1 grid.
		return lp
	}
	return m.lpAt(x, y)
}

// towardCenter returns a direction that moves the LP toward the centre.
func (m *Traffic) towardCenter(lp int, r interface{ Intn(int) int }) int64 {
	x, y := m.coords(lp)
	cx, cy := (m.grid-1)/2, (m.grid-1)/2
	// At most one option per axis.
	var opts [2]int64
	n := 0
	if x < cx {
		opts[n] = East
		n++
	}
	if x > cx {
		opts[n] = West
		n++
	}
	if y < cy {
		opts[n] = South
		n++
	}
	if y > cy {
		opts[n] = North
		n++
	}
	if n == 0 {
		return int64(r.Intn(4))
	}
	return opts[r.Intn(n)]
}

// OnEvent implements tw.Model.
func (m *Traffic) OnEvent(ctx *tw.EventCtx) {
	st := ctx.LP().State().(*IntersectionState)
	r := ctx.Rand()
	ev := ctx.Event()
	switch ev.Kind {
	case EvArrival:
		st.Arrivals++
		st.Queued++
		// Queue at the signal, then select a lane.
		service := r.Exponential(m.cfg.ServiceMean) + 0.02
		ctx.Send(ctx.LP().ID, ctx.Now()+service, EvLaneSelect, ev.A, 0)
	case EvLaneSelect:
		var dir int64
		if r.Bernoulli(m.cfg.CenterBias) {
			dir = m.towardCenter(ctx.LP().ID, r)
		} else {
			dir = int64(r.Intn(4))
		}
		ctx.Send(ctx.LP().ID, ctx.Now()+0.01, EvDeparture, ev.A, dir)
	case EvDeparture:
		st.Queued--
		st.Departures++
		travel := r.Burr(m.cfg.BurrC, m.cfg.BurrK) + 0.05
		dst := m.neighbor(ctx.LP().ID, ev.B)
		ctx.Send(dst, ctx.Now()+travel, EvArrival, ev.A, 0)
	}
}
