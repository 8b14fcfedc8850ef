package models

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"ggpdes/internal/core"
	"ggpdes/internal/gvt"
	"ggpdes/internal/machine"
	"ggpdes/internal/tw"
)

// run runs model to its end time through the stack a simulation runs
// on — machine, engine and a GG-PDES runner with the wait-free GVT, as
// internal/tw's oracle builds them, on a machine bounded at 2^20 ticks
// — calling onGVT, when non-nil, at every GVT publication, and returns
// the finished engine with its invariants checked.
func run(t *testing.T, model tw.Model, threads int, end tw.VT, seed uint64, onGVT func(*tw.Engine)) *tw.Engine {
	t.Helper()
	mcfg := machine.Small()
	mcfg.MaxTicks = 1 << 20
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	var eng *tw.Engine
	cfg := tw.Config{NumThreads: threads, Model: model, EndTime: end, Seed: seed}
	if onGVT != nil {
		cfg.OnGVT = func(tw.VT) { onGVT(eng) }
	}
	if eng, err = tw.NewEngine(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewRunner(core.Config{
		Machine: m, Engine: eng, System: core.GGPDES, GVTKind: gvt.WaitFree,
		GVTFrequency: 1, ZeroCounterThreshold: 60,
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !eng.Done() {
		t.Fatalf("run ended at GVT %v before end time %v", eng.GVT(), end)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// ---------- PHOLD ----------

func TestPHOLDValidation(t *testing.T) {
	cases := []PHOLDConfig{
		{Threads: 0, LPsPerThread: 1, EndTime: 1},
		{Threads: 1, LPsPerThread: 0, EndTime: 1},
		{Threads: 4, LPsPerThread: 1, EndTime: 1, Imbalance: 3}, // 3 does not divide 4
		{Threads: 1, LPsPerThread: 1, EndTime: 0},
	}
	for i, cfg := range cases {
		if _, err := NewPHOLD(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPHOLDDefaults(t *testing.T) {
	m, err := NewPHOLD(PHOLDConfig{Threads: 2, LPsPerThread: 2, EndTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	if cfg.Imbalance != 1 || cfg.LookaheadMin != 0.1 || cfg.LookaheadMean != 0.9 || cfg.StartEventsPerLP != 1 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestPHOLDWindows(t *testing.T) {
	m, _ := NewPHOLD(PHOLDConfig{Threads: 8, LPsPerThread: 2, EndTime: 40, Imbalance: 4})
	cases := map[tw.VT]int{0: 0, 9.99: 0, 10: 1, 25: 2, 39.9: 3, 40: 3, 100: 3}
	for ts, want := range cases {
		if got := m.Window(ts); got != want {
			t.Errorf("Window(%v) = %d, want %d", ts, got, want)
		}
	}
}

func TestPHOLDLinearGroups(t *testing.T) {
	m, _ := NewPHOLD(PHOLDConfig{Threads: 8, LPsPerThread: 2, EndTime: 40, Imbalance: 4})
	if m.GroupSize() != 2 {
		t.Fatalf("GroupSize = %d", m.GroupSize())
	}
	// Window 1 should own threads 2, 3.
	if m.ActiveThread(1, 0) != 2 || m.ActiveThread(1, 1) != 3 {
		t.Fatalf("linear group wrong: %d, %d", m.ActiveThread(1, 0), m.ActiveThread(1, 1))
	}
	if !m.IsActiveThread(1, 2) || m.IsActiveThread(1, 4) {
		t.Fatal("IsActiveThread wrong for linear groups")
	}
}

func TestPHOLDNonLinearGroups(t *testing.T) {
	m, _ := NewPHOLD(PHOLDConfig{Threads: 8, LPsPerThread: 2, EndTime: 40, Imbalance: 4, NonLinear: true})
	// Window 1 owns threads 1, 5 (ids ≡ 1 mod 4).
	if m.ActiveThread(1, 0) != 1 || m.ActiveThread(1, 1) != 5 {
		t.Fatalf("non-linear group wrong: %d, %d", m.ActiveThread(1, 0), m.ActiveThread(1, 1))
	}
	if !m.IsActiveThread(1, 5) || m.IsActiveThread(1, 2) {
		t.Fatal("IsActiveThread wrong for non-linear groups")
	}
}

// Property: every generated destination thread belongs to the window's
// active group, for arbitrary windows and draws.
func TestQuickPHOLDDestinationsInActiveGroup(t *testing.T) {
	m, _ := NewPHOLD(PHOLDConfig{Threads: 16, LPsPerThread: 4, EndTime: 80, Imbalance: 8, NonLinear: true})
	f := func(w uint8, i uint8) bool {
		win := int(w) % 8
		idx := int(i) % m.GroupSize()
		tid := m.ActiveThread(win, idx)
		return tid >= 0 && tid < 16 && m.IsActiveThread(win, tid)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPHOLDEventPopulationConserved(t *testing.T) {
	m, _ := NewPHOLD(PHOLDConfig{Threads: 4, LPsPerThread: 4, EndTime: 25, Imbalance: 2})
	eng := run(t, m, 4, 25, 7, nil)
	s := eng.TotalStats()
	if s.Committed == 0 {
		t.Fatal("nothing committed")
	}
	var stateTotal int64
	for _, lp := range eng.LPs() {
		stateTotal += lp.State().(*PHOLDState).Processed
	}
	if uint64(stateTotal) != s.Committed {
		t.Fatalf("state counters %d != committed %d", stateTotal, s.Committed)
	}
}

// Temporal execution locality: chains must chew through window w's
// events (owned by group w) before producing window w+1 traffic, so
// groups become busy strictly in window order.
func TestPHOLDImbalanceActivatesGroupsInOrder(t *testing.T) {
	const threads, lpsPer, K = 8, 2, 4
	m, _ := NewPHOLD(PHOLDConfig{Threads: threads, LPsPerThread: lpsPer, EndTime: 40, Imbalance: K})
	// Each thread owns lpsPer initial events; "busy" means it processed
	// well beyond those, i.e. received real window traffic.
	const busyThreshold = 20
	firstBusy := [K]int{}
	for g := range firstBusy {
		firstBusy[g] = -1
	}
	round := 0
	run(t, m, threads, 40, 11, func(eng *tw.Engine) {
		round++
		for g := 0; g < K; g++ {
			if firstBusy[g] >= 0 {
				continue
			}
			var sum uint64
			for i := 0; i < threads/K; i++ {
				sum += eng.Peer(m.ActiveThread(g, i)).Stats.Processed
			}
			if sum >= busyThreshold {
				firstBusy[g] = round
			}
		}
	})
	for g := 0; g < K; g++ {
		if firstBusy[g] < 0 {
			t.Fatalf("group %d never became busy: %v", g, firstBusy)
		}
	}
	for g := 1; g < K; g++ {
		if firstBusy[g] < firstBusy[g-1] {
			t.Fatalf("group %d busy at GVT round %d before group %d at %d",
				g, firstBusy[g], g-1, firstBusy[g-1])
		}
	}
}

// ---------- Epidemics ----------

func TestEpidemicsValidation(t *testing.T) {
	cases := []EpidemicsConfig{
		{Threads: 0, LPsPerThread: 1, EndTime: 1},
		{Threads: 1, LPsPerThread: 0, EndTime: 1},
		{Threads: 4, LPsPerThread: 1, EndTime: 1, LockdownGroups: 3},
		{Threads: 1, LPsPerThread: 1, EndTime: 0},
	}
	for i, cfg := range cases {
		if _, err := NewEpidemics(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEpidemicsUnlockedRegionShifts(t *testing.T) {
	m, _ := NewEpidemics(EpidemicsConfig{Threads: 8, LPsPerThread: 4, EndTime: 40, LockdownGroups: 4})
	// Window 0: LPs 0..7 unlocked; window 2: LPs 16..23.
	if !m.Unlocked(3, 1) || m.Unlocked(16, 1) {
		t.Fatal("window 0 region wrong")
	}
	if !m.Unlocked(17, 22) || m.Unlocked(3, 22) {
		t.Fatal("window 2 region wrong")
	}
}

func TestEpidemicsRunsAndInfects(t *testing.T) {
	m, _ := NewEpidemics(EpidemicsConfig{
		Threads: 4, LPsPerThread: 8, EndTime: 20, LockdownGroups: 4,
		ContactRate: 3, TransmissionProb: 0.5,
	})
	eng := run(t, m, 4, 20, 3, nil)
	var exposures, infections, recoveries int64
	locked := 0
	for _, lp := range eng.LPs() {
		st := lp.State().(*HouseholdState)
		exposures += st.Exposures
		infections += st.Infections
		recoveries += st.Recoveries
		for _, a := range st.Agents {
			if a > Recovered {
				t.Fatalf("invalid agent state %d", a)
			}
		}
		if st.Exposures == 0 && st.Infections == 0 {
			locked++
		}
	}
	if infections == 0 {
		t.Fatal("epidemic never took off")
	}
	// Infections include seeds (no exposure step), so infections >=
	// recoveries is the only safe ordering; every exposure eventually
	// becomes infectious or stays exposed at end.
	if recoveries > infections {
		t.Fatalf("recoveries %d > infections %d", recoveries, infections)
	}
	_ = locked // many runs leave untouched households, but seeds reach every group
}

func TestEpidemicsSEIRMonotonicity(t *testing.T) {
	// Agent states only move S -> E -> I -> R; verify via committed
	// counters: exposures >= infections via E (infections also come
	// from seeds), recoveries <= infections.
	m, _ := NewEpidemics(EpidemicsConfig{
		Threads: 2, LPsPerThread: 8, EndTime: 30, LockdownGroups: 2,
		ContactRate: 2, TransmissionProb: 0.4, SeedsPerWindow: 2,
	})
	eng := run(t, m, 2, 30, 5, nil)
	var st HouseholdState
	seeds := int64(2 * 2) // SeedsPerWindow × LockdownGroups
	for _, lp := range eng.LPs() {
		s := lp.State().(*HouseholdState)
		st.Exposures += s.Exposures
		st.Infections += s.Infections
		st.Recoveries += s.Recoveries
	}
	if st.Infections > st.Exposures+seeds {
		t.Fatalf("infections %d exceed exposures %d + seeds %d", st.Infections, st.Exposures, seeds)
	}
	if st.Recoveries > st.Infections {
		t.Fatalf("recoveries %d exceed infections %d", st.Recoveries, st.Infections)
	}
}

// Lock-down confinement: every contact event's destination must be
// unlocked at the contact's virtual time, so a household can only
// accumulate exposures while its group's window is open. Checked on
// every contact the run executes, speculative ones included, and every
// group must see exposures in its window.
func TestEpidemicsLockdownConfinesSpread(t *testing.T) {
	const threads, K = 8, 4
	m, _ := NewEpidemics(EpidemicsConfig{
		Threads: threads, LPsPerThread: 4, EndTime: 40, LockdownGroups: K,
		ContactRate: 3, TransmissionProb: 0.5, SeedsPerWindow: 3,
	})
	c := &contactCheck{Epidemics: m}
	eng := run(t, c, threads, 40, 9, nil)
	if c.contacts == 0 || c.locked > 0 {
		t.Fatalf("%d of %d contacts reached a household locked at the contact's time", c.locked, c.contacts)
	}
	for g := 0; g < K; g++ {
		lo, hi := m.groupLPRange(g)
		var exposures int64
		for _, lp := range eng.LPs()[lo:hi] {
			exposures += lp.State().(*HouseholdState).Exposures
		}
		if exposures == 0 {
			t.Errorf("group %d never exposed", g)
		}
	}
}

// contactCheck counts the contacts Epidemics executes and those whose
// household is locked at the contact's time.
type contactCheck struct {
	*Epidemics
	contacts, locked int
}

func (c *contactCheck) OnEvent(ctx *tw.EventCtx) {
	if ev := ctx.Event(); ev.Kind == EvContact {
		c.contacts++
		if !c.Unlocked(ev.Dst, ev.Ts) {
			c.locked++
		}
	}
	c.Epidemics.OnEvent(ctx)
}

// ---------- Traffic ----------

func TestTrafficValidation(t *testing.T) {
	cases := []TrafficConfig{
		{Threads: 0, LPsPerThread: 1},
		{Threads: 1, LPsPerThread: 0},
		{Threads: 2, LPsPerThread: 3}, // 6 not a perfect square
	}
	for i, cfg := range cases {
		if _, err := NewTraffic(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTrafficGridGeometry(t *testing.T) {
	m, _ := NewTraffic(TrafficConfig{Threads: 4, LPsPerThread: 4}) // 16 LPs = 4x4
	if m.GridSide() != 4 {
		t.Fatalf("grid side = %d", m.GridSide())
	}
	// Neighbor stepping with boundary reflection.
	if m.neighbor(0, West) == 0 && m.GridSide() > 1 {
		// reflection sends it inward, never self for grid > 2
		t.Log("west reflection at corner:", m.neighbor(0, West))
	}
	n := m.neighbor(5, East) // (1,1) -> (2,1) = 6
	if n != 6 {
		t.Fatalf("neighbor(5, East) = %d, want 6", n)
	}
	n = m.neighbor(5, South) // (1,1) -> (1,2) = 9
	if n != 9 {
		t.Fatalf("neighbor(5, South) = %d, want 9", n)
	}
}

// Property: neighbours are always valid LPs and adjacent or reflected.
func TestQuickTrafficNeighborsValid(t *testing.T) {
	m, _ := NewTraffic(TrafficConfig{Threads: 4, LPsPerThread: 16}) // 8x8
	f := func(lpRaw uint8, dirRaw uint8) bool {
		lp := int(lpRaw) % 64
		dir := int64(dirRaw) % 4
		n := m.neighbor(lp, dir)
		return n >= 0 && n < 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrafficDensityDecaysFromCenter(t *testing.T) {
	for _, g := range []float64{0.35, 0.5} {
		m, _ := NewTraffic(TrafficConfig{Threads: 4, LPsPerThread: 16, DensityGradient: g})
		center := m.lpAt(3, 3) // near centre of 8x8
		corner := m.lpAt(0, 0)
		if m.StartEvents(center) <= m.StartEvents(corner) {
			t.Fatalf("gradient %v: centre %d <= corner %d", g, m.StartEvents(center), m.StartEvents(corner))
		}
		if m.StartEvents(center) > m.Config().CenterStartEvents {
			t.Fatalf("centre exceeds CenterStartEvents")
		}
	}
}

func TestTrafficHigherGradientMoreCentralized(t *testing.T) {
	lo, _ := NewTraffic(TrafficConfig{Threads: 4, LPsPerThread: 16, DensityGradient: 0.35})
	hi, _ := NewTraffic(TrafficConfig{Threads: 4, LPsPerThread: 16, DensityGradient: 0.5})
	corner := 0
	if hi.StartEvents(corner) > lo.StartEvents(corner) {
		t.Fatal("higher gradient should strip the periphery")
	}
}

func TestTrafficRunsAndConservesVehicles(t *testing.T) {
	m, _ := NewTraffic(TrafficConfig{Threads: 4, LPsPerThread: 4, CenterStartEvents: 6})
	eng := run(t, m, 4, 15, 13, nil)
	var arrivals, departures, queued int64
	for _, lp := range eng.LPs() {
		st := lp.State().(*IntersectionState)
		arrivals += st.Arrivals
		departures += st.Departures
		queued += st.Queued
		if st.Queued < 0 {
			t.Fatalf("negative queue at LP %d", lp.ID)
		}
	}
	if arrivals == 0 {
		t.Fatal("no vehicles moved")
	}
	// Vehicles in flight or queued: arrivals - departures = queued.
	if arrivals-departures != queued {
		t.Fatalf("conservation violated: arrivals %d - departures %d != queued %d", arrivals, departures, queued)
	}
}

func TestTrafficCenterBusierThanPeriphery(t *testing.T) {
	m, _ := NewTraffic(TrafficConfig{Threads: 4, LPsPerThread: 16, DensityGradient: 0.5, CenterStartEvents: 12})
	eng := run(t, m, 4, 10, 17, nil)
	var center, corner int64
	side := m.GridSide()
	for _, lp := range eng.LPs() {
		st := lp.State().(*IntersectionState)
		x, y := lp.ID%side, lp.ID/side
		if (x == 3 || x == 4) && (y == 3 || y == 4) {
			center += st.Arrivals
		}
		if (x <= 1 || x >= side-2) && (y <= 1 || y >= side-2) {
			corner += st.Arrivals
		}
	}
	// 4 centre cells vs 16 corner cells: per-cell centre activity must
	// dominate.
	if center/4 <= corner/16 {
		t.Fatalf("centre per-cell %d <= corner per-cell %d", center/4, corner/16)
	}
}

// tw.StateCopier promises that a zero value is a valid CopyFrom
// receiver: the engine carves snapshot memory from chunks of the
// state's element type, and what it carves is a zero value no
// constructor has seen. For all three models, on the states a run
// leaves, CopyFrom into a zero value must equal Clone and share nothing
// with its source.
func TestCopyFromIntoZeroValueMatchesClone(t *testing.T) {
	phold, _ := NewPHOLD(PHOLDConfig{Threads: 4, LPsPerThread: 4, EndTime: 25, Imbalance: 2})
	epidemics, _ := NewEpidemics(EpidemicsConfig{
		Threads: 4, LPsPerThread: 8, EndTime: 25, LockdownGroups: 4,
		ContactRate: 3, TransmissionProb: 0.5, SeedsPerWindow: 3,
	})
	traffic, _ := NewTraffic(TrafficConfig{Threads: 4, LPsPerThread: 4, CenterStartEvents: 8})
	for name, model := range map[string]tw.Model{"phold": phold, "epidemics": epidemics, "traffic": traffic} {
		t.Run(name, func(t *testing.T) {
			eng := run(t, model, 4, 25, 31, nil)
			touched := 0
			for _, lp := range eng.LPs() {
				src := lp.State()
				typ := reflect.TypeOf(src)
				fresh := reflect.New(typ.Elem())
				if !reflect.DeepEqual(src, fresh.Interface()) {
					touched++
				}
				dst := fresh.Interface().(tw.StateCopier)
				dst.CopyFrom(src)
				if clone := src.Clone(); !reflect.DeepEqual(dst, clone) {
					t.Fatalf("LP %d: CopyFrom into a zero value gave %+v, Clone %+v", lp.ID, dst, clone)
				}
				if h, ok := src.(*HouseholdState); ok && len(h.Agents) > 0 &&
					&h.Agents[0] == &dst.(*HouseholdState).Agents[0] {
					t.Fatalf("LP %d: the copy shares its source's Agents", lp.ID)
				}
			}
			if touched == 0 {
				t.Fatal("vacuous: every state is still a zero value")
			}
		})
	}
}

// A household's agents live inside its state up to eight of them (the
// paper's households have four) and on the heap above that, and nothing
// outside the state can tell: for sizes on both sides of the line, states
// taken from a finished run encode to the bytes they always did — count,
// agents, four counters — and Clone, CopyFrom (into a zero value, a
// recycled small state and a recycled large one) and DecodeState give
// equal Agents that share no memory with their source. What the flat
// state buys is counted: a copy, a clone and a decode allocate one object
// less each, and CopyFrom nothing at all once the receiver has room; a
// decode takes its state from the block InitLP carves from, so only the
// agents of a household above eight cost it an object.
func TestHouseholdAgentsStayWithTheState(t *testing.T) {
	for _, agents := range []int{1, 4, 8, 9, 33} {
		m, err := NewEpidemics(EpidemicsConfig{
			Threads: 2, LPsPerThread: 8, AgentsPerHousehold: agents, EndTime: 20, LockdownGroups: 2,
			ContactRate: 3, TransmissionProb: 0.5, SeedsPerWindow: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := run(t, m, 2, 20, 11, nil)
		infected := 0
		for _, lp := range eng.LPs() {
			src := lp.State().(*HouseholdState)
			if len(src.Agents) != agents {
				t.Fatalf("%d agents: LP %d has %d", agents, lp.ID, len(src.Agents))
			}
			if src.Infections > 0 {
				infected++
			}
			want := appendI64(nil, int64(agents))
			want = append(want, src.Agents...)
			for _, v := range []int64{src.Exposures, src.Infections, src.Recoveries, src.ContactsSeen} {
				want = appendI64(want, v)
			}
			enc, err := m.EncodeState(nil, src)
			if err != nil || !reflect.DeepEqual(enc, want) {
				t.Fatalf("%d agents: LP %d encodes to %x (err %v), want %x", agents, lp.ID, enc, err, want)
			}
			decoded, err := m.DecodeState(enc)
			if err != nil {
				t.Fatal(err)
			}
			copyInto := func(had int) tw.State {
				dst := &HouseholdState{}
				if had > 0 {
					dst.sizeAgents(had)
				}
				dst.CopyFrom(src)
				return dst
			}
			for name, dst := range map[string]tw.State{
				"Clone": src.Clone(), "DecodeState": decoded,
				"CopyFrom into a zero value": copyInto(0), "CopyFrom into a small state": copyInto(2), "CopyFrom into a large state": copyInto(40),
			} {
				got := dst.(*HouseholdState)
				if !reflect.DeepEqual(got.Agents, src.Agents) || got.Exposures != src.Exposures || got.Infections != src.Infections ||
					got.Recoveries != src.Recoveries || got.ContactsSeen != src.ContactsSeen {
					t.Fatalf("%d agents: LP %d: %s gave %+v, want %+v", agents, lp.ID, name, got, src)
				}
				if &got.Agents[0] == &src.Agents[0] {
					t.Fatalf("%d agents: LP %d: %s shares its source's Agents", agents, lp.ID, name)
				}
				if again, err := m.EncodeState(nil, got); err != nil || !reflect.DeepEqual(again, want) {
					t.Fatalf("%d agents: LP %d: %s re-encodes to %x (err %v), want %x", agents, lp.ID, name, again, err, want)
				}
			}
		}
		if infected == 0 {
			t.Fatalf("%d agents: vacuous, no household was infected", agents)
		}

		src := eng.LPs()[0].State().(*HouseholdState)
		enc, _ := m.EncodeState(nil, src)
		objects := 1 // the state; above eight agents, their array too
		if agents > 8 {
			objects = 2
		}
		var sink tw.State
		if n := testing.AllocsPerRun(100, func() { sink = src.Clone() }); n != float64(objects) {
			t.Errorf("%d agents: Clone allocates %v objects, want %d", agents, n, objects)
		}
		// A decoded state is carved from the model's slab, which hands
		// out one block per 16 states here: 101 decodes take 7 blocks,
		// which AllocsPerRun's whole-number average reads as 0.
		if n := testing.AllocsPerRun(100, func() { sink, _ = m.DecodeState(enc) }); n != float64(objects-1) {
			t.Errorf("%d agents: DecodeState allocates %v objects, want %d", agents, n, objects-1)
		}
		recycled := sink.(*HouseholdState)
		if n := testing.AllocsPerRun(100, func() { recycled.CopyFrom(src) }); n != 0 {
			t.Errorf("%d agents: CopyFrom into a recycled state allocates %v objects, want 0", agents, n)
		}
	}
}

// An agent count no state of that length can hold is an error, not an
// index out of range.
func TestEpidemicsDecodeRejectsWrappedAgentCount(t *testing.T) {
	m, _ := NewEpidemics(EpidemicsConfig{Threads: 1, LPsPerThread: 1, EndTime: 1})
	data := make([]byte, 16)
	binary.LittleEndian.PutUint64(data, math.MaxUint64-23) // 8 + n + 32 wraps to 16
	if st, err := m.DecodeState(data); err == nil {
		t.Fatalf("decoded %+v from a 16-byte state", st)
	}
}
