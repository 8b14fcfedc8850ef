package tw

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ggpdes/internal/telemetry"
)

// A KP's linked history behaves exactly like the plain slice it
// replaced: random executions, straggler rollbacks and fossil
// collections, through the engine's own rollback and FossilCollect,
// leave the same events in the same order, report the same counts, and
// answer the straggler test the same way as a slice reference driven
// by the same operations.
func TestHistoryMatchesSliceReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		eng, err := NewEngine(Config{
			NumThreads: 1, Model: &ringModel{lpsPerThread: 3}, LPsPerKP: 3,
			EndTime: math.Inf(1), Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		p, kp := eng.Peer(0), eng.Peer(0).kps[0]
		rnd := rand.New(rand.NewSource(seed))
		cpu := &fakeCPU{}
		var ref []*Event
		var gvt VT
		// key draws a timestamp at or above lo on a coarse grid, so that
		// ties broken by Seq are common.
		key := func(lo VT) *Event {
			return &Event{Ts: lo + float64(rnd.Intn(4))/2, Seq: eng.nextSeq()}
		}
		for step := 0; step < 400; step++ {
			switch op := rnd.Intn(10); {
			case op < 6: // execute: a key no earlier than the newest
				lo := gvt
				if n := len(ref); n > 0 {
					lo = ref[n-1].Ts
				}
				ev := p.allocEvent()
				k := key(lo)
				ev.Ts, ev.Seq, ev.Dst = k.Ts, k.Seq, rnd.Intn(3)
				ev.saved.state = p.acquireSnapshot(eng.lps[ev.Dst])
				ev.state = StateProcessed
				kp.push(ev)
				eng.noteProcessed(1)
				ref = append(ref, ev)
			case op < 8: // a straggler at or above GVT rolls back
				upto := key(gvt)
				upto.Seq = uint64(rnd.Int63n(int64(eng.seq) + 1))
				want := 0
				for len(ref) > 0 && !ref[len(ref)-1].before(upto) {
					ref = ref[:len(ref)-1]
					want++
				}
				if got := p.rollback(kp, upto); got != want {
					t.Fatalf("seed %d step %d: rollback undid %d events, want %d", seed, step, got, want)
				}
			default: // GVT advances and the prefix below it commits
				gvt += float64(rnd.Intn(3)) / 2
				eng.gvt = gvt
				want := 0
				for len(ref) > 0 && ref[0].Ts < gvt {
					ref = ref[1:]
					want++
				}
				if got := p.FossilCollect(cpu, gvt); got != want {
					t.Fatalf("seed %d step %d: fossil collection committed %d events, want %d", seed, step, got, want)
				}
			}
			if err := eng.checkHistory(kp); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			i := 0
			for ev := kp.head; ev != nil; ev = ev.next {
				if i >= len(ref) || ev != ref[i] {
					t.Fatalf("seed %d step %d: history diverges from the reference at %d", seed, step, i)
				}
				i++
			}
			if i != len(ref) || kp.UncommittedEvents() != len(ref) || eng.uncommitted != len(ref) {
				t.Fatalf("seed %d step %d: history holds %d (count %d, engine %d), reference %d",
					seed, step, i, kp.UncommittedEvents(), eng.uncommitted, len(ref))
			}
			probe := key(gvt)
			probe.Seq = uint64(rnd.Int63n(int64(eng.seq) + 1))
			if want := len(ref) > 0 && probe.before(ref[len(ref)-1]); kp.straggles(probe) != want {
				t.Fatalf("seed %d step %d: straggles(%v) = %t, want %t", seed, step, probe, !want, want)
			}
		}
	}
}

// otherRing is a second StateCopier type that behaves exactly like
// ringState; otherClones counts its Clones.
type otherRing ringState

var otherClones int

func (s *otherRing) Clone() State       { otherClones++; c := *s; return &c }
func (s *otherRing) CopyFrom(src State) { *s = *src.(*otherRing) }

// mixedRing is the ring model with every odd LP's state an otherRing.
type mixedRing struct{ ringModel }

func (m *mixedRing) InitLP(ic *InitCtx, lp *LP) {
	m.ringModel.InitLP(ic, lp)
	if lp.ID%2 == 1 {
		lp.SetState((*otherRing)(lp.State().(*ringState)))
	}
}

func (m *mixedRing) OnEvent(ctx *EventCtx) {
	st, ok := ctx.LP().State().(*ringState)
	if !ok {
		st = (*ringState)(ctx.LP().State().(*otherRing))
	}
	ringStep(ctx, st)
}

// A peer that hosts a second state type pools only the first: the
// second keeps the Clone path it always had, and every LP counts its
// hits, misses and recycled snapshots exactly as it would with one type
// — the same trajectory and the same six pool counters as the ring
// model, whose states are all of the pooled type.
func TestSecondStateTypeKeepsCloneAndCounts(t *testing.T) {
	run := func(model Model) (*Engine, map[string]uint64) {
		cfg := spareCfg()
		cfg.Model = model
		cfg.Telemetry = telemetry.NewRegistry()
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		driveRounds(eng, 100)
		if err := eng.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		eng.FlushPoolStats()
		return eng, cfg.Telemetry.Counters()
	}
	one, oneCounters := run(&ringModel{lpsPerThread: 4, startPerLP: 3})
	otherClones = 0
	mixed, mixedCounters := run(&mixedRing{ringModel{lpsPerThread: 4, startPerLP: 3}})
	if one.TotalStats() != mixed.TotalStats() || one.seq != mixed.seq {
		t.Fatalf("trajectories differ:\none type %+v\ntwo types %+v", one.TotalStats(), mixed.TotalStats())
	}
	if !reflect.DeepEqual(oneCounters, mixedCounters) || oneCounters[MetricPoolStateHit] == 0 {
		t.Fatalf("pool counters differ:\none type %v\ntwo types %v", oneCounters, mixedCounters)
	}
	if one.TotalStats().RolledBack == 0 {
		t.Fatal("no rollbacks: the release path went untested")
	}
	if otherClones == 0 {
		t.Fatal("the second type's snapshots were not Cloned")
	}
	for _, p := range mixed.peers {
		if p.stateChunk.typ != reflect.TypeOf(&ringState{}) {
			t.Fatalf("peer %d pools %v", p.ID, p.stateChunk.typ)
		}
		for _, s := range p.statePool {
			if _, ok := s.(*ringState); !ok {
				t.Fatalf("peer %d store holds a %T", p.ID, s)
			}
		}
	}
}
