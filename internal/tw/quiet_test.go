package tw

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// peerPrint is everything a poll could change on a peer, short of the
// internal layout of its pending heap, which no result depends on:
// events are totally ordered.
type peerPrint struct {
	stats    PeerStats
	inq      int
	pending  int
	head     *Event
	acc      uint64
	minSent  VT
	free     int
	pool     poolStats
	history  int
	lvts     []VT
	headKind EventState
}

// enginePrint is the state a distributed worker captures or reports:
// every peer's print plus the engine-global scalars and the outbox.
type enginePrint struct {
	peers       []peerPrint
	seq         uint64
	gvt         VT
	uncommitted int
	peak        int
	outbox      int
	store       int
}

func printEngine(eng *Engine) enginePrint {
	pr := enginePrint{seq: eng.seq, gvt: eng.gvt, uncommitted: eng.uncommitted,
		peak: eng.peakUncommitted, outbox: len(eng.outbox), store: len(eng.mem.events)}
	for _, p := range eng.peers {
		pp := peerPrint{stats: p.Stats, inq: len(p.inq), pending: p.pending.Len(), acc: p.acc,
			minSent: p.minSent, free: p.pooled, pool: p.pool}
		if ev, ok := p.pending.Peek(); ok {
			pp.head, pp.headKind = ev, ev.state
		}
		for _, lp := range p.lps {
			pp.history += lp.n
			pp.lvts = append(pp.lvts, lp.lvt)
		}
		pr.peers = append(pr.peers, pp)
	}
	return pr
}

// TestQuietPeerPollsAreNoOps walks seeded random interleavings of the
// engine's operations — peers out of step, so stragglers, rollbacks,
// anti-messages and cancelled queue heads all occur — and after every
// operation checks, for every peer, what the distributed coordinator
// relies on when it answers a quiet peer's poll without asking the
// worker: Quiet() implies that DrainProcess returns (0, 0) having
// charged exactly DrainBaseCycles, that HasExecutableWork is false, and
// that neither changes any statistic or any state; and Quiet() itself
// changes nothing, pool counters included.
func TestQuietPeerPollsAreNoOps(t *testing.T) {
	var quietEmpty, quietHorizon, quietEnd, cancelledBeyond int
	for _, window := range []VT{0, 3} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			eng, err := NewEngine(Config{
				NumThreads: 4, Model: &ringModel{lpsPerThread: 2, startPerLP: 1}, EndTime: 12, Seed: 99,
				OptimismWindow: window, BatchSize: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			base := eng.cfg.Costs.DrainBaseCycles
			check := func(step int, what string) {
				for _, p := range eng.peers {
					before := printEngine(eng)
					quiet := p.Quiet()
					if after := printEngine(eng); !reflect.DeepEqual(before, after) {
						t.Fatalf("step %d (%s): Quiet() on peer %d changed state:\n%+v\n%+v", step, what, p.ID, before, after)
					}
					head := before.peers[p.ID]
					if !quiet {
						// Not quiet only because its head is cancelled: the
						// next poll would pop and recycle it.
						if head.inq == 0 && head.acc == 0 && head.head != nil && head.headKind == StateCancelled &&
							(head.head.Ts > eng.horizon() || head.head.Ts >= eng.cfg.EndTime) {
							cancelledBeyond++
						}
						continue
					}
					switch {
					case head.head == nil:
						quietEmpty++
					case head.head.Ts >= eng.cfg.EndTime:
						quietEnd++
					default:
						quietHorizon++
					}
					if p.HasExecutableWork() {
						t.Fatalf("step %d (%s): quiet peer %d has executable work", step, what, p.ID)
					}
					cpu := &fakeCPU{}
					if d, n := p.DrainProcess(cpu); d != 0 || n != 0 {
						t.Fatalf("step %d (%s): DrainProcess on quiet peer %d = (%d, %d)", step, what, p.ID, d, n)
					}
					if cpu.cycles != base {
						t.Fatalf("step %d (%s): poll of quiet peer %d charged %d cycles, want %d", step, what, p.ID, cpu.cycles, base)
					}
					if after := printEngine(eng); !reflect.DeepEqual(before, after) {
						t.Fatalf("step %d (%s): polling quiet peer %d changed state:\n%+v\n%+v", step, what, p.ID, before, after)
					}
				}
			}
			rnd := rand.New(rand.NewSource(int64(7)))
			cpu := &fakeCPU{}
			check(0, "start")
			// Peers act in bursts, so that some run well ahead of others
			// and get rolled back when the laggards catch up.
			p, burst := eng.peers[0], 0
			for step := 1; step <= 50000 && !eng.Done(); step++ {
				if burst--; burst < 0 {
					p, burst = eng.peers[rnd.Intn(len(eng.peers))], rnd.Intn(24)
				}
				var what string
				switch k := rnd.Intn(20); {
				case k < 8:
					what = "drain"
					p.Drain(cpu)
				case k < 16:
					what = "process"
					p.ProcessBatch(cpu)
				case k < 17:
					what = "local-min"
					p.LocalMin(cpu)
				case k < 18:
					what = "fossil"
					p.FossilCollect(cpu, eng.GVT())
				default:
					// A stop-the-world GVT: nothing is in flight between
					// operations here, so the minimum over every peer's
					// local minimum is exact.
					what = "gvt"
					min := eng.EndTime()
					for _, q := range eng.peers {
						min = math.Min(min, q.LocalMin(cpu))
						q.TakeMinSent()
					}
					eng.SetGVT(min)
				}
				check(step, what)
			}
			if !eng.Done() {
				t.Fatal("the walk did not finish the simulation")
			}
			if err := eng.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The walk must actually visit the cases the predicate distinguishes.
	if quietEmpty == 0 || quietHorizon == 0 || quietEnd == 0 || cancelledBeyond == 0 {
		t.Fatalf("vacuous walk: quiet with empty queue %d, beyond horizon %d, beyond end %d; cancelled heads beyond either %d",
			quietEmpty, quietHorizon, quietEnd, cancelledBeyond)
	}
}

// TestQuietUnderSharding pins the predicate on the two engines of a
// distributed run. The coordinator's hollow peers hold no events, so
// their own queues would call every one of them quiet while the shards
// behind them are busy: there Quiet answers false, and never asks the
// transport. A worker's engine has no transport, and its quiet set is
// Peer.Quiet of each shard peer, as before.
func TestQuietUnderSharding(t *testing.T) {
	newEng := func() *Engine {
		eng, err := NewEngine(Config{NumThreads: 4, Model: &ringModel{lpsPerThread: 1, startPerLP: 1}, EndTime: 12, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	hollow := newEng()
	// The nil transport panics if anything is forwarded to it.
	hollow.HollowAll(struct{ RemoteTransport }{})
	for _, p := range hollow.peers {
		if len(p.inq) != 0 || p.pending.Len() != 0 || p.acc != 0 {
			t.Fatalf("hollow peer %d holds state", p.ID)
		}
		if p.Quiet() {
			t.Errorf("hollow peer %d is quiet", p.ID)
		}
	}

	worker := newEng()
	if err := worker.Shardify(1, 3); err != nil {
		t.Fatal(err)
	}
	// Peer 1 executes its start event, which sends to peer 2's LP: peer
	// 1 is left with nothing, peer 2 with input to drain.
	if d, n := worker.peers[1].DrainProcess(&fakeCPU{}); d != 0 || n != 1 {
		t.Fatalf("DrainProcess = (%d, %d), want (0, 1)", d, n)
	}
	if !worker.peers[1].Quiet() || worker.peers[2].Quiet() {
		t.Fatalf("shard peers quiet = %v, %v; want true, false", worker.peers[1].Quiet(), worker.peers[2].Quiet())
	}
	if got := worker.AppendQuietSet([]byte{0xff}); !reflect.DeepEqual(got, []byte{0xff, 0b01}) {
		t.Fatalf("quiet set = %08b, want [11111111 00000001]", got)
	}
}
