package machine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// A generated case: a machine configuration and a program per thread,
// both drawn from a seed. Every thread runs the same number of rounds.
// A round is a few local operations, then, where the round says so, a
// semaphore hand-over with the thread's partner and a barrier. Locks
// and resource semaphores are held only around work, and a thread that
// stops meeting at the barrier shrinks it first (Resize), so no program
// deadlocks.
type genCase struct {
	cfg                Config
	pins, leave, caps  []int       // per thread: pin, first round off the barrier; per resource semaphore: count
	ops                [][][]genOp // per thread, per round
	handover, barrier  []bool      // per round
	mutexes            int
	affinity, isolated bool // some program calls SetAffinity; every thread is pinned, and only ever repinned to a core
}

type genOp struct {
	kind   byte // Work, a group of n Works, Op, Acc.Work, Acc.Flush, Yield, Lock, resource SemWait, SetAffinity
	cycles uint64
	n      int // group size, mutex or semaphore index, or SetAffinity's thread
	core   int // SetAffinity's core
}

func genMachineCase(seed int64) genCase {
	r := rand.New(rand.NewSource(seed))
	cost := func(most int) uint64 { return uint64(r.Intn(most) * r.Intn(2)) }
	cfg := Config{
		Name: "gen", Cores: 1 + r.Intn(8), SMTWidth: 1 + r.Intn(4), FreqHz: 1e9,
		TickCycles: uint64(300 + r.Intn(3000)), OpCycles: uint64(1 + r.Intn(30)),
		CtxSwitchCycles: cost(400), MigrationCycles: cost(800), WakeCycles: cost(300),
		BarrierWakePerWaiterCycles: cost(100), PreemptGranularityTicks: r.Intn(4),
		LoadBalancePeriodTicks: 8 * r.Intn(2), MaxTicks: 1 << 18, SMTAggregate: []float64{1},
	}
	for k := 1; k < cfg.SMTWidth; k++ {
		cfg.SMTAggregate = append(cfg.SMTAggregate, cfg.SMTAggregate[k-1]+0.5*r.Float64())
	}
	n, rounds := 1+r.Intn(12), 1+r.Intn(8)
	c := genCase{cfg: cfg, mutexes: 1 + r.Intn(2), affinity: r.Intn(2) == 0, isolated: r.Intn(4) == 0}
	c.caps = []int{1 + r.Intn(3), 1 + r.Intn(3)}
	core := func() int {
		if c.isolated || r.Intn(3) > 0 {
			return r.Intn(cfg.Cores)
		}
		return AnyCore
	}
	for range rounds {
		c.handover, c.barrier = append(c.handover, r.Intn(3) == 0), append(c.barrier, r.Intn(3) == 0)
	}
	kinds := "wwnnoaafyls"
	if c.affinity {
		kinds += "pp"
	}
	for range n {
		c.pins, c.leave = append(c.pins, core()), append(c.leave, r.Intn(rounds+1))
		prog := make([][]genOp, rounds)
		for i := range prog {
			for range r.Intn(6) {
				op := genOp{kind: kinds[r.Intn(len(kinds))], cycles: uint64(r.Intn(2 * int(cfg.TickCycles)))}
				switch op.kind {
				case 'n':
					// Some groups divide a whole tick, so a fresh grant ends
					// exactly on a Work, which must go to the scheduler.
					op.n, op.cycles = 1+r.Intn(40), op.cycles/8
					if d := uint64(1 + r.Intn(8)); r.Intn(2) == 0 && cfg.TickCycles/d > cfg.OpCycles {
						op.cycles = cfg.TickCycles/d - cfg.OpCycles
					}
				case 'l':
					op.n = r.Intn(c.mutexes)
				case 's':
					op.n = r.Intn(len(c.caps))
				case 'p':
					op.n, op.core = r.Intn(n), core()
				}
				prog[i] = append(prog[i], op)
			}
		}
		c.ops = append(c.ops, prog)
	}
	return c
}

// genRun is what one run of a generated case leaves: its tickLog, its
// counters and cycles, what each thread's calls cost (paid, added up by
// the thread as it issues them), how many Works WorkN took, and when
// each operation was done.
type genRun struct {
	log          *tickLog
	stats        Stats
	cycles, paid []uint64
	clock        [][2]uint64 // thread and NowCycles after each operation, in the order they ran
	booked       int
}

// spawn spawns c's threads on m. A group of n Works goes through WorkN
// when batched.
func (c *genCase) spawn(m *Machine, batched bool, res *genRun) {
	op := m.cfg.OpCycles
	bar := m.NewBarrier("b", len(c.ops))
	var mus []*Mutex
	var sems, ping, pong []*Sem
	for i := range c.mutexes {
		mus = append(mus, m.NewMutex(fmt.Sprint("mu", i)))
	}
	for i, n := range c.caps {
		sems = append(sems, m.NewSem(fmt.Sprint("res", i), n))
	}
	for range len(c.ops) / 2 {
		ping, pong = append(ping, m.NewSem("ping", 0)), append(pong, m.NewSem("pong", 0))
	}
	for tid, prog := range c.ops {
		paid := &res.paid[tid]
		body := func(p *Proc) {
			acc := NewAcc(p)
			flush := func() {
				if acc.Pending() > 0 {
					*paid += acc.Pending() + op
				}
				acc.Flush()
			}
			for r, round := range prog {
				for _, o := range round {
					switch o.kind {
					case 'w':
						p.Work(o.cycles)
						*paid += o.cycles + op
					case 'n':
						for left := o.n; left > 0; left-- {
							if batched {
								k := p.WorkN(o.cycles, left)
								if res.booked += k; left == k {
									break
								}
								left -= k
							}
							p.Work(o.cycles)
						}
						*paid += uint64(o.n) * (o.cycles + op)
					case 'o':
						p.Op()
						*paid += op
					case 'a':
						acc.Work(o.cycles)
					case 'f':
						flush()
					case 'y':
						p.Yield()
						*paid += op
					case 'l':
						p.Lock(mus[o.n])
						p.Work(o.cycles)
						p.Unlock(mus[o.n])
						*paid += 3*op + o.cycles
					case 's':
						p.SemWait(sems[o.n])
						p.Work(o.cycles)
						p.SemPost(sems[o.n])
						*paid += 3*op + o.cycles
					case 'p':
						p.SetAffinity(o.n, o.core)
						*paid += op
					}
					res.clock = append(res.clock, [2]uint64{uint64(tid), p.NowCycles()})
				}
				if pair := tid / 2; c.handover[r] && pair < len(ping) {
					if tid%2 == 0 {
						p.SemPost(ping[pair])
						p.SemWait(pong[pair])
					} else {
						p.SemWait(ping[pair])
						p.SemPost(pong[pair])
					}
					*paid += 2 * op
				}
				if r == c.leave[tid] && bar.parties > 1 {
					bar.Resize(bar.parties - 1)
				}
				if c.barrier[r] && r < c.leave[tid] {
					p.BarrierWait(bar)
					*paid += op
				}
			}
			flush()
		}
		if c.pins[tid] == AnyCore {
			m.Spawn(fmt.Sprint("t", tid), body)
		} else {
			m.SpawnPinned(fmt.Sprint("t", tid), c.pins[tid], body)
		}
	}
}

// tickLog follows a machine from tick to tick, for the laws that need
// the tick before and so are not CheckInvariants':
//   - a thread that was blocked or had exited gains no cycles: it was in
//     no running set, and a thread woken during a tick waits for the
//     next tick's selection;
//   - a core's min_vruntime never falls across a tick it was never empty
//     in: running threads only gain vruntime, and a woken thread is
//     clamped to the core's minimum. Load balancing and SetAffinity
//     enqueue without the clamp, so the law leaves out a tick that
//     balanced and a program that calls SetAffinity, and only counts
//     what falls there.
//
// It also keeps a digest of every tick's scheduling state, for runs
// that must schedule alike.
type tickLog struct {
	strict         bool // the program never calls SetAffinity
	digests        []uint64
	prev           []Thread // each thread a tick ago
	prevMin        []uint64 // each core's min_vruntime a tick ago; 0 while it was empty
	checked, falls int      // core ticks the min_vruntime law covered; falls outside it
}

func (l *tickLog) observe(m *Machine) error {
	balanced := m.cfg.LoadBalancePeriodTicks > 0 && m.tick%uint64(m.cfg.LoadBalancePeriodTicks) == 0
	for i, was := range l.prev {
		if t := m.threads[i]; (was.state == StateBlocked || was.state == StateExited) && t.cycles != was.cycles {
			return fmt.Errorf("tick %d: thread %s gained %d cycles while %s", m.tick, t.name, t.cycles-was.cycles, was.state)
		}
	}
	h := uint64(14695981039346656037)
	mix := func(vs ...uint64) {
		for _, v := range vs {
			h = (h ^ v) * 1099511628211
		}
	}
	for i := range m.cores {
		c := &m.cores[i]
		low, ok := m.coreMinVruntime(i)
		// A thread running now that was on the core a tick ago ran all
		// through this tick, so the core was never empty.
		stayed := len(l.prev) > 0 && slices.ContainsFunc(c.running, func(t *Thread) bool {
			was := &l.prev[t.id]
			return was.core == i && (was.state == StateRunning || was.state == StateRunnable)
		})
		if was := l.prevMin[i]; stayed && l.strict && !balanced {
			if l.checked++; low < was {
				return fmt.Errorf("tick %d: core %d's min_vruntime fell from %d to %d", m.tick, i, was, low)
			}
		} else if ok && low < was {
			l.falls++
		}
		l.prevMin[i] = low
		if ok || c.busy > 0 {
			mix(uint64(i), c.busy, uint64(len(c.running)), uint64(len(c.runq)))
			for _, t := range slices.Concat(c.running, c.runq) {
				mix(uint64(t.id))
			}
		}
	}
	s := m.stats
	mix(m.tick, s.Ticks, s.CtxSwitches, s.Migrations, s.SemWaits, s.SemPosts, s.BarrierWaits, s.Wakeups, s.Preempts)
	l.prev = l.prev[:0]
	for _, t := range m.threads {
		mix(uint64(t.state), uint64(t.core), uint64(t.pinned), t.vruntime, t.cycles, t.penalty)
		l.prev = append(l.prev, Thread{state: t.state, core: t.core, cycles: t.cycles})
	}
	l.digests = append(l.digests, h)
	return nil
}

// runCase runs c on a machine built from cfg and lent sp, if not nil.
func runCase(t *testing.T, c *genCase, cfg Config, sp *Spare, batched bool) genRun {
	t.Helper()
	m := mustNew(t, cfg)
	if sp != nil {
		m.Lend(sp)
	}
	res := genRun{log: &tickLog{strict: !c.affinity, prevMin: make([]uint64, cfg.Cores)}, paid: make([]uint64, len(c.ops))}
	c.spawn(m, batched, &res)
	watched.Store(m, res.log)
	defer watched.Delete(m)
	mustRun(t, m) // so every body returned
	if res.stats = m.Stats(); m.NowCycles() != res.stats.Ticks*cfg.TickCycles {
		t.Fatalf("the clock reads %d cycles after %d ticks", m.NowCycles(), res.stats.Ticks)
	}
	for _, th := range m.threads {
		res.cycles = append(res.cycles, th.cycles)
	}
	return res
}

// sameRun fails t unless got scheduled exactly as want did: the same
// state at every tick, the same counters, the same cycles per thread,
// and every operation done in the same order and tick.
func sameRun(t *testing.T, law string, got, want genRun) {
	t.Helper()
	g, w := got.log.digests, want.log.digests
	for i := range max(len(g), len(w)) {
		if i >= min(len(g), len(w)) || g[i] != w[i] {
			t.Fatalf("%s: the runs part at tick %d (of %d and %d)", law, i, len(g), len(w))
		}
	}
	if got.stats != want.stats || !slices.Equal(got.cycles, want.cycles) || !slices.Equal(got.clock, want.clock) {
		t.Fatalf("%s: stats %+v cycles %v, want %+v %v", law, got.stats, got.cycles, want.stats, want.cycles)
	}
}

// TestMachineGenerated runs generated cases with CheckInvariants and
// tickLog's laws on every tick, and holds each case to these laws:
//   - every body returns (a run that ends has no live thread);
//   - every thread pays for every call it issues, spinning or not: its
//     cycles are at least their cost, exactly that on a machine without
//     penalties, and together the threads pay no more on top than the
//     counted context switches, migrations and wake-ups can charge;
//   - the same seed gives the same run;
//   - a machine lent a Spare, empty or holding the coroutines the run
//     before parked, schedules exactly as a fresh one;
//   - doubling FreqHz moves no cycle count;
//   - a group of Works issued through WorkN schedules as the Works do;
//   - cores no thread can reach stay idle and change nothing.
func TestMachineGenerated(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			c := genMachineCase(seed)
			cfg := c.cfg
			want := runCase(t, &c, cfg, nil, true)
			var paid, total uint64
			free := cfg.CtxSwitchCycles+cfg.MigrationCycles+cfg.WakeCycles+cfg.BarrierWakePerWaiterCycles == 0
			for i, p := range want.paid {
				if want.cycles[i] < p || free && want.cycles[i] != p {
					t.Fatalf("thread %d consumed %d cycles for calls that cost %d", i, want.cycles[i], p)
				}
				paid, total = paid+p, total+want.cycles[i]
			}
			s := want.stats
			if most := paid + s.CtxSwitches*cfg.CtxSwitchCycles + s.Migrations*cfg.MigrationCycles +
				s.Wakeups*(cfg.WakeCycles+cfg.BarrierWakePerWaiterCycles); total > most {
				t.Fatalf("threads consumed %d cycles, more than their calls and penalties can cost (%d)", total, most)
			}

			again := genMachineCase(seed)
			sameRun(t, "the same seed", runCase(t, &again, again.cfg, nil, true), want)
			var sp Spare
			defer sp.End()
			sameRun(t, "lent an empty Spare", runCase(t, &c, cfg, &sp, true), want)
			sameRun(t, "lent a used Spare", runCase(t, &c, cfg, &sp, true), want)
			fast := cfg
			fast.FreqHz *= 2
			sameRun(t, "FreqHz doubled", runCase(t, &c, fast, nil, true), want)
			sameRun(t, "WorkN as Works", runCase(t, &c, cfg, nil, false), want)
			if c.isolated {
				wide := cfg
				wide.Cores += 1 + int(seed%3)
				sameRun(t, "unreachable cores", runCase(t, &c, wide, nil, true), want)
			}
			for name, ok := range map[string]bool{"penalty-free": free, "isolated": c.isolated, "preempted": s.Preempts > 0,
				"migrated": s.Migrations > 0, "woken": s.Wakeups > 0, "booked by WorkN": want.booked > 0} {
				n := seen[name] // a count that stays 0 is still a key, and checked
				if ok {
					n++
				}
				seen[name] = n
			}
			seen["min_vruntime law ticks"] += want.log.checked
			seen["min_vruntime falls outside it"] += want.log.falls
		})
	}
	for name, n := range seen {
		if n < 10 {
			t.Errorf("the corpus lost coverage: %s in %d cases", name, n)
		}
	}
	t.Logf("cases, of 200, and core ticks: %v", seen)
}
