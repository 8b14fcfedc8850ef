package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"ggpdes"
	"ggpdes/bench/span"
)

// scale selects workload sizes. scaleFull is what BENCHMARK.json
// measures; scaleTiny shrinks every model so the tests drive each
// workload through the whole check path in milliseconds.
type scale string

const (
	scaleFull scale = "full"
	scaleTiny scale = "tiny"
)

// modelSeeds is how many model seeds one benchmark seed derives; the
// iterations cycle through them, so a median covers several
// trajectories and every count repeats with period modelSeeds.
const modelSeeds = 10

// runEnv is what a workload is set up from.
type runEnv struct {
	seed  uint64
	scale scale
	// tmp is a scratch directory inside the benchmark's own output
	// directory, removed when the run ends.
	tmp   string
	nproc int
}

// splitmix64 is the benchmark's own generator: inputs must not depend
// on the program under test, internal/rng included.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// modelSeed derives the k-th model seed of the run; never 0, which
// Config treats as "default".
func (e *runEnv) modelSeed(k int) uint64 {
	x := e.seed*1_000_003 + uint64(k)
	return splitmix64(&x) | 1
}

// budget bounds a measured phase: exactly iters operations when set,
// otherwise whole cycles through the model seeds until seconds have
// passed. Stopping only between cycles means every model seed weighs
// the same in every sum and median of the phase, however fast the
// machine is.
type budget struct {
	iters   int
	seconds float64
}

func (b budget) done(i int, start time.Time) bool {
	if b.iters > 0 {
		return i >= b.iters
	}
	return i > 0 && i%modelSeeds == 0 && time.Since(start).Seconds() >= b.seconds
}

// phase is what one measured pass over a workload produced.
type phase struct {
	wallS     float64
	mallocs   uint64
	attempted int
	failed    int
	failures  []string
	// samples holds host milliseconds per call name, one per operation.
	samples map[string][]float64
	// committed sums the committed events every call of the phase
	// reported; the divisor of allocs_per_committed_event.
	committed uint64
	// rate holds committed events per host second of the primary call,
	// one per operation.
	rate []float64
	// iterMS is the whole operation's host milliseconds.
	iterMS []float64
}

func newPhase() *phase { return &phase{samples: map[string][]float64{}} }

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

func (p *phase) med(call string) float64 { return median(p.samples[call]) }

// valued is an end-to-end metric's value together with the sample it
// is the median of, when it is one; the result file keeps the sample's
// quartiles and tail next to the value.
type valued struct {
	value  float64
	sample []float64
}

func scalar(v float64) valued     { return valued{value: v} }
func medianOf(s []float64) valued { return valued{value: median(s), sample: s} }

// resultCounts picks the exact counts the result file keeps from one
// run's Results.
func resultCounts(res *ggpdes.Results) map[string]float64 {
	if res == nil {
		return map[string]float64{}
	}
	return map[string]float64{
		"committed_events": float64(res.CommittedEvents),
		"processed_events": float64(res.ProcessedEvents),
		"rollbacks":        float64(res.Rollbacks),
		"gvt_rounds":       float64(res.GVTRounds),
	}
}

// workload is one of the benchmark's six closed loops.
type workload interface {
	// setup generates the inputs from env.seed and brings up what the
	// loop needs (listeners, servers, directories).
	setup(env *runEnv) error
	// measure runs the closed loop until the budget is spent. A
	// non-nil tracer makes it record spans around every call into a
	// layer; nil is the untraced run the end-to-end metrics come from.
	measure(b budget, tr *span.Tracer) *phase
	// verify runs the correctness checks that need untimed work of
	// their own, after the clock has stopped.
	verify(p *phase)
	// endToEnd derives the end-to-end metrics the workload defines.
	endToEnd(p *phase) map[string]valued
	// primaryMS is the median host time of the workload's primary
	// call, the filler for time metrics it does not define.
	primaryMS(p *phase) float64
	// layers derives the per-layer metrics this workload owns from a
	// traced phase.
	layers(p *phase, tr *span.Tracer) map[string]float64
	// digests returns the simulated-statistics digests seen so far,
	// keyed "call/model-seed-index"; the golden files pin them.
	digests() map[string]string
	// counts returns the exact simulated counts of the primary config
	// on the run's first model seed: two runs of one seed must agree
	// on every one of them.
	counts() map[string]float64
	// warmup is how many untimed operations setup_s includes.
	warmup() int
	close()
}

// resultDigest fingerprints every simulated statistic of a run. The
// JSON form sorts map keys and prints floats shortest-round-trip, so
// equal Results give equal digests.
func resultDigest(res *ggpdes.Results) (string, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// simCall is one timed call of a simulation workload's iteration.
type simCall struct {
	name string
	// prep, when set, runs untimed just before run (locate the
	// snapshot a Resume starts from).
	prep func(k int) error
	// run executes the call for model seed index k.
	run func(k int) (*ggpdes.Results, error)
	// post, when set, runs untimed on the call's Results before they
	// are checked (strip what only this call's transport adds).
	post func(k int, res *ggpdes.Results)
	// endTime is what FinalGVT must reach.
	endTime float64
	// primary marks the calls whose host time is the workload's
	// headline; several primaries are summed.
	primary bool
}

// simLoop is the iteration loop the five simulation workloads share:
// run every call for the iteration's model seed, time it from
// outside, and check what came back.
type simLoop struct {
	env   *runEnv
	calls []simCall
	// headline names the call whose Results give the simulated-clock
	// metric and the exact counts.
	headline string
	// before prepares an iteration outside every timed call (clean
	// checkpoint directory); check compares the iteration's results
	// with each other. Both optional.
	before func(k int) error
	check  func(k int, res map[string]*ggpdes.Results) error

	// last holds each call's most recent Results per model seed index;
	// seen the digests, across warm-up and every phase.
	last map[string][]*ggpdes.Results
	seen map[string]string

	// curSpan and curOp identify the call being timed, for workloads
	// that record child spans from inside it (wrapped connections).
	curSpan span.ID
	curOp   int64
}

func (l *simLoop) init(env *runEnv) {
	l.env = env
	l.last = map[string][]*ggpdes.Results{}
	l.seen = map[string]string{}
}

func (l *simLoop) digests() map[string]string { return l.seen }
func (l *simLoop) warmup() int                { return 3 }
func (l *simLoop) verify(*phase)              {}
func (l *simLoop) close()                     {}
func (l *simLoop) counts() map[string]float64 { return resultCounts(l.first(l.headline)) }
func (l *simLoop) layers(*phase, *span.Tracer) map[string]float64 {
	return map[string]float64{}
}

func (l *simLoop) measure(b budget, tr *span.Tracer) *phase {
	p := newPhase()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; !b.done(i, start); i++ {
		l.iterate(i, p, tr)
	}
	p.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	return p
}

func (l *simLoop) iterate(i int, p *phase, tr *span.Tracer) {
	k := i % modelSeeds
	p.attempted++
	if l.before != nil {
		if err := l.before(k); err != nil {
			p.fail("iteration %d: %v", i, err)
			return
		}
	}
	root := tr.Start("iteration", 0, int64(i), 0)
	iterStart := time.Now()
	results := make(map[string]*ggpdes.Results, len(l.calls))
	var primaryS float64
	var primaryEvents uint64
	var failure error
	for _, c := range l.calls {
		if c.prep != nil {
			if err := c.prep(k); err != nil {
				failure = fmt.Errorf("%s: %w", c.name, err)
				break
			}
		}
		id := tr.Start(c.name, root, int64(i), 0)
		l.curSpan, l.curOp = id, int64(i)
		t := time.Now()
		res, err := c.run(k)
		d := time.Since(t)
		tr.End(id)
		if err != nil {
			failure = fmt.Errorf("%s: %w", c.name, err)
			break
		}
		if c.post != nil {
			c.post(k, res)
		}
		p.samples[c.name] = append(p.samples[c.name], d.Seconds()*1e3)
		p.committed += res.CommittedEvents
		if c.primary {
			primaryS += d.Seconds()
			primaryEvents += res.CommittedEvents
		}
		results[c.name] = res
	}
	p.iterMS = append(p.iterMS, time.Since(iterStart).Seconds()*1e3)
	tr.End(root)
	if failure == nil {
		failure = l.oracle(k, results)
	}
	if failure != nil {
		p.fail("iteration %d (model seed %d): %v", i, k, failure)
		return
	}
	p.rate = append(p.rate, float64(primaryEvents)/primaryS)
}

// oracle is the per-iteration correctness check: every call ran to
// its end time and committed something, repeats of a model seed
// reproduce every simulated statistic, and the workload's own
// cross-call property holds.
func (l *simLoop) oracle(k int, results map[string]*ggpdes.Results) error {
	for _, c := range l.calls {
		res := results[c.name]
		if res.FinalGVT != c.endTime {
			return fmt.Errorf("%s: FinalGVT %v, want %v", c.name, res.FinalGVT, c.endTime)
		}
		if res.CommittedEvents == 0 {
			return fmt.Errorf("%s: committed no events", c.name)
		}
		d, err := resultDigest(res)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		key := fmt.Sprintf("%s/%d", c.name, k)
		if prev, ok := l.seen[key]; ok && prev != d {
			return fmt.Errorf("%s: results digest changed between repeats of one seed", c.name)
		}
		l.seen[key] = d
		if l.last[c.name] == nil {
			l.last[c.name] = make([]*ggpdes.Results, modelSeeds)
		}
		l.last[c.name][k] = res
	}
	if l.check != nil {
		return l.check(k, results)
	}
	return nil
}

// simRate is the mean simulated committed-event rate of a call over
// the model seeds visited.
func (l *simLoop) simRate(call string) float64 {
	var rates []float64
	for _, res := range l.last[call] {
		if res != nil {
			rates = append(rates, res.CommittedEventRate)
		}
	}
	return mean(rates)
}

// first returns a call's Results for the lowest model seed index
// visited: the fixed trajectory the exact counts are read from. Nil
// before the call has completed once.
func (l *simLoop) first(call string) *ggpdes.Results {
	for _, res := range l.last[call] {
		if res != nil {
			return res
		}
	}
	return nil
}

// endToEnd fills the metrics every simulation workload defines the
// same way; workloads with metrics of their own add to it.
func (l *simLoop) endToEnd(p *phase) map[string]valued {
	out := map[string]valued{
		"committed_ev_per_host_s":    medianOf(p.rate),
		"sim_committed_ev_per_sim_s": scalar(l.simRate(l.headline)),
		"jobs_per_s":                 scalar(1e3 / median(p.iterMS)),
	}
	if p.committed > 0 {
		out["allocs_per_committed_event"] = scalar(float64(p.mallocs) / float64(p.committed))
	}
	return out
}

func (l *simLoop) primaryMS(p *phase) float64 {
	total := 0.0
	for _, c := range l.calls {
		if c.primary {
			total += p.med(c.name)
		}
	}
	return total
}

// benchMachine is the 8-core, 2-way-SMT machine (16 hardware
// contexts) bench_test.go's figure benchmarks use.
func benchMachine() ggpdes.Machine {
	return ggpdes.Machine{Cores: 8, SMTWidth: 2, FreqHz: 1.3e9}
}

// tinyMachine has 4 hardware contexts.
func tinyMachine() ggpdes.Machine {
	return ggpdes.Machine{Cores: 2, SMTWidth: 2, FreqHz: 1.3e9}
}

func runCfg(cfg ggpdes.Config) func(seed uint64) (*ggpdes.Results, error) {
	return func(seed uint64) (*ggpdes.Results, error) {
		cfg.Seed = seed
		return ggpdes.Run(cfg)
	}
}
