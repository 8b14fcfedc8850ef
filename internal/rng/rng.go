// Package rng provides deterministic pseudo-random number generation and
// the probability distributions used by the simulation models.
//
// Every simulation entity (thread, LP, agent) owns an independent stream
// so that results are bit-reproducible regardless of execution
// interleaving, and so that Time Warp rollbacks can restore generator
// state exactly by re-seeding from the stream's origin.
package rng

import "math"

// Stream is a PCG-XSH-RR 64/32 pseudo-random generator. The zero value
// is not usable; construct streams with New or Split.
type Stream struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// New returns a Stream seeded from seed with the given stream selector.
// Distinct (seed, sel) pairs produce statistically independent streams.
func New(seed, sel uint64) *Stream {
	s := &Stream{}
	s.Seed(seed, sel)
	return s
}

// Seed makes s the stream New(seed, sel) returns, in place: for streams
// that live inside their owner instead of on the heap.
func (s *Stream) Seed(seed, sel uint64) {
	s.inc = sel<<1 | 1
	s.state = 0
	s.next()
	s.state += splitmix(seed)
	s.next()
}

// Split derives an independent child stream. The parent advances once,
// so repeated Split calls yield distinct children.
func (s *Stream) Split() *Stream {
	return New(uint64(s.next())<<32|uint64(s.next()), s.inc>>1+0x9e37)
}

// splitmix is the SplitMix64 finalizer, used to decorrelate raw seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// next advances the generator and returns 32 uniform bits.
func (s *Stream) next() uint32 {
	old := s.state
	s.state = old*pcgMult + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint32 returns 32 uniform random bits.
func (s *Stream) Uint32() uint32 { return s.next() }

// Uint64 returns 64 uniform random bits.
func (s *Stream) Uint64() uint64 { return uint64(s.next())<<32 | uint64(s.next()) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := uint64(s.next())
	m := v * uint64(n)
	lo := uint32(m)
	if lo < uint32(n) {
		thresh := uint32(-uint32(n)) % uint32(n)
		for lo < thresh {
			v = uint64(s.next())
			m = v * uint64(n)
			lo = uint32(m)
		}
	}
	return int(m >> 32)
}

// Float64 returns a uniform float in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float in (0, 1), safe for logarithms
// and inverse-CDF transforms.
func (s *Stream) Float64Open() float64 {
	for {
		f := s.Float64()
		if f > 0 {
			return f
		}
	}
}

// Exponential returns an exponentially distributed value with the given
// mean (rate 1/mean).
func (s *Stream) Exponential(mean float64) float64 {
	return -mean * math.Log(s.Float64Open())
}

// Uniform returns a uniform value in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Burr samples the Burr XII distribution with shape parameters c and k
// via inverse-CDF: F(x) = 1 - (1 + x^c)^(-k). The Traffic model uses
// c=12.4, k=0.46 per the paper.
func (s *Stream) Burr(c, k float64) float64 {
	u := s.Float64Open()
	return math.Pow(math.Pow(1-u, -1/k)-1, 1/c)
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool { return s.Float64() < p }

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// State captures the generator state so Time Warp can restore it on
// rollback.
type State struct {
	State uint64
	Inc   uint64
}

// Save returns the current generator state.
func (s *Stream) Save() State { return State{State: s.state, Inc: s.inc} }

// Restore rewinds the generator to a previously saved state.
func (s *Stream) Restore(st State) { s.state, s.inc = st.State, st.Inc }

// Pos returns the generator's position within its stream: what Save
// returns less the stream selector, which never changes after Seed.
func (s *Stream) Pos() uint64 { return s.state }

// Seek moves the generator to a position Pos returned on the same
// stream, keeping the selector.
func (s *Stream) Seek(pos uint64) { s.state = pos }
