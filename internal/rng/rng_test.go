package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at step %d", i)
		}
	}
}

func TestSeedsProduceDistinctStreams(t *testing.T) {
	a := New(42, 7)
	b := New(43, 7)
	c := New(42, 8)
	same := 0
	for i := 0; i < 100; i++ {
		x := a.Uint64()
		if x == b.Uint64() {
			same++
		}
		if x == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(1, 1)
	c1 := parent.Split()
	c2 := parent.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			t.Fatalf("split children matched at step %d", i)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(9, 1)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 2000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1, 1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(123, 5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(77, 3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4, 2)
	sum := 0.0
	const trials = 200000
	for i := 0; i < trials; i++ {
		sum += s.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(11, 1)
	for _, mean := range []float64{0.5, 1, 10} {
		sum := 0.0
		const trials = 200000
		for i := 0; i < trials; i++ {
			v := s.Exponential(mean)
			if v < 0 {
				t.Fatalf("Exponential produced negative value %v", v)
			}
			sum += v
		}
		got := sum / trials
		if math.Abs(got-mean)/mean > 0.02 {
			t.Errorf("Exponential(%v) sample mean = %v", mean, got)
		}
	}
}

func TestBurrPositiveAndMedian(t *testing.T) {
	s := New(5, 9)
	const c, k = 12.4, 0.46
	// Median from inverse CDF at u = 0.5.
	wantMedian := math.Pow(math.Pow(0.5, -1/k)-1, 1/c)
	var vals []float64
	for i := 0; i < 50001; i++ {
		v := s.Burr(c, k)
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Burr produced invalid value %v", v)
		}
		vals = append(vals, v)
	}
	below := 0
	for _, v := range vals {
		if v < wantMedian {
			below++
		}
	}
	frac := float64(below) / float64(len(vals))
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("Burr median check: %.3f of samples below analytic median, want ~0.5", frac)
	}
}

func TestBernoulliProbability(t *testing.T) {
	s := New(6, 6)
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / trials
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(8, 8)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSaveRestore(t *testing.T) {
	s := New(99, 4)
	s.Uint64()
	st := s.Save()
	want := make([]uint64, 32)
	for i := range want {
		want[i] = s.Uint64()
	}
	s.Restore(st)
	for i := range want {
		if got := s.Uint64(); got != want[i] {
			t.Fatalf("replay diverged at %d: got %d want %d", i, got, want[i])
		}
	}
}

// Property: Intn stays in bounds for arbitrary seeds and sizes.
func TestQuickIntnInBounds(t *testing.T) {
	f := func(seed, sel uint64, nRaw uint16) bool {
		n := int(nRaw)%1000 + 1
		s := New(seed, sel)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Save/Restore round-trips exactly for arbitrary states.
func TestQuickSaveRestoreRoundTrip(t *testing.T) {
	f := func(seed, sel uint64, steps uint8) bool {
		s := New(seed, sel)
		for i := 0; i < int(steps); i++ {
			s.Uint64()
		}
		st := s.Save()
		a := s.Uint64()
		s.Restore(st)
		return s.Uint64() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Burr inverse-CDF output satisfies F(x) ≈ u round-trip.
func TestQuickBurrCDFRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed, 1)
		const c, k = 12.4, 0.46
		x := s.Burr(c, k)
		u := 1 - math.Pow(1+math.Pow(x, c), -k)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1, 1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1, 1)
	for i := 0; i < b.N; i++ {
		s.Intn(1000)
	}
}

func BenchmarkExponential(b *testing.B) {
	s := New(1, 1)
	for i := 0; i < b.N; i++ {
		s.Exponential(1)
	}
}

func BenchmarkBurr(b *testing.B) {
	s := New(1, 1)
	for i := 0; i < b.N; i++ {
		s.Burr(12.4, 0.46)
	}
}
