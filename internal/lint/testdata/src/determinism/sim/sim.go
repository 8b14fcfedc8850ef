// Package sim is the determinism-pass fixture: a miniature
// "deterministic core" exercising every hazard the pass rejects and
// every shape it must leave alone.
package sim

import (
	"slices"
	"sort"
	"time"
)

// Clock demonstrates the wall-clock hazards.
func Clock() time.Duration {
	start := time.Now()          // want `wall-clock read time\.Now`
	time.Sleep(time.Millisecond) // want `wall-clock read time\.Sleep`
	return time.Since(start)     // want `wall-clock read time\.Since`
}

// Budget bounds a loop by host time: the trajectory then depends on
// how fast the host is, which no test runs long enough to see.
func Budget(done func() bool) {
	for t0 := time.Now(); !done() && time.Since(t0) < time.Hour; { // want `wall-clock read time\.Now` `wall-clock read time\.Since`
	}
}

// Conversions that do not read the clock are fine.
func Conversions() time.Time {
	d := 5 * time.Second
	_ = d.Seconds()
	return time.Unix(0, 42)
}

// Launch demonstrates the free-goroutine hazard; the cooperative
// launch site lives in spawn.go, which the fixture config whitelists.
func Launch(ch chan int) {
	go func() { ch <- 1 }() // want `go statement outside the machine's cooperative-scheduler launch site`
}

// Pick demonstrates the multi-channel select hazard.
func Pick(a, b chan int) int {
	select { // want `select over 2 channels`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// Poll is the allowed shape: one comm case plus default.
func Poll(a chan int) (int, bool) {
	select {
	case v := <-a:
		return v, true
	default:
		return 0, false
	}
}

// Sum demonstrates the map-range hazard and its two remedies: sorted
// keys (no map range left) or an annotated order-insensitive site.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m { // want `range over a map in the deterministic core`
		total += v
	}
	keys := make([]string, 0, len(m))
	for k := range m { // want `range over a map in the deterministic core`
		keys = append(keys, k)
	}
	sort.Strings(keys)
	count := 0
	//ggvet:allow(commutative count: iteration order cannot change the result)
	for range m {
		count++
	}
	return total + count
}

// Order demonstrates the unstable-sort hazard and the annotated
// total-order escape hatch.
func Order(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) // want `sort\.Slice is unstable`
	//ggvet:allow(ints are a total order: no equal-element ambiguity to permute)
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	sort.SliceStable(xs, func(i, j int) bool { return xs[i] < xs[j] })
	slices.SortFunc(xs, func(a, b int) int { return a - b }) // want `slices\.SortFunc is unstable`
	//ggvet:allow(ints are a total order: no equal-element ambiguity to permute)
	slices.SortFunc(xs, func(a, b int) int { return a - b })
	slices.SortStableFunc(xs, func(a, b int) int { return a - b })
}
