// Fixture for the goroleak pass: every goroutine below the API
// boundary is joined (WaitGroup or done channel) or observes
// cancellation; anything else is a drain hole.
package gorofx

import (
	"context"
	"sync"
)

type server struct {
	wg sync.WaitGroup
}

// WaitGroup join: quiet.
func (s *server) tracked() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		work()
	}()
}

// Done-channel join: quiet.
func doneChannel() chan struct{} {
	done := make(chan struct{})
	go func() {
		work()
		close(done)
	}()
	return done
}

// Result send: the launcher receives it. Quiet.
func resultSend() <-chan int {
	out := make(chan int, 1)
	go func() {
		out <- compute()
	}()
	return out
}

// Context-bound: the goroutine observes cancellation. Quiet.
func watcher(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// Range over a channel: exits when the feeding side closes it. Quiet.
func consumer(feed chan int) {
	go func() {
		for range feed {
		}
	}()
}

// A named method target is resolved through its declaration body, so
// the WaitGroup join inside worker counts. Quiet.
func (s *server) launchWorker() {
	s.wg.Add(1)
	go s.worker()
}

func (s *server) worker() {
	defer s.wg.Done()
	work()
}

// Nothing joins or cancels these: flagged.
func leakNamed() {
	go work() // want `untracked goroutine`
}

func leakLiteral() {
	go func() { // want `untracked goroutine`
		work()
	}()
}

// The serve loop's error is dropped, so the launcher never learns that
// serving stopped; resultSend above is the tracked form. Flagged.
func serveDropped() {
	go serve() // want `untracked goroutine`
}

// The body is a call ggvet cannot see into: flagged.
func leakExternal() {
	go println("boom") // want `untracked goroutine`
}

func work()        {}
func compute() int { return 0 }
func serve() error { return nil }
