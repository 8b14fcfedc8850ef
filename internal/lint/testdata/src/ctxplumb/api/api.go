// Package api is the ctxplumb fixture: a blocking entry point, its
// legitimate single-return boundary wrapper, and every way of
// detaching work from the caller's cancellation.
package api

import "context"

// RunContext is the real entry point: it accepts and threads ctx.
func RunContext(ctx context.Context, n int) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		_ = n
		return nil
	}
}

// Run is the boundary wrapper — a single return statement — where
// minting a Background context is the documented convenience shape.
func Run(n int) error {
	return RunContext(context.Background(), n)
}

// Detached mints its own context below the boundary: the caller's
// cancellation can never reach this run.
func Detached(n int) error {
	ctx := context.Background() // want `context\.Background below the API boundary`
	return RunContext(ctx, n)
}

// Sketch parks the decision with TODO, which is just as detached.
func Sketch(n int) error {
	n++
	return RunContext(context.TODO(), n) // want `context\.TODO below the API boundary`
}

// Delegate hands the call to a goroutine that passes it a fresh
// Background: cancelling ctx no longer reaches the remote run.
func Delegate(ctx context.Context, ch chan error) {
	go func() {
		ch <- RunContext(context.Background(), 0) // want `context\.Background below the API boundary`
	}()
	<-ctx.Done()
}

// Ignores advertises cancellation it does not deliver.
func Ignores(ctx context.Context, n int) int { // want `exported Ignores accepts Context ctx but never uses it`
	return n + 1
}

// Scheduled is intentionally detached and says why.
func Scheduled(n int) error {
	//ggvet:allow(fire-and-forget maintenance: intentionally detached from the caller's lifetime)
	ctx := context.Background()
	return RunContext(ctx, n)
}
