// Package hoard is the non-owner fixture: every way of retaining a
// pooled pointer past its recycle point, plus the shapes that stay
// free (call-chain handling, immediate closures, annotated sites).
package hoard

import "poolfx/pool"

// Stash retains events in a field — the classic use-after-recycle.
type Stash struct {
	last *pool.Event
}

var global *pool.Event // want `package-level variable global can retain a pool-recycled pointer`

// Keep demonstrates the field-store hazard.
func (s *Stash) Keep(e *pool.Event) {
	s.last = e // want `store of a pool-recycled pointer into struct field last`
}

// SetGlobal demonstrates the global-store hazard.
func SetGlobal(e *pool.Event) {
	global = e // want `store of a pool-recycled pointer into package-level variable global`
}

// Wrap demonstrates the composite-literal hazard.
func Wrap(e *pool.Event) Stash {
	return Stash{last: e} // want `pool-recycled pointer embedded in a struct literal`
}

// Defer demonstrates the escaping-closure hazard.
func Defer(e *pool.Event) func() int64 {
	return func() int64 {
		return e.Time // want `closure captures pool-recycled pointer e`
	}
}

// Household is a model's per-LP state; Cause remembers the event that
// infected it, and nothing reads it yet.
type Household struct {
	Infections int
	Cause      *pool.Event
}

// Infect demonstrates the same hazard through the execution context.
func Infect(st *Household, ctx *pool.Ctx) {
	st.Infections++
	st.Cause = ctx.Event() // want `store of a pool-recycled pointer into struct field Cause`
}

// Process shows that handling an event through a call chain is free:
// locals, params and returns are not retention.
func Process(e *pool.Event) int64 {
	tmp := e
	return tmp.Time + Immediate(e)
}

// Immediate shows an immediately invoked closure is free: it cannot
// outlive the event.
func Immediate(e *pool.Event) int64 {
	return func() int64 { return e.Time }()
}

// Audited shows the annotated escape hatch.
func (s *Stash) Audited(e *pool.Event) {
	//ggvet:allow(audited: the stash is cleared before the pool's next recycle point)
	s.last = e
}
