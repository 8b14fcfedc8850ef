// Package pool is the pool-owner fixture: it owns the recycling
// discipline, so stores inside it are exempt — but pooled globals are
// a hazard even here.
package pool

// Event is the pool-recycled type.
type Event struct {
	Time int64
	next *Event
}

var debugLast *Event // want `package-level variable debugLast can retain a pool-recycled pointer`

// Pool is the freelist; its field store is legitimate owner business.
type Pool struct {
	free *Event
}

// Get pops the freelist or allocates.
func (p *Pool) Get() *Event {
	if p.free == nil {
		return &Event{}
	}
	e := p.free
	p.free = e.next
	e.next = nil
	return e
}

// Put pushes onto the freelist.
func (p *Pool) Put(e *Event) {
	e.next = p.free
	p.free = e
}

// Ctx hands a model the event being executed.
type Ctx struct {
	ev *Event
}

// Event returns the event being executed.
func (c *Ctx) Event() *Event { return c.ev }
