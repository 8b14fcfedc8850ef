package machine

// Acc batches cycle charges so a simulation main-loop iteration costs
// one scheduler handshake instead of one per engine operation. Costs
// accumulate via Work and are applied to the owning thread by Flush.
// Blocking machine calls must be preceded by Flush so the cycles are
// charged before the thread de-schedules.
type Acc struct {
	p       *Proc
	pending uint64
}

// NewAcc returns an accumulator charging the calling thread of p, from
// the machine's slab.
func NewAcc(p *Proc) *Acc {
	a := p.t.m.accSlab.New()
	a.p = p
	return a
}

// Work accumulates cycles to be charged at the next Flush.
func (a *Acc) Work(cycles uint64) { a.pending += cycles }

// Pending returns the cycles accumulated since the last Flush.
func (a *Acc) Pending() uint64 { return a.pending }

// Flush charges all accumulated cycles to the thread.
func (a *Acc) Flush() {
	if a.pending > 0 {
		a.p.Work(a.pending)
		a.pending = 0
	}
}
