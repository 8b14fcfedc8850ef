package machine

import "sync"

// Every machine this package's tests run checks its invariants at the
// end of every tick, and a machine TestMachineGenerated watches also
// checks the laws that need the tick before (tickLog).
func init() { tickCheck = checkTick }

// watched maps a machine to the tickLog that follows it.
var watched sync.Map

func checkTick(m *Machine) error {
	if err := m.CheckInvariants(); err != nil {
		return err
	}
	if l, ok := watched.Load(m); ok {
		return l.(*tickLog).observe(m)
	}
	return nil
}
