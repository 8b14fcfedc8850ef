package core

import "ggpdes/internal/machine"

// baselineSched performs no demand-driven scheduling: inactive threads
// keep polling their queues and participating in every GVT round, and
// thread placement is whatever the affinity algorithm and the machine's
// CFS produce. This is the paper's Baseline-Sync / Baseline-Async pair
// (depending on the GVT kind it is combined with).
type baselineSched struct{}

func (baselineSched) ReadMessageCount(int)                             {}
func (baselineSched) SkipIdle(int, int)                                {}
func (baselineSched) SemOf(int) *machine.Sem                           { return nil }
func (baselineSched) IsActive(int) bool                                { return true }
func (baselineSched) OnAware(*machine.Proc, *machine.Acc, int)         {}
func (baselineSched) OnRoundComplete(*machine.Proc, *machine.Acc, int) {}
func (baselineSched) OnEnd(*machine.Proc, *machine.Acc, int)           {}
