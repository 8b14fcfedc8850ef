package tw

// RunSequential runs the sequential reference executor (seq_test.go)
// for tests outside the package.
var RunSequential = runSequential

// SetOnCommit makes every engine built from cfg call f on each event
// fossil collection commits, after the event is marked committed and
// before its memory is recycled.
func SetOnCommit(cfg *Config, f func(*Event)) { cfg.onCommit = f }
