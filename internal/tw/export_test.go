package tw

// The sequential reference executor's outcome (seq_test.go), for the
// oracle outside the package.
type Outcome = outcome

var (
	NewOutcome        = newOutcome
	SequentialOutcome = sequentialOutcome
)

// SetOnCommit makes every engine built from cfg call f on each event
// fossil collection commits, after the event is marked committed and
// before its memory is recycled.
func SetOnCommit(cfg *Config, f func(*Event)) { cfg.onCommit = f }
