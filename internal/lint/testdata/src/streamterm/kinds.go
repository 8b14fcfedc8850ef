// Fixture for the streamterm pass: every constant of
// a frame-kind enum needs a producer (send/encode) and a consumer
// (case label or ==/!= dispatch) outside String/Parse name tables.
package streamfx

type Kind uint8

const (
	KindData Kind = 1 + iota
	KindDone
	KindOrphan // want `frame kind KindOrphan has no producer`
	KindDeaf   // want `frame kind KindDeaf has no consumer`
	KindGhost  // want `frame kind KindGhost has no producer` `frame kind KindGhost has no consumer`
)

func send(k Kind) {}

func produce() {
	send(KindData)
	send(KindDone)
	send(KindDeaf)
}

func dispatch(k Kind) int {
	switch k {
	case KindData:
		return 1
	case KindOrphan:
		return 3
	}
	if k == KindDone {
		return 4
	}
	return 0
}

// String mentions every kind by construction; it satisfies neither
// direction.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindDone:
		return "done"
	case KindOrphan:
		return "orphan"
	case KindDeaf:
		return "deaf"
	case KindGhost:
		return "ghost"
	}
	return "?"
}
