package ggpdes

import (
	"fmt"
	"strings"
)

// ParseSystem converts a user-facing system name ("baseline", "dd",
// "dd-pdes", "gg", "gg-pdes") to its enum value.
func ParseSystem(s string) (System, error) {
	switch strings.ToLower(s) {
	case "baseline":
		return Baseline, nil
	case "dd", "dd-pdes", "ddpdes":
		return DDPDES, nil
	case "gg", "gg-pdes", "ggpdes":
		return GGPDES, nil
	default:
		return 0, fmt.Errorf("ggpdes: unknown system %q (want baseline | dd | gg)", s)
	}
}

// ParseGVT converts a GVT algorithm name ("sync"/"barrier",
// "async"/"waitfree") to its enum value.
func ParseGVT(s string) (GVT, error) {
	switch strings.ToLower(s) {
	case "sync", "barrier":
		return Barrier, nil
	case "async", "waitfree", "wait-free":
		return WaitFree, nil
	default:
		return 0, fmt.Errorf("ggpdes: unknown gvt algorithm %q (want sync | async)", s)
	}
}

// ParseAffinity converts an affinity algorithm name ("none",
// "constant", "dynamic") to its enum value.
func ParseAffinity(s string) (Affinity, error) {
	switch strings.ToLower(s) {
	case "none":
		return NoAffinity, nil
	case "constant":
		return ConstantAffinity, nil
	case "dynamic":
		return DynamicAffinity, nil
	default:
		return 0, fmt.Errorf("ggpdes: unknown affinity %q (want none | constant | dynamic)", s)
	}
}
