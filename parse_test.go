package ggpdes

import "testing"

func TestParseEnums(t *testing.T) {
	good := []struct {
		in   string
		want func(string) bool
	}{
		{"GG", func(s string) bool { v, err := ParseSystem(s); return err == nil && v == GGPDES }},
		{"dd-pdes", func(s string) bool { v, err := ParseSystem(s); return err == nil && v == DDPDES }},
		{"sync", func(s string) bool { v, err := ParseGVT(s); return err == nil && v == Barrier }},
		{"dynamic", func(s string) bool { v, err := ParseAffinity(s); return err == nil && v == DynamicAffinity }},
	}
	for _, tc := range good {
		t.Run(tc.in, func(t *testing.T) {
			if !tc.want(tc.in) {
				t.Fatalf("%q parsed wrong or refused", tc.in)
			}
		})
	}
	bad := []struct {
		in    string
		parse func(string) error
	}{
		{"cfs", func(s string) error { _, err := ParseSystem(s); return err }},
		{"mattern", func(s string) error { _, err := ParseGVT(s); return err }},
		{"numa", func(s string) error { _, err := ParseAffinity(s); return err }},
	}
	for _, tc := range bad {
		t.Run(tc.in, func(t *testing.T) {
			if tc.parse(tc.in) == nil {
				t.Fatalf("unknown name %q accepted", tc.in)
			}
		})
	}
}
