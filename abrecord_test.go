package ggpdes

import (
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// scripts/ab_record.awk reads a paired before/after: canned pairs go in
// through awk as bench_ab.sh feeds them, and the sign test's p-value and
// verdict come out on the reading's line and in the JSON record alike —
// a clean sweep past six pairs is a claim, five are not enough, a split
// or a sweep broken by ties is unresolved, a change that is only
// behind never claims, and a count that repeats keeps its exact reading.
func TestABRecordSignTest(t *testing.T) {
	awk, err := exec.LookPath("awk")
	if err != nil {
		t.Skip("no awk on this machine")
	}
	for _, c := range []struct {
		name, better, pairs string
		p                   float64
		verdict             string
	}{
		{"all ahead", "lower", "10 9|11 9.5|10.5 9|10 8|12 9|10 9.9|11 10|10.2 10.1|10 7|11 10", 2.0 / 1024, "claim"},
		{"all ahead, higher is better", "higher", "1 2|1.5 2|1 1.2|1 3|2 2.5|1 1.1", 2.0 / 64, "claim"},
		{"five are too few", "lower", "10 9|11 9.5|10.5 9|10 8|12 9", 2.0 / 32, "unresolved"},
		{"a split", "lower", "10 9|11 12|10 9|10 11|10 9|10 11|10 9|10 11", 1, "unresolved"},
		{"seven of ten", "lower", "10 9|10 9|10 9|10 9|10 9|10 9|10 9|10 11|10 11|10 11", 2 * 176.0 / 1024, "unresolved"},
		{"ties leave five untied", "lower", "10 9|11 9.5|10.5 9|10 8|12 9|10 10", 2.0 / 32, "unresolved"},
		{"ties leave six untied", "lower", "10 9|11 9.5|10.5 9|10 8|12 9|10 10|10 9.5", 2.0 / 64, "claim"},
		{"all behind", "lower", "9 10|9.5 11|9 10.5|8 10|9 12|9.9 10|10 11", 2.0 / 128, "unresolved"},
		{"all tied", "lower", "3 3|4 4|3 3|4 4|3 3|4 4", 1, "unresolved"},
		{"exact count", "lower", "0.2705 0.1518|0.2705 0.1518|0.2705 0.1518|0.2705 0.1518|0.2705 0.1518", 2.0 / 32, "exact"},
	} {
		var in strings.Builder
		for i, pair := range strings.Split(c.pairs, "|") {
			in.WriteString(strconv.Itoa(i+1) + " " + pair + "\n")
		}
		cmd := exec.Command(awk, "-v", "metric=m", "-v", "better="+c.better, "-v", "workload=w",
			"-v", "cpus=2", "-v", "procs=1", "-v", "gover=go", "-f", "scripts/ab_record.awk")
		cmd.Stdin = strings.NewReader(in.String())
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, out)
		}
		line := regexp.MustCompile(`sign test: p = (\S+) .*verdict at alpha 0\.05: (\w+)`).FindStringSubmatch(string(out))
		record := regexp.MustCompile(`"sign_p":([^,]+),"verdict":"(\w+)"}`).FindStringSubmatch(string(out))
		if line == nil || record == nil {
			t.Fatalf("%s: no sign test in\n%s", c.name, out)
		}
		for _, got := range [][]string{line, record} {
			p, err := strconv.ParseFloat(got[1], 64)
			if err != nil || p < c.p*0.999 || p > c.p*1.001 || got[2] != c.verdict {
				t.Errorf("%s: p = %s, verdict %s; want p = %.4g, verdict %s\n%s", c.name, got[1], got[2], c.p, c.verdict, out)
			}
		}
	}
}
