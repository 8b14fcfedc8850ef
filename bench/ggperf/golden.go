package main

import (
	"errors"
	"io/fs"
	"path/filepath"
	"sort"
)

// goldenFile pins, for one workload, seed and scale, the digest of
// every simulated statistic: a change that makes the simulator faster
// must leave all of them alone, and one that moves any fails here.
type goldenFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Scale    scale             `json:"scale"`
	Digests  map[string]string `json:"digests"`
}

// goldenSeed is the seed whose digests are checked in.
const goldenSeed = 1

func goldenPath(opt options, workload string) string {
	return filepath.Join(opt.goldenDir, workload+".json")
}

// checkGolden compares the digests a run saw with the pinned ones, or
// rewrites the file under -update-golden. Runs of other seeds or
// scales than the file's are not checked; a full-scale run of the
// golden seed with no file to check against fails.
func checkGolden(opt options, workload string, seen map[string]string, p *phase) {
	path := goldenPath(opt, workload)
	if opt.updateGolden {
		g := goldenFile{Workload: workload, Seed: opt.seed, Scale: opt.scale, Digests: seen}
		if err := writeJSONFile(path, g); err != nil {
			p.fail("writing %s: %v", path, err)
		}
		return
	}
	var g goldenFile
	if err := readJSONFile(path, &g); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			if opt.seed == goldenSeed && opt.scale == scaleFull {
				p.fail("no golden digests at %s (ggperf -update-golden writes them)", path)
			}
			return
		}
		p.fail("reading %s: %v", path, err)
		return
	}
	if g.Seed != opt.seed || g.Scale != opt.scale {
		return
	}
	p.attempted++
	keys := make([]string, 0, len(g.Digests))
	for k := range g.Digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got, ok := seen[k]
		switch {
		case !ok:
			p.fail("golden %s: %s was never produced", workload, k)
		case got != g.Digests[k]:
			p.fail("golden %s: simulated statistics of %s changed", workload, k)
		}
	}
	for k := range seen {
		if _, ok := g.Digests[k]; !ok {
			p.fail("golden %s: %s is not pinned (ggperf -update-golden)", workload, k)
		}
	}
}
