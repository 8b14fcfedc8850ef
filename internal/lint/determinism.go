package lint

// determinism: the engine's headline guarantee is that a (Config,
// Seed) pair commits a byte-identical trajectory on every run — the
// checkpoint/resume equivalence and the pooling A/B goldens both
// assert it. That only holds while the simulation core stays free of
// ambient nondeterminism, which no test can prove and any one-line
// change can break. This pass mechanically rejects the known leaks:
//
//   - wall-clock reads (time.Now / Since / timers): real time must
//     never influence the simulated machine;
//   - the global math/rand: all model randomness flows through
//     internal/rng so it is seeded, per-LP, and rollback-restorable;
//   - `go` statements outside the machine's cooperative-scheduler
//     launch site: a free-running goroutine races the simulated clock;
//   - select over two or more channels: the runtime picks a ready case
//     pseudo-randomly, so multi-channel selects schedule
//     nondeterministically (one comm case plus default is fine);
//   - ranging over a map: iteration order is randomized by design —
//     sort the keys first (which removes the map range) or annotate a
//     provably order-insensitive site;
//   - sort.Slice and slices.SortFunc: the unstable sorts permute equal
//     elements arbitrarily; use sort.SliceStable or
//     slices.SortStableFunc, or annotate a comparator that is a total
//     order.

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the time package's ambient-time sources. Pure
// conversions (time.Duration arithmetic, time.Unix) are fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

var determinismPass = &Pass{
	Name: "determinism",
	Doc:  "forbid wall-clock, global rand, goroutines, multi-channel selects, map ranges and unstable sorts in the deterministic core",
	Run: func(c *Checker) {
		for _, pkg := range c.Prog.Packages {
			if !matchRel(pkg.Rel, c.Cfg.DetCorePkgs) {
				continue
			}
			c.detCorePkg(pkg)
		}
	},
}

func (c *Checker) detCorePkg(pkg *Package) {
	goAllowed := map[string]bool{}
	for _, f := range c.Cfg.GoAllowedFiles {
		goAllowed[f] = true
	}
	inspect(pkg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			obj := pkg.Info.Uses[n.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if wallClockFuncs[obj.Name()] {
					c.Report(n.Pos(), "wall-clock read time.%s in the deterministic core: real time must not influence the simulation", obj.Name())
				}
			case "math/rand", "math/rand/v2":
				c.Report(n.Pos(), "global math/rand in the deterministic core: draw through internal/rng so randomness is seeded and rollback-restorable")
			case "sort", "slices":
				if name := obj.Pkg().Name() + "." + obj.Name(); name == "sort.Slice" || name == "slices.SortFunc" {
					c.Report(n.Pos(), "%s is unstable and permutes equal elements arbitrarily: use a stable sort or annotate a total-order comparator", name)
				}
			}
		case *ast.GoStmt:
			file := c.relFile(n.Pos())
			if !goAllowed[file] {
				c.Report(n.Pos(), "go statement outside the machine's cooperative-scheduler launch site: free-running goroutines race the simulated clock")
			}
		case *ast.SelectStmt:
			comms := 0
			for _, cl := range n.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					comms++
				}
			}
			if comms >= 2 {
				c.Report(n.Pos(), "select over %d channels: the runtime picks a ready case pseudo-randomly, which schedules nondeterministically", comms)
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					c.Report(n.Pos(), "range over a map in the deterministic core: iteration order is randomized — sort the keys first or annotate an order-insensitive site")
				}
			}
		}
		return true
	})
}
