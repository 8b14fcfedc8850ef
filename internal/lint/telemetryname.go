package lint

// telemetryname: every metric flows through the telemetry Registry by
// dotted string name, and downstream tooling (the Perfetto exporter,
// dashboards, the serve API) joins on those strings. A typo'd or
// restyled name silently forks a metric. The pass pins three things:
//
//   - the name argument of Registry.Counter/Gauge/Histogram — and of
//     the per-thread Shard handle's methods of the same names — must be
//     a compile-time constant matching lowercase dotted form
//     ("pkg.metric_name");
//   - a name spelled as a raw string literal may appear at exactly one
//     call site — shared names must be hoisted to a named constant so
//     there is a single point of truth;
//   - the set of registered (kind, name) pairs must agree exactly with
//     the checked-in inventory file, both directions.
//
// The telemetry package itself is exempt: Registry.Import re-registers
// names arriving off the wire and is inherently dynamic.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)

type metricSite struct {
	pos     token.Pos
	kind    string // "counter", "gauge", "histogram"
	name    string
	literal bool // spelled as a raw string literal, not a named constant
}

var telemetryNamePass = &Pass{
	Name: "telemetryname",
	Doc:  "metric names must be constant lowercase dotted strings, single-sourced, and match the checked-in inventory",
	Run: func(c *Checker) {
		sites, ok := c.collectMetricSites()
		if !ok {
			return
		}

		// Shape and single-sourcing.
		literalSites := map[string][]metricSite{}
		for _, s := range sites {
			if s.name == "" {
				c.Report(s.pos, "metric name is not a compile-time constant: dynamic names cannot be audited against the inventory")
				continue
			}
			if !metricNameRe.MatchString(s.name) {
				c.Report(s.pos, "metric name %q is not lowercase dotted form (want e.g. \"tw.rollbacks\")", s.name)
			}
			if s.literal {
				literalSites[s.name] = append(literalSites[s.name], s)
			}
		}
		for name, ss := range literalSites {
			if len(ss) > 1 {
				for _, s := range ss {
					c.Report(s.pos, "metric %q is registered at %d sites via raw string literals: hoist the name to a single named constant", name, len(ss))
				}
			}
		}

		if c.Cfg.InventoryFile != "" {
			c.checkInventory(sites)
		}
	},
}

// collectMetricSites gathers every Registry/Shard metric registration
// site outside the telemetry package itself. The registry's own
// package registers dynamically (Import, shard spine growth) and is
// exempt.
func (c *Checker) collectMetricSites() ([]metricSite, bool) {
	names := []string{c.Cfg.RegistryType}
	if c.Cfg.ShardType != "" {
		names = append(names, c.Cfg.ShardType)
	}
	recvs := c.resolveNamed(names)
	if len(recvs) == 0 {
		return nil, false
	}
	exempt := map[string]bool{}
	for tn := range recvs {
		exempt[tn.Pkg().Path()] = true
	}
	var sites []metricSite
	for _, pkg := range c.Prog.Packages {
		if exempt[pkg.Path] {
			continue
		}
		sites = append(sites, c.metricSites(pkg, recvs)...)
	}
	return sites, true
}

// metricSites collects Registry/Shard Counter/Gauge/Histogram call
// sites in pkg with the constant name value when there is one.
func (c *Checker) metricSites(pkg *Package, recvs map[*types.TypeName]bool) []metricSite {
	var out []metricSite
	inspect(pkg, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		var kind string
		switch fn.Name() {
		case "Counter":
			kind = "counter"
		case "Gauge":
			kind = "gauge"
		case "Histogram":
			kind = "histogram"
		default:
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return true
		}
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || !recvs[named.Obj()] {
			return true
		}
		site := metricSite{pos: call.Args[0].Pos(), kind: kind}
		if tv, ok := pkg.Info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			site.name = constant.StringVal(tv.Value)
			_, site.literal = call.Args[0].(*ast.BasicLit)
		}
		out = append(out, site)
		return true
	})
	return out
}

// checkInventory diffs the registered (kind, name) set against the
// checked-in inventory file, both directions.
func (c *Checker) checkInventory(sites []metricSite) {
	path := filepath.Join(c.Prog.Root, filepath.FromSlash(c.Cfg.InventoryFile))
	data, err := os.ReadFile(path)
	if err != nil {
		c.diags = append(c.diags, Diagnostic{
			Position: token.Position{Filename: filepath.ToSlash(c.Cfg.InventoryFile)},
			Pass:     c.pass,
			Message:  "metric inventory file is missing: every registered metric must be listed (one \"kind name\" per line)",
		})
		return
	}
	inventory := map[string]string{} // name -> kind
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			c.diags = append(c.diags, Diagnostic{
				Position: token.Position{Filename: filepath.ToSlash(c.Cfg.InventoryFile), Line: i + 1},
				Pass:     c.pass,
				Message:  "malformed inventory line: want \"kind name\"",
			})
			continue
		}
		inventory[fields[1]] = fields[0]
	}
	registered := map[string]string{}
	for _, s := range sites {
		if s.name != "" {
			registered[s.name] = s.kind
		}
	}
	for _, s := range sites {
		if s.name == "" {
			continue
		}
		kind, ok := inventory[s.name]
		if !ok {
			c.Report(s.pos, "metric %q is not in the inventory (%s): add \"%s %s\"", s.name, c.Cfg.InventoryFile, s.kind, s.name)
			continue
		}
		if kind != s.kind {
			c.Report(s.pos, "metric %q is registered as a %s but inventoried as a %s", s.name, s.kind, kind)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(inventory)) {
		if _, ok := registered[name]; !ok {
			c.diags = append(c.diags, Diagnostic{
				Position: token.Position{Filename: filepath.ToSlash(c.Cfg.InventoryFile)},
				Pass:     c.pass,
				Message:  "inventoried metric \"" + name + "\" is registered nowhere: stale entry",
			})
		}
	}
}
