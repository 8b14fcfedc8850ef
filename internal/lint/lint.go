// Package lint is ggvet: a domain-aware static-analysis suite that
// mechanically enforces the invariants the engine's guarantees rest on
// — determinism of the simulation core, event/snapshot pool hygiene,
// enum/codec exhaustiveness, telemetry naming, context plumbing, and
// (since PR 10) the serving layer's concurrency discipline: lock
// acquisition order, channel-close ownership, goroutine tracking, and
// wire frame-kind coverage. The passes are deliberately repo-shaped: they
// know which packages form the deterministic core, which types are
// pool-recycled, and which struct fields are mutexes worth ordering,
// so a future change that silently breaks byte-identical trajectories
// or deadlocks the fleet fails `make lint` instead of surviving until
// an unreproducible run.
//
// Intentional exceptions carry a //ggvet:allow(<reason>) annotation on
// the offending line or the line above; the reason is mandatory and
// its absence is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, formatted file:line:col: [pass] message —
// the shape editors jump to.
type Diagnostic struct {
	Position token.Position
	Pass     string
	Message  string
	// Suppressed marks a finding covered by a //ggvet:allow annotation;
	// Reason carries the annotation's reason. Suppressed findings never
	// fail a run — they exist so `ggvet -json` can hand tooling the
	// complete ledger, accepted exceptions included.
	Suppressed bool
	Reason     string
}

// String renders the diagnostic for terminals and editors.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Position.Filename, d.Position.Line, d.Position.Column, d.Pass, d.Message)
}

// Pass is one analysis. Run inspects every package and reports through
// the Checker; cross-package checks see the whole Program.
type Pass struct {
	Name string
	Doc  string
	Run  func(c *Checker)
}

// Checker carries one analysis run: the loaded program, the
// repo-shape configuration, the allow-annotation index and the
// accumulated diagnostics.
type Checker struct {
	Prog *Program
	Cfg  Config

	pass       string
	diags      []Diagnostic
	suppressed []Diagnostic
	allows     map[string]map[int]string // filename -> line -> reason
}

var allowRe = regexp.MustCompile(`^//ggvet:allow\((.*)\)\s*$`)

// NewChecker indexes allow annotations and returns a checker ready to
// run passes. Malformed annotations (no parentheses, empty reason) are
// reported immediately under the pseudo-pass "allow".
func NewChecker(prog *Program, cfg Config) *Checker {
	c := &Checker{Prog: prog, Cfg: cfg, allows: map[string]map[int]string{}}
	c.pass = "allow"
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, cm := range cg.List {
					text := cm.Text
					if !strings.HasPrefix(text, "//ggvet:allow") {
						continue
					}
					m := allowRe.FindStringSubmatch(text)
					if m == nil || strings.TrimSpace(m[1]) == "" {
						c.Report(cm.Pos(), "ggvet:allow needs a reason: //ggvet:allow(<reason>)")
						continue
					}
					pos := prog.Fset.Position(cm.Pos())
					lines := c.allows[pos.Filename]
					if lines == nil {
						lines = map[int]string{}
						c.allows[pos.Filename] = lines
					}
					lines[pos.Line] = strings.TrimSpace(m[1])
				}
			}
		}
	}
	return c
}

// Run executes the passes and returns all diagnostics sorted by
// position.
func (c *Checker) Run(passes []*Pass) []Diagnostic {
	for _, p := range passes {
		c.pass = p.Name
		p.Run(c)
	}
	sortDiags(c.diags)
	return c.diags
}

// sortDiags orders diagnostics by position, then message.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Message < b.Message
	})
}

// Report records a diagnostic at pos. When an allow annotation covers
// the line (same line, or the line immediately above) the finding is
// recorded as suppressed with the annotation's reason instead of
// active, so Run still passes but the JSON ledger keeps the exception.
func (c *Checker) Report(pos token.Pos, format string, args ...any) {
	position := c.Prog.Fset.Position(pos)
	d := Diagnostic{Position: position, Pass: c.pass, Message: fmt.Sprintf(format, args...)}
	if lines, ok := c.allows[position.Filename]; ok {
		reason, ok := lines[position.Line]
		if !ok {
			reason, ok = lines[position.Line-1]
		}
		if ok {
			d.Suppressed = true
			d.Reason = reason
			c.suppressed = append(c.suppressed, d)
			return
		}
	}
	c.diags = append(c.diags, d)
}

// Suppressed returns the findings //ggvet:allow annotations absorbed
// during Run, sorted by position — the accepted-exception ledger.
func (c *Checker) Suppressed() []Diagnostic {
	sortDiags(c.suppressed)
	return c.suppressed
}

// allowedAt reports whether an allow annotation covers pos (same line
// or the line above). Passes whose verdict depends on counting sites —
// chanlife's single-owner rule — use it to treat an annotated site as
// audited instead of merely hiding one of the pair's two reports.
func (c *Checker) allowedAt(pos token.Pos) bool {
	position := c.Prog.Fset.Position(pos)
	lines, ok := c.allows[position.Filename]
	if !ok {
		return false
	}
	if _, ok := lines[position.Line]; ok {
		return true
	}
	_, ok = lines[position.Line-1]
	return ok
}

// Passes returns the full suite in a stable order.
func Passes() []*Pass {
	return []*Pass{
		determinismPass,
		pooledEscapePass,
		enumExhaustivePass,
		telemetryNamePass,
		ctxPlumbPass,
		lockOrderPass,
		chanLifePass,
		goroLeakPass,
		streamTermPass,
	}
}

// resolveNamed maps fully qualified "pkgpath.Name" strings to their
// type-name objects in the loaded module. Unknown names are skipped:
// a config can mention types a partial load does not contain.
func (c *Checker) resolveNamed(qualified []string) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, q := range qualified {
		i := strings.LastIndex(q, ".")
		if i < 0 {
			continue
		}
		pkgPath, name := q[:i], q[i+1:]
		pk, ok := c.Prog.byPath[pkgPath]
		if !ok || pk.Types == nil {
			continue
		}
		if tn, ok := pk.Types.Scope().Lookup(name).(*types.TypeName); ok {
			out[tn] = true
		}
	}
	return out
}

// relFile returns the module-relative slash path of pos's file.
func (c *Checker) relFile(pos token.Pos) string {
	name := c.Prog.Fset.Position(pos).Filename
	rel, err := filepath.Rel(c.Prog.Root, name)
	if err != nil {
		return name
	}
	return filepath.ToSlash(rel)
}

// inspect walks every file of pkg with ast.Inspect.
func inspect(pkg *Package, fn func(ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, fn)
	}
}

// matchRel reports whether a module-relative package path is listed.
// Entries match exactly, or as a prefix when they end in "/...".
func matchRel(rel string, list []string) bool {
	for _, e := range list {
		if e == rel {
			return true
		}
		if p, ok := strings.CutSuffix(e, "/..."); ok {
			if rel == p || strings.HasPrefix(rel, p+"/") {
				return true
			}
		}
	}
	return false
}
