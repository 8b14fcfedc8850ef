// Package lint is ggvet: a domain-aware static-analysis suite for the
// bugs this repository's tests cannot see. Six passes: determinism (no
// wall clock, global rand, free goroutines, multi-channel selects, map
// ranges or unstable sorts in the simulation core), pooledescape (no
// pool-recycled event kept outside its owner packages), telemetryname
// (metric names constant, dotted, and equal to the checked-in
// inventory), ctxplumb (contexts threaded, not re-minted, below the API
// boundary), lockorder (no mutex acquired while already held) and
// goroleak (every goroutine joined or cancellable). Each is kept
// because an injected bug of its class got past every other CI gate
// and this pass caught it (DESIGN.md §11). The passes are deliberately
// repo-shaped: they know which packages form the deterministic core,
// which types are pool-recycled, and where metrics are registered.
//
// Intentional exceptions carry a //ggvet:allow(<reason>) annotation on
// the offending line or the line above. The reason is mandatory, and
// an annotation without one, or one that suppresses no finding, is
// itself a diagnostic.
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

	pass   string
	diags  []Diagnostic
	allows map[string]map[int]*allowSite // filename -> line -> annotation
}

// allowSite is one well-formed //ggvet:allow annotation; used records
// that it covered a finding.
type allowSite struct {
	pos  token.Pos
	used bool
}

// allowRe is the annotation grammar: a parenthesized reason, optionally
// followed by another // comment.
var allowRe = regexp.MustCompile(`^//ggvet:allow\((.*?)\)\s*(//.*)?$`)

// NewChecker indexes allow annotations and returns a checker ready to
// run passes. Malformed annotations (no parentheses, empty reason) are
// reported immediately under the pseudo-pass "allow".
func NewChecker(prog *Program, cfg Config) *Checker {
	c := &Checker{Prog: prog, Cfg: cfg, allows: map[string]map[int]*allowSite{}}
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
						c.allowDiag(cm.Pos(), "ggvet:allow needs a reason: //ggvet:allow(<reason>)")
						continue
					}
					pos := prog.Fset.Position(cm.Pos())
					lines := c.allows[pos.Filename]
					if lines == nil {
						lines = map[int]*allowSite{}
						c.allows[pos.Filename] = lines
					}
					lines[pos.Line] = &allowSite{pos: cm.Pos()}
				}
			}
		}
	}
	return c
}

// Run executes the passes and returns all diagnostics sorted by
// position. An allow annotation that covered no finding of these passes
// is itself a diagnostic: once the pass it was written for is gone, it
// guards nothing.
func (c *Checker) Run(passes []*Pass) []Diagnostic {
	for _, p := range passes {
		c.pass = p.Name
		p.Run(c)
	}
	for _, lines := range c.allows {
		for _, a := range lines {
			if !a.used {
				c.allowDiag(a.pos, "ggvet:allow suppresses no finding: delete it")
			}
		}
	}
	sort.Slice(c.diags, func(i, j int) bool {
		a, b := c.diags[i], c.diags[j]
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
	return c.diags
}

// Report records a diagnostic at pos, unless an allow annotation covers
// the line (same line, or the line immediately above), which it then
// marks used.
func (c *Checker) Report(pos token.Pos, format string, args ...any) {
	position := c.Prog.Fset.Position(pos)
	lines := c.allows[position.Filename]
	a, ok := lines[position.Line]
	if !ok {
		a, ok = lines[position.Line-1]
	}
	if ok {
		a.used = true
		return
	}
	c.diags = append(c.diags, Diagnostic{Position: position, Pass: c.pass, Message: fmt.Sprintf(format, args...)})
}

// allowDiag records a finding about an annotation itself, which no
// annotation can suppress.
func (c *Checker) allowDiag(pos token.Pos, msg string) {
	c.diags = append(c.diags, Diagnostic{Position: c.Prog.Fset.Position(pos), Pass: "allow", Message: msg})
}

// Passes returns the full suite in a stable order.
func Passes() []*Pass {
	return []*Pass{
		determinismPass,
		pooledEscapePass,
		telemetryNamePass,
		ctxPlumbPass,
		lockOrderPass,
		goroLeakPass,
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
