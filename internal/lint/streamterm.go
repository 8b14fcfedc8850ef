package lint

// streamterm: every constant of the configured frame-kind enums
// (dist.MsgKind, dist.OpCode) must have at least one producer use (a
// send/encode site: call argument, assignment, composite literal) and
// one consumer use (a dispatch site: case label or ==/!= comparison)
// outside String/Parse name tables. A kind nobody can produce is dead
// wire surface; a kind nobody dispatches is silently dropped or
// misrouted on receive — the enumexhaustive pass checks that switches
// are complete, this one checks that both directions of the codec exist
// at all.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var streamTermPass = &Pass{
	Name: "streamterm",
	Doc:  "every frame kind has a producer and a consumer",
	Run:  func(c *Checker) { c.checkFrameKinds() },
}

func (c *Checker) checkFrameKinds() {
	kinds := c.resolveNamed(c.Cfg.FrameKindTypes)
	if len(kinds) == 0 {
		return
	}
	type usage struct {
		producer bool
		consumer bool
	}
	use := map[*types.Const]*usage{}
	var order []*types.Const
	for tn := range kinds {
		for _, cn := range enumConstants(c.Prog, tn) {
			use[cn] = &usage{}
			order = append(order, cn)
		}
	}
	for _, pkg := range c.Prog.Packages {
		for _, f := range pkg.Files {
			var path []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					path = path[:len(path)-1]
					return true
				}
				path = append(path, n)
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				cn, ok := pkg.Info.Uses[id].(*types.Const)
				if !ok {
					return true
				}
				u, tracked := use[cn]
				if !tracked || inNameTable(path) {
					return true
				}
				if constUseIsConsumer(path) {
					u.consumer = true
				} else {
					u.producer = true
				}
				return true
			})
		}
	}
	sortConsts(order)
	for _, cn := range order {
		u := use[cn]
		if !u.producer {
			c.Report(cn.Pos(), "frame kind %s has no producer (send/encode) site outside String/Parse tables: a kind nobody can emit is dead wire surface", cn.Name())
		}
		if !u.consumer {
			c.Report(cn.Pos(), "frame kind %s has no consumer (case label or ==/!= dispatch) outside String/Parse tables: a received frame of this kind is silently dropped or misrouted", cn.Name())
		}
	}
}

func sortConsts(cs []*types.Const) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Pos() < cs[j-1].Pos(); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// inNameTable reports whether the use sits inside a String method or a
// Parse* function — the name tables that mention every constant by
// construction and would trivially satisfy both directions.
func inNameTable(path []ast.Node) bool {
	for _, n := range path {
		fd, ok := n.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fd.Name.Name == "String" || strings.HasPrefix(fd.Name.Name, "Parse") {
			return true
		}
	}
	return false
}

// constUseIsConsumer classifies the use: case labels and ==/!=
// comparisons consume (dispatch on) a kind; everything else (call
// arguments, assignments, composite literals, returns) produces one.
func constUseIsConsumer(path []ast.Node) bool {
	// path ends at the Ident; its user is the nearest interesting
	// ancestor (skipping selector wrappers like dist.KindInit).
	for i := len(path) - 2; i >= 0; i-- {
		switch n := path[i].(type) {
		case *ast.SelectorExpr, *ast.ParenExpr:
			continue
		case *ast.BinaryExpr:
			return n.Op == token.EQL || n.Op == token.NEQ
		case *ast.CaseClause:
			return true
		default:
			return false
		}
	}
	return false
}
