package lint

// lockorder: the serving layer and telemetry coordinate through a
// handful of struct-field mutexes (Manager.mu, resultCache.mu, the
// telemetry registry, instrument and series locks). Of the ways to
// order them wrongly, the pass keeps the one the tests do not see: a
// lock acquired after itself, directly or transitively through a
// same-module call. Go's mutexes are not reentrant. A sync.Mutex taken
// twice deadlocks at once, on a path any test that runs it sees; a
// recursive RLock deadlocks only when a writer queues between the two
// read locks, which no test arranges and the race detector does not
// report. (Inverted pairs and locks held across blocking calls stall
// the serving tests when injected — DESIGN.md §11.)
//
// The analysis is flow-aware within a function (branches fork the
// held-set and merge by intersection, branches ending in a terminating
// statement are excluded from the merge) and summary-based across
// functions (each function's transitive "acquires" set propagates to
// callers through same-module static calls). Goroutine bodies launched
// with `go` and stored function literals are analyzed as fresh
// regions — the launcher's locks are not held there. Unknown callees
// (interface methods, function values, other modules) are assumed
// lock-free: the pass prefers a false negative to a false positive,
// because every report must be actionable without an escape hatch.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

var lockOrderPass = &Pass{
	Name: "lockorder",
	Doc:  "no mutex is acquired while already held",
	Run: func(c *Checker) {
		lo := &lockOrder{
			c:         c,
			summaries: map[*types.Func]*fnSummary{},
			disp:      map[types.Object]string{},
		}
		lo.collectSummaries()
		lo.propagate()
		for _, pkg := range c.Prog.Packages {
			if !matchRel(pkg.Rel, c.Cfg.LockOrderPkgs) {
				continue
			}
			lo.analyzePkg(pkg)
		}
	},
}

// heldSet is a set of lock identities.
type heldSet = map[types.Object]bool

// fnSummary is one function's lock-relevant behavior as seen by its
// callers: which mutexes its body (transitively) acquires.
type fnSummary struct {
	acquires heldSet
	callees  map[*types.Func]bool
}

type lockOrder struct {
	c         *Checker
	summaries map[*types.Func]*fnSummary
	disp      map[types.Object]string // lock object -> display name
}

// ---- phase A: per-function summaries, module-wide ----

func (lo *lockOrder) collectSummaries() {
	for _, pkg := range lo.c.Prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				s := &fnSummary{acquires: heldSet{}, callees: map[*types.Func]bool{}}
				lo.summarize(pkg, fd.Body, s)
				lo.summaries[fn] = s
			}
		}
	}
}

// summarize records direct acquisitions and same-module callees.
// Goroutine bodies and non-invoked function literals are skipped: they
// do not run on the caller's stack.
func (lo *lockOrder) summarize(pkg *Package, n ast.Node, s *fnSummary) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			// Visited only when not consumed by the CallExpr case below
			// (immediately-invoked literals are walked there).
			return false
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				lo.summarize(pkg, lit.Body, s)
			}
			if obj, disp, kind := lockCall(pkg, n); kind == lockAcquire {
				s.acquires[obj] = true
				lo.setDisp(obj, disp)
			} else if fn := calleeFunc(pkg, n); kind == lockNone && fn != nil {
				s.callees[fn] = true
			}
		}
		return true
	})
}

// propagate closes summaries under the call graph: a function acquires
// what its callees acquire.
func (lo *lockOrder) propagate() {
	for changed := true; changed; {
		changed = false
		for _, s := range lo.summaries {
			for callee := range s.callees {
				cs, ok := lo.summaries[callee]
				if !ok {
					continue
				}
				for obj := range cs.acquires {
					if !s.acquires[obj] {
						s.acquires[obj] = true
						changed = true
					}
				}
			}
		}
	}
}

// ---- phase B: flow-aware region analysis inside LockOrderPkgs ----

func (lo *lockOrder) analyzePkg(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			r := &lockRegion{lo: lo, pkg: pkg}
			r.block(fd.Body.List, heldSet{})
		}
	}
}

type lockRegion struct {
	lo  *lockOrder
	pkg *Package
}

// block threads the held-set through a statement list and returns the
// set at its end.
func (r *lockRegion) block(list []ast.Stmt, held heldSet) heldSet {
	for _, st := range list {
		held = r.stmt(st, held)
	}
	return held
}

func (r *lockRegion) stmt(st ast.Stmt, held heldSet) heldSet {
	switch st := st.(type) {
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held to the end of the
		// region — no change. A deferred literal runs at return time as
		// its own region; anything else deferred is left alone.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			r.block(lit.Body.List, heldSet{})
		}
	case *ast.GoStmt:
		for _, e := range st.Call.Args {
			r.walk(e, held)
		}
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			r.block(lit.Body.List, heldSet{})
		}
	case *ast.LabeledStmt:
		held = r.stmt(st.Stmt, held)
	case *ast.BlockStmt:
		held = r.block(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			held = r.stmt(st.Init, held)
		}
		r.walk(st.Cond, held)
		var orElse []ast.Stmt // nil: fall through with held unchanged
		if st.Else != nil {
			orElse = []ast.Stmt{st.Else}
		}
		held = r.merge([][]ast.Stmt{st.Body.List, orElse}, held)
	case *ast.ForStmt:
		if st.Init != nil {
			held = r.stmt(st.Init, held)
		}
		r.walk(st.Cond, held)
		r.block(st.Body.List, maps.Clone(held))
	case *ast.RangeStmt:
		r.walk(st.X, held)
		r.block(st.Body.List, maps.Clone(held))
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = r.stmt(st.Init, held)
		}
		r.walk(st.Tag, held)
		held = r.mergeCases(st.Body.List, held)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			held = r.stmt(st.Init, held)
		}
		held = r.mergeCases(st.Body.List, held)
	case *ast.SelectStmt:
		for _, cl := range st.Body.List {
			r.block(cl.(*ast.CommClause).Body, maps.Clone(held))
		}
	default:
		// Simple statements: expressions, assignments, declarations,
		// sends, returns.
		r.walk(st, held)
	}
	return held
}

// merge runs each branch on a fork of held and intersects the results,
// skipping branches that end in a terminating statement (their lock
// state never flows past the construct). nil represents an absent else
// branch: fall-through with held unchanged.
func (r *lockRegion) merge(branches [][]ast.Stmt, held heldSet) heldSet {
	var outs []heldSet
	for _, b := range branches {
		out := r.block(b, maps.Clone(held))
		if !terminates(b) {
			outs = append(outs, out)
		}
	}
	if len(outs) == 0 {
		return maps.Clone(held)
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		for k := range merged {
			if !o[k] {
				delete(merged, k)
			}
		}
	}
	return merged
}

func (r *lockRegion) mergeCases(clauses []ast.Stmt, held heldSet) heldSet {
	branches := [][]ast.Stmt{nil} // no case taken / default absent
	for _, cl := range clauses {
		if cc, ok := cl.(*ast.CaseClause); ok {
			branches = append(branches, cc.Body)
		}
	}
	return r.merge(branches, held)
}

// terminates reports whether a statement list certainly does not fall
// through (return, branch, or panic at the end).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(last.List)
	case *ast.IfStmt:
		if last.Else != nil {
			return terminates(last.Body.List) && terminates([]ast.Stmt{last.Else})
		}
	}
	return false
}

// walk visits the calls in n under the current held-set: acquisitions
// and releases mutate it, same-module calls are checked against it. An
// immediately invoked literal runs on this stack with the caller's
// locks held; any other literal is stored for later and analyzed as a
// fresh region.
func (r *lockRegion) walk(n ast.Node, held heldSet) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			r.block(n.Body.List, heldSet{})
			return false
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				for _, a := range n.Args {
					r.walk(a, held)
				}
				r.block(lit.Body.List, held)
				return false
			}
			switch obj, disp, kind := lockCall(r.pkg, n); kind {
			case lockAcquire:
				r.acquire(n.Pos(), obj, disp, held)
			case lockRelease:
				delete(held, obj)
			default:
				fn := calleeFunc(r.pkg, n)
				if s := r.lo.summaries[fn]; s != nil {
					r.applySummary(n.Pos(), fn, s, held)
				}
			}
		}
		return true
	})
}

func (r *lockRegion) acquire(pos token.Pos, obj types.Object, disp string, held heldSet) {
	r.lo.setDisp(obj, disp)
	if held[obj] {
		r.lo.c.Report(pos, "mutex %s acquired while already held: recursive acquisition deadlocks", disp)
	}
	held[obj] = true
}

// applySummary checks a same-module call's transitive acquisitions
// against the caller's held-set.
func (r *lockRegion) applySummary(pos token.Pos, fn *types.Func, s *fnSummary, held heldSet) {
	for obj := range s.acquires {
		if held[obj] {
			r.lo.c.Report(pos, "call to %s acquires mutex %s, which is already held: recursive acquisition deadlocks",
				funcDisplay(fn), r.lo.disp[obj])
		}
	}
}

func (lo *lockOrder) setDisp(obj types.Object, disp string) {
	if _, ok := lo.disp[obj]; !ok {
		lo.disp[obj] = disp
	}
}

// ---- lock-call classification ----

type lockCallKind int

const (
	lockNone lockCallKind = iota
	lockAcquire
	lockRelease
)

// lockCall classifies a call as a mutex acquire/release and resolves a
// stable identity for the lock: the struct field object for m.mu-style
// receivers, the variable object for plain mutex vars.
func lockCall(pkg *Package, call *ast.CallExpr) (types.Object, string, lockCallKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", lockNone
	}
	method := calleeFunc(pkg, call)
	if method == nil || method.Pkg() == nil || method.Pkg().Path() != "sync" {
		return nil, "", lockNone
	}
	var kind lockCallKind
	switch method.Name() {
	case "Lock", "RLock":
		kind = lockAcquire
	case "Unlock", "RUnlock":
		kind = lockRelease
	default:
		return nil, "", lockNone
	}
	x := unparenDeref(sel.X)
	var obj types.Object
	switch e := x.(type) {
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[e.Sel]
	case *ast.Ident:
		obj = pkg.Info.Uses[e]
	}
	v, ok := obj.(*types.Var)
	if !ok || !isMutexType(v.Type()) {
		return nil, "", lockNone
	}
	disp := v.Name()
	if e, ok := x.(*ast.SelectorExpr); ok && v.IsField() {
		disp = namedTypeName(pkg.Info.TypeOf(e.X)) + "." + disp
	}
	return v, disp, kind
}

func unparenDeref(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				e = x.X
				continue
			}
			return e
		default:
			return e
		}
	}
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && (obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// calleeFunc resolves a call's static target to a function or method;
// interface dispatch still resolves (to the interface method, which has
// no summary), function values return nil.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[fun]; ok {
			obj = s.Obj()
		} else {
			obj = pkg.Info.Uses[fun.Sel]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func funcDisplay(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name := namedTypeName(sig.Recv().Type()); name != "" {
			return name + "." + fn.Name()
		}
	}
	return fn.Name()
}
