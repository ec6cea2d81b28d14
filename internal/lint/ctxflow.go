package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow enforces the context discipline of the result-affecting and
// server packages (DESIGN.md §17): cancellation must be THREADED, not
// retained, and hot loops must actually observe it.
//
// Rule 1 — no retention: a context.Context received as a parameter must
// not be stored into a struct field, a package variable, a container
// element or a composite literal, sent on a channel, or captured by a
// closure that is itself stored. A stored context outlives the request
// that created it, which is how the daemon's per-job timeouts and
// client-disconnect cancellation (§16) silently stop propagating.
// Bound method values (`Interrupt: ctx.Err`) are deliberately NOT
// flagged: storing a cancellation *probe* is the sanctioned way the
// fleet engine threads cancellation into context-free layers.
//
// Rule 2 — cancellation reachable on the back edge: in a function that
// has a cancellation facility available (a context parameter, any
// expression of context type, or an error-returning hook value like
// fleet's Interrupt), a loop that can run unbounded must contain a
// cancellation point inside its natural loop — i.e. reachable on the
// back edge, so it is checked once per iteration, not just on exit
// paths. Unbounded means a condition-less `for` or a worklist loop
// (`for len(q) > 0` where the body grows q). Cancellation points:
// ctx.Done/ctx.Err use, a select, a channel operation, a call to an
// error-returning func-typed value, or a call to a same-package
// function whose own body contains one of these (one level deep —
// covers helpers that wrap a channel send or a select).
//
// Approximations, documented in DESIGN.md §17: condition-less loops
// whose body performs a CompareAndSwap are exempt (lock-free retry
// loops are bounded by contention, not cancellation); functions with no
// facility in scope are exempt entirely — sequential decode loops are
// bounded by their input and cancellation for served jobs is enforced
// at the meter exec boundary.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "context.Context stored past its function, or unbounded loop with no cancellation check on the back edge",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	if !resultAffecting(pass.Pkg.RelPath) {
		return
	}
	decls := packageFuncDecls(pass.Pkg)
	forEachFunc(pass.Pkg, func(ft *ast.FuncType, body *ast.BlockStmt) {
		params := ctxParams(pass.Pkg.Info, ft)
		for _, p := range params {
			checkCtxRetention(pass, body, p)
		}
		checkLoopCancellation(pass, body, decls, len(params) > 0)
	})
}

// forEachFunc visits every function declaration and function literal in
// the package, handing each its type and body exactly once.
func forEachFunc(pkg *Package, visit func(*ast.FuncType, *ast.BlockStmt)) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					visit(fn.Type, fn.Body)
				}
			case *ast.FuncLit:
				visit(fn.Type, fn.Body)
			}
			return true
		})
	}
}

// packageFuncDecls indexes the package's function declarations by their
// types object, for the one-level-deep callee checks.
func packageFuncDecls(pkg *Package) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pkg.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	return decls
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// ctxParams returns the objects of the function's context.Context
// parameters.
func ctxParams(info *types.Info, ft *ast.FuncType) []types.Object {
	var out []types.Object
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil && isContextType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

// checkCtxRetention flags stores that let the context parameter outlive
// the function. The whole body is walked, including nested closures: a
// closure storing the captured parameter retains it just the same.
func checkCtxRetention(pass *Pass, body *ast.BlockStmt, ctx types.Object) {
	info := pass.Pkg.Info
	isCtx := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.Uses[id] == ctx
	}
	mentionsCtx := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && info.Uses[id] == ctx {
				found = true
			}
			return !found
		})
		return found
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if i >= len(st.Lhs) {
					break
				}
				stored := isCtx(rhs)
				// A closure that captures the parameter, assigned to a
				// field or package variable, retains it transitively.
				if !stored {
					if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok && mentionsCtx(lit) {
						stored = true
					}
				}
				if !stored {
					continue
				}
				switch lhs := ast.Unparen(st.Lhs[i]).(type) {
				case *ast.SelectorExpr:
					pass.Reportf(st.Pos(), "context.Context parameter %s is stored into field %s; a stored context outlives its request — thread it through calls (DESIGN.md §17)", ctx.Name(), types.ExprString(lhs))
				case *ast.IndexExpr:
					pass.Reportf(st.Pos(), "context.Context parameter %s is stored into an element of %s; thread it through calls instead (DESIGN.md §17)", ctx.Name(), types.ExprString(lhs.X))
				case *ast.Ident:
					if obj := info.Uses[lhs]; obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
						pass.Reportf(st.Pos(), "context.Context parameter %s is stored into package variable %s; thread it through calls instead (DESIGN.md §17)", ctx.Name(), lhs.Name)
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range st.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isCtx(v) {
					pass.Reportf(v.Pos(), "context.Context parameter %s is stored into a composite literal; a stored context outlives its request — thread it through calls (DESIGN.md §17)", ctx.Name())
				}
			}
		case *ast.SendStmt:
			if isCtx(st.Value) {
				pass.Reportf(st.Pos(), "context.Context parameter %s is sent on a channel; thread it through calls instead (DESIGN.md §17)", ctx.Name())
			}
		}
		return true
	})
}

// checkLoopCancellation applies rule 2 to one function body. hasCtx
// records whether the function takes a context parameter — a facility
// even if the body never names it.
func checkLoopCancellation(pass *Pass, body *ast.BlockStmt, decls map[types.Object]*ast.FuncDecl, hasCtx bool) {
	info := pass.Pkg.Info
	if !hasCtx && !hasCancellationFacility(info, body) {
		return
	}
	var g *FuncCFG // built lazily: most functions have no subject loop
	shallowInspect(body, func(n ast.Node) bool {
		st, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if !subjectLoop(info, st) {
			return true
		}
		if g == nil {
			g = pass.CFG(body)
		}
		lb := g.Loops[st]
		if lb == nil {
			return true
		}
		// A loop whose body never completes an iteration (every path
		// breaks or returns) has no back edge and nothing to check.
		if len(g.backEdgeSources(lb.Header)) == 0 {
			return true
		}
		inLoop := g.NaturalLoop(lb.Header)
		if !loopHasCancellationPoint(info, g, inLoop, decls) {
			pass.Reportf(st.Pos(), "unbounded loop has no cancellation check reachable on its back edge; poll ctx.Err/Done, select on a quit channel, or call the error-returning hook once per iteration (DESIGN.md §17)")
		}
		return true
	})
}

// shallowInspect walks n's subtree but does not descend into nested
// function literals: their loops and cancellation points belong to
// their own function.
func shallowInspect(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return f(m)
	})
}

// hasCancellationFacility reports whether the function could check for
// cancellation at all: it sees a context-typed expression or holds an
// error-returning hook value.
func hasCancellationFacility(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	shallowInspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok && tv.Type != nil && isContextType(tv.Type) {
				found = true
				return false
			}
		}
		if call, ok := n.(*ast.CallExpr); ok && isHookCall(info, call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isHookCall reports whether call invokes a func-typed VALUE (field,
// variable, parameter — not a declared function) whose signature
// returns an error: the fleet Interrupt-hook shape.
func isHookCall(info *types.Info, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	default:
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	sig, ok := v.Type().Underlying().(*types.Signature)
	return ok && returnsError(sig)
}

// subjectLoop reports whether the for statement can run unbounded: no
// condition at all (minus CAS retry loops), or a worklist condition
// over a queue the body grows.
func subjectLoop(info *types.Info, st *ast.ForStmt) bool {
	if st.Cond == nil {
		return !isCASLoop(info, st.Body)
	}
	return isWorklistLoop(info, st)
}

// isCASLoop recognizes the lock-free retry shape: the loop body calls a
// CompareAndSwap. Such loops are bounded by contention; requiring a
// cancellation check inside them would outlaw the stats shards' float
// merge (DESIGN.md §16).
func isCASLoop(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	shallowInspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(info, call); fn != nil && len(fn.Name()) >= 14 && fn.Name()[:14] == "CompareAndSwap" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isWorklistLoop recognizes `for len(q) > 0 { ... q grows ... }`: the
// condition reads len of a local variable that the body appends to,
// pushes into via a pointer-receiver method, or passes by address. An
// event-queue or breadth-first drain is the canonical instance (the
// corpus's Drain).
func isWorklistLoop(info *types.Info, st *ast.ForStmt) bool {
	// Collect the locals whose len() the condition reads.
	lenOf := make(map[types.Object]bool)
	ast.Inspect(st.Cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "len" {
			return true
		}
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := info.Uses[arg]; obj != nil {
				lenOf[obj] = true
			}
		}
		return true
	})
	if len(lenOf) == 0 {
		return false
	}
	grows := false
	isTracked := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && lenOf[info.Uses[id]]
	}
	shallowInspect(st.Body, func(n ast.Node) bool {
		if grows {
			return false
		}
		switch m := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range m.Lhs {
				if !isTracked(lhs) || i >= len(m.Rhs) {
					continue
				}
				if call, ok := ast.Unparen(m.Rhs[i]).(*ast.CallExpr); ok {
					if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
						if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
							grows = true
						}
					}
				}
			}
		case *ast.CallExpr:
			// A method call on the tracked value (h.push(...)) or the
			// value passed by address may grow it.
			if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok && isTracked(sel.X) {
				grows = true
			}
			for _, arg := range m.Args {
				if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND && isTracked(u.X) {
					grows = true
				}
			}
		}
		return !grows
	})
	return grows
}

// loopHasCancellationPoint scans the natural-loop blocks for any
// cancellation point. Every block in the natural loop reaches the back
// edge by construction, so presence in the set IS back-edge
// reachability.
func loopHasCancellationPoint(info *types.Info, g *FuncCFG, inLoop []bool, decls map[types.Object]*ast.FuncDecl) bool {
	for _, blk := range g.Blocks {
		if !inLoop[blk.Index] {
			continue
		}
		switch h := blk.Head.(type) {
		case *ast.SelectStmt:
			return true
		case *ast.RangeStmt:
			// Ranging over a channel blocks until close: a join signal.
			if tv, ok := info.Types[h.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					return true
				}
			}
		}
		for _, n := range blk.Nodes {
			if nodeHasCancellationPoint(info, n, decls, true) {
				return true
			}
		}
	}
	return false
}

// nodeHasCancellationPoint reports whether the node's subtree (not
// descending into closures) contains a cancellation point. followCalls
// lets same-package callees be searched one level deep.
func nodeHasCancellationPoint(info *types.Info, n ast.Node, decls map[types.Object]*ast.FuncDecl, followCalls bool) bool {
	found := false
	shallowInspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch e := m.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[e.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if isCtxProbe(info, e) || isHookCall(info, e) {
				found = true
				return false
			}
			if followCalls {
				if fn := calleeFunc(info, e); fn != nil {
					if fd := decls[fn]; fd != nil && nodeHasCancellationPoint(info, fd.Body, decls, false) {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// isCtxProbe reports a ctx.Done() or ctx.Err() call on a
// context.Context receiver.
func isCtxProbe(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Done" && sel.Sel.Name != "Err" {
		return false
	}
	if tv, ok := info.Types[sel.X]; ok && tv.Type != nil {
		return isContextType(tv.Type)
	}
	return false
}
