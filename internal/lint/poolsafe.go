package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolSafe statically enforces the DESIGN.md §10 sync.Pool ownership
// rules at every sync.Pool.Get call site: the gotten value must stay
// function-local — never stored into a struct field, package variable or
// container, never returned, never sent on a channel — and must reach a
// matching Put on every non-panic path before it goes out of scope.
// Violating either rule lets two owners see one pooled object, which is
// exactly the aliasing the arena/pool rewrite's determinism argument
// forbids.
//
// The analysis proves the Put obligation with a forward
// may-dataflow over the function's control-flow graph (cfg.go): the
// tracked state is "a path exists on which Get has executed but the
// value has not yet been Put or transferred". The Get binding generates
// the obligation, Put(x)/Put(&x), a call to an //pcaplint:owner-transfer
// function with x as an argument, or a defer doing either kills it (a
// defer is an exit-edge action: it covers exactly the exits reachable
// from its registration point), and any return-sink edge reached while
// the obligation may be outstanding is a leak — reported once per Get
// site at the first (earliest) leaking return, or at the Get itself
// when the leak is falling off the end of the body. Panic exits are
// exempt. Unlike a structural walk over statements in source order, the
// dataflow follows goto, labeled break/continue, switch and select
// paths, so an early error return reached through any of them is
// covered.
//
// Remaining approximations, all documented in DESIGN.md §17: aliasing
// through a second variable is invisible (the analysis tracks the bound
// ident's types.Object only); rebinding the variable while obligated is
// treated as the same obligation continuing; a value bound by rebinding
// a variable that is declared outside the enclosing function (a
// captured closure variable) is only escape-checked, since its Put may
// legally happen in the enclosing function after the closure returns.
//
// Two escape hatches, both spelled in the source where reviewers see
// them:
//
//   - a function whose doc comment carries //pcaplint:owner-transfer is a
//     designated transfer point. Inside it, Get results may be returned
//     (the caller takes ownership — the repo's get/put accessor pairs);
//     passing a pooled value TO such a function transfers ownership away
//     and satisfies the Put obligation.
//   - a reasoned //pcaplint:ignore poolsafe directive, for cases the
//     analysis cannot follow.
//
// It runs on every package: pooling outside the hot path still needs
// correct ownership.
var PoolSafe = &Analyzer{
	Name: "poolsafe",
	Doc:  "sync.Pool.Get value escapes its function or misses Put on a non-panic path (CFG dataflow)",
	Run:  runPoolSafe,
}

func runPoolSafe(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// A designated transfer point is audited by hand; its Get may
			// flow to the caller.
			if obj := pass.Pkg.Info.Defs[fd.Name]; obj != nil && pass.OwnerTransfer(obj) {
				continue
			}
			checkPoolGets(pass, fd)
		}
	}
}

// checkPoolGets finds every sync.Pool.Get call under fd and vets its
// binding, escapes, and Put coverage.
func checkPoolGets(pass *Pass, fd *ast.FuncDecl) {
	var stack []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if call, ok := n.(*ast.CallExpr); ok && isPoolMethod(pass.Pkg.Info, call, "Get") {
			checkGetSite(pass, call, append([]ast.Node(nil), stack...))
		}
		return true
	})
}

// isPoolMethod reports whether call invokes the named method of
// sync.Pool.
func isPoolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != name {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}

// checkGetSite classifies how one Get call's result is used. stack runs
// from the enclosing FuncDecl down to the call itself.
func checkGetSite(pass *Pass, call *ast.CallExpr, stack []ast.Node) {
	// Walk up through the type assertion / parens wrapping the call.
	i := len(stack) - 2
	for i >= 0 {
		switch stack[i].(type) {
		case *ast.TypeAssertExpr, *ast.ParenExpr:
			i--
			continue
		}
		break
	}
	if i < 0 {
		return
	}
	switch parent := stack[i].(type) {
	case *ast.AssignStmt:
		checkBoundGet(pass, call, parent, stack[:i])
	case *ast.ReturnStmt:
		pass.Reportf(call.Pos(), "sync.Pool value is returned directly; only an //pcaplint:owner-transfer function may hand a pooled value to its caller")
	case *ast.CallExpr:
		if fn := calleeFunc(pass.Pkg.Info, parent); fn != nil && pass.OwnerTransfer(fn) {
			return
		}
		pass.Reportf(call.Pos(), "sync.Pool value is passed straight to a call; bind it to a variable so its Put is checkable")
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), "sync.Pool value is discarded; bind it and Put it back")
	default:
		pass.Reportf(call.Pos(), "sync.Pool value is used in an unanalyzed position; bind it with x := pool.Get().(*T)")
	}
}

// checkBoundGet handles `x := pool.Get().(*T)` (plain or comma-ok,
// including as an if/switch init) — the supported binding shapes. It
// runs the escape scan and then the must-reach-Put dataflow over the
// enclosing function's CFG.
func checkBoundGet(pass *Pass, call *ast.CallExpr, assign *ast.AssignStmt, outer []ast.Node) {
	lhs, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
	if !ok {
		pass.Reportf(call.Pos(), "sync.Pool value is assigned to a non-variable; bind it with x := pool.Get().(*T)")
		return
	}
	if lhs.Name == "_" {
		pass.Reportf(call.Pos(), "sync.Pool value is discarded; bind it and Put it back")
		return
	}
	info := pass.Pkg.Info
	obj := info.Defs[lhs]
	if obj == nil {
		obj = info.Uses[lhs]
	}
	if obj == nil {
		return
	}

	// The innermost enclosing function owns the CFG the value flows
	// through; a Get inside a closure is checked against the closure's
	// own body.
	body := enclosingFuncBody(outer)
	if body == nil {
		return
	}

	// The comma-ok idiom `if x, ok := pool.Get().(*T); ok { ... }`
	// only yields a live value on the ok branch: the obligation is
	// generated at the then-branch entry, not at the assignment.
	var commaOkIf *ast.IfStmt
	if len(assign.Lhs) == 2 && len(outer) > 0 {
		if ifStmt, ok := outer[len(outer)-1].(*ast.IfStmt); ok && ifStmt.Init == assign {
			commaOkIf = ifStmt
		}
	}

	c := &poolCheck{pass: pass, obj: obj, get: call}
	// Escape scan: AST-structural, over every statement the value can
	// live through (anything ending at or after the binding).
	for _, s := range statementsFrom(body, assign) {
		c.escapes(s)
	}
	if c.done {
		return
	}

	// Rebinding a variable that is declared OUTSIDE this function (a
	// captured closure variable): the enclosing function may Put it
	// after this one returns, so only the escape scan applies.
	if assign.Tok != token.DEFINE && !(body.Pos() <= obj.Pos() && obj.Pos() <= body.End()) {
		return
	}

	c.flow(pass.CFG(body), assign, commaOkIf)
}

// enclosingFuncBody returns the body of the innermost function literal
// or declaration on the stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			return fn.Body
		case *ast.FuncDecl:
			return fn.Body
		}
	}
	return nil
}

// statementsFrom returns the top-level statements of body that end at
// or after the binding — the statements the bound value can live
// through.
func statementsFrom(body *ast.BlockStmt, assign *ast.AssignStmt) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range body.List {
		if s.End() >= assign.Pos() {
			out = append(out, s)
		}
	}
	return out
}

// poolCheck tracks one bound pool value.
type poolCheck struct {
	pass *Pass
	obj  types.Object
	get  *ast.CallExpr
	done bool // one finding per Get site
}

func (c *poolCheck) violate(pos token.Pos, format string, args ...any) {
	if c.done {
		return
	}
	c.done = true
	c.pass.Reportf(pos, format, args...)
}

// flow runs the must-reach-Put dataflow: a may-analysis of the
// outstanding obligation (state 1 = "some path got the value and has
// not Put it"), joined with OR at merges.
func (c *poolCheck) flow(g *FuncCFG, assign *ast.AssignStmt, commaOkIf *ast.IfStmt) {
	// Locate the generation point.
	var genNode ast.Node = assign
	var genBlock *CFGBlock
	if commaOkIf != nil {
		// The block holding the if's init assignment branches to the
		// then body first (cfg.go's documented edge order).
		for _, blk := range g.Blocks {
			for _, n := range blk.Nodes {
				if n == ast.Node(assign) {
					if len(blk.Succs) > 0 {
						genBlock = blk.Succs[0]
					}
				}
			}
		}
		if genBlock == nil {
			return
		}
		genNode = nil
	}

	transfer := func(blk *CFGBlock, in uint8) uint8 {
		s := in
		if blk == genBlock {
			s = 1
		}
		for _, n := range blk.Nodes {
			if n == genNode {
				s = 1
				continue
			}
			if s == 1 && c.consumesNode(n) {
				s = 0
			}
		}
		return s
	}
	in, reachable := g.Forward(0,
		func(a, b uint8) uint8 { return a | b },
		transfer)

	// Report the earliest return reached while the obligation may be
	// outstanding; falling off the end of the body counts too, blamed
	// on the Get itself. Panic-sink edges are exempt.
	var (
		firstReturn token.Pos
		fallsOff    bool
	)
	for _, blk := range g.Blocks {
		if !reachable[blk.Index] || !hasEdgeTo(blk, g.Return) {
			continue
		}
		s := in[blk.Index]
		if blk == genBlock {
			s = 1
		}
		endsInReturn := false
		for _, n := range blk.Nodes {
			if n == genNode {
				s = 1
				continue
			}
			if s == 1 && c.consumesNode(n) {
				s = 0
			}
			if ret, ok := n.(*ast.ReturnStmt); ok && s == 1 {
				if firstReturn == token.NoPos || ret.Pos() < firstReturn {
					firstReturn = ret.Pos()
				}
			}
			if _, ok := n.(*ast.ReturnStmt); ok {
				endsInReturn = true
			}
		}
		if !endsInReturn && s == 1 {
			fallsOff = true
		}
	}
	switch {
	case firstReturn != token.NoPos:
		c.violate(firstReturn, "sync.Pool value does not reach Put before this return; Put it on every non-panic path or hand it to an //pcaplint:owner-transfer function")
	case fallsOff:
		c.violate(c.get.Pos(), "sync.Pool value goes out of scope without Put; Put it on every non-panic path or hand it to an //pcaplint:owner-transfer function")
	}
}

func hasEdgeTo(from, to *CFGBlock) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

// escapes reports stores that would give the pooled value a second
// owner.
func (c *poolCheck) escapes(s ast.Stmt) {
	ast.Inspect(s, func(n ast.Node) bool {
		if c.done {
			return false
		}
		switch st := n.(type) {
		case *ast.FuncLit:
			// Closures are outside the model; defer func(){Put(x)}() is
			// still recognized by the dataflow's subtree search.
			return false
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if !c.isObj(rhs) || i >= len(st.Lhs) {
					continue
				}
				switch lhs := ast.Unparen(st.Lhs[i]).(type) {
				case *ast.SelectorExpr:
					c.violate(st.Pos(), "sync.Pool value is stored into field %s; pooled values must stay function-local (DESIGN.md §10)", types.ExprString(lhs))
				case *ast.IndexExpr:
					c.violate(st.Pos(), "sync.Pool value is stored into an element of %s; pooled values must stay function-local (DESIGN.md §10)", types.ExprString(lhs.X))
				case *ast.Ident:
					if obj := c.pass.Pkg.Info.Uses[lhs]; obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
						c.violate(st.Pos(), "sync.Pool value is stored into package variable %s; pooled values must stay function-local (DESIGN.md §10)", lhs.Name)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				if c.mentionsObj(res) {
					c.violate(st.Pos(), "sync.Pool value is returned; only an //pcaplint:owner-transfer function may hand a pooled value to its caller")
					return false
				}
			}
		case *ast.SendStmt:
			if c.mentionsObj(st.Value) {
				c.violate(st.Pos(), "sync.Pool value is sent on a channel; pooled values must stay function-local (DESIGN.md §10)")
			}
		case *ast.GoStmt:
			if c.mentionsObj(st.Call) {
				c.violate(st.Pos(), "sync.Pool value is captured by a go statement; the goroutine may outlive the Put")
			}
		}
		return !c.done
	})
}

// consumesNode reports whether the node's subtree puts the value back
// (pool.Put(x), pool.Put(&x), defer pool.Put(x), including inside a
// deferred closure) or hands it to an //pcaplint:owner-transfer
// function.
func (c *poolCheck) consumesNode(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		transfer := false
		if isPoolMethod(c.pass.Pkg.Info, call, "Put") {
			transfer = true
		} else if fn := calleeFunc(c.pass.Pkg.Info, call); fn != nil && c.pass.OwnerTransfer(fn) {
			transfer = true
		}
		if !transfer {
			return true
		}
		for _, arg := range call.Args {
			a := ast.Unparen(arg)
			if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND {
				a = ast.Unparen(u.X)
			}
			if c.isObj(a) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isObj reports whether e is exactly the tracked variable.
func (c *poolCheck) isObj(e ast.Expr) bool {
	ident, ok := ast.Unparen(e).(*ast.Ident)
	return ok && c.pass.Pkg.Info.Uses[ident] == c.obj
}

// mentionsObj reports whether the tracked variable appears anywhere in
// e.
func (c *poolCheck) mentionsObj(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if ident, ok := n.(*ast.Ident); ok && c.pass.Pkg.Info.Uses[ident] == c.obj {
			found = true
		}
		return !found
	})
	return found
}

// isTerminalCall recognizes calls that end the path without returning:
// panic, os.Exit, runtime.Goexit, and Fatal-family helpers.
func isTerminalCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if ident, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[ident].(*types.Builtin); isBuiltin && ident.Name == "panic" {
			return true
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "os" && name == "Exit" {
		return true
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "runtime" && name == "Goexit" {
		return true
	}
	return name == "Fatal" || name == "Fatalf" || name == "Fatalln"
}
