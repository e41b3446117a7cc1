package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroutineLeakAnalyzer flags `go` statements whose spawned function has
// no reachable termination: an infinite `for` (or empty `select {}`) with
// no way out on any path, either directly in the spawned body or in a
// function the spawned body unconditionally calls. The hedge-leg and
// supervisor-loop shutdown bugs of PRs 8–9 are exactly this shape — a
// background goroutine that outlives its request or its supervisor — and
// this rule makes reintroducing them a build failure.
//
// A loop counts as exitable when it contains, outside nested function
// literals and reachable by the loop itself:
//
//   - a return statement;
//   - a break that targets the loop (an unlabeled break inside a nested
//     for/switch/select does NOT exit the loop — the classic
//     `for { select { ...: break } }` leak is flagged);
//   - a goto (conservatively assumed to leave the loop);
//   - a call that never returns control: panic, runtime.Goexit, os.Exit,
//     log.Fatal*.
//
// The never-terminates fact propagates through static calls (a goroutine
// body whose last act is calling a forever-loop helper leaks just the
// same), but not across nested `go` statements or function-literal
// creation — spawning a blocked child does not block the parent.
var GoroutineLeakAnalyzer = &Analyzer{
	Name: "goroutine-leak",
	Doc: "flag go statements spawning functions with no reachable termination " +
		"(infinite for/select{} without return, break, or exit call on any path)",
	Run: runGoroutineLeak,
}

func runGoroutineLeak(p *Pass) {
	forever := p.facts(func(g *Graph) map[*Node]*Mark {
		// Seed: functions directly containing an unexitable infinite loop.
		seeds := make(map[*Node]*Mark)
		for _, n := range g.Nodes {
			if pos, ok := foreverLoop(n.Pkg, n.Decl.Body); ok {
				seeds[n] = &Mark{Reason: "infinite loop with no exit", Pos: pos}
			}
		}
		// Propagate over non-literal, non-spawn edges only.
		return propagateUp(g, seeds, false)
	})

	for _, n := range p.Graph().Nodes {
		if n.Pkg != p.Pkg {
			continue
		}
		for _, sp := range n.Spawns {
			switch {
			case sp.Lit != nil:
				checkSpawnedLit(p, sp, forever)
			case sp.Callee != nil && forever[sp.Callee] != nil:
				reportForever(p, sp, forever, sp.Callee)
			}
		}
	}
}

// reportForever reports a spawn whose goroutine ends up in callee, a
// function that never terminates.
func reportForever(p *Pass, sp GoSpawn, forever map[*Node]*Mark, callee *Node) {
	p.ReportChain(sp.Stmt.Pos(), chain(p.Pkg.Fset, forever, callee),
		"goroutine never terminates: %s — give it a ctx/done-channel exit path or annotate with %s goroutine-leak",
		strings.Join(chainTail(forever, callee), " → "), allowPrefix)
}

// checkSpawnedLit analyzes a `go func(){...}()` literal: its own loops,
// plus direct calls to never-terminating module functions.
func checkSpawnedLit(p *Pass, sp GoSpawn, forever map[*Node]*Mark) {
	if pos, ok := foreverLoop(p.Pkg, sp.Lit.Body); ok {
		lpos := p.Pkg.Fset.Position(pos)
		p.Reportf(sp.Stmt.Pos(),
			"goroutine never terminates: spawned func literal has an infinite loop with no exit at %s:%d — give it a ctx/done-channel exit path or annotate with %s goroutine-leak",
			lpos.Filename, lpos.Line, allowPrefix)
		return
	}
	// A literal that (outside nested literals) calls a forever function
	// never returns either.
	var hit *Node
	ast.Inspect(sp.Lit.Body, func(an ast.Node) bool {
		if hit != nil {
			return false
		}
		switch an.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// A nested spawn is its own GoSpawn; skip its call expression.
			return false
		}
		call, isCall := an.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if fn := staticCallee(p.Pkg.Info, call); fn != nil {
			if callee := p.Graph().NodeOf(fn); callee != nil && forever[callee] != nil {
				hit = callee
			}
		}
		return true
	})
	if hit != nil {
		reportForever(p, sp, forever, hit)
	}
}

// foreverLoop scans one function body (skipping nested function literals)
// for an infinite loop or empty select with no exit, returning its
// position.
func foreverLoop(pkg *Package, body *ast.BlockStmt) (token.Pos, bool) {
	var at token.Pos
	found := false
	ast.Inspect(body, func(an ast.Node) bool {
		if found {
			return false
		}
		switch st := an.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if len(st.Body.List) == 0 {
				at, found = st.Pos(), true
				return false
			}
		case *ast.ForStmt:
			if st.Cond == nil && !loopExits(pkg, st) {
				at, found = st.Pos(), true
				return false
			}
		}
		return true
	})
	return at, found
}

// loopExits reports whether the infinite loop has any way out: a return, a
// break targeting it (an unlabeled break only when no nested breakable
// statement intervenes; a labeled break must target an enclosing labeled
// statement and so always escapes), a goto, or a never-returns call — all
// outside nested function literals.
func loopExits(pkg *Package, loop *ast.ForStmt) bool {
	exits := false
	// depth counts the breakable statements (for/range/switch/select)
	// between the loop body and the node, so an unlabeled break can be
	// attributed to the right construct.
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if exits || n == nil {
			return
		}
		switch st := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			exits = true
			return
		case *ast.BranchStmt:
			switch st.Tok {
			case token.BREAK:
				if st.Label != nil || depth == 0 {
					exits = true
				}
			case token.GOTO:
				exits = true
			}
			return
		case *ast.CallExpr:
			if neverReturnsCall(pkg, st) {
				exits = true
				return
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			depth++
		}
		for _, c := range directChildren(n) {
			walk(c, depth)
		}
	}
	for _, c := range directChildren(loop.Body) {
		walk(c, 0)
	}
	return exits
}

// directChildren returns n's immediate AST children.
func directChildren(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true // n itself; descend one level
		}
		if c == nil {
			return true
		}
		out = append(out, c)
		return false
	})
	return out
}

// neverReturnsCall reports whether the call never returns control: the
// panic builtin, runtime.Goexit, os.Exit, or log.Fatal*.
func neverReturnsCall(pkg *Package, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := pkg.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	case *ast.SelectorExpr:
		fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() + "." + fn.Name() {
		case "runtime.Goexit", "os.Exit":
			return true
		case "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}
