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
// function the spawned body calls. The hedge-leg and
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
// The never-terminates fact follows static calls (a goroutine body whose
// last act is calling a forever-loop helper leaks just the same), walked
// from the go statement over an index of the module's declarations, but
// not into nested `go` statements or function literals — spawning a
// blocked child does not block the parent. Calls through interfaces and
// function values are not followed.
var GoroutineLeakAnalyzer = &Analyzer{
	Name: "goroutine-leak",
	Doc: "flag go statements spawning functions with no reachable termination " +
		"(infinite for/select{} without return, break, or exit call on any path)",
	Run: runGoroutineLeak,
}

func runGoroutineLeak(p *Pass) {
	p.eachFile(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.GoStmt); ok {
				checkSpawn(p, st)
			}
			return true
		})
	})
}

// checkSpawn reports the go statement when its goroutine never terminates:
// a spawned literal with a forever loop of its own, or a spawn that reaches
// a function that never returns through static calls.
func checkSpawn(p *Pass, st *ast.GoStmt) {
	var calls []*types.Func
	if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
		if pos, ok := foreverLoop(p.Pkg, lit.Body); ok {
			lpos := p.Pkg.Fset.Position(pos)
			p.Reportf(st.Pos(),
				"goroutine never terminates: spawned func literal has an infinite loop with no exit at %s:%d — give it a ctx/done-channel exit path or annotate with %s goroutine-leak",
				lpos.Filename, lpos.Line, allowPrefix)
			return
		}
		calls = staticCalls(p.Pkg, lit.Body)
	} else if fn := staticCallee(p.Pkg.Info, st.Call); fn != nil {
		calls = []*types.Func{fn}
	}
	if chain := p.foreverChain(calls, make(map[*types.Func]bool)); chain != nil {
		p.Reportf(st.Pos(),
			"goroutine never terminates: %s — give it a ctx/done-channel exit path or annotate with %s goroutine-leak",
			strings.Join(chain, " → "), allowPrefix)
	}
}

// foreverChain returns the first call path, depth first in source order,
// from one of fns to a module function that never returns: the names along
// it, ending at the cause. seen holds the functions already walked.
func (p *Pass) foreverChain(fns []*types.Func, seen map[*types.Func]bool) []string {
	for _, fn := range fns {
		d := p.decl(fn)
		if d == nil || seen[fn] {
			continue
		}
		seen[fn] = true
		if d.loops {
			return []string{funcName(fn), "infinite loop with no exit"}
		}
		if tail := p.foreverChain(d.calls, seen); tail != nil {
			return append([]string{funcName(fn)}, tail...)
		}
	}
	return nil
}

// funcDecl is what goroutine-leak knows of one module function with a body.
type funcDecl struct {
	loops bool          // the body holds a loop with no exit
	calls []*types.Func // what the body calls statically, in source order
}

// decl returns fn's entry in the index of the run's function declarations,
// or nil when none of them declares a body for fn. The first call builds
// the index, scanning each declaration once.
func (p *Pass) decl(fn *types.Func) *funcDecl {
	if p.run.decls == nil {
		p.run.decls = make(map[*types.Func]*funcDecl)
		for _, pkg := range p.run.pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
						fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
						_, loops := foreverLoop(pkg, fd.Body)
						p.run.decls[fn] = &funcDecl{loops: loops, calls: staticCalls(pkg, fd.Body)}
					}
				}
			}
		}
	}
	return p.run.decls[fn]
}

// staticCalls lists the functions body calls by name, in source order,
// outside function literals and go statements: a spawned call runs on its
// own goroutine, though its arguments are evaluated here.
func staticCalls(pkg *Package, body *ast.BlockStmt) []*types.Func {
	var out []*types.Func
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, visit)
			}
			return false
		case *ast.CallExpr:
			if fn := staticCallee(pkg.Info, n); fn != nil {
				out = append(out, fn)
			}
		}
		return true
	}
	ast.Inspect(body, visit)
	return out
}

// staticCallee resolves a call to the function it names — a package
// function, qualified or instantiated, or a method — or nil for calls of
// function values and builtins. An interface method resolves too, but no
// declaration has a body for it.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, _ := fun.(*ast.Ident)
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// funcName renders fn as pkg.Func or pkg.(*Recv).Method.
func funcName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t, ptr := recv.Type(), ""
		if pt, ok := t.(*types.Pointer); ok {
			t, ptr = pt.Elem(), "*"
		}
		if named, ok := t.(*types.Named); ok {
			name += "(" + ptr + named.Obj().Name() + ")."
		}
	}
	return name + fn.Name()
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
			if st.Cond == nil && !exitsLoop(pkg, st.Body, false) {
				at, found = st.Pos(), true
				return false
			}
		}
		return true
	})
	return at, found
}

// exitsLoop reports whether root, inside an infinite loop, holds a way out
// of it: a return, a goto, a never-returns call, or a break targeting the
// loop — any labeled break (its label encloses the loop), an unlabeled one
// only when no breakable statement (for/range/switch/select) lies between,
// which nested says. Nested function literals are skipped.
func exitsLoop(pkg *Package, root ast.Node, nested bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		switch st := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			found = st.Tok == token.GOTO || st.Tok == token.BREAK && (st.Label != nil || !nested)
		case *ast.CallExpr:
			found = neverReturnsCall(pkg, st)
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			if !nested {
				found = exitsLoop(pkg, n, true)
				return false
			}
		}
		return !found
	})
	return found
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
