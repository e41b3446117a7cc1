package lint

import (
	"go/ast"
	"go/types"
)

// SpanBalanceAnalyzer enforces span lifecycle balance: every span-creating
// call (trace.Tracer StartTrace/StartRemote, Active.StartChild, and the
// repro facade's StartPlanSpan) must either reach .End()
// inside the enclosing function — directly, deferred, or in a nested
// closure — or visibly escape it (returned, stored, passed along), in which
// case the lifetime is the receiver's problem. A span that is assigned and
// then silently dropped never closes: the tracer's open-span accounting
// drifts and exported forests hold half-open spans. Deliberate
// cross-function lifetimes carry //repllint:allow span-balance with a
// justification.
var SpanBalanceAnalyzer = &Analyzer{
	Name: "span-balance",
	Doc: "every trace span creation must be .End()ed in the same " +
		"function or escape it",
	Run: runSpanBalance,
}

// spanCreators maps a defining package name to its span-creating function
// and method names. Matching is by type-resolved callee, not source text,
// so receiver variables named anything (including "trace") resolve
// correctly.
var spanCreators = map[string]map[string]bool{
	"trace": {"StartTrace": true, "StartRemote": true, "StartChild": true},
	"repro": {"StartPlanSpan": true},
}

func runSpanBalance(p *Pass) {
	p.eachFile(func(f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				p.spanScan(fd.Body)
			}
		}
	})
}

// spanScan finds span creations whose innermost enclosing function body is
// scope. Nested function literals get their own scan — a span created
// inside a closure must close (or escape) within that closure.
func (p *Pass) spanScan(scope *ast.BlockStmt) {
	ast.Inspect(scope, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			p.spanScan(nn.Body)
			return false
		case *ast.AssignStmt:
			p.checkSpanAssign(nn, scope)
		case *ast.ExprStmt:
			if call, ok := nn.X.(*ast.CallExpr); ok {
				if name, ok := p.spanCreatorCall(call); ok {
					p.Reportf(call.Pos(), "span from %s is discarded and can never be ended", name)
				}
			}
		}
		return true
	})
}

// checkSpanAssign inspects one assignment for creator calls whose resulting
// span neither ends nor escapes the scope.
func (p *Pass) checkSpanAssign(as *ast.AssignStmt, scope *ast.BlockStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		name, ok := p.spanCreatorCall(call)
		if !ok {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			continue // assigned into a field or element: the span escapes
		}
		if id.Name == "_" {
			p.Reportf(call.Pos(), "span from %s is discarded and can never be ended", name)
			continue
		}
		obj := p.Pkg.Info.Defs[id]
		if obj == nil {
			obj = p.Pkg.Info.Uses[id] // plain = to a pre-declared variable
		}
		if obj == nil || p.spanClosed(scope, obj) {
			continue
		}
		p.Reportf(call.Pos(), "span %s from %s is never ended (.End()) and never leaves the function", id.Name, name)
	}
}

// spanCreatorCall resolves a call's callee and reports whether it is a span
// creator, returning its package-qualified name.
func (p *Pass) spanCreatorCall(call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return "", false
	}
	fn, ok := p.Pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	names := spanCreators[fn.Pkg().Name()]
	if names == nil || !names[fn.Name()] {
		return "", false
	}
	return fn.Pkg().Name() + "." + fn.Name(), true
}

// spanClosed reports whether obj (a span variable) is balanced within
// scope: an .End() call on it counts as closed, and any other use outside
// a method/field selection — returned, passed as an argument, compared,
// stored — counts as an escape, which also satisfies the rule.
func (p *Pass) spanClosed(scope *ast.BlockStmt, obj types.Object) bool {
	ended := false
	benign := make(map[*ast.Ident]bool)
	ast.Inspect(scope, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := nn.X.(*ast.Ident); ok && p.Pkg.Info.Uses[id] == obj {
				benign[id] = true
			}
		case *ast.AssignStmt:
			for _, l := range nn.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					if p.Pkg.Info.Defs[id] == obj || p.Pkg.Info.Uses[id] == obj {
						benign[id] = true
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := nn.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
				if id, ok := sel.X.(*ast.Ident); ok && p.Pkg.Info.Uses[id] == obj {
					ended = true
				}
			}
		}
		return true
	})
	if ended {
		return true
	}
	escaped := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !benign[id] && p.Pkg.Info.Uses[id] == obj {
			escaped = true
		}
		return true
	})
	return escaped
}
