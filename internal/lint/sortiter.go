package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SortedIterAnalyzer flags map iteration whose body has order-sensitive
// effects. Go randomizes map iteration order per run, so a map range that
// appends to an outer slice, writes output, mutates telemetry, sends on a
// channel or starts a goroutine makes the result depend on the runtime's
// hash seed — exactly the nondeterminism the byte-identical-plan and
// bit-reproducible-experiment tests exist to rule out.
//
// The accepted idiom is "collect keys, sort, range the slice": a map range
// that only appends keys/values to a slice is fine when the same function
// later passes that slice to sort.* or slices.Sort*. Direct writes,
// telemetry mutation, sends and spawns from inside a map range are always
// flagged — no after-the-fact sort can fix an already-emitted order.
var SortedIterAnalyzer = &Analyzer{
	Name: "sorted-iteration",
	Doc: "map ranges with order-sensitive effects (append to outer slice without a later sort, " +
		"output writes, telemetry mutation, channel sends, go statements) are nondeterministic",
	Run: func(p *Pass) {
		p.eachFile(func(f *ast.File) { mapOrderEffects(p.Pkg, f, p.Reportf) })
	},
}

// mapOrderEffects calls report for every map range under root whose body
// has an order-sensitive effect. It is the one implementation of the check:
// the sorted-iteration rule reports what it finds, the determinism rule
// seeds taint from it. Every function body — declaration or literal — is
// examined on its own, so "later sort" is scoped to the innermost enclosing
// function.
func mapOrderEffects(pkg *Package, root ast.Node, report func(token.Pos, string, ...any)) {
	ast.Inspect(root, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body != nil {
			checkFuncMapRanges(pkg, body, report)
		}
		return true
	})
}

// checkFuncMapRanges inspects one function body. Nested function literals
// are skipped here; mapOrderEffects visits them separately.
func checkFuncMapRanges(pkg *Package, body *ast.BlockStmt, report func(token.Pos, string, ...any)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !isMapType(pkg, rng.X) {
			return true
		}
		checkMapRange(pkg, body, rng, report)
		return true
	})
}

// checkMapRange reports at most one finding per range.
func checkMapRange(pkg *Package, funcBody *ast.BlockStmt, rng *ast.RangeStmt, report func(token.Pos, string, ...any)) {
	var appendTargets []*ast.Ident
	reported := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		effect := ""
		switch nn := n.(type) {
		case *ast.SendStmt:
			// Work handed to a channel is consumed in send order.
			effect = "sends on a channel"
		case *ast.GoStmt:
			effect = "starts goroutines"
		case *ast.CallExpr:
			switch fun := nn.Fun.(type) {
			case *ast.Ident:
				// A builtin append whose target is assigned outside the loop
				// makes the slice's element order follow map order.
				if fun.Name == "append" && isBuiltin(pkg, fun) && len(nn.Args) > 0 {
					if id, ok := nn.Args[0].(*ast.Ident); ok {
						appendTargets = append(appendTargets, id)
					}
				}
			case *ast.SelectorExpr:
				if isOutputWrite(pkg, fun) {
					effect = "writes output via " + selString(fun)
				} else if isTelemetryMutation(pkg, fun) {
					effect = "mutates telemetry via " + selString(fun)
				}
			}
		}
		if effect != "" {
			report(rng.Pos(), "map range %s in map order; iterate a sorted key slice instead", effect)
			reported = true
		}
		return !reported
	})
	if reported {
		return
	}
	for _, target := range appendTargets {
		if declaredInside(pkg, target, rng) {
			continue // loop-local scratch; order cannot escape
		}
		if sortedAfter(pkg, funcBody, rng, target) {
			continue
		}
		report(rng.Pos(), "map range appends to %q without a later sort.* call on it; sort before the order can feed output", target.Name)
		return
	}
}

// isMapType reports whether expr has map underlying type.
func isMapType(pkg *Package, expr ast.Expr) bool {
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func isBuiltin(pkg *Package, id *ast.Ident) bool {
	_, ok := pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

// declaredInside reports whether the identifier's declaration lies within
// the range statement (a loop-local accumulator).
func declaredInside(pkg *Package, id *ast.Ident, rng *ast.RangeStmt) bool {
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
}

// sortedAfter reports whether, lexically after the range loop inside the
// same function body, a sort.* / slices.Sort* call mentions the append
// target — the "collect then sort" idiom.
func sortedAfter(pkg *Package, funcBody *ast.BlockStmt, rng *ast.RangeStmt, target *ast.Ident) bool {
	tobj := pkg.Info.Uses[target]
	if tobj == nil {
		return false
	}
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if fp := fn.Pkg().Path(); fp != "sort" && fp != "slices" {
			return true
		}
		// Does any argument (or the closure body of sort.Slice's less
		// function) reference the same object as the append target?
		for _, arg := range call.Args {
			refs := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pkg.Info.Uses[id] == tobj {
					refs = true
					return false
				}
				return true
			})
			if refs {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isOutputWrite reports whether a selector call emits bytes to an output
// sink in iteration order: fmt print-family functions and io-style Write*
// methods. Writes into in-memory builders are included on purpose — they
// almost always become output — and the rare order-insensitive use is what
// the allow directive is for.
func isOutputWrite(pkg *Package, sel *ast.SelectorExpr) bool {
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch name {
		case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
			return true
		}
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Printf", "Encode":
		return true
	}
	return false
}

// isTelemetryMutation reports whether a selector call mutates a metric from
// the telemetry package (Counter.Add/Inc, Gauge.Set/Add; registry lookups
// are reads and stay legal).
func isTelemetryMutation(pkg *Package, sel *ast.SelectorExpr) bool {
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "telemetry" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "Add", "Inc", "Set", "AddBusy":
		return true
	}
	return false
}

func selString(sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}
