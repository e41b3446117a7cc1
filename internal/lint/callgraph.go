package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file builds the whole-module call graph the interprocedural
// analyzers (determinism, goroutine-leak) run over.
// The graph is deliberately conservative in the staticcheck fact-engine
// tradition, but bounded so a repo-sized lint run stays instant:
//
//   - static calls (package functions, concrete methods) become direct
//     edges;
//   - calls through an interface method resolve to every module type that
//     implements the interface (method-set dispatch); interfaces declared
//     outside the module (io.Writer, http.Handler, ...) are treated as
//     opaque — a documented soundness boundary, see DESIGN §11;
//   - a module function referenced as a *value* (passed as a callback,
//     assigned to a variable or field) gets a may-call edge from the
//     referencing function, since the graph cannot see where the value is
//     eventually invoked;
//   - function-literal bodies are attributed to their enclosing declared
//     function: a closure's calls are the closure creator's calls. Edges
//     that originate inside a literal are marked, because goroutine-
//     termination facts must not flow through them (a blocked closure does
//     not block its creator);
//   - package-level var initializers have no enclosing function and are
//     skipped.
//
// One function-level directive is parsed from declaration doc comments:
//
//	//repllint:pure — <why ambient effects below here cannot escape>
//
// pure is a reviewed trust assertion that cuts fact propagation: the
// function and everything only reachable through it is treated as
// deterministic-by-contract (used for observability-only wall-clock reads
// whose values never feed plan bytes or experiment output).

// Node is one declared function (or method) with a body.
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	Pure bool // //repllint:pure directive on the declaration

	Calls  []Edge    // outgoing edges, in call-site order
	Spawns []GoSpawn // go statements inside this function, in order
}

// Edge is one may-call relationship from a node to a module function.
type Edge struct {
	Callee *Node
	Pos    token.Pos
	// Dynamic marks interface-dispatch and function-value edges, which
	// over-approximate the real callees.
	Dynamic bool
	// InLit marks edges whose call site sits inside a function literal of
	// the caller. Termination facts do not propagate across them.
	InLit bool
}

// GoSpawn is one `go` statement: either a function literal spawned in
// place, a resolved module function, or an unresolvable dynamic target
// (Callee == nil && Lit == nil).
type GoSpawn struct {
	Stmt   *ast.GoStmt
	Callee *Node        // static target, when resolvable
	Lit    *ast.FuncLit // literal target, when spawned in place
}

// Graph is the whole-module call graph.
type Graph struct {
	Pkgs  []*Package
	Nodes []*Node // deterministic order: package load order, then source order
	byFn  map[*types.Func]*Node
}

// NodeOf returns the graph node for fn, or nil when fn has no body in the
// analyzed packages.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return g.byFn[fn]
}

const purePrefix = "//repllint:pure"

// BuildGraph constructs the call graph over the given packages. The
// packages must all come from one Loader so types.Object identities agree
// across them.
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{Pkgs: pkgs, byFn: make(map[*types.Func]*Node)}

	// Pass 1: one node per declared function body, in deterministic order
	// (pkgs arrive sorted by import path, files sorted by name, decls in
	// source order).
	for _, pkg := range pkgs {
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
				n := &Node{Fn: fn, Decl: fd, Pkg: pkg, Pure: declHasDirective(fd, purePrefix)}
				g.Nodes = append(g.Nodes, n)
				g.byFn[fn] = n
			}
		}
	}

	disp := newDispatcher(g)
	for _, n := range g.Nodes {
		g.collectEdges(n, disp)
	}
	return g
}

// declHasDirective reports whether the declaration's doc comment carries
// the directive (a comment line above the func keyword with no blank line
// between belongs to the doc group).
func declHasDirective(fd *ast.FuncDecl, prefix string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, prefix) {
			return true
		}
	}
	return false
}

// dispatcher precomputes the module's named types so interface calls can
// resolve to every implementing method.
type dispatcher struct {
	g *Graph
	// named lists the module's named (non-interface) types in
	// deterministic order.
	named []*types.Named
}

func newDispatcher(g *Graph) *dispatcher {
	d := &dispatcher{g: g}
	for _, pkg := range g.Pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			d.named = append(d.named, named)
		}
	}
	return d
}

// implementers returns the module methods that a call to iface.method may
// reach. Only interfaces declared in the module are dispatched; foreign
// interfaces return nil (opaque).
func (d *dispatcher) implementers(iface *types.Interface, method string) []*Node {
	var out []*Node
	for _, named := range d.named {
		t := types.Type(named)
		if !types.Implements(t, iface) {
			t = types.NewPointer(named)
			if !types.Implements(t, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(t, true, named.Obj().Pkg(), method)
		if fn, ok := obj.(*types.Func); ok {
			if n := d.g.NodeOf(fn); n != nil {
				out = append(out, n)
			}
		}
	}
	return out
}

// moduleInterface reports whether the interface type is declared by one of
// the analyzed packages (only those are dispatched).
func (d *dispatcher) moduleInterface(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	for _, p := range d.g.Pkgs {
		if p.Types == pkg {
			return true
		}
	}
	return false
}

// collectEdges walks one declaration body and fills in Calls and Spawns.
func (g *Graph) collectEdges(n *Node, disp *dispatcher) {
	info := n.Pkg.Info
	// consumed marks identifiers that appear in call position so the
	// function-value pass below does not double-count them.
	consumed := make(map[*ast.Ident]bool)
	// goCalls marks the call expression of each `go` statement: the spawn
	// still taints the spawner, but termination facts must not flow back.
	goCalls := make(map[*ast.CallExpr]bool)
	var litDepth int

	var walk func(ast.Node) bool
	walk = func(node ast.Node) bool {
		switch nn := node.(type) {
		case *ast.FuncLit:
			litDepth++
			ast.Inspect(nn.Body, walk)
			litDepth--
			return false
		case *ast.GoStmt:
			g.addSpawn(n, nn, info)
			goCalls[nn.Call] = true
			// The spawned expression (args, literal body) still walks below
			// through the CallExpr case.
			return true
		case *ast.CallExpr:
			g.addCallEdges(n, nn, info, disp, consumed, litDepth > 0 || goCalls[nn])
			return true
		case *ast.Ident:
			if consumed[nn] {
				return true
			}
			if fn, ok := info.Uses[nn].(*types.Func); ok {
				if callee := g.NodeOf(fn); callee != nil && callee != n {
					n.Calls = append(n.Calls, Edge{Callee: callee, Pos: nn.Pos(), Dynamic: true, InLit: litDepth > 0})
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(n.Decl.Body, walk)
}

// addSpawn records the `go` statement's target.
func (g *Graph) addSpawn(n *Node, st *ast.GoStmt, info *types.Info) {
	sp := GoSpawn{Stmt: st}
	switch fun := ast.Unparen(st.Call.Fun).(type) {
	case *ast.FuncLit:
		sp.Lit = fun
	default:
		if fn := staticCallee(info, st.Call); fn != nil {
			sp.Callee = g.NodeOf(fn)
		}
	}
	n.Spawns = append(n.Spawns, sp)
}

// addCallEdges resolves one call expression into zero or more edges.
func (g *Graph) addCallEdges(n *Node, call *ast.CallExpr, info *types.Info, disp *dispatcher, consumed map[*ast.Ident]bool, inLit bool) {
	fun := ast.Unparen(call.Fun)
	// Unwrap generic instantiations: F[T](x).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		consumed[f] = true
		if fn, ok := info.Uses[f].(*types.Func); ok {
			if callee := g.NodeOf(fn); callee != nil && callee != n {
				n.Calls = append(n.Calls, Edge{Callee: callee, Pos: call.Pos(), InLit: inLit})
			}
		}
	case *ast.SelectorExpr:
		consumed[f.Sel] = true
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if iface, ok := recv.Underlying().(*types.Interface); ok {
				if disp.moduleInterface(recv) {
					for _, callee := range disp.implementers(iface, sel.Obj().Name()) {
						if callee != n {
							n.Calls = append(n.Calls, Edge{Callee: callee, Pos: call.Pos(), Dynamic: true, InLit: inLit})
						}
					}
				}
				return
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				if callee := g.NodeOf(fn); callee != nil && callee != n {
					n.Calls = append(n.Calls, Edge{Callee: callee, Pos: call.Pos(), InLit: inLit})
				}
			}
			return
		}
		// Qualified package function: pkg.F().
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			if callee := g.NodeOf(fn); callee != nil && callee != n {
				n.Calls = append(n.Calls, Edge{Callee: callee, Pos: call.Pos(), InLit: inLit})
			}
		}
	}
}

// staticCallee resolves a call expression to its *types.Func when the
// target is a plain identifier or selector (no interface dispatch).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ShortName renders a node as pkgname.Func or pkgname.(*Recv).Method —
// the form used in chain messages.
func (n *Node) ShortName() string {
	fn := n.Fn
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		ptr := ""
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
			ptr = "*"
		}
		if named, ok := recv.(*types.Named); ok {
			return n.Pkg.Name + ".(" + ptr + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return n.Pkg.Name + "." + fn.Name()
}
