package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismAnalyzer keeps ambient state — wall clock, environment, the
// global math/rand generator, map iteration order — out of the
// deterministic packages, whether they touch it themselves or reach it
// through helpers elsewhere in the module. Every reproducibility property
// test in this repo (byte-identical plans at any worker count,
// bit-identical experiment output per seed) assumes those packages compute
// pure functions of their inputs and seeds; one stray time.Now(), even two
// calls away in internal/stats, silently voids them.
//
// The rule seeds an "impure" fact on every function in the module that
// calls a forbidden function or has a map-order effect (the
// sorted-iteration check), propagates it to callers through the call graph,
// and reports inside the deterministic packages only:
//
//   - every direct call of a forbidden function;
//   - every frontier call: a call whose callee is impure and lives outside
//     the deterministic packages, with the chain down to the root cause.
//
// One defect is one finding: a call to an impure function in a
// deterministic package is not reported, because the defect is reported
// where that callee itself reads ambient state or crosses the frontier.
//
// A seed suppressed where it stands (a justified //repllint:allow
// determinism on the forbidden call, or sorted-iteration on the map range)
// does not taint its callers, and //repllint:pure cuts propagation at a
// reviewed boundary — see callgraph.go.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock, global math/rand, environment and map-order effects in the deterministic " +
		"packages (core, repair, faults, httpsim, netsim, workload, policies, experiments, estimate, " +
		"admission), directly or through any call chain leaving them",
	Run: runDeterminism,
}

// forbiddenFuncs maps "pkgpath.Func" to a short reason. math/rand
// constructors (New, NewSource, NewZipf) stay legal: they take explicit
// seeds and are what internal/rng itself is built from. Everything touching
// the process-global generator or the wall clock is out.
var forbiddenFuncs = map[string]string{
	"time.Now":       "wall clock",
	"time.Since":     "wall clock",
	"time.Until":     "wall clock",
	"time.Sleep":     "wall clock",
	"time.After":     "wall clock",
	"time.AfterFunc": "wall clock",
	"time.Tick":      "wall clock",
	"time.NewTicker": "wall clock",
	"time.NewTimer":  "wall clock",

	"os.Getenv":    "ambient environment",
	"os.LookupEnv": "ambient environment",
	"os.Environ":   "ambient environment",
}

// globalRandExempt lists the math/rand package-level functions that do NOT
// touch the shared global generator.
var globalRandExempt = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// ambientUses calls fn, in source order, for every reference under root to
// a forbidden function, with the "pkgpath.Func (reason)" description.
func ambientUses(pkg *Package, root ast.Node, fn func(sel *ast.SelectorExpr, what string)) {
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		f, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || f.Pkg() == nil {
			return true
		}
		path, name := f.Pkg().Path(), f.Name()
		if reason, bad := forbiddenFuncs[path+"."+name]; bad {
			fn(sel, path+"."+name+" ("+reason+")")
		} else if (path == "math/rand" || path == "math/rand/v2") &&
			f.Type().(*types.Signature).Recv() == nil && !globalRandExempt[name] {
			fn(sel, path+"."+name+" (global rand)")
		}
		return true
	})
}

func runDeterminism(p *Pass) {
	if !DeterministicPackages[p.Pkg.Name] {
		return
	}
	p.eachFile(func(f *ast.File) {
		ambientUses(p.Pkg, f, func(sel *ast.SelectorExpr, what string) {
			p.Reportf(sel.Pos(), "%s is forbidden in deterministic package %q; thread a seed/clock in, or annotate with %s determinism",
				what, p.Pkg.Name, allowPrefix)
		})
	})

	impure := p.facts(func(g *Graph) map[*Node]*Mark {
		return propagateUp(g, impureSeeds(g), true)
	})
	for _, n := range p.Graph().Nodes {
		if n.Pkg != p.Pkg || n.Pure {
			continue
		}
		for _, e := range n.Calls {
			if impure[e.Callee] == nil || DeterministicPackages[e.Callee.Pkg.Name] {
				continue
			}
			hops := append([]string{hop(p.Pkg.Fset, n, e.Pos)}, chain(p.Pkg.Fset, impure, e.Callee)...)
			p.ReportChain(e.Pos, hops,
				"call to %s leaves deterministic package %q and reaches ambient state (%s) — break the chain, assert //repllint:pure at a reviewed boundary, or annotate with %s determinism",
				e.Callee.ShortName(), p.Pkg.Name, strings.Join(chainTail(impure, e.Callee), " → "), allowPrefix)
		}
	}
}

// impureSeeds marks every function in the module that touches ambient
// state itself: the first forbidden call or map-order effect in its body
// that is not justified where it stands.
func impureSeeds(g *Graph) map[*Node]*Mark {
	seeds := make(map[*Node]*Mark)
	for _, n := range g.Nodes {
		if n.Pure {
			continue
		}
		var seed *Mark
		offer := func(rule string, pos token.Pos, reason string) {
			if !n.Pkg.Directives.Allows(rule, n.Pkg.Fset.Position(pos)) && seed == nil {
				seed = &Mark{Reason: reason, Pos: pos}
			}
		}
		ambientUses(n.Pkg, n.Decl.Body, func(sel *ast.SelectorExpr, what string) {
			offer("determinism", sel.Pos(), what)
		})
		mapOrderEffects(n.Pkg, n.Decl, func(pos token.Pos, _ string, _ ...any) {
			offer("sorted-iteration", pos, "map iteration order")
		})
		if seed != nil {
			seeds[n] = seed
		}
	}
	return seeds
}
