package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// DeterminismAnalyzer keeps ambient state — wall clock, environment, the
// global math/rand generator — out of the deterministic packages. Every
// reproducibility property test in this repo (byte-identical plans at any
// worker count, bit-identical experiment output per seed) assumes those
// packages compute pure functions of their inputs and seeds; one stray
// time.Now() silently voids them.
//
// The rule reports, inside the deterministic packages only:
//
//   - every reference to a forbidden function;
//   - every import of a module package outside the set.
//
// The second half is what lets the first stay local: a helper a
// deterministic package imports is itself deterministic, so it is checked
// directly, and a clock read cannot hide two calls away in it. Map-order
// effects are the sorted-iteration rule's, which runs on every package.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock, global math/rand and environment reads in the deterministic packages " +
		"(lint.DeterministicPackages), and their imports of module packages outside that set",
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

func runDeterminism(p *Pass) {
	if !DeterministicPackages[p.Pkg.Name] {
		return
	}
	p.eachFile(func(f *ast.File) {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if dep := p.Pkg.deps[path]; dep != nil && !DeterministicPackages[dep.Name] {
				p.Reportf(spec.Pos(), "deterministic package %q imports %s, a module package outside the deterministic set whose ambient reads go unchecked — add %q to the set, or annotate with %s determinism",
					p.Pkg.Name, path, dep.Name, allowPrefix)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			what := fn.Pkg().Path() + "." + fn.Name()
			if reason, bad := forbiddenFuncs[what]; bad {
				what += " (" + reason + ")"
			} else if (fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") &&
				fn.Type().(*types.Signature).Recv() == nil && !globalRandExempt[fn.Name()] {
				what += " (global rand)"
			} else {
				return true
			}
			p.Reportf(sel.Pos(), "%s is forbidden in deterministic package %q; thread a seed/clock in, or annotate with %s determinism",
				what, p.Pkg.Name, allowPrefix)
			return true
		})
	})
}
