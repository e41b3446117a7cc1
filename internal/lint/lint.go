// Package lint is a repo-specific static-analysis suite. It mechanically
// enforces the conventions every reproducibility claim in this repository
// rests on: no wall-clock or ambient randomness inside the deterministic
// packages (a set closed under their module imports), sorted iteration
// before anything that feeds output, no float equality, and error-handling
// discipline. Each rule stays because a mutation of its bug class passed
// the test suite silently (DESIGN §11 names one per rule). Aliased rng
// stream labels, leaked goroutines, unended spans, malformed metric names
// and handler waits that ignore the client are caught by the tests that
// reach them instead.
//
// The suite is built only on the standard library (go/parser, go/ast,
// go/types, go/importer) — no golang.org/x/tools — honoring the repo's
// stdlib-only rule. Run loads every package in the module, type-checks it
// and runs the rules in Analyzers; the cmd/repllint driver prints what it
// returns and exits nonzero on any finding.
//
// # Suppression
//
// A finding can be suppressed with a directive comment:
//
//	//repllint:allow <rule> — <one-line justification>
//
// placed either on the same line as (or the line immediately above) the
// offending expression, or in the file header before the package clause to
// exempt the whole file. The justification text is free-form but required by
// convention; reviews treat a bare allow as a smell.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Finding is one analyzer hit, formatted as "file:line: rule: message".
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the canonical file:line: rule: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Analyzer is one named rule. Run inspects a single type-checked package
// and reports findings through the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:  p.Pkg.Fset.Position(pos),
		Rule: p.Analyzer.Name,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// DeterministicPackages names the packages whose outputs must be a pure
// function of (inputs, seed), keyed on the package name: every one of these
// lives at repro/internal/<name>. The set is closed under module imports —
// the determinism rule reports any import of a module package outside it —
// so every line these packages can call is checked directly, and no helper
// outside the set can hide an ambient read. The first ten compute plans,
// simulations and studies; the other nine are exactly what those import.
// admission is here because its control laws are clock-agnostic by design
// (the overload study replays them on a virtual clock); the wall-clock
// deadline reads of its live HTTP adapter are each justified in place, as
// is trace's one clock.
var DeterministicPackages = map[string]bool{
	"core":        true,
	"repair":      true,
	"faults":      true,
	"httpsim":     true,
	"netsim":      true,
	"workload":    true,
	"policies":    true,
	"experiments": true,
	"estimate":    true,
	"admission":   true,

	"model":     true,
	"trace":     true,
	"units":     true,
	"htmlrefs":  true,
	"rng":       true,
	"telemetry": true,
	"stats":     true,
	"lru":       true,
	"bitset":    true,
}

// Analyzers is the full suite in reporting order.
var Analyzers = []*Analyzer{
	DeterminismAnalyzer,
	SortedIterAnalyzer,
	FloatCompareAnalyzer,
	ErrorDisciplineAnalyzer,
}

// Run loads every package of the module rooted at dir, type-checks it and
// runs every rule in Analyzers, then audits the suppressions: an allow
// directive that matched no finding is itself a finding. The surviving
// findings come back sorted by position.
func Run(dir string) ([]Finding, error) {
	pkgs, err := LoadModule(dir)
	if err != nil {
		return nil, err
	}
	out := append(analyze(pkgs, Analyzers), staleFindings(pkgs)...)
	sortFindings(out)
	return out, nil
}

// ruleByName looks a rule up in the registry, nil when there is none.
func ruleByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// analyze runs the analyzers over already-loaded packages and returns the
// surviving findings. The packages must all come from one Loader.
func analyze(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		for _, az := range analyzers {
			pass := &Pass{Analyzer: az, Pkg: pkg}
			az.Run(pass)
			for _, f := range pass.findings {
				if !pkg.Directives.Allows(f.Rule, f.Pos) {
					out = append(out, f)
				}
			}
		}
	}
	return out
}

// sortFindings orders findings by (file, line, rule).
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
}

// staleFindings is the suppression audit: every allow directive that
// matched no finding while the suite ran over pkgs.
func staleFindings(pkgs []*Package) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		for _, site := range pkg.Directives.Stale() {
			msg := fmt.Sprintf("%s %s suppresses nothing (stale) — the offending code moved or was fixed; delete the directive", allowPrefix, site.Rule)
			if ruleByName(site.Rule) == nil {
				msg = fmt.Sprintf("%s %s names an unknown rule — fix the rule name or delete the directive", allowPrefix, site.Rule)
			}
			out = append(out, Finding{
				Pos:  token.Position{Filename: site.File, Line: site.DeclLine},
				Rule: "stale-allow",
				Msg:  msg,
			})
		}
	}
	return out
}

// eachFile applies fn to every file of the pass's package.
func (p *Pass) eachFile(fn func(*ast.File)) {
	for _, f := range p.Pkg.Files {
		fn(f)
	}
}
