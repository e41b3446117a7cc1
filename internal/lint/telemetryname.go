package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
)

// TelemetryNameAnalyzer enforces metric-name hygiene at registry call
// sites. Names must be string literals — a computed name defeats grep,
// dashboards, and the snapshot goldens — and must match the repo's
// dotted lower-case convention (e.g. "httpsim.page_rt_seconds"). The one
// computed shape accepted is a per-site namespace in front of a literal
// suffix, prefix + "page_requests": the suffix is what a grep looks for.
var TelemetryNameAnalyzer = &Analyzer{
	Name: "telemetry-naming",
	Doc: "telemetry registry metric names must be string literals matching " +
		"^[a-z]+(\\.[a-z0-9_]+)+$, or <namespace> + \"literal_suffix\"",
	Run: runTelemetryName,
}

var (
	metricNameRE   = regexp.MustCompile(`^[a-z]+(\.[a-z0-9_]+)+$`)
	metricSuffixRE = regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)*$`)
)

// registryLookups are the telemetry.Registry methods whose first argument
// is a metric name.
var registryLookups = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
}

func runTelemetryName(p *Pass) {
	p.eachFile(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registryLookups[sel.Sel.Name] {
				return true
			}
			fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "telemetry" {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			arg, re := call.Args[0], metricNameRE
			if sum, ok := arg.(*ast.BinaryExpr); ok && sum.Op == token.ADD {
				arg, re = sum.Y, metricSuffixRE
			}
			lit, ok := arg.(*ast.BasicLit)
			if !ok {
				p.Reportf(call.Args[0].Pos(), "metric name passed to %s must be a string literal or end in one, not a computed value", sel.Sel.Name)
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if !re.MatchString(name) {
				p.Reportf(arg.Pos(), "metric name %q does not match %s", name, re)
			}
			return true
		})
	})
}
