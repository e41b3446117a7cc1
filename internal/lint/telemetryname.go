package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
)

// TelemetryNameAnalyzer enforces name hygiene at registry and journal call
// sites. Names must be string literals — a computed name defeats grep,
// dashboards, and the snapshot goldens, and a journal event type is a
// retention key (one ring per type), so its vocabulary must be finite — and
// must match the repo's dotted lower-case convention (e.g.
// "client.retries"). The one computed shape accepted is a per-site
// namespace in front of a literal suffix, prefix + "page_requests": the
// suffix is what a grep looks for.
var TelemetryNameAnalyzer = &Analyzer{
	Name: "telemetry-naming",
	Doc: "telemetry metric names must be string literals matching " +
		"^[a-z]+(\\.[a-z0-9_]+)+$, or <namespace> + \"literal_suffix\"; trace " +
		"journal event types likewise, a single segment allowed",
	Run: runTelemetryName,
}

var (
	metricNameRE   = regexp.MustCompile(`^[a-z]+(\.[a-z0-9_]+)+$`)
	metricSuffixRE = regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)*$`)
)

// nameCallees are the methods, by defining package, whose first argument is
// a name: the telemetry.Registry lookups and trace.Journal.Record. An event
// type may be a single segment, so it is held to the suffix form.
var nameCallees = map[string]map[string]*regexp.Regexp{
	"telemetry": {"Counter": metricNameRE, "Gauge": metricNameRE},
	"trace":     {"Record": metricSuffixRE},
}

func runTelemetryName(p *Pass) {
	p.eachFile(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			re := nameCallees[fn.Pkg().Name()][sel.Sel.Name]
			sig, ok := fn.Type().(*types.Signature)
			if re == nil || !ok || sig.Recv() == nil {
				return true
			}
			arg := call.Args[0]
			if sum, ok := arg.(*ast.BinaryExpr); ok && sum.Op == token.ADD {
				arg, re = sum.Y, metricSuffixRE
			}
			lit, ok := arg.(*ast.BasicLit)
			if !ok {
				p.Reportf(call.Args[0].Pos(), "name passed to %s must be a string literal or end in one, not a computed value", sel.Sel.Name)
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if !re.MatchString(name) {
				p.Reportf(arg.Pos(), "name %q does not match %s", name, re)
			}
			return true
		})
	})
}
