// Package spanbalance exercises the span-balance rule: every span creation
// must reach .End() in the enclosing function, escape it, or carry an allow
// directive.
package spanbalance

import "trace"

// balanced spans are quiet: direct End, deferred End, and End inside a
// nested closure (the closure is its own scope for spans it creates) all
// count.
func balanced(tr *trace.Tracer) {
	root := tr.StartTrace("page")
	defer root.End()
	ch := root.StartChild("chain")
	ch.SetAttr()
	ch.End()
	go func() {
		bg := root.StartChild("background")
		bg.End()
	}()
}

// escapes hands the span to the caller — its lifetime, its problem.
func escapes(tr *trace.Tracer) *trace.Active {
	s := tr.StartTrace("page")
	return s
}

var sink *trace.Active

// stored escapes into package state; likewise fine.
func stored(tr *trace.Tracer) {
	s := tr.StartTrace("page")
	sink = s
}

// leaks never end and never leave.
func leaks(tr *trace.Tracer) {
	s := tr.StartTrace("page") // want "never ended"
	s.SetAttr()
	tr.StartTrace("page")             // want "discarded"
	_ = tr.StartRemote("serve", 1, 2) // want "discarded"
}

// leakChild leaks only the child: the closure creates bg but never closes
// it, while the root is deferred-closed in the outer scope.
func leakChild(tr *trace.Tracer) {
	root := tr.StartTrace("page")
	defer root.End()
	go func() {
		bg := root.StartChild("background") // want "never ended"
		bg.SetAttr()
	}()
}

// leakParent leaks the parent: its only other use is as the StartChild
// receiver, which neither ends it nor lets it escape.
func leakParent(tr *trace.Tracer) {
	s := tr.StartTrace("plan") // want "never ended"
	c := s.StartChild("partition")
	c.End()
}

// allowed documents a deliberate cross-function lifetime.
func allowed(tr *trace.Tracer) {
	s := tr.StartTrace("page") //repllint:allow span-balance — closed by the shutdown hook in fixture-land
	s.SetAttr()
}
