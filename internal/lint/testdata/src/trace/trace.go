// Package trace is a minimal stand-in for repro/internal/trace so the
// span-balance and telemetry-naming fixtures type-check. The analyzers key
// on the package name ("trace") plus the span-creating method names and
// Journal.Record, all mirrored here.
package trace

// Tracer mints request-scoped spans.
type Tracer struct{}

// Active is an in-flight span.
type Active struct{}

// StartTrace opens a new root span under a fresh trace ID.
func (t *Tracer) StartTrace(name string) *Active { return &Active{} }

// StartRemote opens a span continuing a propagated trace context.
func (t *Tracer) StartRemote(name string, trace, parent uint64) *Active { return &Active{} }

// StartChild opens a child span.
func (a *Active) StartChild(name string) *Active { return &Active{} }

// SetAttr annotates the span.
func (a *Active) SetAttr() {}

// End closes the span and flushes it to the buffer.
func (a *Active) End() {}

// Journal is the control-plane flight recorder.
type Journal struct{}

// Record appends one event of the given type.
func (j *Journal) Record(typ string, fields ...string) {}
