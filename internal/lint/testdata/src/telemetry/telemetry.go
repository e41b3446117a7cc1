// Package telemetry is a minimal stand-in for repro/internal/telemetry so
// the lint fixtures type-check. The sorted-iteration analyzer keys on the
// package name ("telemetry") plus the mutation method names, all mirrored
// here.
package telemetry

// Registry mirrors the real metric registry lookups.
type Registry struct{}

// Counter returns the named counter.
func (r *Registry) Counter(name string) *Counter { return &Counter{} }

// Gauge returns the named gauge.
func (r *Registry) Gauge(name string) *Gauge { return &Gauge{} }

// Counter is a monotonic metric.
type Counter struct{ n int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds d.
func (c *Counter) Add(d int64) { c.n += d }

// Gauge is a set-to-value metric.
type Gauge struct{ v float64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.v = v }
