// Package telemetry is the repo's stdlib-only instrumentation substrate:
// an atomic counter/gauge registry and text/JSON snapshot encoders served
// live by internal/webserve's /metrics endpoint. Timed phases are spans and
// live in internal/trace.
//
// Everything is concurrency-safe and nil-tolerant: every method has a nil
// fast path, so instrumented code paths pay nothing — no allocation, no
// branch beyond the nil check — when telemetry is disabled. Hot loops hold
// a *Counter or *Gauge obtained once (possibly nil) and call Add / Inc / Set
// unconditionally.
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically-increasing atomic int64. The nil Counter is a
// valid no-op sink.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically-set float64 (last-write-wins).
// The nil Gauge is a valid no-op sink.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry names and owns a set of counters and gauges. Registration
// (Counter/Gauge lookups) takes a mutex; the returned instruments are
// lock-free. The nil Registry hands out nil instruments, so a single nil
// check at setup disables a whole instrumented layer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	infos    map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		infos:    make(map[string]string),
	}
}

// SetInfo records a named string fact (build metadata, config identity) that
// snapshots alongside the numeric instruments. Last write wins. No-op on a
// nil registry.
func (r *Registry) SetInfo(name, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[name] = value
}

// metricName is the shape of every counter and gauge name: a lower-case
// namespace and at least one more dotted segment, "client.retries" or
// "admission.0.shed_by.queue".
var metricName = regexp.MustCompile(`^[a-z]+(\.[a-z0-9_]+)+$`)

// checkName panics on a name outside the metricName shape. Names are
// literals or a namespace plus a literal suffix, so a bad one is a bug, and
// checking it at creation fails any test that registers it.
func checkName(name string) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("telemetry: metric name %q does not match %s", name, metricName))
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry; panics when a new name does not match metricName.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		checkName(name)
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry; panics when a new name does not match metricName.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		checkName(name)
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// sortedNames returns an instrument map's names, sorted: snapshot order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
