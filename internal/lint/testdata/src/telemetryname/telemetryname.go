// telemetry-naming fixture: registry metric names and journal event types
// must be string literals in dotted lower-case form, or a namespace
// expression followed by a literal suffix.
package telemetryname

import (
	"telemetry"
	"trace"
)

// Register exercises conforming and violating name shapes.
func Register(reg *telemetry.Registry, dynamic string) {
	_ = reg.Counter("httpsim.requests.local")
	_ = reg.Gauge("controller.sites.up")
	_ = reg.Counter("BadName")         // want "telemetry-naming: name .BadName. does not match"
	_ = reg.Counter("trailing.")       // want "telemetry-naming: name .trailing.. does not match"
	_ = reg.Counter("plain")           // want "telemetry-naming: name .plain. does not match"
	_ = reg.Counter(dynamic)           // want "telemetry-naming: name passed to Counter must be a string literal"
	_ = reg.Counter("site." + dynamic) // want "telemetry-naming: name passed to Counter must be a string literal"
	_ = reg.Counter(dynamic + "page_requests")
	_ = reg.Counter(dynamic + "shed_by.queue")
	_ = reg.Counter(dynamic + ".Bad") // want "telemetry-naming: name ..Bad. does not match"
}

// Journal exercises the event-type shapes: the type is a retention key, so
// it is held to the same literal forms (a single segment is allowed).
func Journal(j *trace.Journal, dynamic string) {
	j.Record("plan.applied", "gen")
	j.Record("bench")
	j.Record(dynamic + "error")
	j.Record(dynamic, "site")    // want "telemetry-naming: name passed to Record must be a string literal"
	j.Record("Fault.Injected")   // want "telemetry-naming: name .Fault.Injected. does not match"
	j.Record(dynamic + ".error") // want "telemetry-naming: name ..error. does not match"
}
