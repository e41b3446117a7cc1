// telemetry-naming fixture: registry metric names must be string literals
// in dotted lower-case form, or a namespace expression followed by a
// literal suffix.
package telemetryname

import "telemetry"

// Register exercises conforming and violating name shapes.
func Register(reg *telemetry.Registry, dynamic string) {
	_ = reg.Counter("httpsim.requests.local")
	_ = reg.Gauge("controller.sites.up")
	_ = reg.Histogram("core.plan_seconds.p99", nil)
	_ = reg.Counter("BadName")         // want "telemetry-naming: metric name .BadName. does not match"
	_ = reg.Counter("trailing.")       // want "telemetry-naming: metric name .trailing.. does not match"
	_ = reg.Counter("plain")           // want "telemetry-naming: metric name .plain. does not match"
	_ = reg.Counter(dynamic)           // want "telemetry-naming: metric name passed to Counter must be a string literal"
	_ = reg.Counter("site." + dynamic) // want "telemetry-naming: metric name passed to Counter must be a string literal"
	_ = reg.Counter(dynamic + "page_requests")
	_ = reg.Counter(dynamic + "shed_by.queue")
	_ = reg.Counter(dynamic + ".Bad") // want "telemetry-naming: metric name ..Bad. does not match"
}
