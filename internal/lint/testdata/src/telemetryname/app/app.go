// Package app is the telemetryname consumer fixture: one well-formed
// single-sourced registration, plus every naming hazard the pass
// rejects.
package app

import "telfx/telemetry"

// MetricTicks is the single source of truth for the tick counter's
// name; constant-backed names may register at any number of sites.
const MetricTicks = "app.ticks"

// MetricSpills was renamed from the inventoried "app.spills"; a reader
// that still asks for the old name sees a counter stuck at zero.
const MetricSpills = "app.spill"

// Wire registers the fixture's metrics.
func Wire(r *telemetry.Registry, dyn string) {
	r.Counter(MetricTicks).Inc()
	r.Counter(MetricTicks).Inc()

	r.Counter("app.BadName").Inc() // want `metric name "app.BadName" is not lowercase dotted form`

	r.Gauge(dyn).Set(1) // want `metric name is not a compile-time constant`

	r.Histogram("app.dup_ms").Observe(1) // want `metric "app.dup_ms" is registered at 2 sites via raw string literals`

	r.Counter("app.kindmix").Inc() // want `metric "app.kindmix" is registered as a counter but inventoried as a gauge`

	r.Counter(MetricSpills).Inc() // want `metric "app.spill" is not in the inventory`

	//ggvet:allow(fixture: demonstrating that an annotated site is suppressed)
	r.Counter("app.Annotated").Inc()
}

// WireAgain registers the duplicate literal's second site.
func WireAgain(r *telemetry.Registry) {
	r.Histogram("app.dup_ms").Observe(2) // want `metric "app.dup_ms" is registered at 2 sites via raw string literals`
}
