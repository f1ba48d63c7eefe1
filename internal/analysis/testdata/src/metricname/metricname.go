// Package metricname exercises the metricname analyzer: registry lookups
// must go through Metric* constants or *Counter/*Gauge/*Histogram helper
// builders, constants must match the dotted lower-case namespace, and a
// literal may be declared in only one package repo-wide.
package metricname

import "metrics"

const (
	MetricGood = "pkg.good_total"
	MetricBad  = "Not-A-Name" // want "does not match"
	MetricDup  = "pkg.shared_rate"
	MetricTwin = "pkg.twin_total"
)

const MetricTwinAgain = "pkg.twin_total" // want "declared twice"

const plainName = "pkg.plain_total"

func register(reg *metrics.Registry) {
	reg.Counter(MetricGood)
	reg.Counter("pkg.raw_total") // want "string literal"
	reg.Gauge(plainName)         // want "must be named Metric"
	name := "pkg.var_total"
	reg.Counter(name) // want "package-level Metric"
	reg.Histogram(MetricGood, nil)
	reg.CounterFunc(MetricGood, nil)
	reg.CounterFunc("pkg.raw_view", nil) // want "string literal"
	reg.Gauge(portGauge(3))
	reg.Counter(buildName(3)) // want "must end in Counter, Gauge, or Histogram"
}

func portGauge(port int) string { return "pkg.port.reserved" }

func buildName(port int) string { return "pkg.custom_total" }
