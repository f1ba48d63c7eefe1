// Package sub redeclares a metric name owned by its parent package —
// the drift the uniqueness rule exists to prevent.
package sub

const MetricShared = "pkg.shared_rate" // want "owned by metricname"
