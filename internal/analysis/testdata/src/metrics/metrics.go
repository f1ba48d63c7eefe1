// Package metrics fakes the shape of the repository's metrics registry
// for analyzer tests: the analyzers match types structurally (a named
// type Registry/Histogram in a package whose path ends in "metrics"), so
// this stub is all the type checker needs.
package metrics

type Registry struct{}

type Counter struct{}

func (c *Counter) Inc() {}

func (c *Counter) Add(v float64) {}

type Gauge struct{}

func (g *Gauge) Set(v float64) {}

type Histogram struct{}

func (r *Registry) Counter(name string) *Counter { return &Counter{} }

func (r *Registry) CounterFunc(name string, fn func() int64) {}

func (r *Registry) Gauge(name string) *Gauge { return &Gauge{} }

func (r *Registry) Histogram(name string, bounds []float64) *Histogram { return &Histogram{} }
