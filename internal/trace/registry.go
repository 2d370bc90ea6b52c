package trace

import (
	"fmt"
	"sort"
)

// Metric is anything a Registry can own: the metrics package's Histogram,
// Counter, and Gauge all satisfy it. The registry holds metrics behind this
// interface so internal/trace itself depends only on internal/sim and the
// standard library, as the layering invariant requires.
type Metric interface {
	Name() string
}

// Registry is a unified directory of named metrics. Components construct
// their histograms/counters/gauges as before but register them here, so
// every metric of a simulated system is enumerable from one place instead
// of being scattered across struct fields.
type Registry struct {
	byName map[string]Metric
	names  []string // registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Metric)}
}

// Register adds a metric under its own name and returns it. Registering two
// metrics with the same name is a programming error and panics; nil
// registries and nil metrics are ignored so optional instrumentation can
// register unconditionally.
func (r *Registry) Register(m Metric) Metric {
	if r == nil || m == nil {
		return m
	}
	name := m.Name()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("trace: metric %q registered twice", name))
	}
	r.byName[name] = m
	r.names = append(r.names, name)
	return m
}

// Get returns the metric registered under name, or nil.
func (r *Registry) Get(name string) Metric {
	if r == nil {
		return nil
	}
	return r.byName[name]
}

// Names returns the registered names in sorted order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	out := append([]string(nil), r.names...)
	sort.Strings(out)
	return out
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.byName)
}

// Lookup fetches the metric registered under name as a concrete type,
// returning the zero value when absent or of a different type.
func Lookup[T Metric](r *Registry, name string) T {
	m, _ := r.Get(name).(T)
	return m
}
