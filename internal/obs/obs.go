// Package obs is the crawl-wide observability subsystem: a
// dependency-free metrics registry (counters, gauges, bounded duration
// histograms with quantile snapshots), per-stage span timing for the
// crawl pipeline (fetch → parse → inclusion-tree → label → commit), a
// periodic progress reporter, and an expvar + pprof HTTP endpoint.
//
// Concurrency contract: every metric type is safe for concurrent use
// from any number of goroutines. The hot-path operations — Counter.Inc,
// Counter.Add, Gauge.Set, Histogram.Observe — are single atomic
// instructions (plus a bounded binary search for histograms) and
// perform no allocation and take no locks, so instrumentation can sit
// on per-request and per-frame paths without perturbing throughput.
// Registry lookups (Counter, Gauge, Histogram, GaugeFunc) take a lock
// and are meant for init time: look a metric up once, keep the pointer.
//
// Output-determinism contract: obs observes the pipeline and never
// feeds back into it. Nothing in this package is consulted by crawl,
// label, store, or merge logic, so enabling metrics, the reporter, or
// the HTTP endpoint cannot change a single byte of the measurement
// dataset (internal/core's integration test asserts exactly this).
//
// Metric naming: lowercase dotted names, "<subsystem>.<what>", e.g.
// "crawl.pages", "queue.pending", "stage.fetch". The well-known names
// of the crawl pipeline are declared in metrics.go; DESIGN.md §8
// documents the scheme.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; Counter is monotonic by convention).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depth, open sockets).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry (or use Default). All methods are safe for concurrent
// use; get-or-create methods return the same instance for a name, so
// packages may independently look up a shared metric.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
}

// Default is the process-wide registry the crawl pipeline's well-known
// metrics (metrics.go) live in.
var Default = NewRegistry()

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		gaugeFns: map[string]func() int64{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter with the given name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers (or replaces) a function gauge: fn is called at
// snapshot time. Use it to export state that already lives behind a
// lock elsewhere (queue depth) instead of mirroring it into a Gauge.
// fn must be safe to call from any goroutine and must not call back
// into this registry (deadlock).
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Histogram returns the duration histogram with the given name,
// creating it with the default exponential bounds if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry's metrics, safe to
// read and render without further synchronization.
type Snapshot struct {
	// Counters and Gauges map metric name to value. Function gauges
	// appear in Gauges alongside plain ones.
	Counters map[string]int64
	Gauges   map[string]int64
	// Hists maps histogram name to its statistics.
	Hists map[string]HistStat
}

// Snapshot captures every metric. Function gauges are evaluated here,
// under the registry's read lock — they must not re-enter the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)+len(r.gaugeFns)),
		Hists:    make(map[string]HistStat, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFns {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Hists[name] = h.Stat()
	}
	return s
}

// expvarMap renders the registry as a flat map for the expvar endpoint:
// counters and gauges by name; histograms as name.count / name.sum_ns /
// name.p50_ns / name.p90_ns / name.p99_ns.
func (r *Registry) expvarMap() map[string]int64 {
	s := r.Snapshot()
	out := make(map[string]int64, len(s.Counters)+len(s.Gauges)+5*len(s.Hists))
	for n, v := range s.Counters {
		out[n] = v
	}
	for n, v := range s.Gauges {
		out[n] = v
	}
	for n, h := range s.Hists {
		out[n+".count"] = h.Count
		out[n+".sum_ns"] = int64(h.Sum)
		out[n+".p50_ns"] = int64(h.P50)
		out[n+".p90_ns"] = int64(h.P90)
		out[n+".p99_ns"] = int64(h.P99)
	}
	return out
}
