package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// usable; updates are a single atomic add.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value (or up/down) integer metric.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed upper-bound buckets plus a
// +Inf overflow, tracking count and sum. Observe is lock-free: one
// linear bucket scan and two atomic adds (the float sum uses a CAS
// loop), with zero allocations.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; implicit +Inf last
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. The bounds slice is not retained by reference holders beyond
// construction; it must not be mutated afterwards.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// DurationBounds are the default nanosecond buckets for timing
// histograms: 1 µs … 10 s in decade/half-decade steps.
var DurationBounds = []float64{
	1e3, 1e4, 1e5, 5e5, 1e6, 5e6, 1e7, 5e7, 1e8, 5e8, 1e9, 1e10,
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the bucket containing the target rank, assuming observations
// are non-negative (true for the duration histograms this registry
// holds). Samples in the +Inf overflow bucket clamp to the largest
// finite bound. Returns 0 on an empty histogram or out-of-range q.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return 0
	}
	rank := q * float64(total)
	cum, lower := 0.0, 0.0
	for i := range h.bounds {
		c := float64(h.counts[i].Load())
		if c > 0 && cum+c >= rank {
			return lower + (rank-cum)/c*(h.bounds[i]-lower)
		}
		cum += c
		lower = h.bounds[i]
	}
	return h.bounds[len(h.bounds)-1]
}

// Registry is a concurrency-safe name → metric table. Get-or-create
// accessors take a mutex; hot paths cache the returned pointer in a
// package variable so steady-state updates never touch the registry.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	published bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the instrumented layers publish
// to.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Remove deletes the named metric (counter, gauge or histogram) from
// the registry so future snapshots omit it. Holders of the metric
// pointer may keep updating it; the updates simply stop being exported.
// Used for transient per-subscriber metrics that would otherwise grow
// the registry without bound.
func (r *Registry) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.counters, name)
	delete(r.gauges, name)
	delete(r.hists, name)
}

// Snapshot flattens every metric to name → value. Histograms expand to
// `<name>.count`, `<name>.sum` and one `<name>.le<bound>` cumulative
// count per bucket (plus `<name>.leInf`). The result is a stable,
// JSON-friendly view used by the /metrics endpoint and the expvar
// export.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+8*len(r.hists))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = float64(g.Value())
	}
	for name, h := range r.hists {
		out[name+".count"] = float64(h.Count())
		out[name+".sum"] = h.Sum()
		out[name+".p50"] = h.Quantile(0.50)
		out[name+".p95"] = h.Quantile(0.95)
		out[name+".p99"] = h.Quantile(0.99)
		cum := int64(0)
		for i := range h.bounds {
			cum += h.counts[i].Load()
			out[name+".le"+strconv.FormatFloat(h.bounds[i], 'g', -1, 64)] = float64(cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		out[name+".leInf"] = float64(cum)
	}
	return out
}

// WriteText dumps the snapshot as sorted `name value` lines — the
// plain-text format served at /metrics.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%s %v\n", name, snap[name]); err != nil {
			return err
		}
	}
	return nil
}

// PublishExpvar exposes the registry's live snapshot under the given
// expvar name (visible at /debug/vars). Idempotent per registry, and a
// no-op when the name is already taken (expvar names are process-global
// and cannot be re-published — the first registry keeps it; this
// matters for test binaries that build several servers).
func (r *Registry) PublishExpvar(name string) {
	r.mu.Lock()
	already := r.published
	r.published = true
	r.mu.Unlock()
	if already {
		return
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// expvarMu serializes the process-global check-then-publish above.
var expvarMu sync.Mutex
