// Package telemetry is the engine's observability substrate: an
// atomic-based metrics registry (counters, gauges, fixed-bucket latency
// histograms) with Prometheus text exposition, plus a lightweight per-query
// trace that records phase spans through internal/stopwatch.
//
// The registry is the concurrency boundary between the engine and the HTTP
// scrape path: instruments are updated with atomic operations, and a number
// that already has a home in a subsystem is read there at scrape time
// (GaugeFunc, CounterFunc) rather than copied, so GET /metrics never takes
// the engine lock and a slow scrape can never pin a handler.
// Registration takes a mutex and is idempotent — asking for an
// already-registered instrument with the same name, labels, and kind returns
// the existing one, which lets request middleware materialize status-code
// labels lazily.
//
// Metric names must be snake_case with the pdr_ prefix (enforced here at
// registration; see docs/OBSERVABILITY.md for the full inventory).
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// nameRE is the registration contract: snake_case with the pdr_ prefix.
var nameRE = regexp.MustCompile(`^pdr(_[a-z0-9]+)+$`)

// labelKeyRE validates label keys (Prometheus label-name subset).
var labelKeyRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// DefaultLatencyBuckets are the histogram bounds used for every latency
// instrument, in seconds: sub-millisecond resolution for the approximate
// methods (PA answers in 1.4–107 ms) through tens of seconds for exact FR
// at 100K objects (paper Fig. 10).
var DefaultLatencyBuckets = []float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Label is one name=value metric dimension.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// instrument kinds, used for exposition TYPE lines and collision checks.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Registry holds a process's metric instruments. The zero value is not
// usable; create one with NewRegistry. All methods are safe for concurrent
// use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family groups every instrument sharing one metric name.
type family struct {
	name, help, kind string
	order            []string // label signatures in registration order
	instruments      map[string]any
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register resolves (name, kind, labels) to the instrument built by mk,
// reusing an existing instrument when one matches. Name, kind, or label-key
// violations panic: a malformed registration is a programming error that
// would silently corrupt the exposition otherwise.
func (r *Registry) register(name, help, kind string, labels []Label, mk func(sig string) any) any {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: metric name %q is not snake_case with the pdr_ prefix", name))
	}
	for _, l := range labels {
		if !labelKeyRE.MatchString(l.Key) {
			panic(fmt.Sprintf("telemetry: bad label key %q on metric %s", l.Key, name))
		}
	}
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, instruments: make(map[string]any)}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s re-registered as %s (was %s)", name, kind, fam.kind))
	}
	if inst, ok := fam.instruments[sig]; ok {
		return inst
	}
	inst := mk(sig)
	fam.instruments[sig] = inst
	fam.order = append(fam.order, sig)
	return inst
}

// labelSignature renders labels into the exposition form {k="v",...}, with
// keys sorted so identical label sets dedupe regardless of argument order.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes quotes, backslashes, and newlines exactly as the
		// Prometheus text format requires.
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter registers (or retrieves) a monotonically increasing counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	inst := r.register(name, help, kindCounter, labels, func(sig string) any {
		return &Counter{}
	})
	c, ok := inst.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: metric %s is not a counter", name))
	}
	return c
}

// Gauge registers (or retrieves) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	inst := r.register(name, help, kindGauge, labels, func(sig string) any {
		return &Gauge{}
	})
	g, ok := inst.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: metric %s is not a gauge", name))
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time,
// so a number that already has a home in its subsystem is read there rather
// than copied into an instrument. fn must be safe to call concurrently with
// everything else in the process: it reads atomics, or takes a leaf mutex
// for O(1) work (the buffer pool's page map, the trace store), never the
// engine lock, which a tick can hold for seconds.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, labels, func(sig string) any {
		return gaugeFunc(fn)
	})
}

// CounterFunc registers a counter whose value is read by fn at scrape time,
// under the same contract as GaugeFunc. fn must never go backwards: a
// counter that decreases reads as a process restart to rate().
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, kindCounter, labels, func(sig string) any {
		return counterFunc(fn)
	})
}

// Histogram registers (or retrieves) a fixed-bucket histogram. Bounds are
// upper bucket edges in ascending order; an implicit +Inf bucket catches
// the overflow. A nil bounds slice uses DefaultLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s bounds not ascending at %g", name, bounds[i]))
		}
	}
	inst := r.register(name, help, kindHistogram, labels, func(sig string) any {
		return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	})
	h, ok := inst.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: metric %s is not a histogram", name))
	}
	// A freshly built histogram stores the requested bounds, so a mismatch
	// here means a re-registration with different bounds — panic like the
	// kind-collision check instead of silently keeping the old buckets.
	if !equalBounds(h.bounds, bounds) {
		panic(fmt.Sprintf("telemetry: histogram %s re-registered with bounds %v (was %v)", name, bounds, h.bounds))
	}
	return h
}

// equalBounds reports whether two bucket-bound slices are element-wise
// identical.
func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// lint:ignore floateq registration-collision check: bounds are
		// caller-supplied literals and must match bit for bit.
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing count. The zero value is ready to
// use but only counters obtained from a Registry are exposed.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (n must be non-negative).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("telemetry: counter decrement by %d", n))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// gaugeFunc is a scrape-time computed gauge.
type gaugeFunc func() float64

// counterFunc is a scrape-time read counter.
type counterFunc func() int64

// Histogram is a fixed-bucket distribution: per-bucket atomic counts plus
// an atomic sum. Buckets follow Prometheus le semantics — an observation v
// lands in the first bucket with v <= bound.
type Histogram struct {
	bounds []float64      // upper edges, ascending; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits, CAS-updated
	n      atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the le bucket
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCounts returns the cumulative per-bucket counts (Prometheus le
// semantics), one entry per bound plus the trailing +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}
