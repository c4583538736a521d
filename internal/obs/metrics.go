// Package obs is the zero-dependency telemetry substrate for pdcunplugged:
// a concurrent-safe metrics registry (counters, gauges, fixed-bucket
// histograms, all with label support) with Prometheus-style text
// exposition, structured logging built on log/slog with a swappable
// package-level logger, the one span API every timed layer uses (it
// feeds a phase-duration histogram and, while a trace records, the
// trace), and HTTP server middleware recording per-route request counts,
// status codes, and latency.
//
// Everything in this package uses only the standard library, so the rest
// of the codebase can instrument itself freely without pulling in a
// metrics dependency. The conventions mirror the Prometheus client:
// monotonic counters, settable gauges, cumulative histogram buckets, and
// a text exposition format that Prometheus (or curl) can scrape from the
// /metrics endpoint mounted by `pdcu serve`.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates the three metric families a Registry can hold.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// DefBuckets returns the default latency buckets (seconds), spanning
// sub-millisecond static-page serving up to multi-second site builds.
func DefBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// QueryBuckets returns the high-resolution latency buckets (seconds) for
// the cached query path. Cached /api/v1 responses complete in tens of
// microseconds, so DefBuckets — whose first bound is 500µs — collapses
// nearly all of them into one bucket and makes bucket-derived p99
// estimates useless below a millisecond. These bounds keep sub-ms
// resolution (25µs–1ms) while still covering cold index builds at the
// top end.
func QueryBuckets() []float64 {
	return []float64{0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
		0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}
}

// PhaseBuckets returns the latency buckets (seconds) of
// pdcu_phase_seconds, at 1, 2.5 and 5 per decade from 1µs to 10s: the
// timed layers run from a microsecond (a rate-limit check, a cache
// lookup) to seconds (a cold site build), and each needs bounds near its
// own scale for its quantiles to be read from /metrics.
func PhaseBuckets() []float64 {
	return []float64{
		0.000001, 0.0000025, 0.000005,
		0.00001, 0.000025, 0.00005,
		0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05,
		0.1, 0.25, 0.5,
		1, 2.5, 5, 10,
	}
}

// Registry is a concurrent-safe collection of metric families. The zero
// value is not usable; construct with NewRegistry or use Default.
// Registering the same name twice returns the existing family when the
// kind and label names match, and panics otherwise — metric names are a
// global contract, so a kind collision is a programming error.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that spans and the
// package-level metric families record into.
func Default() *Registry { return defaultRegistry }

// family is one named metric with a fixed kind and label schema; its
// series map holds one child per distinct label-value combination.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, strictly increasing

	mu     sync.RWMutex
	series map[string]*series
}

// series is one labeled child. Counter and gauge values live in valBits
// as float64 bit patterns updated by CAS; histogram observations update
// cumulative-free per-bucket counts plus sum and count.
type series struct {
	labelValues []string
	valBits     atomic.Uint64
	bucketN     []atomic.Uint64 // len(buckets)+1, last is the +Inf overflow
	sumBits     atomic.Uint64
	count       atomic.Uint64
}

func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *family) child(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s expects %d label values, got %d",
			f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), labelValues...)}
	if f.kind == KindHistogram {
		s.bucketN = make([]atomic.Uint64, len(f.buckets)+1)
	}
	f.series[key] = s
	return s
}

// register returns the family for name, creating it on first use.
func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, kind, f.kind))
		}
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with %d labels, had %d", name, len(labels), len(f.labels)))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with label %q, had %q", name, labels[i], f.labels[i]))
			}
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		series: make(map[string]*series),
	}
	if kind == KindHistogram {
		if len(buckets) == 0 {
			buckets = DefBuckets()
		}
		f.buckets = append([]float64(nil), buckets...)
		sort.Float64s(f.buckets)
	}
	r.families[name] = f
	return f
}

// Counter declares (or fetches) a monotonically increasing counter
// family with the given label names.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return &Counter{fam: r.register(name, help, KindCounter, nil, labels)}
}

// Gauge declares (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return &Gauge{fam: r.register(name, help, KindGauge, nil, labels)}
}

// Histogram declares (or fetches) a fixed-bucket histogram family.
// A nil or empty buckets slice selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	return &Histogram{fam: r.register(name, help, KindHistogram, buckets, labels)}
}

// Counter is a labeled family of monotonically increasing values.
type Counter struct{ fam *family }

// With selects the child for the given label values (one per declared
// label name, in declaration order).
func (c *Counter) With(labelValues ...string) *CounterChild {
	return &CounterChild{s: c.fam.child(labelValues)}
}

// Inc increments the unlabeled child; only valid for label-free counters.
func (c *Counter) Inc() { c.With().Inc() }

// Add adds v to the unlabeled child; only valid for label-free counters.
func (c *Counter) Add(v float64) { c.With().Add(v) }

// CounterChild is one labeled counter series.
type CounterChild struct{ s *series }

// Inc increments the counter by one.
func (c *CounterChild) Inc() { addFloat(&c.s.valBits, 1) }

// Add increments the counter by v; negative deltas are ignored because
// counters are monotonic.
func (c *CounterChild) Add(v float64) {
	if v < 0 {
		return
	}
	addFloat(&c.s.valBits, v)
}

// Value returns the current count.
func (c *CounterChild) Value() float64 { return math.Float64frombits(c.s.valBits.Load()) }

// Gauge is a labeled family of settable values.
type Gauge struct{ fam *family }

// With selects the child for the given label values.
func (g *Gauge) With(labelValues ...string) *GaugeChild {
	return &GaugeChild{s: g.fam.child(labelValues)}
}

// Set sets the unlabeled child; only valid for label-free gauges.
func (g *Gauge) Set(v float64) { g.With().Set(v) }

// Add adjusts the unlabeled child; only valid for label-free gauges.
func (g *Gauge) Add(v float64) { g.With().Add(v) }

// GaugeChild is one labeled gauge series.
type GaugeChild struct{ s *series }

// Set stores v.
func (g *GaugeChild) Set(v float64) { g.s.valBits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by v (which may be negative).
func (g *GaugeChild) Add(v float64) { addFloat(&g.s.valBits, v) }

// Inc adds one.
func (g *GaugeChild) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *GaugeChild) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *GaugeChild) Value() float64 { return math.Float64frombits(g.s.valBits.Load()) }

// Histogram is a labeled family of fixed-bucket distributions.
type Histogram struct{ fam *family }

// With selects the child for the given label values.
func (h *Histogram) With(labelValues ...string) *HistogramChild {
	return &HistogramChild{s: h.fam.child(labelValues), buckets: h.fam.buckets}
}

// Observe records v on the unlabeled child; only valid for label-free
// histograms.
func (h *Histogram) Observe(v float64) { h.With().Observe(v) }

// HistogramChild is one labeled histogram series.
type HistogramChild struct {
	s       *series
	buckets []float64
}

// Observe records one observation. Bucket bounds are inclusive upper
// limits, matching Prometheus `le` semantics.
func (h *HistogramChild) Observe(v float64) {
	idx := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	h.s.bucketN[idx].Add(1)
	addFloat(&h.s.sumBits, v)
	h.s.count.Add(1)
}

// Timer starts a stopwatch; the returned stop function records the
// elapsed seconds as one observation. Designed for deferring:
//
//	defer enginePublish.With().Timer()()
func (h *HistogramChild) Timer() func() {
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}

// Sum returns the sum of all observations.
func (h *HistogramChild) Sum() float64 { return math.Float64frombits(h.s.sumBits.Load()) }

// Count returns the number of observations.
func (h *HistogramChild) Count() uint64 { return h.s.count.Load() }

// BucketCounts returns the non-cumulative per-bucket counts; the final
// element is the +Inf overflow bucket.
func (h *HistogramChild) BucketCounts() []uint64 {
	out := make([]uint64, len(h.s.bucketN))
	for i := range h.s.bucketN {
		out[i] = h.s.bucketN[i].Load()
	}
	return out
}

// FamilySnapshot is a point-in-time copy of one metric family, produced
// by Registry.Gather: the one sample model that /metrics, the rollup and
// a follower's heartbeat counters all read.
type FamilySnapshot struct {
	Name string
	Help string
	Kind Kind
	// LabelNames are the series label names in declaration order (a
	// histogram's le is not one of them); the text format writes labels
	// in this order.
	LabelNames []string
	Series     []SeriesSnapshot
}

// SeriesSnapshot is a point-in-time copy of one labeled series.
type SeriesSnapshot struct {
	Labels map[string]string
	Value  float64 // counter / gauge value
	Sum    float64 // histogram sum
	Count  uint64  // histogram observation count
	Bounds []float64
	Counts []uint64 // non-cumulative, aligned with Bounds plus +Inf
}

// Gather returns a copy of every registered family, sorted by name,
// including families that have no series yet. Each family's series are
// sorted by label values.
func (r *Registry) Gather() []FamilySnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	out := make([]FamilySnapshot, len(fams))
	for i, f := range fams {
		out[i] = f.snapshot()
	}
	return out
}

// Snapshot returns a copy of every series of the named family, or nil if
// the family does not exist. Series are sorted by label values.
func (r *Registry) Snapshot(name string) []SeriesSnapshot {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		return nil
	}
	return f.snapshot().Series
}

func (f *family) snapshot() FamilySnapshot {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ordered := f.sortedSeriesLocked()
	fs := FamilySnapshot{
		Name:       f.name,
		Help:       f.help,
		Kind:       f.kind,
		LabelNames: append([]string(nil), f.labels...),
		Series:     make([]SeriesSnapshot, 0, len(ordered)),
	}
	for _, s := range ordered {
		snap := SeriesSnapshot{Labels: make(map[string]string, len(f.labels))}
		for i, lbl := range f.labels {
			snap.Labels[lbl] = s.labelValues[i]
		}
		switch f.kind {
		case KindHistogram:
			snap.Sum = math.Float64frombits(s.sumBits.Load())
			snap.Count = s.count.Load()
			snap.Bounds = append([]float64(nil), f.buckets...)
			snap.Counts = make([]uint64, len(s.bucketN))
			for i := range s.bucketN {
				snap.Counts[i] = s.bucketN[i].Load()
			}
		default:
			snap.Value = math.Float64frombits(s.valBits.Load())
		}
		fs.Series = append(fs.Series, snap)
	}
	return fs
}

// sortedSeriesLocked returns the family's series ordered by label values
// (element-wise), so exposition and snapshots are deterministic. Callers
// must hold f.mu.
func (f *family) sortedSeriesLocked() []*series {
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		return slices.Compare(out[i].labelValues, out[j].labelValues) < 0
	})
	return out
}

// WritePrometheus writes every family in the Prometheus text exposition
// format (version 0.0.4), sorted by family name then label values, so
// output is deterministic and golden-testable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	WriteText(&b, r.Gather())
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the registry in text
// exposition format; mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			Logger().Warn("metrics exposition failed", "err", err)
		}
	})
}
