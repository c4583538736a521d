package obs

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Rollup is the rolling time-series aggregator: it samples every family
// of a Registry at a fixed interval and keeps the last N windows per
// labeled series, which is exactly what the /debug/obs dashboard plots.
//
//   - Counters record the per-window delta (the numerator of a rate).
//   - Gauges record the level at collection time.
//   - Histograms record the per-window delta of both sum and count, so
//     a window's mean latency is Sum/Count and its request rate is
//     Count/interval.
//
// Windows where a series did not yet exist hold NaN, so a freshly
// registered series does not render as a misleading run of zeros.
type Rollup struct {
	reg      *Registry
	interval time.Duration
	n        int

	mu     sync.Mutex
	hooks  []func()
	times  []time.Time
	series map[string]*rollSeries
}

// rollSeries is the window ring for one labeled series. Slices stay
// aligned with Rollup.times; Counts and buckets are non-nil only for
// histograms.
type rollSeries struct {
	name      string
	kind      Kind
	labels    map[string]string
	values    []float64
	counts    []float64
	bounds    []float64   // histogram bucket upper bounds
	buckets   [][]float64 // per-window bucket deltas (len(bounds)+1); nil row = no data
	prevValue float64     // counter: last absolute value (for deltas)
	prevSum   float64     // histogram: last absolute sum
	prevCount float64     // histogram: last absolute count
	prevBkts  []uint64    // histogram: last absolute per-bucket counts
}

// NewRollup aggregates reg into windows of the given interval, keeping
// the most recent n windows (defaults: 5s, 120 windows = 10 minutes).
func NewRollup(reg *Registry, interval time.Duration, n int) *Rollup {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if n <= 0 {
		n = 120
	}
	return &Rollup{
		reg:      reg,
		interval: interval,
		n:        n,
		series:   make(map[string]*rollSeries),
	}
}

// Interval returns the window length.
func (ru *Rollup) Interval() time.Duration { return ru.interval }

// AddHook registers fn to run at the start of every Collect — the
// runtime collector hooks in here so its gauges are fresh in the same
// window that samples them.
func (ru *Rollup) AddHook(fn func()) {
	ru.mu.Lock()
	ru.hooks = append(ru.hooks, fn)
	ru.mu.Unlock()
}

// Run collects on the rollup's interval until ctx is done.
func (ru *Rollup) Run(ctx context.Context) {
	ticker := time.NewTicker(ru.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			ru.Collect()
		}
	}
}

// Collect takes one window sample. Exported so tests can tick
// deterministically.
func (ru *Rollup) Collect() {
	ru.mu.Lock()
	hooks := append([]func(){}, ru.hooks...)
	ru.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}

	now := time.Now()
	fams := ru.reg.Gather()

	ru.mu.Lock()
	defer ru.mu.Unlock()
	ru.times = append(ru.times, now)
	touched := make(map[string]bool, len(ru.series))

	for _, f := range fams {
		for _, snap := range f.Series {
			key := seriesKey(f.Name, snap.Labels)
			rs := ru.series[key]
			if rs == nil {
				rs = &rollSeries{name: f.Name, kind: f.Kind, labels: snap.Labels}
				// Backfill the windows before this series existed.
				rs.values = nanSlice(len(ru.times) - 1)
				if f.Kind == KindHistogram {
					rs.counts = nanSlice(len(ru.times) - 1)
					rs.buckets = make([][]float64, len(ru.times)-1)
				}
				ru.series[key] = rs
			}
			touched[key] = true
			switch f.Kind {
			case KindCounter:
				// First sight counts the series' whole value: it was
				// created during this window and counters start at zero.
				rs.values = append(rs.values, CounterDelta(rs.prevValue, snap.Value))
				rs.prevValue = snap.Value
			case KindGauge:
				rs.values = append(rs.values, snap.Value)
			case KindHistogram:
				dSum := CounterDelta(rs.prevSum, snap.Sum)
				dCount := CounterDelta(rs.prevCount, float64(snap.Count))
				rs.prevSum, rs.prevCount = snap.Sum, float64(snap.Count)
				rs.values = append(rs.values, dSum)
				rs.counts = append(rs.counts, dCount)
				rs.bounds = snap.Bounds
				// A bucket row resets as a whole: on first sight (no
				// previous row) or when any bucket went backwards.
				row := make([]float64, len(snap.Counts))
				reset := len(rs.prevBkts) != len(snap.Counts)
				if !reset {
					for i, c := range snap.Counts {
						if c < rs.prevBkts[i] {
							reset = true
							break
						}
					}
				}
				for i, c := range snap.Counts {
					if reset {
						row[i] = float64(c)
					} else {
						row[i] = float64(c - rs.prevBkts[i])
					}
				}
				rs.prevBkts = append(rs.prevBkts[:0], snap.Counts...)
				rs.buckets = append(rs.buckets, row)
			}
		}
	}
	// Series that vanished (registry families never unregister, but be
	// robust) pad with NaN to stay aligned.
	for key, rs := range ru.series {
		if !touched[key] {
			rs.values = append(rs.values, math.NaN())
			if rs.counts != nil {
				rs.counts = append(rs.counts, math.NaN())
			}
			if rs.buckets != nil {
				rs.buckets = append(rs.buckets, nil)
			}
		}
	}
	// Trim every ring to the last n windows.
	if len(ru.times) > ru.n {
		drop := len(ru.times) - ru.n
		ru.times = append(ru.times[:0], ru.times[drop:]...)
		for _, rs := range ru.series {
			rs.values = append(rs.values[:0], rs.values[drop:]...)
			if rs.counts != nil {
				rs.counts = append(rs.counts[:0], rs.counts[drop:]...)
			}
			if rs.buckets != nil {
				rs.buckets = append(rs.buckets[:0], rs.buckets[drop:]...)
			}
		}
	}
}

// TimePoint is one window sample.
type TimePoint struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// TimeSeries is the windowed history of one labeled series.
type TimeSeries struct {
	Name   string            `json:"name"`
	Kind   Kind              `json:"-"`
	Labels map[string]string `json:"labels,omitempty"`
	// Values: counter deltas, gauge levels, or histogram sum-deltas.
	Values []TimePoint `json:"values"`
	// Counts: histogram count-deltas; nil otherwise.
	Counts []TimePoint `json:"counts,omitempty"`
}

// Series returns the windowed history of every labeled series of the
// named family, sorted by label values. Unknown families return nil.
func (ru *Rollup) Series(name string) []TimeSeries {
	ru.mu.Lock()
	defer ru.mu.Unlock()
	var out []TimeSeries
	for _, rs := range ru.series {
		if rs.name != name {
			continue
		}
		ts := TimeSeries{
			Name:   rs.name,
			Kind:   rs.kind,
			Labels: rs.labels,
			Values: zipPoints(ru.times, rs.values),
		}
		if rs.counts != nil {
			ts.Counts = zipPoints(ru.times, rs.counts)
		}
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool {
		return labelKey(out[i].Labels) < labelKey(out[j].Labels)
	})
	return out
}

// Windows returns how many window samples have been collected (capped
// at the ring size).
func (ru *Rollup) Windows() int {
	ru.mu.Lock()
	defer ru.mu.Unlock()
	return len(ru.times)
}

// HistSum aggregates the histogram bucket deltas of every labeled series
// of one family over a span of windows. It is the SLO engine's view of
// "what latencies did we observe in the last N windows": quantiles and
// threshold counts both derive from it without touching raw samples.
type HistSum struct {
	// Bounds are the bucket upper bounds (seconds for latency families).
	Bounds []float64
	// Counts are per-bucket observation counts over the span; the final
	// element is the +Inf overflow bucket.
	Counts []float64
	// Sum and Count are the aggregate observation sum and count.
	Sum   float64
	Count float64
}

// HistOver aggregates every series of the named histogram family whose
// labels pass match (nil matches all) over the last n windows (all
// retained windows when n <= 0 or exceeds what is held). The bool is
// false when no matching histogram series has recorded a window yet —
// callers treat that as "no data", not as zero traffic.
func (ru *Rollup) HistOver(name string, n int, match func(map[string]string) bool) (HistSum, bool) {
	ru.mu.Lock()
	defer ru.mu.Unlock()
	var out HistSum
	found := false
	for _, rs := range ru.series {
		if rs.name != name || rs.kind != KindHistogram {
			continue
		}
		if match != nil && !match(rs.labels) {
			continue
		}
		lo := 0
		if n > 0 && len(rs.buckets) > n {
			lo = len(rs.buckets) - n
		}
		if out.Bounds == nil {
			out.Bounds = rs.bounds
			out.Counts = make([]float64, len(rs.bounds)+1)
		}
		for w := lo; w < len(rs.buckets); w++ {
			row := rs.buckets[w]
			if row == nil { // series absent from this window
				continue
			}
			for i, c := range row {
				if i < len(out.Counts) {
					out.Counts[i] += c
				}
			}
		}
		loV := 0
		if n > 0 && len(rs.values) > n {
			loV = len(rs.values) - n
		}
		for w := loV; w < len(rs.values); w++ {
			if !math.IsNaN(rs.values[w]) {
				out.Sum += rs.values[w]
			}
			if w < len(rs.counts) && !math.IsNaN(rs.counts[w]) {
				out.Count += rs.counts[w]
			}
		}
		found = true
	}
	return out, found
}

// AtOrBelow returns how many observations fell in buckets whose upper
// bound is <= bound — the "good event" count of a latency objective
// declared at a bucket boundary.
func (h HistSum) AtOrBelow(bound float64) float64 {
	var good float64
	for i, b := range h.Bounds {
		if b <= bound {
			good += h.Counts[i]
		}
	}
	return good
}

// Quantile estimates the q-quantile (0 < q < 1) from the aggregated
// buckets with linear interpolation inside the winning bucket. With no
// observations it returns 0; when the quantile lands in the +Inf
// overflow bucket it returns the highest finite bound (a lower-bound
// estimate, explicitly conservative the other way).
//
// Interpolation alone can land past every observation: one 10.8ms
// sample in a (10ms, 25ms] bucket would read p50 17.5ms. So the
// estimate is clamped to the most the aggregate permits. Every
// observation is at least its bucket's lower bound, so no one of them
// exceeds its own lower bound by more than Sum minus the sum of every
// observation's lower bound. The clamp never goes below the winning
// bucket's lower bound.
func (h HistSum) Quantile(q float64) float64 {
	if len(h.Bounds) == 0 {
		return 0
	}
	lowerOf := func(i int) float64 {
		if i == 0 {
			return 0
		}
		return h.Bounds[min(i, len(h.Bounds))-1]
	}
	var total float64
	slack := h.Sum
	for i, c := range h.Counts {
		total += c
		slack -= c * lowerOf(i)
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	var cum float64
	for i, c := range h.Counts {
		if i >= len(h.Bounds) {
			break
		}
		if cum+c >= rank {
			lower, est := lowerOf(i), h.Bounds[i]
			if c > 0 {
				est = lower + (h.Bounds[i]-lower)*((rank-cum)/c)
			}
			return max(lower, min(est, lower+slack))
		}
		cum += c
	}
	return h.Bounds[len(h.Bounds)-1]
}

// CounterOver sums the window deltas of every series of the named counter
// family whose labels pass match (nil matches all) over the last n
// windows (all retained when n <= 0). The bool reports whether any
// matching series has recorded a window at all.
func (ru *Rollup) CounterOver(name string, n int, match func(map[string]string) bool) (float64, bool) {
	ru.mu.Lock()
	defer ru.mu.Unlock()
	var sum float64
	found := false
	for _, rs := range ru.series {
		if rs.name != name || rs.kind != KindCounter {
			continue
		}
		if match != nil && !match(rs.labels) {
			continue
		}
		found = true
		lo := 0
		if n > 0 && len(rs.values) > n {
			lo = len(rs.values) - n
		}
		for w := lo; w < len(rs.values); w++ {
			if !math.IsNaN(rs.values[w]) {
				sum += rs.values[w]
			}
		}
	}
	return sum, found
}

// CounterDelta is how much a cumulative total grew from prev to cur. A
// total that went backwards was reset (a process restart, or a registry
// swap behind a shared reader), so what it counted since the reset, cur,
// is the growth. The rollup's windows and the leader's fleet roster
// rates both use this one rule.
func CounterDelta(prev, cur float64) float64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

func seriesKey(name string, labels map[string]string) string {
	return name + "\xff" + labelKey(labels)
}

func labelKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte('\xff')
	}
	return b.String()
}

func nanSlice(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

func zipPoints(times []time.Time, vals []float64) []TimePoint {
	out := make([]TimePoint, len(vals))
	for i := range vals {
		out[i] = TimePoint{T: times[i], V: vals[i]}
	}
	return out
}
