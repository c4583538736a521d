package loadgen

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pdcunplugged/internal/bench"
	"pdcunplugged/internal/obs/slo"
)

// ReportSchema versions the BENCH_loadtest.json layout; bench.Read
// refuses a baseline of another schema rather than misreading its fields.
const ReportSchema = 1

// RunConfig is the portion of Options that makes two reports
// comparable; `pdcu loadtest -gate` notes when they differ.
type RunConfig struct {
	Mix         string  `json:"mix"`
	QPS         float64 `json:"qps"`
	Concurrency int     `json:"concurrency"`
	Seconds     float64 `json:"seconds"`
	Seed        int64   `json:"seed"`
}

// AllocStats is the per-request allocation cost over the measured run,
// from runtime.MemStats TotalAlloc/Mallocs deltas (monotonic, so no GC
// forcing is needed). In self-serve mode this covers client AND server
// work in one process — which is exactly the number the baseline gate
// wants to hold steady.
type AllocStats struct {
	Available    bool    `json:"available"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	ObjectsPerOp float64 `json:"objects_per_op"`
}

// EndpointStats summarizes one traffic class of a run. Percentiles are
// exact (nearest-rank over all collected samples), not estimated from
// histogram buckets.
type EndpointStats struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	Shed     int64   `json:"shed"`
	P50ms    float64 `json:"p50_ms"`
	P95ms    float64 `json:"p95_ms"`
	P99ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// Report is the full result of one load-test run: the JSON written by
// `pdcu loadtest -baseline` and compared by `-gate`.
type Report struct {
	Schema      int                      `json:"schema"`
	Build       bench.Stamp              `json:"build"`
	Config      RunConfig                `json:"config"`
	WallSeconds float64                  `json:"wall_seconds"`
	Requests    int64                    `json:"requests"`
	Throughput  float64                  `json:"throughput_rps"`
	Errors      int64                    `json:"errors"`
	ErrorRate   float64                  `json:"error_rate"`
	Shed        int64                    `json:"shed"`
	ShedRate    float64                  `json:"shed_rate"`
	Dropped     int64                    `json:"dropped_arrivals"`
	Churns      int64                    `json:"generation_churns"`
	ChurnErrors int64                    `json:"churn_errors,omitempty"`
	Alloc       AllocStats               `json:"alloc"`
	Endpoints   map[string]EndpointStats `json:"endpoints"`
	// Targets breaks the same stats down per target node when the run
	// spread over a fleet (-targets with more than one URL) — the
	// client-side view of fleet symmetry: a lagging or broken node shows
	// up as a latency or error-rate outlier here.
	Targets map[string]EndpointStats `json:"targets,omitempty"`
	// SLO carries the server-side objective verdicts when the run had an
	// SLO engine in reach (self-serve mode); absent for remote targets.
	SLO []slo.Status `json:"slo,omitempty"`
}

// summarize folds raw samples into a Report.
func summarize(all []sample, wall time.Duration, opts Options) *Report {
	rep := &Report{
		Schema: ReportSchema,
		Config: RunConfig{
			Mix:         opts.Mix.String(),
			QPS:         opts.QPS,
			Concurrency: opts.Concurrency,
			Seconds:     opts.Duration.Seconds(),
			Seed:        opts.Seed,
		},
		WallSeconds: wall.Seconds(),
		Endpoints:   map[string]EndpointStats{},
	}
	rep.Endpoints = foldStats(all, func(s sample) string { return string(s.kind) })
	for _, s := range all {
		rep.Requests++
		switch {
		case s.code == 429:
			rep.Shed++
		case s.code == 0 || s.code >= 500:
			rep.Errors++
		}
	}
	if rep.Requests > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Requests)
		rep.ShedRate = float64(rep.Shed) / float64(rep.Requests)
	}
	if wall > 0 {
		rep.Throughput = float64(rep.Requests) / wall.Seconds()
	}
	if len(opts.Targets) > 1 {
		rep.Targets = foldStats(all, func(s sample) string { return s.target })
	}
	return rep
}

// foldStats groups samples by key and folds each group into its
// EndpointStats — the same summary whether the key is a traffic class
// (Endpoints) or a target node (Targets).
func foldStats(all []sample, key func(sample) string) map[string]EndpointStats {
	byKey := map[string][]time.Duration{}
	counts := map[string]*EndpointStats{}
	for _, s := range all {
		k := key(s)
		es := counts[k]
		if es == nil {
			es = &EndpointStats{}
			counts[k] = es
		}
		es.Requests++
		switch {
		case s.code == 429:
			es.Shed++
		case s.code == 0 || s.code >= 500:
			es.Errors++
		}
		byKey[k] = append(byKey[k], s.dur)
	}
	out := make(map[string]EndpointStats, len(byKey))
	for k, durs := range byKey {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		es := counts[k]
		es.P50ms = percentileMs(durs, 0.50)
		es.P95ms = percentileMs(durs, 0.95)
		es.P99ms = percentileMs(durs, 0.99)
		es.MaxMs = float64(durs[len(durs)-1]) / float64(time.Millisecond)
		var sum time.Duration
		for _, d := range durs {
			sum += d
		}
		es.MeanMs = float64(sum) / float64(len(durs)) / float64(time.Millisecond)
		out[k] = *es
	}
	return out
}

// percentileMs is the nearest-rank percentile of a sorted slice, in
// milliseconds.
func percentileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// Text renders the human-facing run summary printed by `pdcu loadtest`.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadtest: %d requests in %.1fs (%.0f rps achieved, %s @ %g qps, c=%d)\n",
		r.Requests, r.WallSeconds, r.Throughput, r.Config.Mix, r.Config.QPS, r.Config.Concurrency)
	fmt.Fprintf(&b, "errors %.3f%%  shed %.3f%%  dropped-arrivals %d  churns %d\n",
		r.ErrorRate*100, r.ShedRate*100, r.Dropped, r.Churns)
	if r.Alloc.Available {
		fmt.Fprintf(&b, "alloc %.0f B/req  %.1f objs/req (whole process)\n",
			r.Alloc.BytesPerOp, r.Alloc.ObjectsPerOp)
	}
	kinds := make([]string, 0, len(r.Endpoints))
	for k := range r.Endpoints {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(&b, "%-12s %8s %10s %10s %10s %8s %6s\n",
		"endpoint", "reqs", "p50", "p95", "p99", "max", "err")
	for _, k := range kinds {
		es := r.Endpoints[k]
		fmt.Fprintf(&b, "%-12s %8d %9.2fms %9.2fms %9.2fms %7.1fms %6d\n",
			k, es.Requests, es.P50ms, es.P95ms, es.P99ms, es.MaxMs, es.Errors+es.Shed)
	}
	if len(r.Targets) > 0 {
		targets := make([]string, 0, len(r.Targets))
		for t := range r.Targets {
			targets = append(targets, t)
		}
		sort.Strings(targets)
		fmt.Fprintf(&b, "%-28s %8s %10s %10s %10s %7s\n",
			"target", "reqs", "p50", "p95", "p99", "err")
		for _, t := range targets {
			es := r.Targets[t]
			rate := 0.0
			if es.Requests > 0 {
				rate = float64(es.Errors) / float64(es.Requests) * 100
			}
			fmt.Fprintf(&b, "%-28s %8d %9.2fms %9.2fms %9.2fms %6.2f%%\n",
				t, es.Requests, es.P50ms, es.P95ms, es.P99ms, rate)
		}
	}
	for _, s := range r.SLO {
		state := "ok"
		switch {
		case s.NoData:
			state = "no data"
		case s.Breached:
			state = "BREACHED"
		}
		fmt.Fprintf(&b, "slo %-16s budget %5.1f%%  burn fast %.2fx slow %.2fx  %s\n",
			s.Name, s.BudgetRemaining*100, s.FastBurn, s.SlowBurn, state)
	}
	return b.String()
}

// Thresholds of Gate. A p99 fails only above max(3× baseline, 25ms):
// the floor absorbs scheduler noise on sub-millisecond baselines. Error
// and shed rates may double, with floors so that a one-off flake on a
// zero-error baseline cannot fail the gate.
const (
	latencyFactor, latencyFloorMs = 3, 25
	rateFactor                    = 2
	errorRateFloor                = 0.005
	shedRateFloor                 = 0.05
	allocFactor, allocFloorBytes  = 2.5, 16384
)

// Gate compares a fresh run against a baseline report and returns every
// violated objective (empty = pass).
func Gate(base, cur *Report) []bench.Violation {
	var out []bench.Violation
	// An endpoint absent from the baseline is skipped: a new traffic
	// class has nothing to regress against.
	for name, b := range base.Endpoints {
		if c, ok := cur.Endpoints[name]; ok && c.Requests > 0 {
			out = bench.Check(out, "latency:"+name, b.P99ms, c.P99ms, latencyFactor, latencyFloorMs)
		}
	}
	out = bench.Check(out, "error-rate", base.ErrorRate, cur.ErrorRate, rateFactor, errorRateFloor)
	out = bench.Check(out, "shed-rate", base.ShedRate, cur.ShedRate, rateFactor, shedRateFloor)
	// Allocation growth only when both runs measured it (both self-serve
	// or both remote; the scopes differ otherwise).
	if base.Alloc.Available && cur.Alloc.Available {
		out = bench.Check(out, "alloc-bytes", base.Alloc.BytesPerOp, cur.Alloc.BytesPerOp, allocFactor, allocFloorBytes)
	}
	// A breached server-side SLO fails outright: the error budget is the
	// contract, not a relative comparison.
	for _, s := range cur.SLO {
		if s.Breached {
			out = append(out, bench.Violation{
				Metric: "slo:" + s.Name,
				Detail: fmt.Sprintf("objective breached: burn fast %.2fx slow %.2fx, budget %.1f%% remaining",
					s.FastBurn, s.SlowBurn, s.BudgetRemaining*100),
				Baseline: 1, Current: s.BudgetRemaining, Limit: 0,
			})
		}
	}
	return out
}
