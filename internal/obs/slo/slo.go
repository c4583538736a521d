// Package slo turns the passive telemetry in internal/obs into declared,
// machine-checked service-level objectives. An Objective states what
// fraction of events must be good — "99% of query responses complete
// within 5ms", "99.9% of responses are not 5xx", "at most 5% of traffic
// is shed" — and the Engine evaluates every objective against the
// rolling time-series aggregator (obs.Rollup) as a multi-window burn
// rate with error-budget accounting:
//
//   - The bad-event ratio over a window, divided by the allowed ratio
//     (1 - target), is the burn rate: 1.0 means the budget is being
//     consumed exactly as fast as the objective tolerates, 10 means ten
//     times too fast.
//   - An objective is breached when BOTH the fast window (default one
//     minute of rollup windows) and the slow window (the full retained
//     history) burn above the threshold — the classic multi-window rule
//     that ignores a single noisy spike but also a long-ago incident
//     that has since recovered.
//   - Budget remaining is 1 - (slow burn), clamped to [0,1]: the share
//     of the slow window's error budget still unspent.
//
// Every evaluation is surfaced three ways: pdcu_slo_* gauges on
// /metrics, the SLO panel on /debug/obs, and the /slo JSON endpoint
// (HTTP 503 while any objective is breached, so a load-test gate or an
// external prober can consume the verdict directly).
package slo

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"pdcunplugged/internal/obs"
)

// Kind discriminates how an objective counts good events.
type Kind string

const (
	// KindLatency counts histogram observations at or below Threshold
	// as good. Threshold must sit on a bucket boundary of the family
	// (obs.QueryBuckets for the query path) or the count is rounded to
	// the nearest bound below.
	KindLatency Kind = "latency"
	// KindRatio counts everything in Family as total and events matched
	// by BadFamily/BadMatch as bad.
	KindRatio Kind = "ratio"
)

// Objective declares one SLO over families the obs registry already
// records. The zero value is invalid; use the composite literals in
// DefaultObjectives as templates.
type Objective struct {
	// Name identifies the objective in metrics labels, the dashboard,
	// and gate violations. Keep it short and stable.
	Name string `json:"name"`
	// Description is the operator-facing sentence.
	Description string `json:"description"`
	// Target is the required good/total ratio, in (0,1).
	Target float64 `json:"target"`
	// Kind selects latency or ratio accounting.
	Kind Kind `json:"kind"`
	// Family is the histogram (latency) or total-events counter (ratio).
	Family string `json:"family"`
	// Threshold is the latency bound in seconds (latency objectives).
	Threshold float64 `json:"threshold,omitempty"`
	// BadFamily is a counter family whose deltas are the bad events
	// (ratio objectives); empty means BadMatch selects bad series
	// within Family instead.
	BadFamily string `json:"bad_family,omitempty"`
	// BadMatch selects bad series by labels (ratio objectives without
	// a BadFamily), e.g. code=5xx.
	BadMatch func(map[string]string) bool `json:"-"`
}

// Status is one objective's evaluation, shaped for JSON (/slo), the
// dashboard panel, and the load-test report.
type Status struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	Target      float64 `json:"target"`
	// GoodFast/TotalFast cover the fast window, GoodSlow/TotalSlow the
	// slow one.
	GoodFast  float64 `json:"good_fast"`
	TotalFast float64 `json:"total_fast"`
	GoodSlow  float64 `json:"good_slow"`
	TotalSlow float64 `json:"total_slow"`
	// FastBurn/SlowBurn are the burn rates (1.0 = consuming budget
	// exactly at the sustainable rate).
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// BudgetRemaining is the unspent share of the slow window's error
	// budget, in [0,1].
	BudgetRemaining float64 `json:"budget_remaining"`
	// Breached is the multi-window verdict.
	Breached bool `json:"breached"`
	// NoData marks an objective whose families have no observations
	// yet; NoData objectives are never breached.
	NoData bool `json:"no_data"`
}

// Options tunes the evaluation windows. The zero value selects the
// defaults: fast = 12 rollup windows (one minute at the 5s interval),
// slow = every retained window, breach at burn rate >= 2.
type Options struct {
	// FastWindows is the fast-window length in rollup windows.
	FastWindows int
	// SlowWindows is the slow-window length (0 = all retained).
	SlowWindows int
	// BurnThreshold is the burn rate both windows must exceed to
	// breach.
	BurnThreshold float64
}

// Engine evaluates a fixed set of objectives against one rollup.
type Engine struct {
	ru         *obs.Rollup
	objectives []Objective
	opts       Options

	budget   *obs.Gauge
	burn     *obs.Gauge
	breached *obs.Gauge
	evals    *obs.Counter
}

// New wires an engine to reg (where the pdcu_slo_* gauges register) and
// ru (where the observations come from).
func New(reg *obs.Registry, ru *obs.Rollup, objectives []Objective, opts Options) *Engine {
	if opts.FastWindows <= 0 {
		opts.FastWindows = 12
	}
	if opts.BurnThreshold <= 0 {
		opts.BurnThreshold = 2
	}
	return &Engine{
		ru:         ru,
		objectives: objectives,
		opts:       opts,
		budget: reg.Gauge("pdcu_slo_budget_remaining_ratio",
			"Unspent share of the slow-window error budget, per objective.", "objective"),
		burn: reg.Gauge("pdcu_slo_burn_rate",
			"Error-budget burn rate, per objective and window (1 = sustainable).", "objective", "window"),
		breached: reg.Gauge("pdcu_slo_breached",
			"Whether the objective is currently breached (multi-window rule).", "objective"),
		evals: reg.Counter("pdcu_slo_evaluations_total",
			"SLO evaluation passes."),
	}
}

// Objectives returns the declared objectives.
func (e *Engine) Objectives() []Objective { return e.objectives }

// Evaluate computes every objective's status from the rollup's current
// windows and updates the pdcu_slo_* gauges. It is cheap enough to run
// per dashboard render or per follower heartbeat.
func (e *Engine) Evaluate() []Status {
	e.evals.Inc()
	out := make([]Status, 0, len(e.objectives))
	for _, o := range e.objectives {
		st := e.evaluate(o)
		e.budget.With(o.Name).Set(st.BudgetRemaining)
		e.burn.With(o.Name, "fast").Set(st.FastBurn)
		e.burn.With(o.Name, "slow").Set(st.SlowBurn)
		if st.Breached {
			e.breached.With(o.Name).Set(1)
		} else {
			e.breached.With(o.Name).Set(0)
		}
		out = append(out, st)
	}
	return out
}

func (e *Engine) evaluate(o Objective) Status {
	st := Status{Name: o.Name, Description: o.Description, Target: o.Target}
	st.GoodFast, st.TotalFast = e.counts(o, e.opts.FastWindows)
	st.GoodSlow, st.TotalSlow = e.counts(o, e.opts.SlowWindows)
	if st.TotalSlow == 0 {
		st.NoData = true
		st.BudgetRemaining = 1
		return st
	}
	st.FastBurn = burnRate(st.GoodFast, st.TotalFast, o.Target)
	st.SlowBurn = burnRate(st.GoodSlow, st.TotalSlow, o.Target)
	st.BudgetRemaining = clamp01(1 - st.SlowBurn)
	st.Breached = st.FastBurn >= e.opts.BurnThreshold && st.SlowBurn >= e.opts.BurnThreshold
	return st
}

// counts resolves one objective's (good, total) events over the last n
// rollup windows.
func (e *Engine) counts(o Objective, n int) (good, total float64) {
	switch o.Kind {
	case KindLatency:
		h, ok := e.ru.HistOver(o.Family, n, nil)
		if !ok {
			return 0, 0
		}
		return h.AtOrBelow(o.Threshold), h.Count
	case KindRatio:
		total, _ = e.ru.CounterOver(o.Family, n, nil)
		var bad float64
		if o.BadFamily != "" {
			bad, _ = e.ru.CounterOver(o.BadFamily, n, nil)
		} else if o.BadMatch != nil {
			bad, _ = e.ru.CounterOver(o.Family, n, o.BadMatch)
		}
		if bad > total {
			bad = total
		}
		return total - bad, total
	}
	return 0, 0
}

// burnRate is (bad ratio) / (allowed bad ratio). A total of zero burns
// nothing; a target of 1 (no budget at all) burns infinitely on the
// first bad event, which we cap at a large finite value so JSON stays
// encodable.
func burnRate(good, total, target float64) float64 {
	if total == 0 {
		return 0
	}
	badRatio := (total - good) / total
	allowed := 1 - target
	if allowed <= 0 {
		if badRatio > 0 {
			return 1e9
		}
		return 0
	}
	return badRatio / allowed
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// DefaultObjectives declares the serving objectives `pdcu serve` ships
// with: cached-path query latency, availability, and admission shed
// bounds. Thresholds sit on obs.QueryBuckets boundaries so the latency
// count is exact, not interpolated.
func DefaultObjectives() []Objective {
	return []Objective{
		{
			Name:        "query-latency",
			Description: "99% of /api/v1 responses complete within 5ms",
			Target:      0.99,
			Kind:        KindLatency,
			Family:      "pdcu_query_duration_seconds",
			Threshold:   0.005,
		},
		{
			Name:        "availability",
			Description: "99.9% of /api/v1 responses are not 5xx",
			Target:      0.999,
			Kind:        KindRatio,
			Family:      "pdcu_query_requests_total",
			BadMatch: func(labels map[string]string) bool {
				return strings.HasPrefix(labels["code"], "5")
			},
		},
		{
			Name:        "shed-rate",
			Description: "at least 95% of /api/v1 requests are admitted (shed <= 5%)",
			Target:      0.95,
			Kind:        KindRatio,
			Family:      "pdcu_query_requests_total",
			BadFamily:   "pdcu_query_shed_total",
		},
	}
}

// Report is the /slo endpoint body.
type Report struct {
	// SLOStatus is "ok", "breached", or "no_data" (no objective has
	// observed a single event yet).
	SLOStatus   string    `json:"status"`
	EvaluatedAt time.Time `json:"evaluated_at"`
	// FastWindows/BurnThreshold echo the evaluation configuration so a
	// reader can interpret the burn rates.
	FastWindows   int      `json:"fast_windows"`
	BurnThreshold float64  `json:"burn_threshold"`
	Objectives    []Status `json:"objectives"`
}

// Report runs one evaluation pass and wraps it as the /slo body.
func (e *Engine) Report() Report {
	statuses := e.Evaluate()
	rep := Report{
		SLOStatus:     "ok",
		EvaluatedAt:   time.Now(),
		FastWindows:   e.opts.FastWindows,
		BurnThreshold: e.opts.BurnThreshold,
		Objectives:    statuses,
	}
	allNoData := len(statuses) > 0
	for _, st := range statuses {
		if !st.NoData {
			allNoData = false
		}
		if st.Breached {
			rep.SLOStatus = "breached"
		}
	}
	if allNoData {
		rep.SLOStatus = "no_data"
	}
	return rep
}

// Handler serves the /slo readiness-style endpoint: the full report as
// indented JSON, HTTP 200 while every objective holds and 503 the moment
// one is breached — probers and the load-test gate read the verdict
// straight off the status code.
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := e.Report()
		w.Header().Set("Content-Type", "application/json")
		if rep.SLOStatus == "breached" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			obs.Logger().Warn("slo report encode failed", "err", err)
		}
	})
}
