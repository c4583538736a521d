// Package dash renders the /debug/obs operational dashboard: a
// zero-dependency, server-rendered HTML view over the rolling
// time-series aggregator, the trace store, the SLO engine and the fleet
// roster. It answers "where did the time go?": the Layers panel
// breaks pdcu_phase_seconds down by span name, and each row links to
// the retained trace holding that layer's slowest span. Totals that
// only restate a metric family stay on /metrics. No JavaScript
// frameworks, no external assets — sparklines are inline SVG generated
// on the server, and the page refreshes itself every 5s with a meta
// tag, so the dashboard works from curl's --head to a browser on an
// air-gapped box.
//
// Routes (all under the handler returned by Handler):
//
//	/debug/obs            HTML dashboard: HTTP and query RED series,
//	                      SLOs, layers, fleet, recent traces
//	/debug/obs/traces     JSON list of retained traces, pinned first
//	/debug/obs/traces/:id HTML waterfall for one trace (?format=json
//	                      for the raw span data)
package dash

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"
	"time"

	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/obs/slo"
	"pdcunplugged/internal/obs/trace"
)

// Config wires the dashboard to the observability substrate. Any field
// may be nil; the corresponding panels render empty.
type Config struct {
	Rollup *obs.Rollup
	Tracer *trace.Tracer
	// SLO, when set, renders the objective panel with budget-remaining
	// gauges and burn rates (one Evaluate per page render).
	SLO *slo.Engine
	// Peers supplies the fleet roster: the Fleet panel renders one row
	// per peer, and the trace view asks every peer with a URL for its
	// half of a trace when asked to stitch (?remote=1).
	Peers func() []Peer
}

// Peer is one other node of the fleet: its roster name and the base URL
// its /debug/obs is reachable at (empty when it advertises none). On a
// leader, each follower is a Tracked peer whose numbers come from its
// heartbeats; on a follower, the one peer is its leader.
type Peer struct {
	Node string
	URL  string
	// Tracked marks a follower on this node's heartbeat roster. Only a
	// tracked peer's fields below mean anything; the panel shows "–"
	// for the rest.
	Tracked bool
	// Age is the time since the follower's last heartbeat.
	Age time.Duration
	// Lag is how many generations the follower trails this node.
	Lag int64
	// ReqRate and ErrRate are requests and 5xx per second, and
	// MeanLatency seconds per request, between the follower's last two
	// heartbeats. Zero until it has sent two.
	ReqRate     float64
	ErrRate     float64
	MeanLatency float64
	// SLOBudget is the minimum error budget remaining across the
	// follower's objectives (-1 when it reports none); Breached reports
	// any objective in breach.
	SLOBudget float64
	Breached  bool
}

// Handler returns the dashboard routes. Mount it at /debug/obs and
// /debug/obs/ (the handler matches full paths, so both mounts can share
// it).
func Handler(cfg Config) http.Handler {
	h := &handler{cfg: cfg}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/obs", h.dashboard)
	mux.HandleFunc("/debug/obs/", h.dashboard)
	mux.HandleFunc("/debug/obs/traces", h.traceList)
	mux.HandleFunc("/debug/obs/traces/", h.traceView)
	return mux
}

type handler struct{ cfg Config }

// redRow is one endpoint's Rate/Errors/Duration view.
type redRow struct {
	Endpoint string
	Rate     template.HTML
	LastRate string
	Errors   template.HTML
	LastErr  string
	Mean     template.HTML
	LastMean string
}

// sloRow is one objective's line in the SLO panel.
type sloRow struct {
	Name        string
	Description string
	Target      string
	Budget      template.HTML // budget-remaining gauge bar
	BudgetPct   string
	FastBurn    string
	SlowBurn    string
	Events      string // slow-window good/total
	Status      string
	Bad         bool
}

// layerRow is one phase of pdcu_phase_seconds over the retained
// windows, linked to the retained trace with its slowest span.
type layerRow struct {
	Phase string
	Count string
	Total string
	Mean  string
	P50   string
	P90   string
	Trace string // hex trace ID; empty when no retained trace has the span
	total float64
}

type traceRow struct {
	ID       string
	Root     string
	Start    string
	Duration string
	Spans    int
	Reason   string
	Err      bool
}

// fleetNodeRow is one peer's line in the Fleet panel.
type fleetNodeRow struct {
	Node    string
	URL     string // the peer's base URL; the row links its /debug/obs
	Age     string
	ReqRate string
	ErrRate string
	MeanLat string
	Lag     string
	Budget  string
	Status  string
	Bad     bool
}

type dashData struct {
	Window     string
	Windows    int
	HTTP       []redRow
	Query      []redRow
	SLO        []sloRow
	Layers     []layerRow
	FleetNodes []fleetNodeRow
	Traces     []traceRow
	Retained   int
}

func (h *handler) dashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/debug/obs" && r.URL.Path != "/debug/obs/" {
		http.NotFound(w, r)
		return
	}
	// One read of the trace store serves the Layers links and the
	// Recent traces list.
	retained := h.cfg.Tracer.Store().List()
	d := dashData{Retained: len(retained)}
	if ru := h.cfg.Rollup; ru != nil {
		d.Window = ru.Interval().String()
		d.Windows = ru.Windows()
		d.HTTP = h.redRows("pdcu_http_requests_total", "pdcu_http_request_duration_seconds", "path")
		d.Query = h.redRows("pdcu_query_requests_total", "pdcu_query_duration_seconds", "endpoint")
		d.Layers = layerRows(ru, retained)
	}
	if s := h.cfg.SLO; s != nil {
		d.SLO = sloRows(s.Evaluate())
	}
	if h.cfg.Peers != nil {
		d.FleetNodes = fleetNodeRows(h.cfg.Peers())
	}
	d.Traces = traceRows(retained, 50)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashTmpl.Execute(w, d); err != nil {
		obs.Logger().Warn("dashboard render failed", "err", err)
	}
}

// redRows assembles Rate/Errors/Duration sparklines per endpoint from
// the rollup's windows: request rate is the counter's window delta over
// the interval, errors count 5xx deltas, and mean latency divides the
// histogram's sum delta by its count delta.
func (h *handler) redRows(counterFam, histFam, key string) []redRow {
	ru := h.cfg.Rollup
	secs := ru.Interval().Seconds()

	rates := map[string][]float64{}
	errs := map[string][]float64{}
	for _, ts := range ru.Series(counterFam) {
		ep := ts.Labels[key]
		addWindows(rates, ep, ts.Values)
		if strings.HasPrefix(ts.Labels["code"], "5") {
			addWindows(errs, ep, ts.Values)
		}
	}
	means := map[string][]float64{}
	for _, ts := range ru.Series(histFam) {
		ep := ts.Labels[key]
		m := make([]float64, len(ts.Values))
		for i := range ts.Values {
			m[i] = safeDiv(ts.Values[i].V, ts.Counts[i].V)
		}
		means[ep] = m
	}

	eps := make([]string, 0, len(rates))
	for ep := range rates {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	rows := make([]redRow, 0, len(eps))
	for _, ep := range eps {
		rate := scale(rates[ep], 1/secs)
		erate := scale(errs[ep], 1/secs)
		if erate == nil {
			erate = make([]float64, len(rate))
		}
		rows = append(rows, redRow{
			Endpoint: ep,
			Rate:     spark(rate, 140, 28),
			LastRate: fmtRate(last(rate)),
			Errors:   spark(erate, 140, 28),
			LastErr:  fmtRate(last(erate)),
			Mean:     spark(means[ep], 140, 28),
			LastMean: fmtSeconds(last(means[ep])),
		})
	}
	return rows
}

// sloRows shapes one evaluation pass for the panel: budget-remaining
// gauge bars, both burn rates, and a breach verdict per objective.
func sloRows(statuses []slo.Status) []sloRow {
	rows := make([]sloRow, 0, len(statuses))
	for _, st := range statuses {
		row := sloRow{
			Name:        st.Name,
			Description: st.Description,
			Target:      fmtPct(st.Target),
			Budget:      budgetBar(st.BudgetRemaining, 120, 14),
			BudgetPct:   fmtPct(st.BudgetRemaining),
			FastBurn:    fmtBurn(st.FastBurn),
			SlowBurn:    fmtBurn(st.SlowBurn),
			Events:      fmtNum(st.GoodSlow) + "/" + fmtNum(st.TotalSlow),
			Status:      "ok",
		}
		switch {
		case st.NoData:
			row.Status = "no data"
		case st.Breached:
			row.Status = "BREACHED"
			row.Bad = true
		}
		rows = append(rows, row)
	}
	return rows
}

// budgetBar renders a horizontal gauge: the filled fraction is the
// error budget still unspent, colored green above 25%, amber above
// zero, red when exhausted.
func budgetBar(frac float64, w, h int) template.HTML {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	fill := "#3fb950"
	switch {
	case frac == 0:
		fill = "#ff7b72"
	case frac < 0.25:
		fill = "#e3b341"
	}
	fw := int(frac * float64(w))
	return template.HTML(fmt.Sprintf(
		`<svg class="spark" width="%d" height="%d"><rect width="%d" height="%d" fill="#2a3440"/><rect width="%d" height="%d" fill="%s"/></svg>`,
		w, h, w, h, fw, h, fill))
}

func fmtBurn(v float64) string {
	if v >= 100 {
		return fmt.Sprintf("%.0fx", v)
	}
	return fmt.Sprintf("%.2fx", v)
}

// fleetNodeRows shapes the roster for the Fleet panel: per follower,
// heartbeat age, RED rates, lag and the tightest SLO budget. A peer the
// roster does not track shows "–" in place of every number.
func fleetNodeRows(peers []Peer) []fleetNodeRow {
	const none = "–"
	rows := make([]fleetNodeRow, 0, len(peers))
	for _, p := range peers {
		row := fleetNodeRow{Node: p.Node, URL: p.URL, Age: none, ReqRate: none, ErrRate: none,
			MeanLat: none, Lag: none, Budget: none, Status: none}
		if p.Tracked {
			row.Age = fmtAge(p.Age)
			row.ReqRate = fmtRate(p.ReqRate)
			row.ErrRate = fmtRate(p.ErrRate)
			row.MeanLat = fmtSeconds(p.MeanLatency)
			row.Lag = fmtNum(float64(p.Lag))
			row.Status = "ok"
			if p.SLOBudget >= 0 {
				row.Budget = fmtPct(p.SLOBudget)
			}
			if p.Breached {
				row.Status, row.Bad = "SLO BREACHED", true
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// layerRows breaks pdcu_phase_seconds down by phase over every retained
// window, largest total time first. One scan of the retained traces
// finds, per span name, the trace holding the slowest such span.
func layerRows(ru *obs.Rollup, retained []trace.Data) []layerRow {
	type slowest struct {
		d  time.Duration
		id trace.TraceID
	}
	slow := map[string]slowest{}
	for _, d := range retained {
		for _, sp := range d.Spans {
			if cur, ok := slow[sp.Name]; !ok || sp.Duration > cur.d {
				slow[sp.Name] = slowest{sp.Duration, d.ID}
			}
		}
	}
	var rows []layerRow
	for _, ts := range ru.Series("pdcu_phase_seconds") {
		phase := ts.Labels["phase"]
		hs, _ := ru.HistOver("pdcu_phase_seconds", 0, func(l map[string]string) bool { return l["phase"] == phase })
		if hs.Count == 0 {
			continue
		}
		row := layerRow{
			Phase: phase,
			Count: fmtNum(hs.Count),
			Total: fmtSeconds(hs.Sum),
			Mean:  fmtSeconds(hs.Sum / hs.Count),
			P50:   fmtSeconds(hs.Quantile(0.5)),
			P90:   fmtSeconds(hs.Quantile(0.9)),
			total: hs.Sum,
		}
		if s, ok := slow[phase]; ok {
			row.Trace = s.id.String()
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].total > rows[j].total })
	return rows
}

func traceRows(retained []trace.Data, limit int) []traceRow {
	rows := make([]traceRow, 0, min(limit, len(retained)))
	for _, d := range retained {
		if len(rows) == limit {
			break
		}
		rows = append(rows, traceRow{
			ID:       d.ID.String(),
			Root:     d.Root,
			Start:    d.Start.Format("15:04:05.000"),
			Duration: d.Duration.Round(time.Microsecond).String(),
			Spans:    len(d.Spans),
			Reason:   d.Reason,
			Err:      d.Err,
		})
	}
	return rows
}

// addWindows accumulates window deltas into per-endpoint slices, padding
// length mismatches (a series that appeared later) on the left.
func addWindows(dst map[string][]float64, key string, pts []obs.TimePoint) {
	cur := dst[key]
	if len(cur) < len(pts) {
		grown := make([]float64, len(pts))
		copy(grown[len(pts)-len(cur):], cur)
		cur = grown
	}
	for i, p := range pts {
		v := p.V
		if v != v { // NaN: series did not exist in this window
			continue
		}
		cur[len(cur)-len(pts)+i] += v
	}
	dst[key] = cur
}

func scale(vals []float64, f float64) []float64 {
	if vals == nil {
		return nil
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v * f
	}
	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func last(vals []float64) float64 {
	for i := len(vals) - 1; i >= 0; i-- {
		if vals[i] == vals[i] {
			return vals[i]
		}
	}
	return 0
}

var dashTmpl = template.Must(template.New("dash").Parse(`<!doctype html>
<html><head><meta charset="utf-8">
<meta http-equiv="refresh" content="5">
<title>pdcu /debug/obs</title>
<style>
body{font:13px/1.5 ui-monospace,Menlo,monospace;background:#11151a;color:#cdd6e0;margin:1.5em}
h1{font-size:1.2em}h2{font-size:1em;border-bottom:1px solid #2a3440;padding-bottom:.25em;margin-top:1.6em}
table{border-collapse:collapse}td,th{padding:.15em .8em .15em 0;text-align:left;vertical-align:middle}
th{color:#7d8b99;font-weight:normal}
a{color:#6cb6ff;text-decoration:none}a:hover{text-decoration:underline}
svg.spark{vertical-align:middle}polyline{fill:none;stroke:#6cb6ff;stroke-width:1.5}
.err polyline{stroke:#ff7b72}
.num{color:#e3b341}.dim{color:#7d8b99}.bad{color:#ff7b72}
</style></head><body>
<h1>pdcu operational dashboard</h1>
<p class="dim">window {{.Window}} · {{.Windows}} samples · <a href="/debug/obs/traces">traces (JSON)</a> · <a href="/metrics">/metrics</a></p>

<h2>HTTP (RED)</h2>
<table><tr><th>route</th><th>rate</th><th></th><th>5xx</th><th></th><th>mean latency</th><th></th></tr>
{{range .HTTP}}<tr><td>{{.Endpoint}}</td><td>{{.Rate}}</td><td class="num">{{.LastRate}}</td><td class="err">{{.Errors}}</td><td class="num">{{.LastErr}}</td><td>{{.Mean}}</td><td class="num">{{.LastMean}}</td></tr>
{{else}}<tr><td class="dim" colspan="7">no traffic yet</td></tr>{{end}}</table>

<h2>Query API (RED)</h2>
<table><tr><th>endpoint</th><th>rate</th><th></th><th>5xx</th><th></th><th>mean latency</th><th></th></tr>
{{range .Query}}<tr><td>{{.Endpoint}}</td><td>{{.Rate}}</td><td class="num">{{.LastRate}}</td><td class="err">{{.Errors}}</td><td class="num">{{.LastErr}}</td><td>{{.Mean}}</td><td class="num">{{.LastMean}}</td></tr>
{{else}}<tr><td class="dim" colspan="7">no queries yet</td></tr>{{end}}</table>

<h2>SLOs <span class="dim">(<a href="/slo">/slo</a>, multi-window burn rates)</span></h2>
<table><tr><th>objective</th><th>target</th><th>budget remaining</th><th></th><th>burn fast</th><th>burn slow</th><th>good/total</th><th>status</th></tr>
{{range .SLO}}<tr><td title="{{.Description}}">{{.Name}}</td><td class="num">{{.Target}}</td><td>{{.Budget}}</td><td class="num">{{.BudgetPct}}</td><td class="num">{{.FastBurn}}</td><td class="num">{{.SlowBurn}}</td><td class="num">{{.Events}}</td><td{{if .Bad}} class="bad"{{end}}>{{.Status}}</td></tr>
{{else}}<tr><td class="dim" colspan="8">no SLO engine wired</td></tr>{{end}}</table>

<h2>Layers <span class="dim">(pdcu_phase_seconds over the retained windows, by total time)</span></h2>
<table><tr><th>layer</th><th>count</th><th>total</th><th>mean</th><th>p50</th><th>p90</th><th>slowest span's trace</th></tr>
{{range .Layers}}<tr><td>{{.Phase}}</td><td class="num">{{.Count}}</td><td class="num">{{.Total}}</td><td class="num">{{.Mean}}</td><td class="num">{{.P50}}</td><td class="num">{{.P90}}</td><td>{{if .Trace}}<a href="/debug/obs/traces/{{.Trace}}">{{.Trace}}</a>{{else}}<span class="dim">not retained</span>{{end}}</td></tr>
{{else}}<tr><td class="dim" colspan="7">no spans in the retained windows yet</td></tr>{{end}}</table>

<h2>Fleet <span class="dim">(follower heartbeats, <a href="/replica/v1/fleet">/replica/v1/fleet</a>)</span></h2>
<table><tr><th>node</th><th>dashboard</th><th>heartbeat</th><th>req rate</th><th>5xx rate</th><th>mean latency</th><th>lag</th><th>SLO budget</th><th>status</th></tr>
{{range .FleetNodes}}<tr><td>{{.Node}}</td><td>{{if .URL}}<a href="{{.URL}}/debug/obs">{{.URL}}</a>{{else}}<span class="dim">not advertised</span>{{end}}</td><td class="dim">{{.Age}}</td><td class="num">{{.ReqRate}}</td><td class="num">{{.ErrRate}}</td><td class="num">{{.MeanLat}}</td><td class="num">{{.Lag}}</td><td class="num">{{.Budget}}</td><td{{if .Bad}} class="bad"{{end}}>{{.Status}}</td></tr>
{{else}}<tr><td class="dim" colspan="9">no peers: no follower has heartbeated here, and this node follows no leader</td></tr>{{end}}</table>

<h2>Recent traces <span class="dim">({{.Retained}} retained, pinned first)</span></h2>
<table><tr><th>trace</th><th>root</th><th>start</th><th>duration</th><th>spans</th><th>kept</th></tr>
{{range .Traces}}<tr><td><a href="/debug/obs/traces/{{.ID}}">{{.ID}}</a></td><td>{{.Root}}</td><td>{{.Start}}</td><td class="num">{{.Duration}}</td><td class="num">{{.Spans}}</td><td{{if .Err}} class="bad"{{end}}>{{.Reason}}</td></tr>
{{else}}<tr><td class="dim" colspan="6">no traces retained yet</td></tr>{{end}}</table>
</body></html>
`))
