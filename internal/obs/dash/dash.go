// Package dash renders the /debug/obs operational dashboard: a
// zero-dependency, server-rendered HTML view over the obs registry, the
// rolling time-series aggregator, and the trace store. No JavaScript
// frameworks, no external assets — sparklines are inline SVG generated
// on the server, and the page refreshes itself with a meta tag, so the
// dashboard works from curl's --head to a browser on an air-gapped box.
//
// Routes (all under the handler returned by Handler):
//
//	/debug/obs            HTML dashboard: RED series, caches, workers,
//	                      runtime stats, exemplars, recent traces
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
	"pdcunplugged/internal/obs/fleet"
	"pdcunplugged/internal/obs/slo"
	"pdcunplugged/internal/obs/trace"
)

// Config wires the dashboard to the observability substrate. Any field
// may be nil; the corresponding panels render empty.
type Config struct {
	Registry *obs.Registry
	Rollup   *obs.Rollup
	Tracer   *trace.Tracer
	// SLO, when set, renders the objective panel with budget-remaining
	// gauges and burn rates (one Evaluate per page render).
	SLO *slo.Engine
	// Fleet, when set, renders the per-node Fleet panel from the metrics
	// federator's latest scrape.
	Fleet *fleet.Scraper
	// Profiles, when set, lists the breach-capture ring with download
	// links.
	Profiles *fleet.ProfileRing
	// Peers supplies the fleet roster the trace view consults when asked
	// to stitch a remote half (?remote=1).
	Peers func() []fleet.Peer
	// Client fetches remote trace halves; nil selects a 5s-timeout one.
	Client *http.Client
	// Refresh is the meta-refresh cadence; 0 selects 5s, negative
	// disables auto-refresh.
	Refresh time.Duration
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

// cacheRow is one memoization layer's hit accounting.
type cacheRow struct {
	Name   string
	Hits   float64
	Misses float64
	Other  float64 // e.g. coalesced query lookups
	Ratio  string
}

// gaugeRow is a labeled gauge with its windowed history.
type gaugeRow struct {
	Label string
	Spark template.HTML
	Last  string
}

type statRow struct {
	Name  string
	Value string
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

type exemplarRow struct {
	Series string
	Label  string
	Bucket string
	Value  string
	Age    string
	ID     string
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

// fleetNodeRow is one node's line in the Fleet panel, shaped from the
// federator's NodeStatus.
type fleetNodeRow struct {
	Node    string
	Where   string // "self" or the peer URL
	Age     string
	ReqRate string
	ErrRate string
	MeanLat string
	Lag     string
	Budget  string
	Series  string
	Status  string
	Bad     bool
}

// profileRow is one capture in the Profiles panel; Links are the
// per-kind download URLs.
type profileRow struct {
	ID      string
	At      string
	Trigger string
	Context string
	Bytes   string
	Err     string
	Links   []profileLink
}

type profileLink struct {
	Kind string
	URL  string
}

type dashData struct {
	Refresh    int // seconds; 0 omits the meta tag
	Window     string
	Windows    int
	HTTP       []redRow
	Query      []redRow
	SLO        []sloRow
	Engine     []statRow
	Corpus     []corpusRow
	Contrib    []statRow
	Replica    []statRow
	Fleet      []fleetRow
	FleetNodes []fleetNodeRow
	Profiles   []profileRow
	Search     []statRow
	Caches     []cacheRow
	Workers    []gaugeRow
	Runtime    []statRow
	RtSparks   []gaugeRow
	Exemplars  []exemplarRow
	Traces     []traceRow
	Retained   int
}

func (h *handler) dashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/debug/obs" && r.URL.Path != "/debug/obs/" {
		http.NotFound(w, r)
		return
	}
	refresh := h.cfg.Refresh
	if refresh == 0 {
		refresh = 5 * time.Second
	}
	d := dashData{}
	if refresh > 0 {
		d.Refresh = int(refresh / time.Second)
		if d.Refresh < 1 {
			d.Refresh = 1
		}
	}
	if ru := h.cfg.Rollup; ru != nil {
		d.Window = ru.Interval().String()
		d.Windows = ru.Windows()
		d.HTTP = h.redRows("pdcu_http_requests_total", "pdcu_http_request_duration_seconds", "path")
		d.Query = h.redRows("pdcu_query_requests_total", "pdcu_query_duration_seconds", "endpoint")
		d.Workers = h.gaugeRows("pdcu_build_workers_busy", "stage")
		d.RtSparks = append(h.gaugeRows("pdcu_runtime_goroutines", ""),
			h.gaugeRows("pdcu_runtime_heap_alloc_bytes", "")...)
	}
	if reg := h.cfg.Registry; reg != nil {
		d.Engine = engineRows(reg)
		d.Corpus = corpusRows(reg)
		d.Contrib = contribRows(reg)
		d.Replica = replicaRows(reg)
		d.Fleet = fleetRows(reg)
		d.Search = searchIndexRows(reg)
		d.Caches = cacheRows(reg)
		d.Runtime = runtimeRows(reg)
	}
	if s := h.cfg.SLO; s != nil {
		d.SLO = sloRows(s.Evaluate())
	}
	if f := h.cfg.Fleet; f != nil {
		d.FleetNodes = fleetNodeRows(f.Status())
	}
	if p := h.cfg.Profiles; p != nil {
		d.Profiles = profileRows(p.List())
	}
	if t := h.cfg.Tracer; t != nil {
		d.Exemplars = exemplarRows(t.Exemplars())
		d.Traces, d.Retained = traceRows(t.Store(), 50)
	}
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

// gaugeRows renders every labeled series of one gauge family.
func (h *handler) gaugeRows(fam, key string) []gaugeRow {
	var rows []gaugeRow
	for _, ts := range h.cfg.Rollup.Series(fam) {
		vals := make([]float64, len(ts.Values))
		for i := range ts.Values {
			vals[i] = ts.Values[i].V
		}
		label := ts.Labels[key]
		if label == "" {
			label = strings.TrimPrefix(fam, "pdcu_runtime_")
		}
		lastStr := fmtNum(last(vals))
		if strings.HasSuffix(fam, "_bytes") {
			lastStr = fmtBytes(last(vals))
		}
		rows = append(rows, gaugeRow{Label: label, Spark: spark(vals, 140, 28), Last: lastStr})
	}
	return rows
}

// cacheFamilies names every memoization layer with a result label; the
// dashboard computes hit ratios from their live totals.
var cacheFamilies = []struct{ fam, title string }{
	{"pdcu_query_cache_total", "query results"},
	{"pdcu_site_page_cache_total", "site pages"},
}

func cacheRows(reg *obs.Registry) []cacheRow {
	rows := make([]cacheRow, 0, len(cacheFamilies))
	for _, cf := range cacheFamilies {
		row := cacheRow{Name: cf.title}
		for _, s := range reg.Snapshot(cf.fam) {
			switch s.Labels["result"] {
			case "hit":
				row.Hits += s.Value
			case "miss":
				row.Misses += s.Value
			default:
				row.Other += s.Value
			}
		}
		if denom := row.Hits + row.Misses; denom > 0 {
			row.Ratio = fmtPct(row.Hits / denom)
		} else {
			row.Ratio = "–"
		}
		rows = append(rows, row)
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

// engineRows summarizes the generation pipeline: which generation is
// live, how many publishes have happened, and what a publish costs.
func engineRows(reg *obs.Registry) []statRow {
	var gen float64
	if s := reg.Snapshot("pdcu_engine_generation"); len(s) == 1 {
		gen = s[0].Value
	}
	var publishes uint64
	var sum float64
	if s := reg.Snapshot("pdcu_engine_publish_duration_seconds"); len(s) == 1 {
		publishes = s[0].Count
		sum = s[0].Sum
	}
	mean := 0.0
	if publishes > 0 {
		mean = sum / float64(publishes)
	}
	return []statRow{
		{"generation", fmtNum(gen)},
		{"publishes", fmtNum(float64(publishes))},
		{"mean publish", fmtSeconds(mean)},
	}
}

// corpusRow is one corpus source's line in the Corpus panel.
type corpusRow struct {
	Source     string
	Activities string
}

// corpusRows lists per-source activity counts from the
// pdcu_corpus_source_activities gauge the loader (and every snapshot
// adoption) refreshes, so a follower's panel reflects the leader's
// federation.
func corpusRows(reg *obs.Registry) []corpusRow {
	snaps := reg.Snapshot("pdcu_corpus_source_activities")
	rows := make([]corpusRow, 0, len(snaps))
	for _, s := range snaps {
		if s.Value == 0 {
			continue // a source that vanished on the last publish
		}
		rows = append(rows, corpusRow{Source: s.Labels["source"], Activities: fmtNum(s.Value)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Source < rows[j].Source })
	return rows
}

// contribRows summarizes /api/v1/contrib/validate traffic by review
// outcome from the pdcu_contrib_requests_total counter.
func contribRows(reg *obs.Registry) []statRow {
	byOutcome := map[string]float64{}
	total := 0.0
	for _, s := range reg.Snapshot("pdcu_contrib_requests_total") {
		byOutcome[s.Labels["outcome"]] += s.Value
		total += s.Value
	}
	rows := []statRow{{"validations", fmtNum(total)}}
	for _, outcome := range []string{"accepted", "needs_work", "bad_request", "shed", "unavailable"} {
		rows = append(rows, statRow{outcome, fmtNum(byOutcome[outcome])})
	}
	return rows
}

// fleetRow is one follower's line in the Replication panel.
type fleetRow struct {
	Node string
	Lag  string
}

// replicaRows summarizes the replication tier from the pdcu_replica_*
// series: this node's role and lag, the encoded snapshot footprint,
// fetch traffic, and the size of the fleet it coordinates.
func replicaRows(reg *obs.Registry) []statRow {
	get := func(name string) float64 {
		if s := reg.Snapshot(name); len(s) == 1 {
			return s[0].Value
		}
		return 0
	}
	role := "—"
	for _, s := range reg.Snapshot("pdcu_replica_role") {
		if s.Value == 1 {
			role = s.Labels["role"]
		}
	}
	var fetches, adopted float64
	for _, s := range reg.Snapshot("pdcu_replica_fetch_total") {
		fetches += s.Value
		if s.Labels["result"] == "adopted" {
			adopted += s.Value
		}
	}
	rows := []statRow{
		{"role", role},
		{"snapshot", fmtBytes(get("pdcu_replica_snapshot_bytes"))},
		{"followers", fmtNum(get("pdcu_replica_fleet_followers"))},
	}
	if role == "follower" {
		// Mean fetch-cycle wall time straight from the follower's
		// pdcu_replica_fetch_duration_seconds histogram totals.
		fetchMean := 0.0
		if s := reg.Snapshot("pdcu_replica_fetch_duration_seconds"); len(s) == 1 && s[0].Count > 0 {
			fetchMean = s[0].Sum / float64(s[0].Count)
		}
		rows = append(rows,
			statRow{"lag", fmtNum(get("pdcu_replica_lag"))},
			statRow{"fetches", fmtNum(fetches)},
			statRow{"adopted", fmtNum(adopted)},
			statRow{"mean fetch", fmtSeconds(fetchMean)})
	}
	return rows
}

// fleetNodeRows shapes the federator's per-node summaries for the Fleet
// panel: RED rates side by side for every node, replica lag, and the
// tightest SLO budget each node reports.
func fleetNodeRows(statuses []fleet.NodeStatus) []fleetNodeRow {
	rows := make([]fleetNodeRow, 0, len(statuses))
	for _, st := range statuses {
		row := fleetNodeRow{
			Node:    st.Node,
			Where:   st.URL,
			Age:     fmtAge(time.Duration(st.AgeSecs * float64(time.Second))),
			ReqRate: fmtRate(st.ReqRate),
			ErrRate: fmtRate(st.ErrRate),
			MeanLat: fmtSeconds(st.MeanLatency),
			Lag:     fmtNum(st.Lag),
			Budget:  "–",
			Series:  fmtNum(float64(st.Series)),
			Status:  "ok",
		}
		if st.Self {
			row.Where = "self"
		}
		if st.SLOBudget >= 0 {
			row.Budget = fmtPct(st.SLOBudget)
		}
		switch {
		case st.Err != "":
			row.Status, row.Bad = "scrape failed: "+st.Err, true
		case st.Breached:
			row.Status, row.Bad = "SLO BREACHED", true
		}
		rows = append(rows, row)
	}
	return rows
}

// profileRows shapes the capture ring for the Profiles panel, with a
// download link per stored profile kind.
func profileRows(captures []fleet.Capture) []profileRow {
	rows := make([]profileRow, 0, len(captures))
	for _, c := range captures {
		row := profileRow{
			ID:      c.ID,
			At:      c.At.Format("15:04:05"),
			Trigger: c.Trigger,
			Context: c.Context,
			Bytes:   fmtBytes(float64(c.Bytes)),
			Err:     c.Err,
		}
		for _, kind := range c.Kinds {
			row.Links = append(row.Links, profileLink{
				Kind: kind,
				URL:  "/debug/obs/profiles/" + c.ID + "/" + kind,
			})
		}
		rows = append(rows, row)
	}
	return rows
}

// fleetRows lists every live follower's lag, straight from the
// node-labeled pdcu_replica_fleet_lag gauge the coordinator refreshes
// on each heartbeat.
func fleetRows(reg *obs.Registry) []fleetRow {
	var rows []fleetRow
	for _, s := range reg.Snapshot("pdcu_replica_fleet_lag") {
		rows = append(rows, fleetRow{Node: s.Labels["node"], Lag: fmtNum(s.Value)})
	}
	return rows
}

// searchIndexRows summarizes the live search index from the
// pdcu_search_index_* gauges Build refreshes on every generation:
// corpus and vocabulary size, postings volume, and what the inverted
// file plus the facet bitsets cost in memory and build time.
func searchIndexRows(reg *obs.Registry) []statRow {
	get := func(name string) float64 {
		if s := reg.Snapshot(name); len(s) == 1 {
			return s[0].Value
		}
		return 0
	}
	return []statRow{
		{"docs", fmtNum(get("pdcu_search_index_docs"))},
		{"vocabulary", fmtNum(get("pdcu_search_index_vocabulary"))},
		{"postings", fmtBytes(get("pdcu_search_index_postings_bytes"))},
		{"facet bitsets", fmtBytes(get("pdcu_search_index_bitset_bytes"))},
		{"build", fmtSeconds(get("pdcu_search_index_build_seconds"))},
	}
}

func runtimeRows(reg *obs.Registry) []statRow {
	get := func(name string) float64 {
		if s := reg.Snapshot(name); len(s) == 1 {
			return s[0].Value
		}
		return 0
	}
	return []statRow{
		{"goroutines", fmtNum(get("pdcu_runtime_goroutines"))},
		{"heap alloc", fmtBytes(get("pdcu_runtime_heap_alloc_bytes"))},
		{"heap objects", fmtNum(get("pdcu_runtime_heap_objects"))},
		{"sys", fmtBytes(get("pdcu_runtime_sys_bytes"))},
		{"gc cycles", fmtNum(get("pdcu_runtime_gc_cycles"))},
		{"last gc pause", fmtSeconds(get("pdcu_runtime_gc_pause_seconds"))},
	}
}

func exemplarRows(exs []trace.Exemplar) []exemplarRow {
	rows := make([]exemplarRow, 0, len(exs))
	for _, ex := range exs {
		bucket := "+Inf"
		if !ex.Inf {
			bucket = "≤ " + fmtSeconds(ex.Bound)
		}
		rows = append(rows, exemplarRow{
			Series: ex.Series,
			Label:  ex.Label,
			Bucket: bucket,
			Value:  fmtSeconds(ex.Value),
			Age:    fmtAge(time.Since(ex.Time)),
			ID:     ex.ID,
		})
	}
	return rows
}

func traceRows(store *trace.Store, limit int) ([]traceRow, int) {
	all := store.List()
	rows := make([]traceRow, 0, min(limit, len(all)))
	for _, d := range all {
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
	return rows, len(all)
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
{{if .Refresh}}<meta http-equiv="refresh" content="{{.Refresh}}">{{end}}
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

<h2>Engine</h2>
<table><tr>{{range .Engine}}<th>{{.Name}}</th>{{end}}</tr>
<tr>{{range .Engine}}<td class="num">{{.Value}}</td>{{end}}</tr></table>

<h2>Corpus <span class="dim">(federated sources · <a href="/api/v1/facets">/api/v1/facets</a>)</span></h2>
<table><tr><th>source</th><th>activities</th></tr>
{{range .Corpus}}<tr><td>{{.Source}}</td><td class="num">{{.Activities}}</td></tr>
{{else}}<tr><td class="dim" colspan="2">no source-stamped corpus (embedded curation)</td></tr>{{end}}</table>
<table><tr>{{range .Contrib}}<th>{{.Name}}</th>{{end}}</tr>
<tr>{{range .Contrib}}<td class="num">{{.Value}}</td>{{end}}</tr></table>

<h2>Replication <span class="dim">(<a href="/replica/v1/fleet">/replica/v1/fleet</a>)</span></h2>
<table><tr>{{range .Replica}}<th>{{.Name}}</th>{{end}}</tr>
<tr>{{range .Replica}}<td class="num">{{.Value}}</td>{{end}}</tr></table>
{{if .Fleet}}<table><tr><th>follower</th><th>lag</th></tr>
{{range .Fleet}}<tr><td>{{.Node}}</td><td class="num">{{.Lag}}</td></tr>{{end}}</table>{{end}}

<h2>Fleet <span class="dim">(<a href="/metrics/fleet">/metrics/fleet</a>, federated scrape)</span></h2>
<table><tr><th>node</th><th>where</th><th>scraped</th><th>req rate</th><th>5xx rate</th><th>mean latency</th><th>lag</th><th>SLO budget</th><th>series</th><th>status</th></tr>
{{range .FleetNodes}}<tr><td>{{.Node}}</td><td class="dim">{{.Where}}</td><td class="dim">{{.Age}}</td><td class="num">{{.ReqRate}}</td><td class="num">{{.ErrRate}}</td><td class="num">{{.MeanLat}}</td><td class="num">{{.Lag}}</td><td class="num">{{.Budget}}</td><td class="num">{{.Series}}</td><td{{if .Bad}} class="bad"{{end}}>{{.Status}}</td></tr>
{{else}}<tr><td class="dim" colspan="10">no fleet scrape yet (run with -fleet-scrape, or hit /metrics/fleet)</td></tr>{{end}}</table>

<h2>Captured profiles <span class="dim">(breach-triggered + <code>POST /debug/obs/profile</code>)</span></h2>
<table><tr><th>capture</th><th>at</th><th>trigger</th><th>context</th><th>size</th><th>download</th><th></th></tr>
{{range .Profiles}}<tr><td>{{.ID}}</td><td>{{.At}}</td><td>{{.Trigger}}</td><td class="dim">{{.Context}}</td><td class="num">{{.Bytes}}</td><td>{{range .Links}}<a href="{{.URL}}">{{.Kind}}</a> {{end}}</td><td class="bad">{{.Err}}</td></tr>
{{else}}<tr><td class="dim" colspan="7">no captures yet</td></tr>{{end}}</table>

<h2>Search index</h2>
<table><tr>{{range .Search}}<th>{{.Name}}</th>{{end}}</tr>
<tr>{{range .Search}}<td class="num">{{.Value}}</td>{{end}}</tr></table>

<h2>Caches</h2>
<table><tr><th>layer</th><th>hits</th><th>misses</th><th>other</th><th>hit ratio</th></tr>
{{range .Caches}}<tr><td>{{.Name}}</td><td class="num">{{printf "%.0f" .Hits}}</td><td class="num">{{printf "%.0f" .Misses}}</td><td class="num">{{printf "%.0f" .Other}}</td><td class="num">{{.Ratio}}</td></tr>
{{end}}</table>

<h2>Build workers</h2>
<table>{{range .Workers}}<tr><td>{{.Label}}</td><td>{{.Spark}}</td><td class="num">{{.Last}}</td></tr>
{{else}}<tr><td class="dim">no builds in this window</td></tr>{{end}}</table>

<h2>Runtime</h2>
<table><tr>{{range .Runtime}}<th>{{.Name}}</th>{{end}}</tr>
<tr>{{range .Runtime}}<td class="num">{{.Value}}</td>{{end}}</tr></table>
<table>{{range .RtSparks}}<tr><td>{{.Label}}</td><td>{{.Spark}}</td><td class="num">{{.Last}}</td></tr>{{end}}</table>

<h2>Exemplars</h2>
<table><tr><th>histogram</th><th>series</th><th>bucket</th><th>observed</th><th>age</th><th>trace</th></tr>
{{range .Exemplars}}<tr><td>{{.Series}}</td><td>{{.Label}}</td><td>{{.Bucket}}</td><td class="num">{{.Value}}</td><td class="dim">{{.Age}}</td><td><a href="/debug/obs/traces/{{.ID}}">{{.ID}}</a></td></tr>
{{else}}<tr><td class="dim" colspan="6">no exemplars yet (traced requests populate this)</td></tr>{{end}}</table>

<h2>Recent traces <span class="dim">({{.Retained}} retained, pinned first)</span></h2>
<table><tr><th>trace</th><th>root</th><th>start</th><th>duration</th><th>spans</th><th>kept</th></tr>
{{range .Traces}}<tr><td><a href="/debug/obs/traces/{{.ID}}">{{.ID}}</a></td><td>{{.Root}}</td><td>{{.Start}}</td><td class="num">{{.Duration}}</td><td class="num">{{.Spans}}</td><td{{if .Err}} class="bad"{{end}}>{{.Reason}}</td></tr>
{{else}}<tr><td class="dim" colspan="6">no traces retained yet</td></tr>{{end}}</table>
</body></html>
`))
