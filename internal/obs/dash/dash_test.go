package dash

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/obs/slo"
	"pdcunplugged/internal/obs/trace"
)

// fixture builds a registry/rollup/tracer trio with one traced request
// worth of data in each.
func fixture(t *testing.T) (Config, trace.TraceID) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter("pdcu_http_requests_total", "req", "path", "code").With("/api", "200").Add(10)
	reg.Counter("pdcu_http_requests_total", "req", "path", "code").With("/api", "500").Add(2)
	reg.Histogram("pdcu_http_request_duration_seconds", "lat", nil, "path").With("/api").Observe(0.02)

	ru := obs.NewRollup(reg, time.Second, 8)
	ru.Collect()
	ru.Collect()

	clk := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	step := 10 * time.Millisecond
	tr := trace.New(trace.Options{SampleRate: 1, Now: func() time.Time {
		clk = clk.Add(step)
		return clk
	}})
	ctx, root := tr.StartRecorded(context.Background(), "GET /api/v1/search")
	_, child := trace.StartSpan(ctx, "query.search")
	child.End()
	root.End()
	id := root.TraceID()
	if _, ok := tr.Store().Get(id); !ok {
		t.Fatal("fixture trace not retained")
	}
	return Config{Rollup: ru, Tracer: tr}, id
}

func TestDashboardRenders(t *testing.T) {
	cfg, id := fixture(t)
	h := Handler(cfg)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"/api", // RED row for the HTTP route
		"/debug/obs/traces/" + id.String(),
		"<svg",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	var panels []string
	for _, h := range strings.Split(body, "<h2>")[1:] {
		title, _, _ := strings.Cut(h, "<")
		panels = append(panels, strings.TrimSpace(title))
	}
	want := []string{"HTTP (RED)", "Query API (RED)", "SLOs", "Layers", "Fleet", "Recent traces"}
	if strings.Join(panels, "|") != strings.Join(want, "|") {
		t.Errorf("panels = %q, want %q", panels, want)
	}
	if !strings.Contains(body, `<meta http-equiv="refresh" content="5">`) {
		t.Error("auto-refresh meta tag missing")
	}
}

// TestDashboardLayersPanel: one row per phase of pdcu_phase_seconds
// over the retained windows, largest total time first, with p50/p90
// inside the buckets that hold them and a link to the retained trace
// with that phase's slowest span. Before any window the panel shows its
// empty state.
func TestDashboardLayersPanel(t *testing.T) {
	reg := obs.NewRegistry()
	phase := reg.Histogram("pdcu_phase_seconds", "phase", obs.PhaseBuckets(), "phase")
	ru := obs.NewRollup(reg, time.Second, 8)
	clk := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	tr := trace.New(trace.Options{SampleRate: 1, Now: func() time.Time { return clk }})
	cfg := Config{Rollup: ru, Tracer: tr}

	render := func() string {
		rec := httptest.NewRecorder()
		Handler(cfg).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs", nil))
		return rec.Body.String()
	}
	if body := render(); !strings.Contains(body, "no spans in the retained windows yet") {
		t.Error("Layers panel missing its empty state before any window")
	}

	// site.build: 8 fast and 2 slow builds, 64ms in all. query.cache:
	// more observations but only 3ms in all, so it ranks second.
	for i := 0; i < 8; i++ {
		phase.With("site.build").Observe(0.003)
	}
	phase.With("site.build").Observe(0.02)
	phase.With("site.build").Observe(0.02)
	for i := 0; i < 100; i++ {
		phase.With("query.cache").Observe(0.00003)
	}
	ru.Collect()

	// Two retained traces: the first holds the slowest query.cache span,
	// the second the slowest site.build span.
	type span struct {
		name string
		d    time.Duration
	}
	traceWith := func(spans ...span) string {
		ctx, root := tr.StartRecorded(context.Background(), "root")
		for _, sp := range spans {
			_, child := trace.StartSpan(ctx, sp.name)
			clk = clk.Add(sp.d)
			child.End()
		}
		root.End()
		return root.TraceID().String()
	}
	first := traceWith(span{"site.build", 3 * time.Millisecond}, span{"query.cache", 40 * time.Microsecond})
	second := traceWith(span{"site.build", 20 * time.Millisecond}, span{"query.cache", 30 * time.Microsecond})

	rows := layerRows(ru, tr.Store().List())
	if len(rows) != 2 || rows[0].Phase != "site.build" || rows[1].Phase != "query.cache" {
		t.Fatalf("rows = %+v, want site.build then query.cache", rows)
	}
	within := func(name, got string, lo, hi time.Duration) {
		t.Helper()
		d, err := time.ParseDuration(got)
		if err != nil || d <= lo || d > hi {
			t.Errorf("%s = %q, want in (%v, %v]", name, got, lo, hi)
		}
	}
	within("site.build p50", rows[0].P50, 2500*time.Microsecond, 5*time.Millisecond)
	within("site.build p90", rows[0].P90, 10*time.Millisecond, 25*time.Millisecond)
	within("query.cache p50", rows[1].P50, 25*time.Microsecond, 50*time.Microsecond)
	within("query.cache p90", rows[1].P90, 25*time.Microsecond, 50*time.Microsecond)
	if rows[0].Count != "10" || rows[0].Total != "64ms" || rows[1].Count != "100" {
		t.Errorf("counts/totals = %+v", rows)
	}
	if rows[0].Trace != second || rows[1].Trace != first {
		t.Errorf("links = %s, %s; want site.build -> %s, query.cache -> %s",
			rows[0].Trace, rows[1].Trace, second, first)
	}

	body := render()
	if strings.Contains(body, "no spans in the retained windows yet") {
		t.Error("empty state rendered despite phase data")
	}
	for _, want := range []string{
		"<td>site.build</td>",
		`<a href="/debug/obs/traces/` + second + `">`,
		`<a href="/debug/obs/traces/` + first + `">`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("Layers panel missing %q", want)
		}
	}
	if strings.Index(body, "<td>site.build</td>") > strings.Index(body, "<td>query.cache</td>") {
		t.Error("Layers rows not in total-time order")
	}
}

func TestTraceListJSON(t *testing.T) {
	cfg, id := fixture(t)
	rec := httptest.NewRecorder()
	Handler(cfg).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs/traces", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var got []traceSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(got) != 1 || got[0].ID != id.String() || got[0].Spans != 2 {
		t.Errorf("list = %+v, want one trace %s with 2 spans", got, id)
	}
}

func TestTraceWaterfallAndJSON(t *testing.T) {
	cfg, id := fixture(t)
	h := Handler(cfg)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs/traces/"+id.String(), nil))
	if rec.Code != 200 {
		t.Fatalf("waterfall status = %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	if !strings.Contains(body, "GET /api/v1/search") || !strings.Contains(body, "query.search") {
		t.Errorf("waterfall missing span names:\n%s", body)
	}
	if !strings.Contains(body, `class="bar`) {
		t.Error("waterfall missing timeline bars")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs/traces/"+id.String()+"?format=json", nil))
	var full trace.WireTrace
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if full.ID != id.String() || len(full.Spans) != 2 {
		t.Fatalf("trace JSON = %+v", full)
	}
	var rootID string
	for _, sp := range full.Spans {
		if sp.Parent == "" {
			rootID = sp.ID
		}
	}
	for _, sp := range full.Spans {
		if sp.SpanData.Name == "query.search" && sp.Parent != rootID {
			t.Errorf("child parent = %q, want root %q", sp.Parent, rootID)
		}
	}
}

func TestTraceViewErrors(t *testing.T) {
	cfg, _ := fixture(t)
	h := Handler(cfg)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs/traces/zzz", nil))
	if rec.Code != 400 {
		t.Errorf("malformed ID status = %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs/traces/"+strings.Repeat("ab", 16), nil))
	if rec.Code != 404 {
		t.Errorf("unknown ID status = %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs/nope", nil))
	if rec.Code != 404 {
		t.Errorf("unknown subpath status = %d, want 404", rec.Code)
	}
}

// TestTraceViewStitchesRemote: ?remote=1 pulls the peer's half of the
// same trace ID over the wire format and renders one merged waterfall.
func TestTraceViewStitchesRemote(t *testing.T) {
	cfg, id := fixture(t)
	local, _ := cfg.Tracer.Store().Get(id)

	// The peer records a span continued from our trace via traceparent —
	// exactly what the leader's middleware does when a follower's
	// snapshot fetch carries the header.
	peerTracer := trace.New(trace.Options{SampleRate: 1})
	tp := "00-" + id.String() + "-" + local.Spans[len(local.Spans)-1].ID.String() + "-01"
	_, remoteSpan := peerTracer.StartRemote(context.Background(),
		"GET /replica/v1/snapshot", tp)
	remoteSpan.End()
	if _, ok := peerTracer.Store().Get(id); !ok {
		t.Fatal("peer did not retain the traceparent-continued trace")
	}
	peer := httptest.NewServer(Handler(Config{Tracer: peerTracer}))
	defer peer.Close()

	cfg.Peers = func() []Peer { return []Peer{{Node: "leader", URL: peer.URL}} }
	h := Handler(cfg)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs/traces/"+id.String()+"?remote=1", nil))
	if rec.Code != 200 {
		t.Fatalf("stitched view status = %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	if !strings.Contains(body, "GET /replica/v1/snapshot") {
		t.Errorf("stitched waterfall missing the remote span:\n%s", body)
	}
	if !strings.Contains(body, "stitched 1 remote span") {
		t.Errorf("stitched count missing from meta line:\n%s", body)
	}

	// The stitched JSON carries the union of spans.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET",
		"/debug/obs/traces/"+id.String()+"?remote=1&format=json", nil))
	var full trace.WireTrace
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Spans) != len(local.Spans)+1 {
		t.Errorf("stitched JSON has %d spans, want %d", len(full.Spans), len(local.Spans)+1)
	}
}

func TestSparkHandlesNaNGaps(t *testing.T) {
	svg := string(spark([]float64{math.NaN(), math.NaN(), 1, 2, math.NaN(), 3}, 100, 20))
	if !strings.Contains(svg, "<polyline") {
		t.Errorf("no polyline in %s", svg)
	}
	if !strings.Contains(svg, "<circle") {
		t.Errorf("isolated point after NaN gap should render a dot: %s", svg)
	}
	if strings.Contains(svg, "NaN") {
		t.Errorf("NaN leaked into SVG: %s", svg)
	}
}

func TestSpanDepthsRemoteParent(t *testing.T) {
	// A trace continued from a remote traceparent has a root whose
	// parent span was never recorded locally; depth must treat it as 0.
	remote := trace.SpanID{9, 9, 9, 9, 9, 9, 9, 9}
	root := trace.SpanID{1}
	child := trace.SpanID{2}
	depths := spanDepths([]trace.SpanData{
		{ID: root, Parent: remote, Name: "root"},
		{ID: child, Parent: root, Name: "child"},
	})
	if depths[root] != 0 || depths[child] != 1 {
		t.Errorf("depths = %v, want root 0 child 1", depths)
	}
}

func TestWaterfallBarGeometry(t *testing.T) {
	start := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	d := Trace{
		ID:       trace.TraceID{1},
		Root:     "root",
		Start:    start,
		Duration: 100 * time.Millisecond,
		Spans: []trace.SpanData{
			{ID: trace.SpanID{1}, Name: "root", Start: start, Duration: 100 * time.Millisecond},
			{ID: trace.SpanID{2}, Parent: trace.SpanID{1}, Name: "late",
				Start: start.Add(50 * time.Millisecond), Duration: 25 * time.Millisecond},
		},
	}
	wf := waterfall(d)
	if len(wf.Spans) != 2 {
		t.Fatalf("spans = %+v", wf.Spans)
	}
	late := wf.Spans[1]
	if late.Name != "late" || math.Abs(late.Left-50) > 0.01 || math.Abs(late.Width-25) > 0.01 {
		t.Errorf("late bar = %+v, want left 50%% width 25%%", late)
	}
}

// TestDashboardSLOPanel renders the SLO panel from an isolated
// registry: a healthy latency objective must show as ok with a full
// budget gauge, and a breached one as BREACHED with zero budget.
func TestDashboardSLOPanel(t *testing.T) {
	reg := obs.NewRegistry()
	fast := reg.Histogram("pdcu_query_duration_seconds", "lat",
		obs.QueryBuckets(), "endpoint").With("search")
	for i := 0; i < 100; i++ {
		fast.Observe(0.001) // well under the 5ms objective
	}
	reg.Counter("pdcu_query_requests_total", "req", "endpoint", "code").
		With("search", "200").Add(100)
	ru := obs.NewRollup(reg, time.Second, 8)
	ru.Collect()

	cfg := Config{
		Rollup: ru,
		SLO:    slo.New(reg, ru, slo.DefaultObjectives(), slo.Options{}),
	}
	rec := httptest.NewRecorder()
	Handler(cfg).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	html := rec.Body.String()
	if !strings.Contains(html, "SLOs") || !strings.Contains(html, "query-latency") {
		t.Fatalf("SLO panel missing:\n%s", html)
	}
	if !strings.Contains(html, "100.0%") {
		t.Errorf("healthy objective does not show a full budget")
	}
	if strings.Contains(html, "BREACHED") {
		t.Errorf("healthy data rendered as breached")
	}

	// Breach it: flood slow observations and re-render.
	for i := 0; i < 400; i++ {
		fast.Observe(0.05)
	}
	ru.Collect()
	rec = httptest.NewRecorder()
	Handler(cfg).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs", nil))
	if html := rec.Body.String(); !strings.Contains(html, "BREACHED") {
		t.Errorf("breached objective not flagged in panel")
	}
}

// TestDashboardFleetPanel: the Fleet panel renders the peer source. A
// tracked follower shows its heartbeat numbers and breach verdict; an
// untracked peer (a follower's leader) links to its dashboard with "–"
// in place of every number; an empty roster shows the empty state.
func TestDashboardFleetPanel(t *testing.T) {
	var peers []Peer
	cfg := Config{Peers: func() []Peer { return peers }}
	fleetPanel := func() string {
		rec := httptest.NewRecorder()
		Handler(cfg).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs", nil))
		_, panel, _ := strings.Cut(rec.Body.String(), "<h2>Fleet")
		panel, _, _ = strings.Cut(panel, "<h2>")
		return panel
	}
	if panel := fleetPanel(); !strings.Contains(panel, "no peers") {
		t.Errorf("empty roster panel = %s", panel)
	}

	peers = []Peer{
		{Node: "f1", URL: "http://f1:8080", Tracked: true, Age: 3 * time.Second, Lag: 2,
			ReqRate: 4, ErrRate: 0.5, MeanLatency: 0.002, SLOBudget: 0.25, Breached: true},
		{Node: "f2", Tracked: true, SLOBudget: -1},
		{Node: "leader", URL: "http://leader:8080"},
	}
	panel := fleetPanel()
	rows := strings.Split(panel, "<tr>")[2:]
	if len(rows) != 3 {
		t.Fatalf("panel rows = %d, want 3:\n%s", len(rows), panel)
	}
	for i, want := range [][]string{
		{`<a href="http://f1:8080/debug/obs">`, ">3s<", ">4.0/s<", ">0.5/s<", ">2ms<", ">2<", ">25.0%<", `class="bad">SLO BREACHED`},
		{"not advertised", ">ok<"},
		{`<a href="http://leader:8080/debug/obs">`},
	} {
		for _, w := range want {
			if !strings.Contains(rows[i], w) {
				t.Errorf("row %d missing %q:\n%s", i, w, rows[i])
			}
		}
	}
	if strings.Count(rows[1], ">–<") != 1 || strings.Count(rows[2], ">–<") != 7 {
		t.Errorf("want f2 with only its budget as –, leader with every number as –:\n%s\n%s", rows[1], rows[2])
	}
}
