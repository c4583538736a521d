package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/obs/dash"
	"pdcunplugged/internal/obs/trace"
	"pdcunplugged/internal/replica"
)

// TestFleetObsSmoke is the fleet observability tier end to end, the way
// `make fleet-obs-smoke` gates it: a leader and a follower with the
// exact wiring cmdServe performs, then every acceptance surface in one
// run — the follower's fetch cycle and the leader's snapshot serve
// stitched into a single trace, the leader's heartbeat roster reporting
// the follower's liveness, lag, request rate and SLO breach on
// /replica/v1/fleet and its Fleet panel, /readyz reporting replication
// role and position, and an induced SLO breach turning the leader's
// /slo to 503.
func TestFleetObsSmoke(t *testing.T) {
	leaderEng := builtEngine(t, nil)
	rep := replica.NewLeader(leaderEng)
	leaderEng.SetPeerSource(rep.Peers)
	leaderEng.SetReadyExtra(func() map[string]any {
		return map[string]any{"role": "leader"}
	})
	lmux := leaderEng.Mux()
	// The middleware wrap is load-bearing: it is what records the
	// leader-side half of the follower's fetch trace.
	lmux.Handle("/replica/v1/", leaderEng.Middleware().Wrap(rep.Handler()))
	leaderSrv := httptest.NewServer(lmux)
	t.Cleanup(leaderSrv.Close)

	// Follower: own engine (own tracer, own rollup), advertising its
	// URL on heartbeats so the leader's Fleet panel links it.
	folEng := testEngine(t, nil)
	folEng.SetPeerSource(func() []dash.Peer {
		return []dash.Peer{{Node: "leader", URL: leaderSrv.URL}}
	})
	fmux := folEng.Mux()
	fmux.Handle("/replica/v1/", replica.NewLeader(folEng).Handler())
	folSrv := httptest.NewServer(fmux)
	t.Cleanup(folSrv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fol := &replica.Follower{
		Eng:  folEng,
		Base: leaderSrv.URL,
		Node: "fleet-f1",
		Self: folSrv.URL,
	}
	folEng.SetReadyExtra(func() map[string]any {
		return map[string]any{"role": "follower", "replica_lag": fol.Lag()}
	})
	go fol.Run(ctx)

	waitConverged(t, leaderEng, folEng)

	// --- Cross-node trace stitching -----------------------------------

	// The follower recorded its fetch cycle as a trace; the same trace
	// ID must be retained on the leader, where the traceparent-carrying
	// snapshot GET recorded the serve-side span.
	var fetch trace.Data
	deadline := time.Now().Add(10 * time.Second)
	for fetch.ID.IsZero() && time.Now().Before(deadline) {
		for _, d := range folEng.Tracer().Store().List() {
			if d.Root == "replica.fetch" {
				fetch = d
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fetch.ID.IsZero() {
		t.Fatal("follower retained no replica.fetch trace")
	}
	leaderHalf, ok := leaderEng.Tracer().Store().Get(fetch.ID)
	if !ok {
		t.Fatalf("leader retained no half of follower trace %s", fetch.ID)
	}
	serveSpan := false
	for _, sp := range leaderHalf.Spans {
		if strings.Contains(sp.Name, "/replica/v1/snapshot") {
			serveSpan = true
		}
	}
	if !serveSpan {
		t.Fatalf("leader half has no snapshot-serve span: %+v", leaderHalf.Spans)
	}

	// The follower's trace view with ?remote=1 federates the leader's
	// half into one stitched waterfall.
	stitchedURL := folSrv.URL + "/debug/obs/traces/" + fetch.ID.String() + "?remote=1"
	resp, err := http.Get(stitchedURL)
	if err != nil {
		t.Fatal(err)
	}
	html, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stitched view = %d: %s", resp.StatusCode, html)
	}
	for _, want := range []string{"replica.fetch", "/replica/v1/snapshot", "stitched"} {
		if !strings.Contains(string(html), want) {
			t.Errorf("stitched waterfall missing %q:\n%s", want, html)
		}
	}
	resp, err = http.Get(stitchedURL + "&format=json")
	if err != nil {
		t.Fatal(err)
	}
	var wire trace.WireTrace
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(wire.Spans) <= len(fetch.Spans) {
		t.Errorf("stitched JSON has %d spans, local half alone has %d",
			len(wire.Spans), len(fetch.Spans))
	}

	// --- Per-layer breakdown on /debug/obs ----------------------------

	// Both engines read the shared process registry, so this asserts
	// presence, not per-node absence: the leader's Layers panel lists
	// the publish layers, and the follower's replica.decode row links to
	// the follower's own fetch trace.
	leaderEng.Rollup().Collect()
	folEng.Rollup().Collect()
	leaderLayers := layerCells(t, leaderSrv.URL)
	for _, phase := range []string{"engine.load", "site.build", "search.build_index"} {
		row, ok := leaderLayers[phase]
		if !ok {
			t.Errorf("leader Layers panel has no %s row", phase)
			continue
		}
		if n, err := strconv.ParseFloat(row[1], 64); err != nil || n < 1 {
			t.Errorf("leader %s count = %q, want >= 1", phase, row[1])
		}
	}
	decode, ok := layerCells(t, folSrv.URL)["replica.decode"]
	link := "/debug/obs/traces/" + fetch.ID.String()
	if !ok || !strings.Contains(decode[len(decode)-1], `href="`+link+`"`) {
		t.Errorf("follower replica.decode row = %q, want a link to %s", decode, link)
	}
	resp, err = http.Get(folSrv.URL + link)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("follower %s = %d, want 200", link, resp.StatusCode)
	}

	// --- Fleet roster from heartbeats --------------------------------

	// The follower's heartbeat after adopting puts it on the roster at
	// lag 0, on the JSON and as a Fleet panel row linking its dashboard.
	row := waitRoster(t, leaderSrv.URL, "the fleet-f1 row at lag 0", func(f map[string]any) bool {
		return f["lag"] == 0.0
	})
	if row["url"] != folSrv.URL {
		t.Errorf("fleet-f1 url = %v, want %s", row["url"], folSrv.URL)
	}
	leaderFleet := fleetPanel(t, leaderSrv.URL)
	if !strings.Contains(leaderFleet, "<td>fleet-f1</td>") ||
		!strings.Contains(leaderFleet, `<a href="`+folSrv.URL+`/debug/obs">`) {
		t.Errorf("leader Fleet panel has no fleet-f1 row linking its dashboard:\n%s", leaderFleet)
	}
	// On the follower, the one peer is its leader: linked, no numbers.
	if folFleet := fleetPanel(t, folSrv.URL); !strings.Contains(folFleet, `<a href="`+leaderSrv.URL+`/debug/obs">`) {
		t.Errorf("follower Fleet panel does not link the leader's dashboard:\n%s", folFleet)
	}

	// Follower-served traffic, then a publish: the follower fetches it
	// at once and heartbeats counters that grew, so its rate is > 0.
	for i := 0; i < 5; i++ {
		resp, err := http.Get(folSrv.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if _, err := leaderEng.Rebuild(ctx); err != nil {
		t.Fatal(err)
	}
	waitRoster(t, leaderSrv.URL, "a positive fleet-f1 req_rate", func(f map[string]any) bool {
		return f["req_rate"].(float64) > 0
	})

	// The leader serves no union of the fleet's metrics: a Prometheus
	// that wants every node scrapes each node's /metrics.
	resp, err = http.Get(leaderSrv.URL + "/metrics/fleet")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics/fleet = %d, want 404", resp.StatusCode)
	}

	// --- /readyz replication extras -----------------------------------

	for srvURL, want := range map[string]string{
		leaderSrv.URL: `"role": "leader"`,
		folSrv.URL:    `"role": "follower"`,
	} {
		resp, err := http.Get(srvURL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/readyz = %d: %s", resp.StatusCode, body)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("/readyz missing %s: %s", want, body)
		}
	}
	resp, err = http.Get(folSrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"replica_lag"`) {
		t.Errorf("follower /readyz missing replica_lag: %s", body)
	}

	// --- SLO breach on /slo ------------------------------------------

	// Induce the breach via the metrics themselves, not wall-clock
	// latency: observing over-threshold durations directly into the
	// query histogram is deterministic under the race detector's
	// slowdown. Registering the same family returns the existing one.
	hist := obs.Default().Histogram("pdcu_query_duration_seconds",
		"Query API request latency, by endpoint.", obs.QueryBuckets(), "endpoint")
	// The follower's rollup samples the same windows, so its own SLO
	// verdict, which its heartbeat carries, breaches too.
	ru, fru := leaderEng.Rollup(), folEng.Rollup()
	ru.Collect() // absorb process history into a pre-breach window
	fru.Collect()
	for i := 0; i < 50000; i++ {
		hist.With("search").Observe(0.08) // 16x the 5ms objective
	}
	ru.Collect() // sample the all-bad window
	fru.Collect()
	ru.Collect() // a trailing empty window leaves the burn rates as they are
	fru.Collect()

	resp, err = http.Get(leaderSrv.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Status     string `json:"status"`
		Objectives []struct {
			Name     string `json:"name"`
			Breached bool   `json:"breached"`
		} `json:"objectives"`
	}
	err = json.NewDecoder(resp.Body).Decode(&report)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || report.Status != "breached" {
		t.Errorf("/slo = %d %q, want 503 breached", resp.StatusCode, report.Status)
	}
	var named bool
	for _, o := range report.Objectives {
		named = named || (o.Name == "query-latency" && o.Breached)
	}
	if !named {
		t.Errorf("/slo does not name query-latency as breached: %+v", report.Objectives)
	}

	// One more heartbeat carries the follower's breach to the roster.
	if _, err := leaderEng.Rebuild(ctx); err != nil {
		t.Fatal(err)
	}
	row = waitRoster(t, leaderSrv.URL, "fleet-f1 breached", func(f map[string]any) bool {
		return f["breached"] == true
	})
	if b := row["slo_budget"].(float64); b < 0 || b >= 1 {
		t.Errorf("breached fleet-f1 slo_budget = %v, want in [0, 1)", b)
	}
	if leaderFleet := fleetPanel(t, leaderSrv.URL); !strings.Contains(leaderFleet, "SLO BREACHED") {
		t.Errorf("leader Fleet panel does not flag the breach:\n%s", leaderFleet)
	}
}

// waitRoster polls the leader's GET /replica/v1/fleet until the
// fleet-f1 row satisfies cond, and returns that row.
func waitRoster(t *testing.T, leader, what string, cond func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(leader + "/replica/v1/fleet")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Followers []map[string]any `json:"followers"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range st.Followers {
			if f["node"] == "fleet-f1" && cond(f) {
				return f
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, st.Followers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fleetPanel fetches a node's /debug/obs and returns its Fleet panel.
func fleetPanel(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	_, panel, ok := strings.Cut(string(body), "<h2>Fleet")
	if !ok {
		t.Fatalf("%s/debug/obs has no Fleet panel", base)
	}
	panel, _, _ = strings.Cut(panel, "<h2>")
	return panel
}

// layerCells fetches a node's /debug/obs and returns its Layers panel
// as cell contents keyed by layer name.
func layerCells(t *testing.T, base string) map[string][]string {
	t.Helper()
	resp, err := http.Get(base + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/debug/obs = %d", base, resp.StatusCode)
	}
	_, panel, ok := strings.Cut(string(body), "<h2>Layers")
	if !ok {
		t.Fatalf("%s/debug/obs has no Layers panel", base)
	}
	panel, _, _ = strings.Cut(panel, "<h2>")
	rows := map[string][]string{}
	for _, tr := range strings.Split(panel, "<tr>") {
		var cells []string
		for _, m := range tdCell.FindAllStringSubmatch(tr, -1) {
			cells = append(cells, m[1])
		}
		if len(cells) == 7 {
			rows[cells[0]] = cells
		}
	}
	return rows
}

var tdCell = regexp.MustCompile(`<td[^>]*>(.*?)</td>`)
