package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pdcunplugged/internal/obs"
)

// rosterLeader is a leader over a built engine at Seq 2, with its
// /replica/v1/ handler.
func rosterLeader(t *testing.T) (*Leader, http.Handler) {
	t.Helper()
	eng := newEngine(t, corpusDir(t, 2))
	l := NewLeader(eng)
	for i := 0; i < 2; i++ {
		if _, err := eng.Rebuild(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return l, l.Handler()
}

// beat POSTs one heartbeat body and returns the status code.
func beat(h http.Handler, body string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/replica/v1/fleet", strings.NewReader(body)))
	return rec.Code
}

// counters renders a heartbeat for node at seq carrying the four
// cumulative counters.
func counters(node string, seq int, req, errs, durSum, durCount float64) string {
	return fmt.Sprintf(`{"node":%q,"url":"http://%s","seq":%d,"generation":"g","requests":%g,"errors_5xx":%g,"duration_sum":%g,"duration_count":%g}`,
		node, node, seq, req, errs, durSum, durCount)
}

// fleetJSON reads GET /replica/v1/fleet as the wire format.
func fleetJSON(t *testing.T, h http.Handler) []map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/replica/v1/fleet", nil))
	var st struct {
		Followers []map[string]any `json:"followers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.Followers
}

// TestRosterRatesFromHeartbeats: the second heartbeat turns counter
// growth into per-second rates and a mean latency, served on the
// /replica/v1/fleet JSON and as the dashboard's peer rows.
func TestRosterRatesFromHeartbeats(t *testing.T) {
	l, h := rosterLeader(t)
	if code := beat(h, counters("f1", 2, 100, 4, 1, 100)); code != http.StatusNoContent {
		t.Fatalf("first heartbeat = %d", code)
	}
	if f := l.FleetStatus().Followers[0]; f.ReqRate != 0 || f.MeanLatency != 0 {
		t.Errorf("rates after one heartbeat = %+v, want 0", f)
	}
	time.Sleep(20 * time.Millisecond)
	beat(h, counters("f1", 2, 140, 6, 1.8, 140))

	rows := fleetJSON(t, h)
	if len(rows) != 1 {
		t.Fatalf("fleet rows = %+v", rows)
	}
	f := rows[0]
	req, errs := f["req_rate"].(float64), f["err_rate"].(float64)
	if req <= 0 || req > 40/0.02 || math.Abs(errs/req-2.0/40) > 1e-9 {
		t.Errorf("req_rate %v, err_rate %v: want 40 requests and 2 errors over >= 20ms", req, errs)
	}
	if got := f["mean_latency_seconds"].(float64); got < 0.02-1e-9 || got > 0.02+1e-9 {
		t.Errorf("mean_latency_seconds = %v, want 0.8s over 40 requests", got)
	}
	p := l.Peers()
	if len(p) != 1 || !p[0].Tracked || p[0].URL != "http://f1" || p[0].ReqRate != req || p[0].SLOBudget != -1 {
		t.Errorf("Peers = %+v", p)
	}
}

// TestRosterRateAcrossFollowerRestart: a counter that went backwards
// between two heartbeats means the follower restarted, so its rate is
// what it counted since the restart, never negative.
func TestRosterRateAcrossFollowerRestart(t *testing.T) {
	l, h := rosterLeader(t)
	beat(h, counters("f1", 2, 100, 10, 1, 100))
	time.Sleep(20 * time.Millisecond)
	beat(h, counters("f1", 2, 3, 3, 0.03, 3))
	f := l.FleetStatus().Followers[0]
	if f.ReqRate <= 0 || f.ErrRate != f.ReqRate || f.MeanLatency < 0.01-1e-9 || f.MeanLatency > 0.01+1e-9 {
		t.Errorf("after restart = %+v, want 3 requests, all 5xx, at 10ms each", f)
	}
}

// TestRosterLagAndDeparture: lag is the leader's Seq minus the
// follower's, and a follower silent past fleetWindow leaves the roster
// and the dashboard's peers.
func TestRosterLagAndDeparture(t *testing.T) {
	l, h := rosterLeader(t)
	beat(h, counters("f1", 1, 0, 0, 0, 0))
	beat(h, counters("f2", 2, 0, 0, 0, 0))
	st := l.FleetStatus()
	if len(st.Followers) != 2 || st.Followers[0].Lag != 1 || st.Followers[1].Lag != 0 {
		t.Fatalf("lags = %+v, want f1 1 behind and f2 at 0 (leader seq %d)", st.Followers, st.LeaderSeq)
	}
	if lag := obs.Default().Snapshot("pdcu_replica_fleet_lag"); !hasSeries(lag, "f1", 1) {
		t.Errorf("pdcu_replica_fleet_lag = %+v, want f1 at 1", lag)
	}

	l.mu.Lock()
	fs := l.fleet["f1"]
	fs.seen = fs.seen.Add(-fleetWindow - time.Second)
	l.fleet["f1"] = fs
	l.mu.Unlock()
	if p := l.Peers(); len(p) != 1 || p[0].Node != "f2" {
		t.Errorf("peers after f1 went silent = %+v, want f2 only", p)
	}
	if lag := obs.Default().Snapshot("pdcu_replica_fleet_lag"); !hasSeries(lag, "f1", 0) {
		t.Errorf("departed f1's lag series = %+v, want 0", lag)
	}
}

func hasSeries(ss []obs.SeriesSnapshot, node string, v float64) bool {
	for _, s := range ss {
		if s.Labels["node"] == node {
			return s.Value == v
		}
	}
	return false
}

// TestRosterSLOVerdict: the roster serves each follower's tightest
// budget and breach flag as sent; a follower that sends no SLO fields
// (one that predates them) reads budget -1, not breached, rates 0.
func TestRosterSLOVerdict(t *testing.T) {
	l, h := rosterLeader(t)
	beat(h, `{"node":"f1","seq":2,"generation":"g","slo_budget":0.125,"breached":true}`)
	beat(h, `{"node":"old","seq":2,"generation":"g"}`)
	beat(h, `{"node":"old","seq":2,"generation":"g"}`)
	st := l.FleetStatus().Followers
	if f := st[0]; f.Node != "f1" || f.SLOBudget != 0.125 || !f.Breached {
		t.Errorf("f1 = %+v, want budget 0.125 breached", f)
	}
	if f := st[1]; f.Node != "old" || f.SLOBudget != -1 || f.Breached || f.ReqRate != 0 || f.MeanLatency != 0 {
		t.Errorf("old follower = %+v, want budget -1, not breached, rates 0", f)
	}
	if p := l.Peers(); !p[0].Breached || p[0].SLOBudget != 0.125 {
		t.Errorf("peer row = %+v", p[0])
	}
}

// TestRosterRefusesBadHeartbeat: a heartbeat with a negative counter,
// no node, or bad JSON is a 400 and leaves the row as it was.
func TestRosterRefusesBadHeartbeat(t *testing.T) {
	l, h := rosterLeader(t)
	beat(h, counters("f1", 2, 10, 1, 0.1, 10))
	before := l.FleetStatus().Followers[0]
	for _, body := range []string{
		counters("f1", 1, -1, 0, 0, 0),
		counters("f1", 1, 20, -1, 0, 0),
		counters("f1", 1, 20, 0, -0.5, 0),
		counters("f1", 1, 20, 0, 0, -2),
		`{"seq":1}`,
		`{"node":`,
	} {
		if code := beat(h, body); code != http.StatusBadRequest {
			t.Errorf("heartbeat %s = %d, want 400", body, code)
		}
	}
	after := l.FleetStatus().Followers
	if len(after) != 1 || after[0].Seq != before.Seq || after[0].ReqRate != 0 {
		t.Errorf("row after refused heartbeats = %+v, want %+v", after, before)
	}
	l.mu.Lock()
	prevSeen := l.fleet["f1"].prevSeen
	l.mu.Unlock()
	if !prevSeen.IsZero() {
		t.Error("a refused heartbeat shifted the roster's counter history")
	}
}

// TestReadRED: a follower's heartbeat counters sum every series of its
// request counter, count 5xx by a code starting with 5, and take sum and
// count from its latency histogram.
func TestReadRED(t *testing.T) {
	reg := obs.NewRegistry()
	req := reg.Counter("pdcu_http_requests_total", "req", "path", "code")
	req.With("/", "200").Add(7)
	req.With("/api", "503").Add(2)
	req.With("/api", "404").Add(1)
	lat := reg.Histogram("pdcu_http_request_duration_seconds", "lat", nil, "path")
	lat.With("/").Observe(0.25)
	lat.With("/api").Observe(0.5)
	got := readRED(reg)
	want := redTotals{Requests: 10, Errors5xx: 2, DurationSum: 0.75, DurationCount: 2}
	if got != want {
		t.Errorf("readRED = %+v, want %+v", got, want)
	}
}
