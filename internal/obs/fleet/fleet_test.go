package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pdcunplugged/internal/obs"
)

// fakePeer serves a fixed registry as /metrics, standing in for a
// follower node.
func fakePeer(t *testing.T, reg *obs.Registry) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestScraperFederates(t *testing.T) {
	self := obs.NewRegistry()
	self.Counter("pdcu_http_requests_total", "req", "path", "code").With("/q", "200").Add(10)
	self.Gauge("pdcu_slo_budget_remaining_ratio", "budget", "objective").With("latency").Set(0.9)

	remote := obs.NewRegistry()
	remote.Counter("pdcu_http_requests_total", "req", "path", "code").With("/q", "500").Add(4)
	remote.Gauge("pdcu_replica_lag", "lag").Set(2)
	remote.Gauge("pdcu_slo_breached", "breached", "objective").With("latency").Set(1)
	peer := fakePeer(t, remote)

	s := New(self, Options{
		SelfNode: "leader",
		Peers:    func() []Peer { return []Peer{{Node: "f1", URL: peer.URL}} },
	})
	s.ScrapeOnce(context.Background())

	var b strings.Builder
	s.WriteFleet(&b)
	body := b.String()
	for _, want := range []string{
		`pdcu_http_requests_total{node="leader",path="/q",code="200"} 10`,
		`pdcu_http_requests_total{node="f1",path="/q",code="500"} 4`,
		`pdcu_replica_lag{node="f1"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("fleet exposition missing %q:\n%s", want, body)
		}
	}
	// The federated body must itself be parseable exposition.
	if _, err := obs.ParseExposition(strings.NewReader(body)); err != nil {
		t.Errorf("federated body does not re-parse: %v", err)
	}

	st := s.Status()
	if len(st) != 2 || st[0].Node != "leader" || !st[0].Self || st[1].Node != "f1" {
		t.Fatalf("Status order = %+v", st)
	}
	if st[1].Lag != 2 || !st[1].Breached {
		t.Errorf("f1 status = %+v, want lag 2 breached", st[1])
	}
	if st[0].SLOBudget != 0.9 {
		t.Errorf("leader SLO budget = %v, want 0.9", st[0].SLOBudget)
	}

	// Second scrape after more traffic: RED rates become visible.
	remote.Counter("pdcu_http_requests_total", "req", "path", "code").With("/q", "500").Add(6)
	time.Sleep(20 * time.Millisecond)
	s.ScrapeOnce(context.Background())
	st = s.Status()
	if st[1].ReqRate <= 0 || st[1].ErrRate <= 0 {
		t.Errorf("f1 rates after second scrape = %+v, want > 0", st[1])
	}
}

// TestWriteFleetGolden pins the whole /metrics/fleet body: families
// merged across nodes by name, one HELP/TYPE header each, nodes in name
// order, node= leading every series, cumulative histogram buckets with
// le= last, and label escaping.
func TestWriteFleetGolden(t *testing.T) {
	self := obs.NewRegistry()
	req := self.Counter("app_requests_total", "Requests served.", "path", "code")
	req.With("/", "200").Add(3)
	req.With(`/q"x\y`+"\nz", "500").Inc()
	lat := self.Histogram("app_latency_seconds", "Latency.", []float64{0.1, 1}, "ep")
	lat.With("search").Observe(0.05)
	lat.With("search").Observe(2)
	lat.With("suggest").Observe(0.5)

	remote := obs.NewRegistry()
	remote.Counter("app_requests_total", "Requests served.", "path", "code").With("/", "200").Add(7)
	remote.Gauge("app_lag", "Generations behind.").Set(2)
	peer := fakePeer(t, remote)

	s := New(self, Options{
		SelfNode: "leader",
		Peers:    func() []Peer { return []Peer{{Node: "f1", URL: peer.URL}} },
	})
	s.ScrapeOnce(context.Background())
	var b strings.Builder
	s.WriteFleet(&b)
	want := `# HELP app_lag Generations behind.
# TYPE app_lag gauge
app_lag{node="f1"} 2
# HELP app_latency_seconds Latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{node="leader",ep="search",le="0.1"} 1
app_latency_seconds_bucket{node="leader",ep="search",le="1"} 1
app_latency_seconds_bucket{node="leader",ep="search",le="+Inf"} 2
app_latency_seconds_sum{node="leader",ep="search"} 2.05
app_latency_seconds_count{node="leader",ep="search"} 2
app_latency_seconds_bucket{node="leader",ep="suggest",le="0.1"} 0
app_latency_seconds_bucket{node="leader",ep="suggest",le="1"} 1
app_latency_seconds_bucket{node="leader",ep="suggest",le="+Inf"} 1
app_latency_seconds_sum{node="leader",ep="suggest"} 0.5
app_latency_seconds_count{node="leader",ep="suggest"} 1
# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{node="f1",path="/",code="200"} 7
app_requests_total{node="leader",path="/",code="200"} 3
app_requests_total{node="leader",path="/q\"x\\y\nz",code="500"} 1
`
	if b.String() != want {
		t.Errorf("fleet exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

// TestScraperCountsTypedSeries: NodeStatus.Series and the
// pdcu_obs_fleet_series gauge count series, so a histogram series counts
// once rather than once per exposition line.
func TestScraperCountsTypedSeries(t *testing.T) {
	self := obs.NewRegistry()
	lat := self.Histogram("app_latency_seconds", "Latency.", []float64{0.1, 1}, "ep")
	lat.With("search").Observe(0.05)
	lat.With("suggest").Observe(0.5)
	self.Gauge("app_declared_only", "A family with no series yet.", "x")

	remote := obs.NewRegistry()
	remote.Counter("app_requests_total", "req", "code").With("200").Inc()
	remote.Gauge("app_lag", "lag").Set(2)
	peer := fakePeer(t, remote)

	s := New(self, Options{
		SelfNode: "leader",
		Peers:    func() []Peer { return []Peer{{Node: "f1", URL: peer.URL}} },
	})
	s.ScrapeOnce(context.Background())
	st := s.Status()
	if len(st) != 2 || st[0].Series != 2 || st[1].Series != 2 {
		t.Fatalf("series per node = %+v, want leader 2 and f1 2", st)
	}
	if got := obs.Default().Snapshot("pdcu_obs_fleet_series"); len(got) != 1 || got[0].Value != 4 {
		t.Errorf("pdcu_obs_fleet_series = %+v, want 4", got)
	}
}

// TestScraperRateAcrossPeerRestart: a peer whose counters go backwards
// between two scrapes restarted, so its rate is what it counted since
// the restart — the same reset rule the rollup applies.
func TestScraperRateAcrossPeerRestart(t *testing.T) {
	newPeerReg := func(requests float64) *obs.Registry {
		reg := obs.NewRegistry()
		reg.Counter("pdcu_http_requests_total", "req", "path", "code").With("/q", "500").Add(requests)
		lat := reg.Histogram("pdcu_http_request_duration_seconds", "lat", nil, "path")
		for i := 0; i < int(requests); i++ {
			lat.With("/q").Observe(0.01)
		}
		return reg
	}
	var mu sync.Mutex
	current := newPeerReg(10)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reg := current
		mu.Unlock()
		reg.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(peer.Close)

	s := New(obs.NewRegistry(), Options{
		SelfNode: "leader",
		Peers:    func() []Peer { return []Peer{{Node: "f1", URL: peer.URL}} },
	})
	s.ScrapeOnce(context.Background())
	mu.Lock()
	current = newPeerReg(3) // the peer restarted and has served 3 since
	mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	s.ScrapeOnce(context.Background())

	st := s.Status()
	if len(st) != 2 || st[1].Node != "f1" {
		t.Fatalf("Status = %+v", st)
	}
	if f1 := st[1]; f1.ReqRate <= 0 || f1.ErrRate <= 0 || f1.MeanLatency <= 0 {
		t.Errorf("f1 after restart = %+v, want positive rates and latency", f1)
	}
}

func TestScraperPeerFailureAndDeparture(t *testing.T) {
	self := obs.NewRegistry()
	self.Gauge("x", "x").Set(1)
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer bad.Close()

	peers := []Peer{{Node: "f1", URL: bad.URL}}
	s := New(self, Options{SelfNode: "leader", Peers: func() []Peer { return peers }})
	s.ScrapeOnce(context.Background())
	st := s.Status()
	if len(st) != 2 || st[1].Err == "" {
		t.Fatalf("failed peer status = %+v, want recorded error", st)
	}

	// Peer leaves the roster: its series stop being served.
	peers = nil
	s.ScrapeOnce(context.Background())
	if st := s.Status(); len(st) != 1 || st[0].Node != "leader" {
		t.Errorf("status after departure = %+v, want self only", st)
	}
}

func TestScraperHandlerColdScrape(t *testing.T) {
	self := obs.NewRegistry()
	self.Gauge("cold_gauge", "g").Set(7)
	s := New(self, Options{SelfNode: "n0"})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics/fleet", nil))
	if !strings.Contains(rec.Body.String(), `cold_gauge{node="n0"} 7`) {
		t.Errorf("cold handler body = %q", rec.Body.String())
	}
}
