package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdcunplugged/internal/bench"
	"pdcunplugged/internal/obs/slo"
)

func TestParseMix(t *testing.T) {
	m, err := ParseMix("search=55, typo=5,activities=25,facets=10,site=5")
	if err != nil {
		t.Fatalf("ParseMix: %v", err)
	}
	if len(m) != 5 || m[0].Kind != KindSearch || m[0].Weight != 55 || m[1].Kind != KindTypo {
		t.Fatalf("unexpected mix: %+v", m)
	}
	if got := m.String(); got != "search=55,typo=5,activities=25,facets=10,site=5" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"", "search", "search=0", "search=-1", "search=x", "bogus=10"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q): want error", bad)
		}
	}
}

func TestPercentile(t *testing.T) {
	durs := make([]time.Duration, 100)
	for i := range durs {
		durs[i] = time.Duration(i+1) * time.Millisecond // 1..100ms sorted
	}
	if got := percentileMs(durs, 0.50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentileMs(durs, 0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := percentileMs(durs, 1); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
	if got := percentileMs(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}

// TestRunHealthyServer drives a fast stub server and checks the report's
// bookkeeping: every traffic class exercised, no errors, sane rates.
func TestRunHealthyServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	rep, err := Run(context.Background(), Options{
		BaseURL:     srv.URL,
		QPS:         400,
		Concurrency: 8,
		Duration:    400 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Requests < 50 {
		t.Fatalf("only %d requests in 400ms at 400 qps", rep.Requests)
	}
	if rep.Errors != 0 || rep.Shed != 0 {
		t.Fatalf("healthy server produced errors=%d shed=%d", rep.Errors, rep.Shed)
	}
	for _, kind := range []string{"search", "typo", "activities", "facets", "site"} {
		es, ok := rep.Endpoints[kind]
		if !ok || es.Requests == 0 {
			t.Errorf("traffic class %s never exercised: %+v", kind, rep.Endpoints)
			continue
		}
		if es.P99ms < es.P50ms {
			t.Errorf("%s: p99 %.3f < p50 %.3f", kind, es.P99ms, es.P50ms)
		}
	}
	if !rep.Alloc.Available || rep.Alloc.BytesPerOp <= 0 {
		t.Errorf("alloc stats missing: %+v", rep.Alloc)
	}
	if rep.Throughput <= 0 {
		t.Errorf("throughput = %v", rep.Throughput)
	}
	if !strings.Contains(rep.Text(), "endpoint") {
		t.Errorf("Text() missing table header:\n%s", rep.Text())
	}
}

// TestRunClassifiesShedAndErrors: 429 counts as shed, 5xx as error, and
// neither is conflated with the other.
func TestRunClassifiesShedAndErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/api/v1/facets"):
			w.WriteHeader(http.StatusTooManyRequests)
		case strings.HasPrefix(r.URL.Path, "/api/v1/search"):
			w.WriteHeader(http.StatusInternalServerError)
		default:
			w.Write([]byte("ok"))
		}
	}))
	defer srv.Close()

	rep, err := Run(context.Background(), Options{
		BaseURL:     srv.URL,
		Mix:         Mix{{KindSearch, 1}, {KindFacets, 1}, {KindSite, 1}},
		QPS:         300,
		Concurrency: 4,
		Duration:    300 * time.Millisecond,
		SkipPrime:   true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Errors == 0 || rep.Shed == 0 {
		t.Fatalf("want both errors and shed, got errors=%d shed=%d", rep.Errors, rep.Shed)
	}
	if rep.Endpoints["facets"].Shed == 0 || rep.Endpoints["facets"].Errors != 0 {
		t.Errorf("facets misclassified: %+v", rep.Endpoints["facets"])
	}
	if rep.Endpoints["search"].Errors == 0 || rep.Endpoints["search"].Shed != 0 {
		t.Errorf("search misclassified: %+v", rep.Endpoints["search"])
	}
	if rep.ErrorRate <= 0 || rep.ShedRate <= 0 {
		t.Errorf("rates not computed: err=%v shed=%v", rep.ErrorRate, rep.ShedRate)
	}
}

// TestRunChurn: the churn hook fires on its cadence and is counted.
func TestRunChurn(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	calls := make(chan struct{}, 64)
	rep, err := Run(context.Background(), Options{
		BaseURL:     srv.URL,
		QPS:         100,
		Concurrency: 2,
		Duration:    400 * time.Millisecond,
		Churn:       func() error { calls <- struct{}{}; return nil },
		ChurnEvery:  80 * time.Millisecond,
		SkipPrime:   true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Churns < 2 {
		t.Fatalf("churns = %d, want >= 2 over 400ms at 80ms cadence", rep.Churns)
	}
	if int64(len(calls)) != rep.Churns {
		t.Errorf("churn count %d != invocations %d", rep.Churns, len(calls))
	}
}

func baseReport() *Report {
	return &Report{
		Schema: ReportSchema,
		Config: RunConfig{Mix: "search=1", QPS: 200, Concurrency: 8, Seconds: 2},
		Endpoints: map[string]EndpointStats{
			"search": {Requests: 400, P50ms: 0.2, P95ms: 0.8, P99ms: 1.5},
			"site":   {Requests: 100, P50ms: 0.1, P95ms: 0.3, P99ms: 0.6},
		},
		Requests:  500,
		ErrorRate: 0,
		ShedRate:  0,
		Alloc:     AllocStats{Available: true, BytesPerOp: 4000, ObjectsPerOp: 40},
	}
}

// TestGateNoFalsePositives: the same numbers — and numbers inside the
// noise floors — must pass. This is what lets a committed baseline gate
// CI runs on different hardware.
func TestGateNoFalsePositives(t *testing.T) {
	base := baseReport()
	if v := Gate(base, base); len(v) != 0 {
		t.Fatalf("identical reports violated the gate: %v", v)
	}
	cur := baseReport()
	es := cur.Endpoints["search"]
	es.P99ms = 20 // 13x the baseline but under the 25ms absolute floor
	cur.Endpoints["search"] = es
	cur.ErrorRate = 0.004 // under the 0.5% floor despite a zero baseline
	cur.Alloc.BytesPerOp = 9000
	// Past the 5% shed floor but within twice a 3% baseline.
	base.ShedRate, cur.ShedRate = 0.03, 0.055
	if v := Gate(base, cur); len(v) != 0 {
		t.Fatalf("noise-level drift violated the gate: %v", v)
	}
}

// TestGateCatchesRegressions: each rule trips on a real regression and
// the violation names the objective.
func TestGateCatchesRegressions(t *testing.T) {
	base := baseReport()
	cur := baseReport()
	es := cur.Endpoints["search"]
	es.P99ms = 60 // injected stall: over both factor and floor
	cur.Endpoints["search"] = es
	cur.ErrorRate = 0.02
	base.ShedRate, cur.ShedRate = 0.03, 0.2
	cur.Alloc.BytesPerOp = 40000
	cur.SLO = []slo.Status{{Name: "query-latency", Breached: true, FastBurn: 50, SlowBurn: 30}}

	violations := Gate(base, cur)
	want := map[string]bool{
		"latency:search": false, "error-rate": false, "shed-rate": false,
		"alloc-bytes": false, "slo:query-latency": false,
	}
	for _, v := range violations {
		if _, ok := want[v.Metric]; !ok {
			t.Errorf("unexpected violation %q: %s", v.Metric, v)
			continue
		}
		want[v.Metric] = true
		if v.String() == "" || !strings.Contains(v.String(), v.Metric) {
			t.Errorf("violation string does not name its objective: %s", v)
		}
	}
	for name, hit := range want {
		if !hit {
			t.Errorf("objective %s not flagged; got %v", name, violations)
		}
	}
	// The untouched endpoint must not be flagged.
	for _, v := range violations {
		if v.Metric == "latency:site" {
			t.Errorf("site latency flagged without a regression: %s", v)
		}
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_loadtest.json")
	rep := baseReport()
	rep.Build = bench.Stamp{Version: "(devel)", GoVersion: "go1.x"}
	if err := bench.Write(path, rep); err != nil {
		t.Fatalf("bench.Write: %v", err)
	}
	got := &Report{}
	if err := bench.Read(path, ReportSchema, got); err != nil {
		t.Fatalf("bench.Read: %v", err)
	}
	if got.Requests != rep.Requests || got.Endpoints["search"].P99ms != 1.5 {
		t.Fatalf("round trip mangled the report: %+v", got)
	}
	if got.Build.Version != "(devel)" {
		t.Fatalf("build stamp lost: %+v", got.Build)
	}

	rep.Schema = ReportSchema + 1
	if err := bench.Write(path, rep); err != nil {
		t.Fatal(err)
	}
	if err := bench.Read(path, ReportSchema, &Report{}); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
	if err := bench.Read(filepath.Join(t.TempDir(), "missing.json"), ReportSchema, &Report{}); err == nil {
		t.Fatal("missing baseline not an error")
	}
}

// TestRunMultiTarget: a comma-separated fleet is rotated request by
// request, so every node receives an equal share of the mix (strict
// round-robin: totals differ by at most one, beyond the per-target
// priming requests).
func TestRunMultiTarget(t *testing.T) {
	var hits [2]atomic.Int64
	mkSrv := func(i int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			w.Write([]byte("ok"))
		}))
	}
	a, b := mkSrv(0), mkSrv(1)
	defer a.Close()
	defer b.Close()

	rep, err := Run(context.Background(), Options{
		Targets:     []string{a.URL, b.URL},
		QPS:         400,
		Concurrency: 8,
		Duration:    400 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Requests < 50 {
		t.Fatalf("only %d requests in 400ms at 400 qps", rep.Requests)
	}
	ha, hb := hits[0].Load(), hits[1].Load()
	if ha == 0 || hb == 0 {
		t.Fatalf("a target saw no traffic: a=%d b=%d", ha, hb)
	}
	// Each target was primed once per mix entry (5 classes); the
	// measured traffic itself is strict round-robin.
	diff := ha - hb
	if diff < 0 {
		diff = -diff
	}
	if diff > 1 {
		t.Errorf("round-robin drifted: a=%d b=%d (diff %d, want <= 1)", ha, hb, diff)
	}
	if ha+hb != rep.Requests+2*int64(len(DefaultMix())) {
		t.Errorf("fleet saw %d requests, report counted %d (+%d priming)",
			ha+hb, rep.Requests, 2*len(DefaultMix()))
	}

	// Per-target breakdown: one row per node, counting exactly the
	// measured traffic that node served (priming excluded).
	if len(rep.Targets) != 2 {
		t.Fatalf("Targets rows = %d, want 2: %+v", len(rep.Targets), rep.Targets)
	}
	prime := int64(len(DefaultMix()))
	if got := rep.Targets[a.URL].Requests; got != ha-prime {
		t.Errorf("target a row counted %d requests, node served %d measured", got, ha-prime)
	}
	if got := rep.Targets[b.URL].Requests; got != hb-prime {
		t.Errorf("target b row counted %d requests, node served %d measured", got, hb-prime)
	}
	if rep.Targets[a.URL].P50ms <= 0 || rep.Targets[a.URL].P99ms < rep.Targets[a.URL].P50ms {
		t.Errorf("target a percentiles implausible: %+v", rep.Targets[a.URL])
	}
	if txt := rep.Text(); !strings.Contains(txt, "target") || !strings.Contains(txt, a.URL) {
		t.Errorf("Text() missing per-target block:\n%s", txt)
	}

	if _, err := Run(context.Background(), Options{Targets: []string{a.URL, "::bad::"}}); err == nil {
		t.Error("Run accepted a malformed fleet target")
	}
}

// TestRunPerTargetErrorRate points the generator at one healthy and one
// broken node: the asymmetry must be visible in the per-target rows —
// that is the whole point of the breakdown.
func TestRunPerTargetErrorRate(t *testing.T) {
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer good.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer bad.Close()

	rep, err := Run(context.Background(), Options{
		Targets:     []string{good.URL, bad.URL},
		QPS:         300,
		Concurrency: 4,
		Duration:    300 * time.Millisecond,
		SkipPrime:   true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	g, b := rep.Targets[good.URL], rep.Targets[bad.URL]
	if g.Requests == 0 || b.Requests == 0 {
		t.Fatalf("a target saw no traffic: good=%d bad=%d", g.Requests, b.Requests)
	}
	if g.Errors != 0 {
		t.Errorf("healthy target recorded %d errors", g.Errors)
	}
	if b.Errors != b.Requests {
		t.Errorf("broken target: %d/%d requests counted as errors, want all", b.Errors, b.Requests)
	}
	// The overall error rate blends both nodes; the rows separate them.
	if rep.ErrorRate <= 0 || rep.ErrorRate >= 1 {
		t.Errorf("blended error rate %.3f, want strictly between 0 and 1", rep.ErrorRate)
	}
}
