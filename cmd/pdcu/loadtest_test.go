package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"pdcunplugged/internal/bench"
	"pdcunplugged/internal/loadgen"
)

// committedBaseline is the benchmark artifact checked into the repo
// root; the loadtest gate in `make slo-smoke` compares against it.
const committedBaseline = "../../BENCH_loadtest.json"

func runLoadtest(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(append([]string{"loadtest"}, args...), &buf)
	return buf.String(), err
}

// TestLoadtestGatePassesAgainstCommittedBaseline runs the gate twice
// against the committed baseline: both must pass. This is the
// no-false-positives contract — the committed artifact has to survive
// fresh runs on whatever machine CI lands on, or the gate is noise.
func TestLoadtestGatePassesAgainstCommittedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke run")
	}
	if raceEnabled {
		t.Skip("latency SLOs cannot hold under the race detector's slowdown")
	}
	for i := 0; i < 2; i++ {
		out, err := runLoadtest(t,
			"-duration", "1s", "-qps", "150", "-churn", "400ms",
			"-gate", committedBaseline)
		if err != nil {
			t.Fatalf("run %d: gate failed against committed baseline: %v\n%s", i+1, err, out)
		}
		if !strings.Contains(out, "gate PASS") {
			t.Fatalf("run %d: no PASS verdict in output:\n%s", i+1, out)
		}
	}
}

// TestLoadtestGateFailsOnInjectedSlowdown fronts a real engine with a
// 60ms stall on the query API and gates that against the committed
// baseline: the gate must fail and the report must name the violated
// latency objective.
func TestLoadtestGateFailsOnInjectedSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke run")
	}
	if raceEnabled {
		t.Skip("latency thresholds are meaningless under the race detector's slowdown")
	}
	eng := builtEngine(t, nil)
	mux := eng.Mux()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/api/v1/") {
			time.Sleep(60 * time.Millisecond)
		}
		mux.ServeHTTP(w, r)
	}))
	defer slow.Close()

	out, err := runLoadtest(t,
		"-target", slow.URL, "-duration", "700ms", "-qps", "80",
		"-gate", committedBaseline)
	if err == nil {
		t.Fatalf("gate passed despite a 60ms injected stall:\n%s", out)
	}
	if !strings.Contains(err.Error(), "gate FAIL") {
		t.Fatalf("error does not carry the gate verdict: %v", err)
	}
	if !strings.Contains(out, "latency:") {
		t.Fatalf("report does not name the violated latency objective:\n%s", out)
	}
}

// TestLoadtestBaselineWriteAndJSON: -baseline persists a loadable
// report stamped with build identity, and -json emits the same shape.
func TestLoadtestBaselineWriteAndJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke run")
	}
	path := filepath.Join(t.TempDir(), "BENCH_loadtest.json")
	out, err := runLoadtest(t,
		"-duration", "500ms", "-qps", "100", "-json", "-baseline", path)
	if err != nil {
		t.Fatalf("loadtest: %v\n%s", err, out)
	}
	rep := &loadgen.Report{}
	if err := bench.Read(path, loadgen.ReportSchema, rep); err != nil {
		t.Fatalf("written baseline does not load: %v", err)
	}
	if rep.Requests == 0 || rep.Build.GoVersion == "" {
		t.Fatalf("baseline missing data or build stamp: %+v", rep)
	}
	if len(rep.SLO) == 0 {
		t.Fatalf("self-serve run carried no SLO verdicts: %+v", rep)
	}
	var fromJSON loadgen.Report
	dec := json.NewDecoder(strings.NewReader(out))
	if err := dec.Decode(&fromJSON); err != nil {
		t.Fatalf("-json output is not a report: %v\n%s", err, out)
	}
	if fromJSON.Requests != rep.Requests {
		t.Fatalf("-json report (%d reqs) != baseline (%d reqs)", fromJSON.Requests, rep.Requests)
	}
}

func TestLoadtestFlagValidation(t *testing.T) {
	if _, err := runLoadtest(t, "-mix", "bogus=1"); err == nil {
		t.Error("bad mix accepted")
	}
	if _, err := runLoadtest(t, "-target", "http://127.0.0.1:1", "-churn", "1s"); err == nil {
		t.Error("-churn with -target accepted")
	}
	if _, err := runLoadtest(t, "-duration", "200ms", "-gate", filepath.Join(t.TempDir(), "nope.json"), "-target", "http://127.0.0.1:1"); err == nil {
		t.Error("missing gate baseline accepted")
	}
}

// TestServeSLOEndpointAndDashboard drives smoke traffic through a real
// engine mux, ticks the rollup, and checks that (a) /slo reports
// objectives with data and (b) /debug/obs renders the SLO panel with
// nonzero budget numbers.
func TestServeSLOEndpointAndDashboard(t *testing.T) {
	eng := builtEngine(t, nil)
	srv := httptest.NewServer(eng.Mux())
	defer srv.Close()

	for i := 0; i < 30; i++ {
		resp, err := http.Get(srv.URL + "/api/v1/search?q=parallel")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	eng.Rollup().Collect()

	resp, err := http.Get(srv.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The metrics registry is process-global, so this engine's first
	// rollup window inherits every observation earlier tests made —
	// including race-slowed ones. The latency verdict is therefore not
	// asserted here (the loadtest gate tests own that); what must hold
	// regardless of history: the endpoint serves a verdict, every
	// default objective is present with event data, and at least one
	// carries a nonzero remaining budget.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/slo = %d, want 200 or 503", resp.StatusCode)
	}
	var report struct {
		SLOStatus  string `json:"status"`
		Objectives []struct {
			Name            string  `json:"name"`
			TotalSlow       float64 `json:"total_slow"`
			BudgetRemaining float64 `json:"budget_remaining"`
		} `json:"objectives"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if report.SLOStatus == "" || report.SLOStatus == "no_data" {
		t.Fatalf("slo_status = %q after smoke traffic", report.SLOStatus)
	}
	byName := map[string]float64{}
	budgetSeen := false
	for _, o := range report.Objectives {
		byName[o.Name] = o.TotalSlow
		if o.BudgetRemaining > 0 {
			budgetSeen = true
		}
	}
	for _, name := range []string{"query-latency", "availability", "shed-rate"} {
		total, ok := byName[name]
		if !ok {
			t.Fatalf("objective %s missing: %+v", name, report.Objectives)
		}
		if total == 0 {
			t.Errorf("objective %s saw no events after smoke traffic", name)
		}
	}
	if !budgetSeen {
		t.Errorf("no objective has budget remaining: %+v", report.Objectives)
	}

	dash, err := http.Get(srv.URL + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer dash.Body.Close()
	body, _ := io.ReadAll(dash.Body)
	html := string(body)
	if !strings.Contains(html, "SLOs") {
		t.Fatalf("dashboard has no SLO panel:\n%s", html)
	}
	for _, name := range []string{"query-latency", "availability", "shed-rate"} {
		if !strings.Contains(html, name) {
			t.Errorf("SLO panel missing objective %s", name)
		}
	}
	if !strings.Contains(html, "budget remaining") {
		t.Error("SLO panel missing budget column")
	}
	// The budget gauge renders as a percentage; healthy traffic must
	// show a nonzero budget, not the no-data dash.
	if !regexp.MustCompile(`[1-9][0-9]*\.[0-9]%`).MatchString(html) {
		t.Errorf("SLO panel shows no nonzero budget percentage:\n%s", html)
	}
}
