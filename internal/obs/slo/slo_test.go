package slo

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pdcunplugged/internal/obs"
)

// fixture builds a registry + rollup pair with the query families the
// default objectives consume.
func fixture() (*obs.Registry, *obs.Rollup) {
	reg := obs.NewRegistry()
	ru := obs.NewRollup(reg, time.Second, 32)
	return reg, ru
}

func TestHealthyTrafficHoldsBudget(t *testing.T) {
	reg, ru := fixture()
	dur := reg.Histogram("pdcu_query_duration_seconds", "lat", obs.QueryBuckets(), "endpoint")
	req := reg.Counter("pdcu_query_requests_total", "req", "endpoint", "code")
	for i := 0; i < 1000; i++ {
		dur.With("search").Observe(0.0001) // 100µs, well under 5ms
		req.With("search", "200").Inc()
	}
	ru.Collect()

	eng := New(reg, ru, DefaultObjectives(), Options{})
	statuses := eng.Evaluate()
	if len(statuses) != 3 {
		t.Fatalf("got %d statuses, want 3", len(statuses))
	}
	for _, st := range statuses {
		if st.Breached {
			t.Errorf("%s breached on healthy traffic: %+v", st.Name, st)
		}
		if st.NoData {
			t.Errorf("%s reports no data despite 1000 events", st.Name)
		}
		if st.BudgetRemaining != 1 {
			t.Errorf("%s budget = %v, want 1 (no bad events)", st.Name, st.BudgetRemaining)
		}
	}
}

func TestLatencyBreachBurnsBudget(t *testing.T) {
	reg, ru := fixture()
	dur := reg.Histogram("pdcu_query_duration_seconds", "lat", obs.QueryBuckets(), "endpoint")
	// Every observation blows the 5ms threshold: burn rate is
	// 1.0/(1-0.99) = 100 in both windows.
	for i := 0; i < 200; i++ {
		dur.With("search").Observe(0.05)
	}
	ru.Collect()

	eng := New(reg, ru, DefaultObjectives(), Options{})
	statuses := eng.Evaluate()
	lat := statuses[0]
	if lat.Name != "query-latency" {
		t.Fatalf("objective order changed: %q", lat.Name)
	}
	if !lat.Breached {
		t.Fatalf("latency objective not breached: %+v", lat)
	}
	if lat.FastBurn < 99 || lat.SlowBurn < 99 {
		t.Errorf("burn rates = %v/%v, want ~100", lat.FastBurn, lat.SlowBurn)
	}
	if lat.BudgetRemaining != 0 {
		t.Errorf("budget = %v, want 0 (fully burned)", lat.BudgetRemaining)
	}
	found := false
	for _, s := range reg.Snapshot("pdcu_slo_breached") {
		if s.Labels["objective"] == "query-latency" {
			found = true
			if s.Value != 1 {
				t.Errorf("pdcu_slo_breached{query-latency} = %v, want 1", s.Value)
			}
		}
	}
	if !found {
		t.Error("pdcu_slo_breached{query-latency} series missing")
	}
}

// TestMultiWindowRequiresBothWindows pins the multi-window rule: a burst
// of bad events that has since recovered keeps burning the slow window
// but not the fast one, so the objective must NOT report breached.
func TestMultiWindowRequiresBothWindows(t *testing.T) {
	reg, ru := fixture()
	req := reg.Counter("pdcu_query_requests_total", "req", "endpoint", "code")
	// Window 1: an outage — half the traffic 5xx.
	for i := 0; i < 100; i++ {
		req.With("search", "500").Inc()
		req.With("search", "200").Inc()
	}
	ru.Collect()
	// Windows 2..4: recovered, pure 200s.
	for w := 0; w < 3; w++ {
		for i := 0; i < 100; i++ {
			req.With("search", "200").Inc()
		}
		ru.Collect()
	}

	objectives := []Objective{{
		Name: "availability", Target: 0.999, Kind: KindRatio,
		Family: "pdcu_query_requests_total",
		BadMatch: func(l map[string]string) bool {
			return strings.HasPrefix(l["code"], "5")
		},
	}}
	// Fast window = last 2 windows (clean); slow = all 4 (dirty).
	eng := New(reg, ru, objectives, Options{FastWindows: 2})
	st := eng.Evaluate()[0]
	if st.FastBurn != 0 {
		t.Errorf("fast burn = %v, want 0 after recovery", st.FastBurn)
	}
	if st.SlowBurn <= 1 {
		t.Errorf("slow burn = %v, want > 1 (outage in history)", st.SlowBurn)
	}
	if st.Breached {
		t.Errorf("breached despite recovered fast window: %+v", st)
	}
	if st.BudgetRemaining != 0 {
		t.Errorf("budget = %v, want 0 (outage exhausted it)", st.BudgetRemaining)
	}
}

func TestShedRateObjective(t *testing.T) {
	reg, ru := fixture()
	req := reg.Counter("pdcu_query_requests_total", "req", "endpoint", "code")
	shed := reg.Counter("pdcu_query_shed_total", "shed", "endpoint")
	for i := 0; i < 80; i++ {
		req.With("search", "200").Inc()
	}
	for i := 0; i < 20; i++ {
		req.With("search", "429").Inc()
		shed.With("search").Inc()
	}
	ru.Collect()

	objectives := []Objective{{
		Name: "shed-rate", Target: 0.95, Kind: KindRatio,
		Family: "pdcu_query_requests_total", BadFamily: "pdcu_query_shed_total",
	}}
	eng := New(reg, ru, objectives, Options{})
	st := eng.Evaluate()[0]
	// 20% shed against a 5% budget: burn = 4.
	if st.SlowBurn < 3.9 || st.SlowBurn > 4.1 {
		t.Errorf("slow burn = %v, want 4", st.SlowBurn)
	}
	if !st.Breached {
		t.Errorf("20%% shed should breach: %+v", st)
	}
}

func TestNoDataNeverBreaches(t *testing.T) {
	reg, ru := fixture()
	ru.Collect() // a window with no families at all
	eng := New(reg, ru, DefaultObjectives(), Options{})
	for _, st := range eng.Evaluate() {
		if !st.NoData || st.Breached {
			t.Errorf("%s: NoData=%v Breached=%v, want true/false", st.Name, st.NoData, st.Breached)
		}
		if st.BudgetRemaining != 1 {
			t.Errorf("%s: budget = %v, want 1", st.Name, st.BudgetRemaining)
		}
	}
	if rep := eng.Report(); rep.SLOStatus != "no_data" {
		t.Errorf("report status = %q, want no_data", rep.SLOStatus)
	}
}

func TestHandlerStatusCodes(t *testing.T) {
	reg, ru := fixture()
	dur := reg.Histogram("pdcu_query_duration_seconds", "lat", obs.QueryBuckets(), "endpoint")
	dur.With("search").Observe(0.0001)
	ru.Collect()
	eng := New(reg, ru, DefaultObjectives(), Options{})

	rr := httptest.NewRecorder()
	eng.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	if rr.Code != 200 {
		t.Fatalf("healthy /slo = %d, want 200", rr.Code)
	}
	var rep Report
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SLOStatus != "ok" || len(rep.Objectives) != 3 {
		t.Errorf("report = %+v", rep)
	}

	// Breach: flood the threshold.
	for i := 0; i < 500; i++ {
		dur.With("search").Observe(0.1)
	}
	ru.Collect()
	rr = httptest.NewRecorder()
	eng.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	if rr.Code != 503 {
		t.Fatalf("breached /slo = %d, want 503", rr.Code)
	}
}
