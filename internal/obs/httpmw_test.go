package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<html>home</html>"))
	})
	mux.HandleFunc("/activities/", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<html>activity</html>"))
	})
	mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	})
	return mux
}

func TestMiddlewareRecordsRequests(t *testing.T) {
	reg := NewRegistry()
	h := NewHTTPMetrics(reg).Wrap(testHandler())

	for _, path := range []string{"/", "/activities/a/", "/activities/b/", "/boom"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	}

	reqs := reg.Snapshot("pdcu_http_requests_total")
	got := map[string]float64{}
	for _, s := range reqs {
		got[s.Labels["path"]+" "+s.Labels["code"]] = s.Value
	}
	want := map[string]float64{"/ 200": 1, "/activities 200": 2, "/boom 500": 1}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("requests_total[%s] = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}

	durs := reg.Snapshot("pdcu_http_request_duration_seconds")
	var actCount uint64
	for _, s := range durs {
		if s.Labels["path"] == "/activities" {
			actCount = s.Count
		}
	}
	if actCount != 2 {
		t.Errorf("latency histogram count for /activities = %d, want 2", actCount)
	}

	if infl := reg.Snapshot("pdcu_http_in_flight_requests"); len(infl) != 1 || infl[0].Value != 0 {
		t.Errorf("in-flight = %+v, want single series at 0", infl)
	}
	var homeBytes float64
	for _, s := range reg.Snapshot("pdcu_http_response_bytes_total") {
		if s.Labels["path"] == "/" {
			homeBytes = s.Value
		}
	}
	if homeBytes != float64(len("<html>home</html>")) {
		t.Errorf("response bytes for / = %v", homeBytes)
	}
}

// TestWithLogAttrs pins the access-log extension point the engine uses
// to tag every logged request with the generation that served it.
func TestWithLogAttrs(t *testing.T) {
	var buf bytes.Buffer
	SetLogger(NewLogger(&buf))
	defer SetLogger(nil)

	tag := "gen-one"
	h := NewHTTPMetrics(NewRegistry()).
		WithLogAttrs(func() []any { return []any{"generation", tag} }).
		Wrap(testHandler())

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(buf.String(), "generation=gen-one") {
		t.Errorf("access log missing injected attribute:\n%s", buf.String())
	}

	// The hook is evaluated per request, so a swapped tag shows up on
	// the next logged line without reconstructing the middleware.
	buf.Reset()
	tag = "gen-two"
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(buf.String(), "generation=gen-two") {
		t.Errorf("access log did not observe the updated attribute:\n%s", buf.String())
	}
}

// TestMetricsEndpoint drives the middleware and then scrapes the
// registry handler the way `pdcu serve` mounts it at /metrics.
func TestMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	site := NewHTTPMetrics(reg).Wrap(testHandler())
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/", site)

	srv := httptest.NewServer(mux)
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, want := range []string{
		`pdcu_http_requests_total{path="/",code="200"} 3`,
		"# TYPE pdcu_http_request_duration_seconds histogram",
		`pdcu_http_request_duration_seconds_bucket{path="/",le="+Inf"} 3`,
		`pdcu_http_request_duration_seconds_count{path="/"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/":                        "/",
		"":                         "/",
		"/index.html":              "/index.html",
		"/activities/x/":           "/activities",
		"/views/cs2013/":           "/views",
		"/api/activities.json":     "/api",
		"/style.css":               "/style.css",
		"/activities/deep/nested/": "/activities",
	}
	for in, want := range cases {
		if got := RouteLabel(in); got != want {
			t.Errorf("RouteLabel(%q) = %q, want %q", in, got, want)
		}
	}
	// Labelling runs on every served request: it must not allocate.
	if allocs := testing.AllocsPerRun(100, func() { RouteLabel("/activities/x/") }); allocs != 0 {
		t.Errorf("RouteLabel allocates %v times per call, want 0", allocs)
	}
}

// TestNotFoundSharesOneSeries: unknown URLs cannot mint label series.
// Fifty distinct 404s land in one series per HTTP metric family, under
// NotFoundRoute, and no requested path leaks into /metrics.
func TestNotFoundSharesOneSeries(t *testing.T) {
	SetLogger(NewLogger(io.Discard)) // every 404 is access-logged
	defer SetLogger(nil)
	reg := NewRegistry()
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/", NewHTTPMetrics(reg).WithTracer(nil).Wrap(http.NotFoundHandler()))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for i := 1; i <= 50; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/nope-%d", srv.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("/nope-%d = %d, want 404", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	if strings.Contains(body, "nope") {
		t.Errorf("a requested path leaked into a label:\n%s", body)
	}
	for _, family := range []string{
		"pdcu_http_requests_total{",
		"pdcu_http_request_duration_seconds_count{",
		"pdcu_http_response_bytes_total{",
	} {
		var series []string
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, family) {
				series = append(series, line)
			}
		}
		if len(series) != 1 || !strings.Contains(series[0], `path="`+NotFoundRoute+`"`) {
			t.Errorf("%s series = %q, want one under path=%q", family, series, NotFoundRoute)
		}
	}
	if want := `pdcu_http_requests_total{path="` + NotFoundRoute + `",code="404"} 50`; !strings.Contains(body, want) {
		t.Errorf("/metrics missing %q", want)
	}
}

func TestStatusCodeFormatting(t *testing.T) {
	if got := strconv3(200); got != "200" {
		t.Errorf("strconv3(200) = %q", got)
	}
	if got := strconv3(404); got != "404" {
		t.Errorf("strconv3(404) = %q", got)
	}
	if got := strconv3(7); got != "unknown" {
		t.Errorf("strconv3(7) = %q", got)
	}
}
