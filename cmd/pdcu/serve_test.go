package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pdcunplugged"
	"pdcunplugged/internal/corpus"
	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/query"
)

// testEngine builds an engine the way cmdServe would — layered config,
// then engine.New — with test-friendly defaults: admission control off
// (no 429s under load) and a keep-everything tracer. No generation is
// published yet; callers drive Rebuild themselves.
func testEngine(t *testing.T, mutate func(*engine.Config)) *engine.Engine {
	t.Helper()
	cfg := engine.Defaults()
	cfg.Rate = 0
	cfg.TraceSample = 1
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// builtEngine is testEngine plus the first published generation.
func builtEngine(t *testing.T, mutate func(*engine.Config)) *engine.Engine {
	t.Helper()
	eng := testEngine(t, mutate)
	if _, err := eng.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	return eng
}

func serveTestServer(t *testing.T, mutate func(*engine.Config)) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(builtEngine(t, mutate).Mux())
	t.Cleanup(srv.Close)
	return srv
}

func TestServeHealthz(t *testing.T) {
	srv := serveTestServer(t, nil)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var health struct {
		Status string  `json:"status"`
		Uptime float64 `json:"uptime_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("health = %+v", health)
	}
}

// TestServeReadyz pins the liveness/readiness split: /readyz is 503 until
// the engine publishes its first generation, then reports the generation
// identity, counts, the last pipeline outcome, and build info.
func TestServeReadyz(t *testing.T) {
	eng := testEngine(t, nil)
	srv := httptest.NewServer(eng.Mux())
	defer srv.Close()

	// Not ready: nothing published yet.
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var starting struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&starting); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || starting.Status != "starting" {
		t.Fatalf("/readyz before first publish = %d %+v, want 503 starting", resp.StatusCode, starting)
	}

	// Publish generation 1; readiness flips with a real rebuild outcome.
	gen, err := eng.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", resp.StatusCode)
	}
	var ready struct {
		Status     string  `json:"status"`
		Generation string  `json:"generation"`
		Seq        uint64  `json:"seq"`
		Pages      int     `json:"pages"`
		Activities int     `json:"activities"`
		Uptime     float64 `json:"uptime_seconds"`
		Rebuild    *struct {
			OK      bool   `json:"ok"`
			TraceID string `json:"trace_id"`
		} `json:"last_rebuild"`
		Build *struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "ready" || ready.Generation != gen.ID || ready.Seq != 1 ||
		ready.Pages == 0 || ready.Activities == 0 {
		t.Errorf("ready body = %+v", ready)
	}
	if ready.Rebuild == nil || !ready.Rebuild.OK || ready.Rebuild.TraceID == "" {
		t.Errorf("last_rebuild = %+v", ready.Rebuild)
	}
	if ready.Build == nil || ready.Build.GoVersion == "" {
		t.Errorf("build info = %+v", ready.Build)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	srv := serveTestServer(t, nil)

	// Generate site traffic, then scrape.
	for _, p := range []string{"/", "/views/tcpp/", "/no/such/page/"} {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	want := []string{
		`pdcu_http_requests_total{path="/",code="200"}`,
		`pdcu_http_requests_total{path="/views",code="200"}`,
		`pdcu_http_requests_total{path="` + obs.NotFoundRoute + `",code="404"}`,
		"# TYPE pdcu_http_request_duration_seconds histogram",
		`pdcu_phase_seconds_count{phase="site.build"}`,
		"# TYPE pdcu_engine_generation gauge",
		"# TYPE pdcu_engine_publish_duration_seconds histogram",
	}
	// The middleware counts a request after its handler returns, which
	// can be after the client has read the whole body: poll until every
	// series appears, for a bounded time.
	var missing []string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		missing = missing[:0]
		for _, w := range want {
			if !strings.Contains(string(data), w) {
				missing = append(missing, w)
			}
		}
		if len(missing) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, w := range missing {
		t.Errorf("/metrics missing %q", w)
	}
}

// TestServePprofGating pins -pprof as the only way to profile a node:
// /debug/pprof/ answers only with the flag, and no other profiling
// route is mounted either way.
func TestServePprofGating(t *testing.T) {
	status := func(srv *httptest.Server, method, path string) int {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	withoutPprof := serveTestServer(t, nil)
	withPprof := serveTestServer(t, func(c *engine.Config) { c.Pprof = true })

	if code := status(withoutPprof, http.MethodGet, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof without -pprof = %d, want 404", code)
	}
	if code := status(withPprof, http.MethodGet, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof with -pprof = %d, want 200", code)
	}
	for name, srv := range map[string]*httptest.Server{"without -pprof": withoutPprof, "with -pprof": withPprof} {
		for _, r := range []struct{ method, path string }{
			{http.MethodPost, "/debug/obs/profile?cpu=10ms"},
			{http.MethodGet, "/debug/obs/profiles"},
		} {
			if code := status(srv, r.method, r.path); code != http.StatusNotFound {
				t.Errorf("%s %s %s = %d, want 404", name, r.method, r.path, code)
			}
		}
	}
}

// writeCorpus materializes the embedded corpus as .md files under a
// fresh temp dir — a stand-in for a contributor's content checkout.
func writeCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for slug, content := range pdcunplugged.CorpusFiles() {
		if err := os.WriteFile(filepath.Join(dir, slug+".md"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestServeLiveSwap(t *testing.T) {
	dir := writeCorpus(t)
	eng := builtEngine(t, func(c *engine.Config) { c.Srcs = engine.DirSources(dir) })
	srv := httptest.NewServer(eng.Mux())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Pdcu-Generation")
	}

	const page = "/activities/findsmallestcard/"
	code, gen1 := get(page)
	if code != http.StatusOK {
		t.Fatalf("%s before swap = %d, want 200", page, code)
	}
	if gen1 != eng.Current().ID {
		t.Errorf("Pdcu-Generation %q, want %q", gen1, eng.Current().ID)
	}

	// Rebuild a smaller corpus (one activity removed); the engine
	// publishes the new generation through its pointer, as -watch would.
	if err := os.Remove(filepath.Join(dir, "findsmallestcard.md")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}

	code, _ = get(page)
	if code != http.StatusNotFound {
		t.Errorf("%s after swap = %d, want 404", page, code)
	}
	code, gen2 := get("/")
	if code != http.StatusOK {
		t.Errorf("/ after swap = %d, want 200", code)
	}
	if gen2 == gen1 || gen2 != eng.Current().ID {
		t.Errorf("generation after swap = %q (before %q, current %q)", gen2, gen1, eng.Current().ID)
	}
}

// TestEngineRebuildServe drives the full pipeline the way the -watch
// loop does: corpus edits flow through Rebuild into a swapped
// generation, failures keep the previous generation live, and the query
// surface tracks the engine pointer with no state of its own.
func TestEngineRebuildServe(t *testing.T) {
	dir := writeCorpus(t)
	eng := builtEngine(t, func(c *engine.Config) { c.Srcs = engine.DirSources(dir) })
	first := eng.Current()
	if first == nil || first.Site.Len() == 0 {
		t.Fatal("rebuild did not publish a generation")
	}

	// A corpus edit flows through: delete an activity and the rebuilt
	// site drops its page.
	victim := filepath.Join(dir, "findsmallestcard.md")
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	gen2, err := eng.Rebuild(context.Background())
	if err != nil {
		t.Fatalf("rebuild after delete: %v", err)
	}
	if out := eng.LastOutcome(); out == nil || !out.OK || out.TraceID == "" {
		t.Errorf("rebuild outcome after success = %+v", out)
	}
	second := eng.Current()
	if second == first || second != gen2 {
		t.Fatal("rebuild did not swap the published generation")
	}
	if second.Seq != first.Seq+1 {
		t.Errorf("seq = %d after %d, want +1", second.Seq, first.Seq)
	}
	if got := eng.Query().Snapshot().Generation; got != second.ID {
		t.Errorf("query snapshot generation %q does not track the engine pointer (want %q)", got, second.ID)
	}
	if got := second.ID; got != second.Fingerprint[:len(got)] {
		t.Errorf("generation ID %q is not a prefix of the fingerprint", got)
	}
	if _, ok := second.Site.Pages["activities/findsmallestcard/index.html"]; ok {
		t.Error("deleted activity still present after rebuild")
	}
	if gen2.Stats.CacheHits == 0 {
		t.Errorf("incremental rebuild had no cache hits: %+v", gen2.Stats)
	}

	// A broken corpus keeps the previous generation live.
	bad := filepath.Join(dir, "broken.md")
	if err := os.WriteFile(bad, []byte("---\ntitle: unterminated frontmatter\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rebuild(context.Background()); err == nil {
		t.Fatal("rebuild of broken corpus should error")
	}
	if eng.Current() != second {
		t.Error("failed rebuild must not swap the published generation")
	}
	if out := eng.LastOutcome(); out == nil || out.OK || out.Error == "" {
		t.Errorf("rebuild outcome after failure = %+v", out)
	}
}

func TestServeWatchRequiresSrc(t *testing.T) {
	err := run([]string{"serve", "-watch"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-watch requires -src") {
		t.Errorf("serve -watch without -src: err = %v", err)
	}
}

// TestServeQueryAPI exercises the mounted /api/v1/ tree end to end
// through the engine mux: correct JSON bodies, and the query middleware
// counting requests under the /api route label.
func TestServeQueryAPI(t *testing.T) {
	eng := builtEngine(t, nil)
	srv := httptest.NewServer(eng.Mux())
	defer srv.Close()

	var sr query.SearchResponse
	getJSON(t, srv.URL+"/api/v1/search?q=byzantine", &sr)
	if sr.Count == 0 || sr.Results[0].Slug != "byzantine-generals" {
		t.Errorf("search response: %+v", sr)
	}
	if sr.Generation != eng.Current().ID {
		t.Errorf("search generation %q, want %q", sr.Generation, eng.Current().ID)
	}

	var ar query.ActivitiesResponse
	getJSON(t, srv.URL+"/api/v1/activities?course=CS1&medium=cards", &ar)
	if ar.Count == 0 || ar.Count != len(ar.Activities) {
		t.Errorf("activities response: count=%d len=%d", ar.Count, len(ar.Activities))
	}
	for _, a := range ar.Activities {
		if !contains(a.Courses, "CS1") || !contains(a.Medium, "cards") {
			t.Errorf("activity %s escaped the facet filter: %+v", a.Slug, a)
		}
	}

	var fr query.FacetsResponse
	getJSON(t, srv.URL+"/api/v1/facets", &fr)
	if fr.Activities == 0 || len(fr.Facets["course"]) == 0 || len(fr.Facets["tcpp"]) == 0 {
		t.Errorf("facets response: %+v", fr)
	}

	// The repeated query above is a cache hit, observable through the
	// real /metrics exposition mounted next to the site.
	var sr2 query.SearchResponse
	getJSON(t, srv.URL+"/api/v1/search?q=byzantine", &sr2)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`pdcu_query_cache_total{endpoint="search",result="hit"}`,
		`pdcu_query_cache_total{endpoint="search",result="miss"}`,
		`pdcu_query_requests_total{endpoint="search",code="200"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestServeQuerySwapUnderLoad hammers all three generation-reporting
// surfaces — the /api/v1/search body, the static site's Pdcu-Generation
// header, and /readyz — from several goroutines while the main
// goroutine repeatedly mutates the corpus and publishes new generations
// through the engine, as the -watch loop would. Run under -race by
// `make check`. It pins four properties: the load never produces a 5xx,
// every observed generation is one that was actually published, each
// worker observes generations in publish order (the single atomic
// pointer cannot travel backwards), and immediately after a publish all
// three surfaces report the new generation — no surface lags another.
func TestServeQuerySwapUnderLoad(t *testing.T) {
	dir := writeCorpus(t)
	eng := builtEngine(t, func(c *engine.Config) { c.Srcs = engine.DirSources(dir) })
	srv := httptest.NewServer(eng.Mux())
	defer srv.Close()

	// published maps generation ID -> publish order, recorded before
	// workers can observe it.
	var mu sync.Mutex
	published := map[string]int{eng.Current().ID: 0}

	// readGeneration observes one serving surface and returns the
	// generation it reported.
	readGeneration := func(surface int) (string, error) {
		switch surface {
		case 0: // query API response body
			resp, err := http.Get(srv.URL + "/api/v1/search?q=byzantine")
			if err != nil {
				return "", err
			}
			defer resp.Body.Close()
			if resp.StatusCode >= 500 {
				return "", fmt.Errorf("query returned %d", resp.StatusCode)
			}
			var sr query.SearchResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				return "", err
			}
			return sr.Generation, nil
		case 1: // static site response header
			resp, err := http.Get(srv.URL + "/")
			if err != nil {
				return "", err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				return "", fmt.Errorf("site returned %d", resp.StatusCode)
			}
			return resp.Header.Get("Pdcu-Generation"), nil
		default: // readiness endpoint
			resp, err := http.Get(srv.URL + "/readyz")
			if err != nil {
				return "", err
			}
			defer resp.Body.Close()
			if resp.StatusCode >= 500 {
				return "", fmt.Errorf("readyz returned %d", resp.StatusCode)
			}
			var rz struct {
				Generation string `json:"generation"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
				return "", err
			}
			return rz.Generation, nil
		}
	}

	stop := make(chan struct{})
	errc := make(chan error, 9)
	var wg sync.WaitGroup
	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			last := -1
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				gen, err := readGeneration((worker + n) % 3)
				if err != nil {
					errc <- err
					return
				}
				mu.Lock()
				order, ok := published[gen]
				mu.Unlock()
				if !ok {
					errc <- fmt.Errorf("worker %d observed unpublished generation %q", worker, gen)
					return
				}
				if order < last {
					errc <- fmt.Errorf("worker %d observed generation %q (order %d) after order %d", worker, gen, order, last)
					return
				}
				last = order
			}
		}(i)
	}

	victim := filepath.Join(dir, "findsmallestcard.md")
	original, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		// Append a unique line so every swap produces a distinct
		// fingerprint (and therefore a distinct generation ID).
		edited := fmt.Sprintf("%s\nEdit pass %d of the swap-under-load test.\n", original, i)
		if err := os.WriteFile(victim, []byte(edited), 0o644); err != nil {
			t.Fatal(err)
		}
		// Record the generation this corpus will publish *before*
		// swapping, so workers can never observe an unknown one. The
		// prediction must go through the same corpus adapter the engine
		// uses so the provenance stamp is part of the fingerprint.
		next, err := corpus.LoadAll(corpus.Dir("", dir))
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		published[query.NewSnapshot(next).Generation] = i
		mu.Unlock()
		gen, err := eng.Rebuild(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// Immediately after the publish, every surface must already
		// report the new generation: one atomic pointer feeds all three,
		// so none can lag.
		for surface := 0; surface < 3; surface++ {
			got, err := readGeneration(surface)
			if err != nil {
				t.Fatalf("swap %d surface %d: %v", i, surface, err)
			}
			if got != gen.ID {
				t.Fatalf("swap %d: surface %d served generation %q, want %q", i, surface, got, gen.ID)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
