package main

// End-to-end acceptance for request-scoped tracing through the real
// engine mux: a W3C traceparent request must yield a retrievable
// waterfall covering the whole query pipeline, and an engine rebuild
// must appear as a trace with per-job child spans. Both run with
// sampling OFF so retention is earned (traceparent / StartForced), not
// won by a sample draw.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/obs/trace"
)

func TestServeTraceparentEndToEnd(t *testing.T) {
	eng := builtEngine(t, func(c *engine.Config) { c.TraceSample = 0 })
	srv := httptest.NewServer(eng.Mux())
	defer srv.Close()

	const remote = "11112222333344445555666677778888"
	req, err := http.NewRequest("GET", srv.URL+"/api/v1/search?q=sorting+cards&limit=5", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+remote+"-aaaabbbbccccdddd-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search = %d, want 200", resp.StatusCode)
	}
	if echo := resp.Header.Get("traceparent"); !strings.Contains(echo, remote) {
		t.Errorf("response traceparent %q does not continue trace %s", echo, remote)
	}

	tid, err := trace.ParseTraceID(remote)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := eng.Tracer().Store().Get(tid)
	if !ok {
		t.Fatal("traceparent request left no retrievable trace with sampling off")
	}
	// A cold-cache search walks the whole pipeline; every stage must
	// appear as a child span of the request root.
	got := map[string]bool{}
	for _, sp := range d.Spans {
		got[sp.Name] = true
	}
	for _, want := range []string{"query.ratelimit", "query.cache", "query.search"} {
		if !got[want] {
			t.Errorf("trace missing child span %q (have %v)", want, d.Spans)
		}
	}

	// And the operator-facing route serves the same waterfall.
	for _, path := range []string{
		"/debug/obs/traces/" + tid.String(),
		"/debug/obs/traces/" + tid.String() + "?format=json",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "query.search") {
			t.Errorf("%s does not show the query.search span", path)
		}
	}
}

func TestRebuildTraceWaterfall(t *testing.T) {
	dir := writeCorpus(t)
	eng := testEngine(t, func(c *engine.Config) {
		c.Srcs = engine.DirSources(dir)
		c.TraceSample = 0
	})

	if _, err := eng.Rebuild(context.Background()); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	out := eng.LastOutcome()
	if out == nil || !out.OK || out.TraceID == "" {
		t.Fatalf("rebuild outcome = %+v, want success with a trace id", out)
	}
	tid, err := trace.ParseTraceID(out.TraceID)
	if err != nil {
		t.Fatalf("rebuild trace id %q: %v", out.TraceID, err)
	}
	d, ok := eng.Tracer().Store().Get(tid)
	if !ok {
		t.Fatal("rebuild trace not retained with sampling off")
	}
	if d.Root != "engine.rebuild" {
		t.Errorf("rebuild trace root = %q, want engine.rebuild", d.Root)
	}
	var load, build bool
	var jobs int
	for _, sp := range d.Spans {
		if sp.Name == "engine.load" {
			load = true
		}
		if sp.Name == "site.build" {
			build = true
		}
		if strings.HasPrefix(sp.Name, "site.job.") {
			jobs++
		}
	}
	if !load || !build || jobs == 0 {
		t.Errorf("rebuild trace has load=%v build=%v jobs=%d, want engine.load and site.build spans with per-job children", load, build, jobs)
	}

	srv := httptest.NewServer(eng.Mux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/obs/traces/" + tid.String())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "site.job.") {
		t.Errorf("waterfall for rebuild trace = %d, missing site.job spans", resp.StatusCode)
	}
}
