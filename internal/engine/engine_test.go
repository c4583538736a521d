package engine

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdcunplugged/internal/curation"
	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/obs/trace"
)

// smallCorpus writes a handful of curated activities to a temp dir, so
// pipeline tests run against a real-but-cheap source tree.
func smallCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	n := 0
	for slug, content := range curation.Files() {
		if err := os.WriteFile(filepath.Join(dir, slug+".md"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		n++
		if n == 3 {
			break
		}
	}
	return dir
}

func newTestEngine(t *testing.T, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := Defaults()
	cfg.Rate = 0
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRebuildPublishes(t *testing.T) {
	e := newTestEngine(t, func(c *Config) { c.Srcs = DirSources(smallCorpus(t)) })
	if e.Current() != nil {
		t.Fatal("a generation was published before the first Rebuild")
	}
	gen, err := e.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Current(); got != gen {
		t.Fatalf("Current() = %p, want the generation Rebuild returned (%p)", got, gen)
	}
	if gen.Seq != 1 {
		t.Errorf("first Seq = %d, want 1", gen.Seq)
	}
	if gen.ID == "" || gen.Fingerprint == "" || gen.ID != gen.Fingerprint[:len(gen.ID)] {
		t.Errorf("generation identity ID=%q Fingerprint=%q", gen.ID, gen.Fingerprint)
	}
	if gen.Repo == nil || gen.Site == nil || gen.Index == nil || gen.Handler() == nil || gen.Snapshot() == nil {
		t.Error("generation is missing a pipeline product")
	}
	if gen.BuiltAt.IsZero() || gen.TraceID == "" {
		t.Errorf("generation metadata BuiltAt=%v TraceID=%q", gen.BuiltAt, gen.TraceID)
	}
	out := e.LastOutcome()
	if out == nil || !out.OK || out.TraceID != gen.TraceID {
		t.Errorf("outcome = %+v, want success carrying the rebuild trace", out)
	}
}

func TestRebuildFailureKeepsPreviousGeneration(t *testing.T) {
	dir := smallCorpus(t)
	e := newTestEngine(t, func(c *Config) { c.Srcs = DirSources(dir) })
	first, err := e.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.md"), []byte("---\ntitle: unterminated\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Rebuild(context.Background()); err == nil {
		t.Fatal("rebuild of a broken corpus should error")
	}
	if e.Current() != first {
		t.Error("failed rebuild replaced the published generation")
	}
	out := e.LastOutcome()
	if out == nil || out.OK || out.Error == "" || out.TraceID == "" {
		t.Errorf("failure outcome = %+v, want !OK with error and trace", out)
	}
}

// TestSubscribers pins the hook contract: subscribers run in
// registration order on every publish, and a subscriber registered
// after a generation is live is caught up immediately.
func TestSubscribers(t *testing.T) {
	e := newTestEngine(t, func(c *Config) { c.Srcs = DirSources(smallCorpus(t)) })
	var calls []string
	e.Subscribe(func(g *Generation) { calls = append(calls, "a:"+g.ID) })
	e.Subscribe(func(g *Generation) { calls = append(calls, "b:"+g.ID) })
	gen, err := e.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != "a:"+gen.ID || calls[1] != "b:"+gen.ID {
		t.Fatalf("publish calls = %v, want a then b with generation %s", calls, gen.ID)
	}
	// Late registration: the current generation is delivered at once.
	var late *Generation
	e.Subscribe(func(g *Generation) { late = g })
	if late != gen {
		t.Errorf("late subscriber got %v, want immediate catch-up with the live generation", late)
	}
}

// TestSharedLoadFingerprint pins the deduplicated repository entry
// point: the load stage alone (as `pdcu search` uses it) and the full
// pipeline (as build and serve use it) must agree on the corpus
// fingerprint for the same source, whether embedded or on disk.
func TestSharedLoadFingerprint(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"embedded", ""},
		{"srcdir", smallCorpus(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, func(c *Config) {
				if tc.src != "" {
					c.Srcs = DirSources(tc.src)
				}
			})
			repo, err := e.Load(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			gen, err := e.Rebuild(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if repo.Fingerprint() != gen.Fingerprint {
				t.Errorf("Load fingerprint %q != Rebuild fingerprint %q", repo.Fingerprint(), gen.Fingerprint)
			}
			if snapGen := gen.Snapshot().Generation; snapGen != gen.ID {
				t.Errorf("query snapshot generation %q != generation ID %q", snapGen, gen.ID)
			}
		})
	}
}

// TestQueryTracksEnginePointer pins the stateless query surface: the
// service created by Query() reads the engine's generation pointer, so
// a publish is visible to queries with no separate swap step.
func TestQueryTracksEnginePointer(t *testing.T) {
	dir := smallCorpus(t)
	e := newTestEngine(t, func(c *Config) { c.Srcs = DirSources(dir) })
	if snap := e.Query().Snapshot(); snap != nil {
		t.Fatalf("query snapshot before first publish = %v, want nil", snap)
	}
	gen, err := e.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Query().Snapshot(); got != gen.Snapshot() {
		t.Error("query service does not read the published generation's snapshot")
	}
	// Mutate and republish; the same service sees the new snapshot.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, entries[0].Name())); err != nil {
		t.Fatal(err)
	}
	gen2, err := e.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Query().Snapshot(); got != gen2.Snapshot() {
		t.Error("query service still serves the previous generation after a publish")
	}
}

// TestPublishMetrics pins the observability satellite: every publish
// sets the pdcu_engine_generation gauge to the new sequence number and
// observes the publish duration histogram.
func TestPublishMetrics(t *testing.T) {
	e := newTestEngine(t, func(c *Config) { c.Srcs = DirSources(smallCorpus(t)) })
	before := publishCount(t)
	gen, err := e.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snaps := obs.Default().Snapshot("pdcu_engine_generation")
	if len(snaps) != 1 || snaps[0].Value != float64(gen.Seq) {
		t.Errorf("pdcu_engine_generation = %+v, want gauge %d", snaps, gen.Seq)
	}
	if after := publishCount(t); after != before+1 {
		t.Errorf("publish histogram count %d -> %d, want one new observation", before, after)
	}
	gen2, err := e.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snaps = obs.Default().Snapshot("pdcu_engine_generation")
	if len(snaps) != 1 || snaps[0].Value != float64(gen2.Seq) {
		t.Errorf("after second publish gauge = %+v, want %d", snaps, gen2.Seq)
	}
}

func publishCount(t *testing.T) uint64 {
	t.Helper()
	snaps := obs.Default().Snapshot("pdcu_engine_publish_duration_seconds")
	if len(snaps) == 0 {
		return 0
	}
	return snaps[0].Count
}

// phaseCounts reads the observation count of every pdcu_phase_seconds
// series, by phase label.
func phaseCounts() map[string]uint64 {
	out := map[string]uint64{}
	for _, s := range obs.Default().Snapshot("pdcu_phase_seconds") {
		out[s.Labels["phase"]] = s.Count
	}
	return out
}

// TestOneNamePerLayer: each timed layer of a publish and of a request
// has one name, shared by its pdcu_phase_seconds series and its span in
// the trace, and no phase label carries a page path or a job id.
func TestOneNamePerLayer(t *testing.T) {
	e := newTestEngine(t, nil)
	before := phaseCounts()
	gen, err := e.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const reqTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req := httptest.NewRequest(http.MethodGet, "/api/v1/search?q=sorting", nil)
	req.Header.Set("Traceparent", "00-"+reqTrace+"-00f067aa0ba902b7-01")
	rec := httptest.NewRecorder()
	e.Mux().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", rec.Code, rec.Body)
	}
	after := phaseCounts()

	spans := func(id string) map[string][]trace.SpanData {
		t.Helper()
		tid, err := trace.ParseTraceID(id)
		if err != nil {
			t.Fatal(err)
		}
		d, ok := e.Tracer().Store().Get(tid)
		if !ok {
			t.Fatalf("trace %s not retained", id)
		}
		byName := map[string][]trace.SpanData{}
		for _, s := range d.Spans {
			byName[s.Name] = append(byName[s.Name], s)
		}
		return byName
	}
	rebuild, request := spans(gen.TraceID), spans(reqTrace)

	layers := map[string]map[string][]trace.SpanData{
		"engine.load":        rebuild,
		"site.build":         rebuild,
		"search.build_index": rebuild,
		"query.ratelimit":    request,
		"query.cache":        request,
		"query.search":       request,
	}
	jobs := 0
	for name, ss := range rebuild {
		if strings.HasPrefix(name, "site.job.") {
			layers[name] = rebuild
			for _, s := range ss {
				jobs++
				if !hasAttr(s, "job") {
					t.Errorf("%s span lacks its job attribute: %+v", name, s.Attrs)
				}
			}
		}
	}
	if jobs == 0 {
		t.Error("rebuild trace has no site.job.<stage> spans")
	}
	for name, tr := range layers {
		if after[name] <= before[name] {
			t.Errorf("pdcu_phase_seconds{phase=%q} did not grow (%d -> %d)", name, before[name], after[name])
		}
		if len(tr[name]) == 0 {
			t.Errorf("no %s span in its trace", name)
		}
	}
	for phase := range after {
		if strings.Contains(phase, "/") {
			t.Errorf("phase label %q carries a page path or job id", phase)
		}
	}
}

func hasAttr(s trace.SpanData, key string) bool {
	for _, a := range s.Attrs {
		if a.Key == key && a.Value != "" {
			return true
		}
	}
	return false
}
