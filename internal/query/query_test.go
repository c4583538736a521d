package query

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"pdcunplugged/internal/core"
	"pdcunplugged/internal/curation"
)

func corpusRepo(t testing.TB) *core.Repository {
	t.Helper()
	repo, err := curation.Repository()
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// smallerRepo is the corpus with one activity removed — a different
// fingerprint, so a different generation.
func smallerRepo(t testing.TB) *core.Repository {
	t.Helper()
	files := curation.Files()
	delete(files, "findsmallestcard")
	repo, err := core.Load(files)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

func testService(t testing.TB, opts Options) *Service {
	t.Helper()
	s, _ := swappableService(t, opts)
	return s
}

// swappableService serves the corpus from a snapshot pointer the test
// can republish: store a new snapshot, then Purge, as the engine does.
func swappableService(t testing.TB, opts Options) (*Service, *atomic.Pointer[Snapshot]) {
	t.Helper()
	cur := new(atomic.Pointer[Snapshot])
	cur.Store(NewSnapshot(corpusRepo(t)))
	return New(cur.Load, opts), cur
}

func get(t *testing.T, h http.Handler, target string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) *T {
	t.Helper()
	v := new(T)
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return v
}

func TestSearchEndpoint(t *testing.T) {
	s := testService(t, Options{})
	h := s.Handler()

	rec := get(t, h, "/api/v1/search?q=byzantine", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", rec.Code, rec.Body)
	}
	sr := decode[SearchResponse](t, rec)
	if sr.Count == 0 || sr.Results[0].Slug != "byzantine-generals" {
		t.Errorf("search response: %+v", sr)
	}
	if sr.Generation != s.Snapshot().Generation {
		t.Errorf("generation %q, want %q", sr.Generation, s.Snapshot().Generation)
	}
	if sr.Results[0].URL != "/activities/byzantine-generals/" {
		t.Errorf("hit URL = %q", sr.Results[0].URL)
	}

	// The echoed query is the normalized token stream, not the raw text.
	rec = get(t, h, "/api/v1/search?q=The+BYZANTINE!&limit=3", nil)
	sr = decode[SearchResponse](t, rec)
	if sr.Query != "byzantine" || sr.Limit != 3 {
		t.Errorf("normalized query/limit = %q/%d", sr.Query, sr.Limit)
	}
}

// TestSearchFuzzyParam covers the ?fuzzy=1 path end to end: a
// misspelled query finds its corrected hits, the response only claims
// fuzziness when an expansion fired, and the fuzzy and exact variants
// cache under distinct keys.
func TestSearchFuzzyParam(t *testing.T) {
	s := testService(t, Options{})
	h := s.Handler()

	// Without fuzzy the typo is a miss…
	rec := get(t, h, "/api/v1/search?q=byzantin", nil)
	if sr := decode[SearchResponse](t, rec); sr.Count != 0 || sr.Fuzzy {
		t.Fatalf("exact typo query: %+v", sr)
	}
	// …with fuzzy it corrects to the real term.
	rec = get(t, h, "/api/v1/search?q=byzantin&fuzzy=1", nil)
	sr := decode[SearchResponse](t, rec)
	if sr.Count == 0 || sr.Results[0].Slug != "byzantine-generals" {
		t.Fatalf("fuzzy typo query: %+v", sr)
	}
	if !sr.Fuzzy {
		t.Errorf("response does not flag the expansion: %+v", sr)
	}

	// A query of vocabulary terms stays exact even with fuzzy=1: no
	// expansion fired, so the flag stays off.
	rec = get(t, h, "/api/v1/search?q=byzantine&fuzzy=true", nil)
	if sr := decode[SearchResponse](t, rec); sr.Count == 0 || sr.Fuzzy {
		t.Errorf("fuzzy exact query: %+v", sr)
	}

	if rec := get(t, h, "/api/v1/search?q=x&fuzzy=maybe", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad fuzzy value = %d, want 400 (%s)", rec.Code, rec.Body)
	}
}

// TestSearchCompoundQuery pins the satellite tokenizer fix end to end:
// the exact hyphenated compound ranks the transposition-sort activity
// first, because its title indexes the joined form.
func TestSearchCompoundQuery(t *testing.T) {
	s := testService(t, Options{})
	rec := get(t, s.Handler(), "/api/v1/search?q=odd-even", nil)
	sr := decode[SearchResponse](t, rec)
	if sr.Count == 0 || sr.Results[0].Slug != "oddeven-transposition" {
		t.Fatalf("compound query top hit = %+v", sr.Results)
	}
}

func TestSearchBadRequests(t *testing.T) {
	s := testService(t, Options{})
	h := s.Handler()
	for _, target := range []string{
		"/api/v1/search",             // missing q
		"/api/v1/search?q=",          // empty q
		"/api/v1/search?q=x&limit=y", // non-integer limit
	} {
		if rec := get(t, h, target, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400 (%s)", target, rec.Code, rec.Body)
		}
	}
	if rec := get(t, h, "/api/v1/nope", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown endpoint = %d, want 404", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/search?q=x", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", rec.Code)
	}
}

func TestActivitiesEndpoint(t *testing.T) {
	s := testService(t, Options{})
	h := s.Handler()

	rec := get(t, h, "/api/v1/activities", nil)
	all := decode[ActivitiesResponse](t, rec)
	if all.Count != s.Snapshot().Repo.Len() {
		t.Errorf("unfiltered count = %d, want %d", all.Count, s.Snapshot().Repo.Len())
	}

	rec = get(t, h, "/api/v1/activities?course=CS1&sense=movement", nil)
	filtered := decode[ActivitiesResponse](t, rec)
	if filtered.Count == 0 || filtered.Count >= all.Count {
		t.Errorf("faceted count = %d (all = %d)", filtered.Count, all.Count)
	}
	for _, a := range filtered.Activities {
		if !containsTerm(a.Courses, "CS1") || !containsTerm(a.Senses, "movement") {
			t.Errorf("activity %s escaped the filter", a.Slug)
		}
	}
	if filtered.Filters["course"] != "CS1" || filtered.Filters["sense"] != "movement" {
		t.Errorf("filters echo = %+v", filtered.Filters)
	}

	// A term no activity lists yields an empty, well-formed response.
	rec = get(t, h, "/api/v1/activities?course=PhD", nil)
	empty := decode[ActivitiesResponse](t, rec)
	if rec.Code != http.StatusOK || empty.Count != 0 {
		t.Errorf("unknown term: code=%d count=%d", rec.Code, empty.Count)
	}

	// Unknown facet parameters are a 400, so typos surface.
	if rec := get(t, h, "/api/v1/activities?curse=CS1", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown facet param = %d, want 400", rec.Code)
	}
}

func containsTerm(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestFacetsEndpoint(t *testing.T) {
	s := testService(t, Options{})
	h := s.Handler()
	rec := get(t, h, "/api/v1/facets", nil)
	fr := decode[FacetsResponse](t, rec)
	if fr.Activities != s.Snapshot().Repo.Len() {
		t.Errorf("activities = %d", fr.Activities)
	}
	for _, facet := range []string{"course", "cs2013", "medium", "sense", "tcpp"} {
		if len(fr.Facets[facet]) == 0 {
			t.Errorf("facet %q empty", facet)
		}
	}
	if fr.Facets["course"]["CS1"] == 0 {
		t.Errorf("course facet missing CS1: %+v", fr.Facets["course"])
	}
	if rec := get(t, h, "/api/v1/facets?x=1", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("facets with params = %d, want 400", rec.Code)
	}
}

// cacheCounts reads the cumulative cache counters for one endpoint.
func cacheCounts(endpoint string) (hit, miss float64) {
	return queryCache.With(endpoint, "hit").Value(),
		queryCache.With(endpoint, "miss").Value()
}

func TestCacheHitAndSwapInvalidation(t *testing.T) {
	s, cur := swappableService(t, Options{})
	h := s.Handler()
	const target = "/api/v1/search?q=sorting+cards"

	h0, m0 := cacheCounts("search")
	first := get(t, h, target, nil)
	h1, m1 := cacheCounts("search")
	if m1-m0 != 1 || h1-h0 != 0 {
		t.Fatalf("cold query: hits %v misses %v", h1-h0, m1-m0)
	}

	second := get(t, h, target, nil)
	h2, m2 := cacheCounts("search")
	if h2-h1 != 1 || m2-m1 != 0 {
		t.Fatalf("repeat query was not a cache hit: hits %v misses %v", h2-h1, m2-m1)
	}
	if first.Body.String() != second.Body.String() {
		t.Fatal("cache hit served different bytes")
	}

	// Distinct spellings with the same token stream share one entry.
	get(t, h, "/api/v1/search?q=Sorting,+CARDS!", nil)
	h3, m3 := cacheCounts("search")
	if h3-h2 != 1 || m3-m2 != 0 {
		t.Fatalf("normalized spelling missed the cache: hits %v misses %v", h3-h2, m3-m2)
	}

	// Swapping a new generation invalidates wholesale: same query, fresh
	// render, new generation in the body.
	oldGen := s.Snapshot().Generation
	cur.Store(NewSnapshot(smallerRepo(t)))
	s.Purge()
	if s.cache.Len() != 0 {
		t.Fatalf("swap left %d cache entries", s.cache.Len())
	}
	third := get(t, h, target, nil)
	h4, m4 := cacheCounts("search")
	if m4-m3 != 1 || h4-h3 != 0 {
		t.Fatalf("post-swap query was not a miss: hits %v misses %v", h4-h3, m4-m3)
	}
	sr := decode[SearchResponse](t, third)
	if sr.Generation == oldGen || sr.Generation != s.Snapshot().Generation {
		t.Errorf("post-swap generation = %q (old %q)", sr.Generation, oldGen)
	}
}

func TestRateLimit(t *testing.T) {
	s := testService(t, Options{RateLimit: 0.01, Burst: 2})
	h := s.Handler()
	shed0 := queryShed.With("search").Value()

	for i := 0; i < 2; i++ {
		if rec := get(t, h, fmt.Sprintf("/api/v1/search?q=ring&limit=%d", i+1), nil); rec.Code != http.StatusOK {
			t.Fatalf("request %d = %d, want 200", i, rec.Code)
		}
	}
	rec := get(t, h, "/api/v1/search?q=ring", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit request = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive number of seconds", ra)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Errorf("429 body = %q", rec.Body)
	}
	if got := queryShed.With("search").Value() - shed0; got != 1 {
		t.Errorf("shed counter delta = %v, want 1", got)
	}
}

func TestGzipNegotiation(t *testing.T) {
	s := testService(t, Options{})
	h := s.Handler()
	const target = "/api/v1/activities" // full listing, well over the threshold

	plain := get(t, h, target, nil)
	if enc := plain.Header().Get("Content-Encoding"); enc != "" {
		t.Fatalf("unnegotiated response has Content-Encoding %q", enc)
	}

	zipped := get(t, h, target, map[string]string{"Accept-Encoding": "gzip"})
	if enc := zipped.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("negotiated response Content-Encoding = %q", enc)
	}
	if zipped.Header().Get("Vary") != "Accept-Encoding" {
		t.Error("gzip response missing Vary: Accept-Encoding")
	}
	zr, err := gzip.NewReader(zipped.Body)
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if string(unzipped) != plain.Body.String() {
		t.Error("gzip body does not decompress to the plain body")
	}
	if zipped.Body.Len() >= plain.Body.Len() {
		t.Errorf("gzip body (%d) not smaller than plain (%d)", zipped.Body.Len(), plain.Body.Len())
	}

	// Declining gzip (q=0) serves identity.
	declined := get(t, h, target, map[string]string{"Accept-Encoding": "gzip;q=0"})
	if enc := declined.Header().Get("Content-Encoding"); enc != "" {
		t.Errorf("q=0 response has Content-Encoding %q", enc)
	}

	// A small body is never compressed, even when negotiated.
	small := get(t, h, "/api/v1/search?q=zebra", map[string]string{"Accept-Encoding": "gzip"})
	if enc := small.Header().Get("Content-Encoding"); enc != "" {
		t.Errorf("small response compressed: %q", enc)
	}
}

func TestETagRevalidation(t *testing.T) {
	s, cur := swappableService(t, Options{})
	h := s.Handler()
	const target = "/api/v1/facets"

	first := get(t, h, target, nil)
	etag := first.Header().Get("ETag")
	if !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ETag = %q", etag)
	}
	second := get(t, h, target, map[string]string{"If-None-Match": etag})
	if second.Code != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", second.Code)
	}
	if second.Body.Len() != 0 {
		t.Error("304 carried a body")
	}

	// A swap changes the body, so the old tag no longer matches.
	cur.Store(NewSnapshot(smallerRepo(t)))
	s.Purge()
	third := get(t, h, target, map[string]string{"If-None-Match": etag})
	if third.Code != http.StatusOK {
		t.Errorf("post-swap revalidation = %d, want 200", third.Code)
	}
}

func TestHeadRequests(t *testing.T) {
	s := testService(t, Options{})
	h := s.Handler()
	req := httptest.NewRequest(http.MethodHead, "/api/v1/facets", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("HEAD = %d", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Error("HEAD response carried a body")
	}
	if rec.Header().Get("Content-Length") == "" || rec.Header().Get("ETag") == "" {
		t.Error("HEAD response missing entity headers")
	}
}

func TestSnapshotGeneration(t *testing.T) {
	repo := corpusRepo(t)
	a, b := NewSnapshot(repo), NewSnapshot(repo)
	if a.Generation != b.Generation || len(a.Generation) != genLen {
		t.Errorf("generations %q vs %q", a.Generation, b.Generation)
	}
	other := NewSnapshot(smallerRepo(t))
	if other.Generation == a.Generation {
		t.Error("different corpus produced the same generation")
	}
}
