// Package query is the live query-serving subsystem behind `pdcu serve`:
// a versioned JSON API (/api/v1/) answering full-text search, faceted
// activity listing, and facet counts from the in-memory Repository and
// search.Index rather than from pre-baked files.
//
// The read path is production-shaped. Every response is rendered once and
// kept in an LRU cache keyed by (site generation, normalized query), so a
// repeated query is a map lookup; the generation is the repository
// fingerprint, which means a live-reload swap can never serve a stale
// page — old keys simply stop being asked for, and Purge drops them
// wholesale to release memory. A token bucket sheds over-limit traffic
// with 429 + Retry-After, bodies above a threshold are pre-compressed for
// gzip-negotiating clients, and every endpoint feeds latency histograms
// plus cache and shed counters in internal/obs.
package query

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"pdcunplugged/internal/core"
	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/search"
	"pdcunplugged/internal/site"
)

var (
	queryRequests = obs.Default().Counter("pdcu_query_requests_total",
		"Query API responses, by endpoint and status code.", "endpoint", "code")
	// queryDuration uses the sub-millisecond bucket set: cached responses
	// complete in tens of microseconds, and the SLO engine estimates p99
	// from these buckets — DefBuckets would collapse the whole cached
	// path into its first bucket.
	queryDuration = obs.Default().Histogram("pdcu_query_duration_seconds",
		"Query API request latency, by endpoint.", obs.QueryBuckets(), "endpoint")
	queryCache = obs.Default().Counter("pdcu_query_cache_total",
		"Query API result-cache lookups, by endpoint and result (hit, miss).",
		"endpoint", "result")
	queryShed = obs.Default().Counter("pdcu_query_shed_total",
		"Query API requests shed by admission control, by endpoint.", "endpoint")
	querySwaps = obs.Default().Counter("pdcu_query_generation_swaps_total",
		"Snapshot swaps published to the query service (each purges the result cache).")
)

// endpointMetrics pre-binds the per-endpoint metric children the serving
// hot path touches on every request. Resolving a child through With()
// joins label values into a map key per call; the three endpoints are
// fixed, so the children are resolved once at package init and the hot
// path is left with plain atomic updates. Error-path statuses (400, 429,
// ...) stay on the dynamic With lookup — they are rare by construction.
type endpointMetrics struct {
	duration *obs.HistogramChild
	ok       *obs.CounterChild // 200
	notMod   *obs.CounterChild // 304
	hit      *obs.CounterChild
	miss     *obs.CounterChild
	shed     *obs.CounterChild
	render   string // the render span's name, "query.<endpoint>"
}

func newEndpointMetrics(name string) *endpointMetrics {
	return &endpointMetrics{
		duration: queryDuration.With(name),
		ok:       queryRequests.With(name, "200"),
		notMod:   queryRequests.With(name, "304"),
		hit:      queryCache.With(name, "hit"),
		miss:     queryCache.With(name, "miss"),
		shed:     queryShed.With(name),
		render:   "query." + name,
	}
}

var endpointMetricsFor = map[string]*endpointMetrics{
	"search":     newEndpointMetrics("search"),
	"activities": newEndpointMetrics("activities"),
	"facets":     newEndpointMetrics("facets"),
}

// genLen truncates repository fingerprints for response bodies: 16 hex
// characters (64 bits) are plenty to distinguish site generations while
// keeping payloads readable.
const genLen = 16

// Snapshot is one immutable generation of the served data: the repository,
// its search index, and the generation tag that keys every cache
// entry rendered from it.
type Snapshot struct {
	Repo       *core.Repository
	Index      *search.Index
	Generation string
}

// NewSnapshot derives a snapshot from a repository, building its search
// index from scratch.
func NewSnapshot(repo *core.Repository) *Snapshot {
	return NewSnapshotContext(context.Background(), repo, nil)
}

// NewSnapshotContext is NewSnapshot with trace propagation and an index
// builder: the index build is timed as the "search.build_index" span
// (a child span when ctx carries a recording trace), and ib reuses the
// term vectors of activities whose fingerprints its previous build saw
// (nil builds from scratch).
func NewSnapshotContext(ctx context.Context, repo *core.Repository, ib *search.Builder) *Snapshot {
	acts := repo.All()
	_, sp := obs.StartSpan(ctx, "search.build_index")
	sp.SetAttr("activities", strconv.Itoa(len(acts)))
	ix := ib.Build(acts, repo.ActivityFingerprint)
	sp.End()
	return &Snapshot{
		Repo:       repo,
		Index:      ix,
		Generation: repo.Fingerprint()[:genLen],
	}
}

// cacheSize is the result-cache capacity in rendered responses, and
// maxLimit clamps the search limit parameter.
const (
	cacheSize = 256
	maxLimit  = 100
)

// Options configures a Service's admission control. The zero value
// serves without rate limiting.
type Options struct {
	// RateLimit admits this many requests per second across the read
	// endpoints; 0 (or negative) disables admission control.
	RateLimit float64
	// Burst is the token-bucket capacity (default 2*RateLimit, min 1).
	Burst int
	// ContribRate admits this many contribution validations per second
	// through a bucket separate from RateLimit — review is the one write-
	// shaped, uncacheable endpoint, so its admission control cannot share
	// tokens with the cached read path. Its burst is 2*ContribRate (min
	// 1). 0 (or negative) disables it.
	ContribRate float64
}

// Service answers the /api/v1/ endpoints from whatever Snapshot its
// source currently returns. It holds no snapshot state of its own: it
// reads through the source on every request, so when the source loads
// an engine's generation pointer, the query surface can never disagree
// with the other surfaces reading the same pointer. In-flight requests
// finish against the snapshot they loaded.
type Service struct {
	source  func() *Snapshot
	cache   *resultCache
	limiter *tokenBucket
	// contribLimiter admits /api/v1/contrib/validate separately: a burst
	// of submissions must not evict read traffic, and vice versa.
	contribLimiter *tokenBucket
	router         *apiRouter
}

// New returns a Service that reads its snapshot through source on every
// request (nil results answer 503 until a snapshot exists). The caller
// calls Purge when the source's snapshot changes; generation-keyed cache
// keys make a stale hit impossible either way, purging just releases
// memory promptly.
func New(source func() *Snapshot, opts Options) *Service {
	s := &Service{
		source: source,
		cache:  newResultCache(cacheSize),
	}
	if opts.RateLimit > 0 {
		burst := opts.Burst
		if burst <= 0 {
			burst = int(2 * opts.RateLimit)
		}
		s.limiter = newTokenBucket(opts.RateLimit, burst)
	}
	if opts.ContribRate > 0 {
		s.contribLimiter = newTokenBucket(opts.ContribRate, int(2*opts.ContribRate))
	}
	s.router = &apiRouter{
		search:     s.handle("search", parseSearch),
		activities: s.handle("activities", parseActivities),
		facets:     s.handle("facets", parseFacets),
		contrib:    s.handleContrib(),
	}
	return s
}

// Purge drops every cached result and counts the swap. Engine publish
// subscribers call this after the generation pointer moves.
func (s *Service) Purge() {
	s.cache.Purge()
	querySwaps.Inc()
}

// Snapshot returns the snapshot the service would answer from right now.
func (s *Service) Snapshot() *Snapshot { return s.source() }

// Handler returns the /api/v1/ endpoint tree. Mount it at the server
// root; all routes live under /api/v1/.
func (s *Service) Handler() http.Handler { return s.router }

// apiRouter routes the three fixed /api/v1/ endpoints with a single
// string switch. The route table never changes after construction, so
// the general ServeMux machinery (pattern registry, per-request match
// walk, its ~40 allocations of construction per Handler build) buys
// nothing here; the router is built once in New and shared.
type apiRouter struct {
	search     http.HandlerFunc
	activities http.HandlerFunc
	facets     http.HandlerFunc
	contrib    http.HandlerFunc
}

func (rt *apiRouter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/api/v1/search":
		rt.search(w, r)
	case "/api/v1/activities":
		rt.activities(w, r)
	case "/api/v1/facets":
		rt.facets(w, r)
	case "/api/v1/contrib/validate":
		rt.contrib(w, r)
	default:
		writeError(w, "other", http.StatusNotFound, "unknown endpoint; try /api/v1/search, /api/v1/activities, /api/v1/facets, /api/v1/contrib/validate")
	}
}

// renderFn renders an endpoint's response value against one snapshot.
type renderFn func(snap *Snapshot) any

// parseFn validates request parameters and returns the endpoint-local
// cache key plus the renderer; a non-nil error is a 400.
type parseFn func(v url.Values) (key string, render renderFn, err error)

// errShed fails the admission span of a request the rate limiter shed.
var errShed = errors.New("shed")

// handle wraps one endpoint with the full serving stack: method check,
// admission control, generation-keyed cache, and negotiated write. Each
// stage is timed as its own span, which is also a trace span when the
// request carries a recording trace (the obs HTTP middleware puts the
// root span in the request context), and the endpoint latency is
// recorded in pdcu_query_duration_seconds.
func (s *Service) handle(name string, parse parseFn) http.HandlerFunc {
	em := endpointMetricsFor[name]
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		start := time.Now()
		defer func() { em.duration.Observe(time.Since(start).Seconds()) }()
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			writeError(w, name, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		_, rlSpan := obs.StartSpan(ctx, "query.ratelimit")
		ok, retry := s.limiter.take()
		if !ok {
			rlSpan.FailErr(errShed)
			rlSpan.End()
			em.shed.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
			writeError(w, name, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		rlSpan.End()
		key, render, err := parse(r.URL.Query())
		if err != nil {
			writeError(w, name, http.StatusBadRequest, err.Error())
			return
		}
		snap := s.source()
		if snap == nil {
			writeError(w, name, http.StatusServiceUnavailable, "no generation published yet")
			return
		}
		// Stamp the generation before any write path — 200, 304, and gzip
		// responses all carry it, so replicas can be compared (and a
		// conditional revalidation attributed) by header alone.
		w.Header().Set("Pdcu-Generation", snap.Generation)
		full := name + "\x00" + snap.Generation + "\x00" + key
		_, cSpan := obs.StartSpan(ctx, "query.cache")
		cSpan.SetAttr("generation", snap.Generation)
		entry, hit := s.cache.get(full)
		if hit {
			cSpan.SetAttr("result", "hit")
		} else {
			cSpan.SetAttr("result", "miss")
		}
		cSpan.End()
		if hit {
			em.hit.Inc()
		} else {
			em.miss.Inc()
			_, rSpan := obs.StartSpan(ctx, em.render)
			entry = encodeEntry(render(snap))
			s.cache.put(full, entry)
			rSpan.End()
		}
		writeEntry(w, r, em, entry)
	}
}

// marshalBody encodes a response value the way every endpoint answers:
// indented JSON plus a trailing newline.
func marshalBody(v any) []byte {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Response types are plain data; a marshal failure is a
		// programming error, but never crash the serve path for it.
		body = []byte(`{"error":"internal encoding failure"}`)
	}
	return append(body, '\n')
}

// encodeEntry marshals a response value into an immutable cache entry:
// the body, a strong ETag over the bytes, and a pre-compressed body when
// it clears the gzip threshold.
func encodeEntry(v any) *cacheEntry {
	body := marshalBody(v)
	e := &cacheEntry{body: body, etag: etagFor(body)}
	if len(body) >= gzipMinSize {
		e.gz = gzipBytes(body)
	}
	return e
}

// writeEntry serves a cached entry with ETag revalidation and gzip
// negotiation. HEAD responses carry identical headers without a body.
func writeEntry(w http.ResponseWriter, r *http.Request, em *endpointMetrics, e *cacheEntry) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("ETag", e.etag)
	h.Set("Vary", "Accept-Encoding")
	if site.ETagMatch(r.Header.Get("If-None-Match"), e.etag) {
		em.notMod.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body := e.body
	if e.gz != nil && acceptsGzip(r) {
		h.Set("Content-Encoding", "gzip")
		body = e.gz
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	em.ok.Inc()
	if r.Method == http.MethodHead {
		return
	}
	if _, err := w.Write(body); err != nil {
		obs.Logger().Warn("query response write failed", "err", err)
	}
}

// writeError emits a JSON error body with the given status.
func writeError(w http.ResponseWriter, name string, status int, msg string) {
	queryRequests.With(name, strconv.Itoa(status)).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	w.Write(append(b, '\n'))
}

// ---- /api/v1/search ----

// SearchResult is one ranked hit of a search response. The same shape is
// emitted by `pdcu search -json`.
type SearchResult struct {
	Slug  string  `json:"slug"`
	Title string  `json:"title"`
	Score float64 `json:"score"`
	URL   string  `json:"url"`
}

// SearchResponse is the /api/v1/search body. Query echoes the normalized
// form (lowercased, tokenized, stop words dropped) that was actually
// ranked — the cache key, not the raw spelling. Fuzzy is present (true)
// only when fuzzy matching was requested AND an edit-distance-1
// expansion actually contributed to the ranking.
type SearchResponse struct {
	Query      string         `json:"query"`
	Limit      int            `json:"limit"`
	Generation string         `json:"generation"`
	Count      int            `json:"count"`
	Fuzzy      bool           `json:"fuzzy,omitempty"`
	Results    []SearchResult `json:"results"`
}

// Search ranks q against one snapshot, returning up to limit hits (all
// when limit <= 0). It is the single implementation behind both the
// /api/v1/search endpoint and `pdcu search`.
func Search(snap *Snapshot, q string, limit int) *SearchResponse {
	return SearchWith(snap, q, limit, false)
}

// SearchWith is Search with optional typo correction: when fuzzy is set,
// query tokens missing from the index vocabulary are expanded to their
// edit-distance-1 neighbors at half weight (search.SearchFuzzy).
func SearchWith(snap *Snapshot, q string, limit int, fuzzy bool) *SearchResponse {
	toks := search.Tokenize(q)
	return searchTokens(snap, strings.Join(toks, " "), toks, limit, fuzzy)
}

// searchTokens renders a search response from an already-tokenized
// query; the endpoint parser tokenizes once for its cache key and the
// render path reuses the same tokens.
func searchTokens(snap *Snapshot, qn string, toks []string, limit int, fuzzy bool) *SearchResponse {
	var hits []search.Hit
	var fuzzed bool
	if fuzzy {
		hits, fuzzed = snap.Index.SearchTokensFuzzy(toks, limit)
	} else {
		hits = snap.Index.SearchTokens(toks, limit)
	}
	results := make([]SearchResult, 0, len(hits))
	for _, h := range hits {
		title := ""
		if a, ok := snap.Repo.Get(h.Slug); ok {
			title = a.Title
		}
		results = append(results, SearchResult{
			Slug:  h.Slug,
			Title: title,
			Score: h.Score,
			URL:   "/activities/" + h.Slug + "/",
		})
	}
	return &SearchResponse{
		Query:      qn,
		Limit:      limit,
		Generation: snap.Generation,
		Count:      len(results),
		Fuzzy:      fuzzed,
		Results:    results,
	}
}

// NormalizeQuery canonicalizes a free-text query for caching and ranking:
// distinct spellings with identical token streams share one cache entry.
func NormalizeQuery(q string) string {
	return strings.Join(search.Tokenize(q), " ")
}

func parseSearch(v url.Values) (string, renderFn, error) {
	q := v.Get("q")
	if strings.TrimSpace(q) == "" {
		return "", nil, fmt.Errorf("missing required parameter q")
	}
	limit := 10
	if raw := v.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			return "", nil, fmt.Errorf("bad limit %q: not an integer", raw)
		}
		limit = n
	}
	if limit < 1 {
		limit = 1
	}
	if limit > maxLimit {
		limit = maxLimit
	}
	fuzzy := false
	if raw := v.Get("fuzzy"); raw != "" {
		b, err := strconv.ParseBool(raw)
		if err != nil {
			return "", nil, fmt.Errorf("bad fuzzy %q: want a boolean", raw)
		}
		fuzzy = b
	}
	// Tokenize exactly once: the token stream is both the cache key's
	// normalized query and the ranked query the renderer reuses.
	toks := search.Tokenize(q)
	qn := strings.Join(toks, " ")
	key := "q=" + qn + "&limit=" + strconv.Itoa(limit)
	if fuzzy {
		key += "&fuzzy=1"
	}
	return key, func(snap *Snapshot) any { return searchTokens(snap, qn, toks, limit, fuzzy) }, nil
}

// ---- /api/v1/activities ----

// ActivitySummary is one activity of a faceted listing.
type ActivitySummary struct {
	Slug          string   `json:"slug"`
	Title         string   `json:"title"`
	Author        string   `json:"author"`
	CS2013        []string `json:"cs2013,omitempty"`
	TCPP          []string `json:"tcpp,omitempty"`
	Courses       []string `json:"courses,omitempty"`
	Senses        []string `json:"senses,omitempty"`
	Medium        []string `json:"medium,omitempty"`
	Source        string   `json:"source,omitempty"`
	HasAssessment bool     `json:"hasAssessment"`
	URL           string   `json:"url"`
}

// ActivitiesResponse is the /api/v1/activities body.
type ActivitiesResponse struct {
	Generation string            `json:"generation"`
	Filters    map[string]string `json:"filters,omitempty"`
	Count      int               `json:"count"`
	Activities []ActivitySummary `json:"activities"`
}

// facetParams maps the endpoint's facet parameters to taxonomy names, in
// canonical cache-key order.
var facetParams = []struct{ param, taxonomy string }{
	{"course", "courses"},
	{"cs2013", "cs2013"},
	{"medium", "medium"},
	{"sense", "senses"},
	{"source", "source"},
	{"tcpp", "tcpp"},
}

func parseActivities(v url.Values) (string, renderFn, error) {
	known := make(map[string]string, len(facetParams))
	for _, fp := range facetParams {
		known[fp.param] = fp.taxonomy
	}
	for param := range v {
		if _, ok := known[param]; !ok {
			return "", nil, fmt.Errorf("unknown parameter %q (facets: course, cs2013, medium, sense, source, tcpp)", param)
		}
	}
	filters := map[string]string{}
	var keyParts []string
	for _, fp := range facetParams {
		if val := v.Get(fp.param); val != "" {
			filters[fp.param] = val
			keyParts = append(keyParts, fp.param+"="+val)
		}
	}
	key := strings.Join(keyParts, "&")
	return key, func(snap *Snapshot) any { return Activities(snap, filters) }, nil
}

// Activities ANDs the precomputed facet bitsets of every requested
// facet, then summarizes the surviving activities in slug order (doc-ID
// order IS slug order in the search index, so no sort happens). It is
// the single implementation behind /api/v1/activities (and the
// filtered-path benchmarks that gate it).
func Activities(snap *Snapshot, filters map[string]string) *ActivitiesResponse {
	ix := snap.Index
	docs := ix.AllDocs() // shared index state; cloned before the first AND
	cloned := false
	for _, fp := range facetParams {
		term, ok := filters[fp.param]
		if !ok {
			continue
		}
		bs, ok := ix.FacetBitset(fp.taxonomy, term)
		if !ok {
			docs = nil // unknown term: nothing matches
			break
		}
		if !cloned {
			docs = docs.Clone()
			cloned = true
		}
		docs.And(bs)
	}
	count := docs.Count()
	resp := &ActivitiesResponse{
		Generation: snap.Generation,
		Count:      count,
		Activities: make([]ActivitySummary, 0, count),
	}
	if len(filters) > 0 {
		resp.Filters = filters
	}
	docs.ForEach(func(id uint32) {
		a, ok := snap.Repo.Get(ix.SlugOf(id))
		if !ok {
			return
		}
		resp.Activities = append(resp.Activities, ActivitySummary{
			Slug: a.Slug, Title: a.Title, Author: a.Author,
			CS2013: a.CS2013, TCPP: a.TCPP, Courses: a.Courses,
			Senses: a.Senses, Medium: a.Medium, Source: a.Source,
			HasAssessment: a.HasAssessment(),
			URL:           "/activities/" + a.Slug + "/",
		})
	})
	return resp
}

// ---- /api/v1/facets ----

// FacetsResponse is the /api/v1/facets body: per-taxonomy term counts
// over the live repository, the menu a query UI renders its filters from.
type FacetsResponse struct {
	Generation string                    `json:"generation"`
	Activities int                       `json:"activities"`
	Facets     map[string]map[string]int `json:"facets"`
}

func parseFacets(v url.Values) (string, renderFn, error) {
	if len(v) > 0 {
		var params []string
		for p := range v {
			params = append(params, p)
		}
		sort.Strings(params)
		return "", nil, fmt.Errorf("facets takes no parameters, got %s", strings.Join(params, ", "))
	}
	return "", func(snap *Snapshot) any { return Facets(snap) }, nil
}

// Facets counts every in-use term per facet against one snapshot; the
// single implementation behind /api/v1/facets. Counts are popcounts of
// the search index's precomputed facet bitsets.
func Facets(snap *Snapshot) *FacetsResponse {
	ix := snap.Index
	resp := &FacetsResponse{
		Generation: snap.Generation,
		Activities: snap.Repo.Len(),
		Facets:     make(map[string]map[string]int, len(facetParams)),
	}
	for _, fp := range facetParams {
		terms := ix.FacetTerms(fp.taxonomy)
		counts := make(map[string]int, len(terms))
		for _, term := range terms {
			counts[term] = ix.FacetCount(fp.taxonomy, term)
		}
		resp.Facets[fp.param] = counts
	}
	return resp
}
