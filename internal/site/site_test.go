package site

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pdcunplugged/internal/curation"
	"pdcunplugged/internal/obs"
)

func builtSite(t *testing.T) *Site {
	t.Helper()
	repo, err := curation.Repository()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(repo)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildPageInventory(t *testing.T) {
	s := builtSite(t)
	// One page per activity.
	for _, slug := range []string{"findsmallestcard", "oddeven-transposition", "byzantine-generals"} {
		if _, ok := s.Pages["activities/"+slug+"/index.html"]; !ok {
			t.Errorf("missing activity page for %s", slug)
		}
	}
	// Index, views, stylesheet.
	for _, p := range []string{
		"index.html", "style.css",
		"views/cs2013/index.html", "views/tcpp/index.html",
		"views/courses/index.html", "views/accessibility/index.html",
	} {
		if _, ok := s.Pages[p]; !ok {
			t.Errorf("missing page %s", p)
		}
	}
	// Term pages for all seven taxonomies (paper Fig. 3: each term links
	// to a page of activities sharing it).
	for _, p := range []string{
		"cs2013/pd-paralleldecomposition/index.html",
		"tcpp/tcpp-algorithms/index.html",
		"courses/cs1/index.html",
		"senses/visual/index.html",
		"medium/cards/index.html",
		"cs2013details/pd-2/index.html",
		"tcppdetails/c-speedup/index.html",
	} {
		if _, ok := s.Pages[p]; !ok {
			t.Errorf("missing term page %s (have %d pages)", p, s.Len())
		}
	}
	// 38 activities + 4 views + index + css + many term pages.
	if s.Len() < 100 {
		t.Errorf("suspiciously few pages: %d", s.Len())
	}
}

func TestActivityPageRendersFig3Header(t *testing.T) {
	s := builtSite(t)
	page := string(s.Pages["activities/findsmallestcard/index.html"])
	// The rendered header lists the visible taxonomy terms as colored
	// badges linking to term pages (Fig. 3).
	for _, want := range []string{
		"PD_ParallelDecomposition", "PD_ParallelAlgorithms",
		"TCPP_Algorithms", "TCPP_Programming",
		"CS1", "CS2", "DSA", "touch", "visual",
		"badge-cs2013", "badge-tcpp", "badge-courses", "badge-senses",
		`href="/cs2013/pd-paralleldecomposition/"`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("activity page missing %q", want)
		}
	}
	// Hidden taxonomies do not appear in the header badges.
	if strings.Contains(page, ">PD_2<") {
		t.Error("hidden cs2013details term rendered in header")
	}
	// Body sections render.
	for _, want := range []string{"Original Author/link", "Details", "Citations"} {
		if !strings.Contains(page, want) {
			t.Errorf("activity page missing section %q", want)
		}
	}
}

func TestTermPageListsActivities(t *testing.T) {
	s := builtSite(t)
	page := string(s.Pages["senses/sound/index.html"])
	for _, want := range []string{"long-distance-phone-call", "orchestra-conductor"} {
		if !strings.Contains(page, want) {
			t.Errorf("sound term page missing %q", want)
		}
	}
	if strings.Contains(page, "findsmallestcard") {
		t.Error("sound term page lists a non-sound activity")
	}
}

func TestViewsShowGaps(t *testing.T) {
	s := builtSite(t)
	tcppView := string(s.Pages["views/tcpp/index.html"])
	if !strings.Contains(tcppView, "no activities") {
		t.Error("TCPP view does not mark uncovered topics")
	}
	if !strings.Contains(tcppView, "K_WebSearch") {
		t.Error("TCPP view missing gap topic K_WebSearch")
	}
	cs2013View := string(s.Pages["views/cs2013/index.html"])
	if !strings.Contains(cs2013View, "Parallel Decomposition") {
		t.Error("CS2013 view missing knowledge unit")
	}
	courses := string(s.Pages["views/courses/index.html"])
	if !strings.Contains(courses, "K_12") || !strings.Contains(courses, "Systems") {
		t.Error("courses view missing course sections")
	}
	access := string(s.Pages["views/accessibility/index.html"])
	if !strings.Contains(access, "By sense") || !strings.Contains(access, "By medium") {
		t.Error("accessibility view missing sections")
	}
}

func TestDramatizationsPage(t *testing.T) {
	s := builtSite(t)
	page, ok := s.Pages["views/dramatizations/index.html"]
	if !ok {
		t.Fatal("dramatizations page missing")
	}
	content := string(page)
	for _, want := range []string{"tokenring", "collectives", "rehearses:", "selfstabilizing-token-ring", "pdcu sim run"} {
		if !strings.Contains(content, want) {
			t.Errorf("dramatizations page missing %q", want)
		}
	}
}

func TestAssessmentPages(t *testing.T) {
	s := builtSite(t)
	page, ok := s.Pages["assess/findsmallestcard/index.html"]
	if !ok {
		t.Fatal("assessment page missing")
	}
	content := string(page)
	for _, want := range []string{"Assessment: FindSmallestCard", "Q1", "pre correct", "Back to the activity"} {
		if !strings.Contains(content, want) {
			t.Errorf("assessment page missing %q", want)
		}
	}
	// Every activity with detail tags gets a sheet; all 38 qualify.
	n := 0
	for p := range s.Pages {
		if strings.HasPrefix(p, "assess/") {
			n++
		}
	}
	if n != 38 {
		t.Errorf("assessment pages = %d, want 38", n)
	}
	// The activity page links to it.
	act := string(s.Pages["activities/findsmallestcard/index.html"])
	if !strings.Contains(act, `href="/assess/findsmallestcard/"`) {
		t.Error("activity page missing assessment link")
	}
}

func TestEverythingEscaped(t *testing.T) {
	s := builtSite(t)
	for p, data := range s.Pages {
		if strings.Contains(string(data), "<script") {
			t.Errorf("%s contains a script tag", p)
		}
	}
}

func TestInternalLinksResolve(t *testing.T) {
	s := builtSite(t)
	for p, data := range s.Pages {
		page := string(data)
		for _, link := range extractLinks(page) {
			if !strings.HasPrefix(link, "/") || strings.HasPrefix(link, "//") {
				continue // external
			}
			target := strings.TrimPrefix(link, "/")
			if target == "" {
				continue // home
			}
			if strings.HasSuffix(target, "/") {
				target += "index.html"
			}
			if _, ok := s.Pages[target]; !ok {
				t.Errorf("%s links to missing page %s", p, link)
			}
		}
	}
}

func extractLinks(page string) []string {
	var out []string
	for _, part := range strings.Split(page, `href="`)[1:] {
		end := strings.IndexByte(part, '"')
		if end > 0 {
			out = append(out, part[:end])
		}
	}
	return out
}

func TestPathsSorted(t *testing.T) {
	s := builtSite(t)
	paths := s.Paths()
	if len(paths) != s.Len() {
		t.Fatalf("Paths() = %d of %d", len(paths), s.Len())
	}
	for i := 1; i < len(paths); i++ {
		if paths[i] < paths[i-1] {
			t.Fatal("Paths not sorted")
		}
	}
	found := false
	for _, p := range paths {
		if p == "index.html" {
			found = true
		}
	}
	if !found {
		t.Error("index.html missing from Paths")
	}
}

func TestWriteTo(t *testing.T) {
	s := builtSite(t)
	dir := t.TempDir()
	if err := s.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "activities", "findsmallestcard", "index.html"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "FindSmallestCard") {
		t.Error("written page lacks content")
	}
	if _, err := os.Stat(filepath.Join(dir, "style.css")); err != nil {
		t.Error("style.css not written")
	}
}

func TestHandler(t *testing.T) {
	s := builtSite(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cases := map[string]int{
		"/":                             http.StatusOK,
		"/index.html":                   http.StatusOK,
		"/activities/findsmallestcard/": http.StatusOK,
		"/views/tcpp/":                  http.StatusOK,
		"/style.css":                    http.StatusOK,
		"/activities/findsmallestcard":  http.StatusOK, // directory without slash
		"/no/such/page/":                http.StatusNotFound,
	}
	for path, want := range cases {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := http.Get(srv.URL + "/style.css")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/css") {
		t.Errorf("css content type = %q", ct)
	}
}

func TestHandlerMethods(t *testing.T) {
	s := builtSite(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// HEAD carries the same headers as GET, including Content-Length,
	// with no body.
	resp, err := http.Head(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("HEAD / = %d, want 200", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Errorf("HEAD / returned %d body bytes, want 0", len(body))
	}
	wantLen := len(s.Pages["index.html"])
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(wantLen) {
		t.Errorf("HEAD Content-Length = %q, want %d", got, wantLen)
	}

	// GET advertises Content-Length matching the page bytes.
	resp, err = http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.ContentLength != int64(wantLen) || len(body) != wantLen {
		t.Errorf("GET / length = %d (body %d), want %d", resp.ContentLength, len(body), wantLen)
	}

	// Non-GET/HEAD methods are rejected with 405 and an Allow header.
	for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
		req, err := http.NewRequest(method, srv.URL+"/", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s / = %d, want 405", method, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
			t.Errorf("%s Allow = %q, want \"GET, HEAD\"", method, allow)
		}
	}
}

// TestUnknownPathAnyMethodIsNotFound: the handler resolves the page
// before it checks the method, so a POST to an unknown path is a 404 and
// lands in the HTTP middleware's one not-found series instead of minting
// a path label per URL.
func TestUnknownPathAnyMethodIsNotFound(t *testing.T) {
	obs.SetLogger(obs.NewLogger(io.Discard)) // every 404 is access-logged
	defer obs.SetLogger(nil)
	reg := obs.NewRegistry()
	h := obs.NewHTTPMetrics(reg).WithTracer(nil).Wrap(builtSite(t).Handler())
	for i := 1; i <= 50; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/nope-"+strconv.Itoa(i), nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("POST /nope-%d = %d, want 404", i, rec.Code)
		}
	}
	for _, family := range []string{
		"pdcu_http_requests_total",
		"pdcu_http_request_duration_seconds",
		"pdcu_http_response_bytes_total",
	} {
		series := reg.Snapshot(family)
		if len(series) != 1 || series[0].Labels["path"] != obs.NotFoundRoute {
			t.Errorf("%s series = %+v, want one under path=%q", family, series, obs.NotFoundRoute)
		}
	}
}

func TestGapsReport(t *testing.T) {
	repo, err := curation.Repository()
	if err != nil {
		t.Fatal(err)
	}
	out := Gaps(repo)
	for _, want := range []string{"K_WebSearch", "PF_3", "A_Broadcast", "Uncovered CS2013", "Uncovered TCPP"} {
		if !strings.Contains(out, want) {
			t.Errorf("gap report missing %q", want)
		}
	}
}

func TestHandlerETag(t *testing.T) {
	s := builtSite(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ETag = %q, want quoted strong tag", etag)
	}
	if etag != s.ETag("index.html") {
		t.Errorf("served ETag %q != Site.ETag %q", etag, s.ETag("index.html"))
	}

	// A conditional request with the current tag gets 304 and no body.
	for _, header := range []string{etag, "W/" + etag, `"bogus", ` + etag, "*"} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/", nil)
		req.Header.Set("If-None-Match", header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q = %d, want 304", header, resp.StatusCode)
		}
		if len(body) != 0 {
			t.Errorf("304 carried %d body bytes", len(body))
		}
	}

	// A stale tag gets the full page.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/", nil)
	req.Header.Set("If-None-Match", `"0000000000000000"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Errorf("stale If-None-Match = %d with %d bytes, want 200 with body", resp.StatusCode, len(body))
	}

	// Different pages get different tags; the tag is content-addressed.
	if s.ETag("index.html") == s.ETag("style.css") {
		t.Error("distinct pages share an ETag")
	}
	if s.ETag("no/such/page") != "" {
		t.Error("missing page has an ETag")
	}
}

// TestETagComputedOnFirstUse: a page's ETag is the first 8 bytes of its
// sha256, quoted, whichever of several concurrent first callers
// computes it, and the same value on every later call.
func TestETagComputedOnFirstUse(t *testing.T) {
	s := builtSite(t)
	paths := s.Paths()
	tags := make([][]string, 4)
	var wg sync.WaitGroup
	for g := range tags {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range paths {
				tags[g] = append(tags[g], s.ETag(p))
			}
		}()
	}
	wg.Wait()
	for i, p := range paths {
		sum := sha256.Sum256(s.Pages[p])
		want := `"` + hex.EncodeToString(sum[:8]) + `"`
		for g := range tags {
			if tags[g][i] != want {
				t.Fatalf("%s: ETag %s from caller %d, want %s", p, tags[g][i], g, want)
			}
		}
		if s.ETag(p) != want {
			t.Errorf("%s: ETag changed after first use", p)
		}
	}
}

func TestHandlerCounters(t *testing.T) {
	s := builtSite(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	before := map[string]float64{}
	for _, r := range []string{"ok", "not_modified", "not_found", "method_not_allowed"} {
		before[r] = handlerTotal.With(r).Value()
	}

	get := func(path, inm string) {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get("/", "")
	get("/style.css", "")
	get("/", s.ETag("index.html"))
	get("/no/such/page/", "")
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/", strings.NewReader("x"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	want := map[string]float64{"ok": 2, "not_modified": 1, "not_found": 1, "method_not_allowed": 1}
	for r, delta := range want {
		if got := handlerTotal.With(r).Value() - before[r]; got != delta {
			t.Errorf("handler counter %s: delta = %v, want %v", r, got, delta)
		}
	}
}

func TestWriteToSweepsStale(t *testing.T) {
	s := builtSite(t)
	dir := t.TempDir()

	// Seed leftovers from a hypothetical previous build: a stale file in
	// a live directory, and a whole stale tree.
	staleTree := filepath.Join(dir, "activities", "removed-activity")
	if err := os.MkdirAll(staleTree, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		filepath.Join(staleTree, "index.html"),
		filepath.Join(dir, "old.html"),
	} {
		if err := os.WriteFile(p, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if err := s.WriteTo(dir); err != nil {
		t.Fatal(err)
	}

	for _, p := range []string{filepath.Join(dir, "old.html"), filepath.Join(staleTree, "index.html"), staleTree} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stale path %s survived WriteTo", p)
		}
	}
	// Live pages are intact and no temp files remain.
	if _, err := os.Stat(filepath.Join(dir, "index.html")); err != nil {
		t.Error("index.html missing after sweep")
	}
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if strings.Contains(filepath.Base(p), ".pdcu-tmp-") {
			t.Errorf("temp file left behind: %s", p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A second WriteTo over the same tree is a clean no-op overwrite.
	if err := s.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
}
