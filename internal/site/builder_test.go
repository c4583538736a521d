package site

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pdcunplugged/internal/core"
	"pdcunplugged/internal/corpus"
	"pdcunplugged/internal/curation"
	"pdcunplugged/internal/taxonomy"
)

// corpusRepo loads a repository from an optionally-edited copy of the
// embedded corpus.
func corpusRepo(t *testing.T, edit func(files map[string]string)) *core.Repository {
	t.Helper()
	files := curation.Files()
	if edit != nil {
		edit(files)
	}
	repo, err := core.Load(files)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// fixedRepoJobs is the part of the page graph every repository has:
// index, four views, api, sims and static.
const fixedRepoJobs = 8

// termJobs counts the in-use taxonomy terms: one term page job each.
func termJobs(repo *core.Repository) int {
	n := 0
	for _, def := range taxonomy.Standard() {
		n += len(repo.Index().Terms(def.Name))
	}
	return n
}

// termJobIDs returns the ids of the term page jobs listing slug.
func termJobIDs(repo *core.Repository, slug string) map[string]bool {
	ids := map[string]bool{}
	a, _ := repo.Get(slug)
	for _, def := range taxonomy.Standard() {
		for _, term := range a.Terms(def.Name) {
			ids["terms/"+def.Name+"/"+term] = true
		}
	}
	return ids
}

// touchOneMisses is the number of jobs one edited activity re-renders:
// its page and assessment sheet, the term pages listing it, and the
// repository-scoped jobs (all the fixed ones but static).
func touchOneMisses(repo *core.Repository, slug string) int {
	return 2 + len(termJobIDs(repo, slug)) + fixedRepoJobs - 1
}

// TestParallelBuildMatchesSerial is the determinism contract of the
// page-graph pipeline: worker count must never leak into the output.
func TestParallelBuildMatchesSerial(t *testing.T) {
	serial, err := NewBuilder(Options{Workers: 1}).Build(corpusRepo(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := NewBuilder(Options{Workers: workers}).Build(corpusRepo(t, nil))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Len() != serial.Len() {
			t.Fatalf("workers=%d: %d pages, serial has %d", workers, par.Len(), serial.Len())
		}
		for p, want := range serial.Pages {
			if got, ok := par.Pages[p]; !ok {
				t.Errorf("workers=%d: missing page %s", workers, p)
			} else if !bytes.Equal(got, want) {
				t.Errorf("workers=%d: page %s differs from serial build", workers, p)
			}
		}
	}
}

func TestBuildStats(t *testing.T) {
	b := NewBuilder(Options{Workers: 3})
	s, err := b.Build(corpusRepo(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	st := b.LastStats()
	// An activity page and an assessment sheet per activity, one page
	// per in-use taxonomy term, and the fixed repository jobs.
	repo := corpusRepo(t, nil)
	wantJobs := 2*repo.Len() + termJobs(repo) + fixedRepoJobs
	if st.Jobs != wantJobs {
		t.Errorf("Jobs = %d, want %d", st.Jobs, wantJobs)
	}
	if st.CacheHits != 0 || st.CacheMisses != wantJobs {
		t.Errorf("cold build: hits=%d misses=%d, want 0/%d", st.CacheHits, st.CacheMisses, wantJobs)
	}
	if st.Workers != 3 {
		t.Errorf("Workers = %d, want 3", st.Workers)
	}
	if st.Duration <= 0 {
		t.Errorf("Duration = %v", st.Duration)
	}
	if s.Len() == 0 {
		t.Fatal("empty site")
	}
}

// TestIncrementalRebuild pins down the page-graph dependency story:
// touching one activity re-renders exactly that activity's two jobs, the
// term pages listing it, and the repository-scoped aggregation jobs, and
// every untouched page comes back byte-identical from the cache.
func TestIncrementalRebuild(t *testing.T) {
	b := NewBuilder(Options{})
	first, err := b.Build(corpusRepo(t, nil))
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild with no changes: everything is a cache hit.
	same, err := b.Build(corpusRepo(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	st := b.LastStats()
	if st.CacheMisses != 0 || st.CacheHits != st.Jobs {
		t.Errorf("no-op rebuild: hits=%d misses=%d of %d jobs", st.CacheHits, st.CacheMisses, st.Jobs)
	}
	if same.Len() != first.Len() {
		t.Errorf("no-op rebuild changed page count: %d -> %d", first.Len(), same.Len())
	}

	// Touch one activity: its page + assessment sheet re-render
	// (activity-scoped), as do its term pages and the 7
	// repository-scoped jobs (index, 4 views, api, sims). The static job,
	// the other term pages and the other 37 activities' 74 jobs stay
	// cached.
	repo := corpusRepo(t, func(files map[string]string) {
		files["findsmallestcard"] += "\n- Rebuild benchmark citation.\n"
	})
	touched, err := b.Build(repo)
	if err != nil {
		t.Fatal(err)
	}
	st = b.LastStats()
	want := touchOneMisses(repo, "findsmallestcard")
	if st.CacheMisses != want {
		t.Errorf("one-activity rebuild: misses=%d, want %d", st.CacheMisses, want)
	}
	if st.CacheHits != st.Jobs-want {
		t.Errorf("one-activity rebuild: hits=%d, want %d", st.CacheHits, st.Jobs-want)
	}
	if !bytes.Contains(touched.Pages["activities/findsmallestcard/index.html"], []byte("Rebuild benchmark citation")) {
		t.Error("touched activity page not re-rendered")
	}
	// Untouched pages are byte-identical to the first build.
	if !bytes.Equal(touched.Pages["activities/oddeven-transposition/index.html"],
		first.Pages["activities/oddeven-transposition/index.html"]) {
		t.Error("untouched activity page changed across incremental rebuild")
	}
	if !bytes.Equal(touched.Pages["style.css"], first.Pages["style.css"]) {
		t.Error("static page changed across incremental rebuild")
	}
}

// TestBuilderCachePruning: jobs that vanish from the page graph take
// their cache entries (and pages) with them.
func TestBuilderCachePruning(t *testing.T) {
	b := NewBuilder(Options{})
	if _, err := b.Build(corpusRepo(t, nil)); err != nil {
		t.Fatal(err)
	}
	smaller, err := b.Build(corpusRepo(t, func(files map[string]string) {
		delete(files, "findsmallestcard")
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := smaller.Pages["activities/findsmallestcard/index.html"]; ok {
		t.Error("deleted activity's page survived the rebuild")
	}
	if _, ok := b.cache["activity/findsmallestcard"]; ok {
		t.Error("deleted activity's cache entry not pruned")
	}
	// Restoring the corpus re-renders the pruned jobs rather than
	// resurrecting stale cache.
	restored, err := b.Build(corpusRepo(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := restored.Pages["activities/findsmallestcard/index.html"]; !ok {
		t.Error("restored activity's page missing")
	}
}

func TestBuildWorkerClamping(t *testing.T) {
	b := NewBuilder(Options{Workers: 10000})
	if _, err := b.Build(corpusRepo(t, nil)); err != nil {
		t.Fatal(err)
	}
	if st := b.LastStats(); st.Workers != st.Jobs {
		t.Errorf("Workers = %d, want clamped to %d jobs", st.Workers, st.Jobs)
	}
}

// TestPerSourceJobInvalidation pins the federation dependency story:
// per-source browse pages key on that source's fingerprint, so touching
// one source's activity re-renders its own source page (plus the
// overview and the usual activity/repository jobs) while every other
// source's page stays cached.
func TestPerSourceJobInvalidation(t *testing.T) {
	files := curation.Files()
	slugs := make([]string, 0, len(files))
	for slug := range files {
		slugs = append(slugs, slug)
	}
	sort.Strings(slugs)
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, slug := range slugs[:4] {
		path := filepath.Join(dirs[i/2], slug+".md")
		if err := os.WriteFile(path, []byte(files[slug]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	load := func() *core.Repository {
		repo, err := corpus.LoadAll(corpus.Dir("alpha", dirs[0]), corpus.Dir("beta", dirs[1]))
		if err != nil {
			t.Fatal(err)
		}
		return repo
	}

	b := NewBuilder(Options{})
	first, err := b.Build(load())
	if err != nil {
		t.Fatal(err)
	}
	// 4 activities x 2 jobs + their term pages + the fixed repository
	// jobs + one browse page per source + the sources overview.
	wantJobs := 2*4 + termJobs(load()) + fixedRepoJobs + 3
	if st := b.LastStats(); st.Jobs != wantJobs || st.CacheMisses != wantJobs {
		t.Fatalf("cold federated build: jobs=%d misses=%d, want %d/%d", st.Jobs, st.CacheMisses, wantJobs, wantJobs)
	}
	if first.Pages["sources/index.html"] == nil || first.Pages["sources/alpha/index.html"] == nil || first.Pages["sources/beta/index.html"] == nil {
		t.Fatal("federated build is missing source browse pages")
	}

	// Touch one activity in alpha: the usual one-activity misses plus
	// alpha's browse page and the overview re-render, while beta's
	// browse page stays cached.
	touched := filepath.Join(dirs[0], slugs[0]+".md")
	body, err := os.ReadFile(touched)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(touched, append(body, []byte("\n- Federation invalidation probe.\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	repo := load()
	second, err := b.Build(repo)
	if err != nil {
		t.Fatal(err)
	}
	st := b.LastStats()
	want := touchOneMisses(repo, slugs[0]) + 2
	if st.CacheMisses != want {
		t.Errorf("one-source rebuild: misses=%d, want %d", st.CacheMisses, want)
	}
	if st.CacheHits != st.Jobs-want {
		t.Errorf("one-source rebuild: hits=%d, want %d", st.CacheHits, st.Jobs-want)
	}
	if !bytes.Equal(second.Pages["sources/beta/index.html"], first.Pages["sources/beta/index.html"]) {
		t.Error("untouched source's browse page changed across incremental rebuild")
	}
}

// cacheFPs copies the builder's job fingerprints.
func cacheFPs(b *Builder) map[string]string {
	fps := make(map[string]string, len(b.cache))
	for id, e := range b.cache {
		fps[id] = e.fp
	}
	return fps
}

// TestTouchOneRerendersOnlyItsTermPages: retitling one activity changes
// every term page listing it and no other. Exactly those term jobs
// re-render, and the incremental site is byte-identical to a cold build
// of the edited corpus.
func TestTouchOneRerendersOnlyItsTermPages(t *testing.T) {
	const slug = "findsmallestcard"
	retitled := func() *core.Repository {
		repo := corpusRepo(t, nil)
		acts := repo.All()
		for i, a := range acts {
			if a.Slug == slug {
				edited := *a
				edited.Title += " (revised)"
				acts[i] = &edited
			}
		}
		edited, err := core.New(acts)
		if err != nil {
			t.Fatal(err)
		}
		return edited
	}

	b := NewBuilder(Options{})
	if _, err := b.Build(corpusRepo(t, nil)); err != nil {
		t.Fatal(err)
	}
	before := cacheFPs(b)
	repo := retitled()
	incremental, err := b.Build(repo)
	if err != nil {
		t.Fatal(err)
	}
	wantTerms := termJobIDs(repo, slug)
	if len(wantTerms) == 0 {
		t.Fatalf("%s lists no taxonomy terms", slug)
	}
	for id, fp := range cacheFPs(b) {
		if !strings.HasPrefix(id, "terms/") {
			continue
		}
		if rerendered := before[id] != fp; rerendered != wantTerms[id] {
			t.Errorf("term job %s: re-rendered=%v, want %v", id, rerendered, wantTerms[id])
		}
	}
	if st := b.LastStats(); st.CacheMisses != touchOneMisses(repo, slug) {
		t.Errorf("misses=%d, want %d", st.CacheMisses, touchOneMisses(repo, slug))
	}

	cold, err := NewBuilder(Options{}).Build(retitled())
	if err != nil {
		t.Fatal(err)
	}
	if incremental.Len() != cold.Len() {
		t.Fatalf("incremental build has %d pages, cold build %d", incremental.Len(), cold.Len())
	}
	for p, want := range cold.Pages {
		if !bytes.Equal(incremental.Pages[p], want) {
			t.Errorf("page %s differs from a cold build", p)
		}
	}
	a, _ := repo.Get(slug)
	probe := "courses/" + taxonomy.Slug(a.Courses[0]) + "/index.html"
	if !bytes.Contains(incremental.Pages[probe], []byte("(revised)")) {
		t.Errorf("term page %s does not show the new title", probe)
	}
}

// TestVanishedTermLosesItsPage: deleting a term's only member removes
// the term's page from the site and its job from the cache.
func TestVanishedTermLosesItsPage(t *testing.T) {
	repo := corpusRepo(t, nil)
	var def taxonomy.Def
	var term, member string
	for _, d := range taxonomy.Standard() {
		for _, tm := range repo.Index().Terms(d.Name) {
			if entries := repo.Index().EntriesFor(d.Name, tm); len(entries) == 1 && member == "" {
				def, term, member = d, tm, entries[0]
			}
		}
	}
	if member == "" {
		t.Fatal("corpus has no single-member taxonomy term")
	}
	page := def.Name + "/" + taxonomy.Slug(term) + "/index.html"
	id := "terms/" + def.Name + "/" + term

	b := NewBuilder(Options{})
	first, err := b.Build(repo)
	if err != nil {
		t.Fatal(err)
	}
	if first.Pages[page] == nil {
		t.Fatalf("cold build has no page %s for term %s", page, term)
	}
	smaller, err := b.Build(corpusRepo(t, func(files map[string]string) {
		delete(files, member)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := smaller.Pages[page]; ok {
		t.Errorf("page %s survived the removal of its only member %s", page, member)
	}
	if _, ok := b.cache[id]; ok {
		t.Errorf("cache entry %s not pruned", id)
	}
}
