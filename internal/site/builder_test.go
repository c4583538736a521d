package site

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/core"
	"pdcunplugged/internal/corpus"
	"pdcunplugged/internal/cs2013"
	"pdcunplugged/internal/curation"
	"pdcunplugged/internal/taxonomy"
	"pdcunplugged/internal/tcpp"
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

// bodyEditMisses is the number of jobs a body-only edit (details,
// variations, courses note, accessibility, assessment prose, citations)
// re-renders: the activity's page and assessment sheet.
const bodyEditMisses = 2

// headerEditMisses is the number of jobs a header edit to one activity
// re-renders when it lists the same terms before and after, or gains
// terms: its page and assessment sheet, the term pages listing it in
// repo, and the whole-collection jobs (all the fixed ones but static).
func headerEditMisses(repo *core.Repository, slug string) int {
	return bodyEditMisses + len(termJobIDs(repo, slug)) + fixedRepoJobs - 1
}

// withEdit returns the embedded corpus as a repository, with change
// applied to a copy of the activity slug.
func withEdit(t *testing.T, slug string, change func(a *activity.Activity)) *core.Repository {
	t.Helper()
	acts := corpusRepo(t, nil).All()
	for i, a := range acts {
		if a.Slug == slug {
			edited := *a
			change(&edited)
			acts[i] = &edited
		}
	}
	repo, err := core.New(acts)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// sameAsCold fails t unless s holds exactly the pages a cold build of
// repo renders, byte for byte.
func sameAsCold(t *testing.T, s *Site, repo *core.Repository) {
	t.Helper()
	cold, err := Build(repo)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != cold.Len() {
		t.Errorf("incremental build has %d pages, cold build %d", s.Len(), cold.Len())
	}
	for p, want := range cold.Pages {
		if !bytes.Equal(s.Pages[p], want) {
			t.Errorf("page %s differs from a cold build", p)
		}
	}
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

// TestIncrementalRebuild pins down the page-graph dependency story. A
// body-only edit re-renders exactly the activity's two jobs, since no
// listing page reads an activity's body. A tag edit also re-renders the
// term pages listing the activity and the 7 whole-collection jobs (index,
// 4 views, api, sims). Every untouched page comes back byte-identical
// from the cache.
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

	// Body-only edit: a citation. The other 202 jobs stay cached.
	touched, err := b.Build(corpusRepo(t, func(files map[string]string) {
		files["findsmallestcard"] += "\n- Rebuild benchmark citation.\n"
	}))
	if err != nil {
		t.Fatal(err)
	}
	st = b.LastStats()
	if st.CacheMisses != bodyEditMisses || st.CacheHits != st.Jobs-bodyEditMisses {
		t.Errorf("body-only rebuild: hits=%d misses=%d, want %d/%d", st.CacheHits, st.CacheMisses, st.Jobs-bodyEditMisses, bodyEditMisses)
	}
	if !bytes.Contains(touched.Pages["activities/findsmallestcard/index.html"], []byte("Rebuild benchmark citation")) {
		t.Error("touched activity page not re-rendered")
	}
	// Untouched pages are byte-identical to the first build.
	for _, p := range []string{"activities/oddeven-transposition/index.html", "index.html", "api/activities.json", "style.css"} {
		if !bytes.Equal(touched.Pages[p], first.Pages[p]) {
			t.Errorf("untouched page %s changed across a body-only rebuild", p)
		}
	}

	// Tag edit: a new course. Its existing term pages, the new course's
	// term page and the whole-collection jobs re-render too.
	repo := withEdit(t, "findsmallestcard", func(a *activity.Activity) {
		a.Courses = append(a.Courses[:len(a.Courses):len(a.Courses)], "Outreach")
	})
	tagged, err := b.Build(repo)
	if err != nil {
		t.Fatal(err)
	}
	st = b.LastStats()
	if want := headerEditMisses(repo, "findsmallestcard"); st.CacheMisses != want || st.CacheHits != st.Jobs-want {
		t.Errorf("tag-edit rebuild: hits=%d misses=%d, want %d/%d", st.CacheHits, st.CacheMisses, st.Jobs-want, want)
	}
	sameAsCold(t, tagged, repo)
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
// a per-source browse page keys on its members' headers and the overview
// on each source's name and count. A body-only edit re-renders only the
// activity's two jobs. A tag edit to an alpha activity also re-renders
// alpha's browse page (and the usual term and whole-collection jobs),
// while beta's browse page and the overview stay cached.
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

	touched := filepath.Join(dirs[0], slugs[0]+".md")
	rewrite := func(change func(a *activity.Activity)) *core.Repository {
		t.Helper()
		body, err := os.ReadFile(touched)
		if err != nil {
			t.Fatal(err)
		}
		a, err := activity.Parse(slugs[0], string(body))
		if err != nil {
			t.Fatal(err)
		}
		change(a)
		if err := os.WriteFile(touched, []byte(a.Render()), 0o644); err != nil {
			t.Fatal(err)
		}
		return load()
	}

	// Body-only edit in alpha.
	body, err := b.Build(rewrite(func(a *activity.Activity) {
		a.Citations = append(a.Citations, "Federation invalidation probe.")
	}))
	if err != nil {
		t.Fatal(err)
	}
	if st := b.LastStats(); st.CacheMisses != bodyEditMisses {
		t.Errorf("body-only rebuild: misses=%d, want %d", st.CacheMisses, bodyEditMisses)
	}
	for _, p := range []string{"sources/index.html", "sources/alpha/index.html", "sources/beta/index.html"} {
		if !bytes.Equal(body.Pages[p], first.Pages[p]) {
			t.Errorf("browse page %s changed across a body-only rebuild", p)
		}
	}

	// Tag edit in alpha: alpha's browse page re-renders as well.
	repo := rewrite(func(a *activity.Activity) {
		a.Courses = append(a.Courses, "Outreach")
	})
	tagged, err := b.Build(repo)
	if err != nil {
		t.Fatal(err)
	}
	st := b.LastStats()
	want := headerEditMisses(repo, slugs[0]) + 1
	if st.CacheMisses != want || st.CacheHits != st.Jobs-want {
		t.Errorf("tag-edit rebuild: hits=%d misses=%d, want %d/%d", st.CacheHits, st.CacheMisses, st.Jobs-want, want)
	}
	for _, p := range []string{"sources/index.html", "sources/beta/index.html"} {
		if !bytes.Equal(tagged.Pages[p], first.Pages[p]) {
			t.Errorf("browse page %s changed across a tag edit in another source", p)
		}
	}
	sameAsCold(t, tagged, repo)
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
	b := NewBuilder(Options{})
	if _, err := b.Build(corpusRepo(t, nil)); err != nil {
		t.Fatal(err)
	}
	before := cacheFPs(b)
	repo := withEdit(t, slug, func(a *activity.Activity) { a.Title += " (revised)" })
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
	if st := b.LastStats(); st.CacheMisses != headerEditMisses(repo, slug) {
		t.Errorf("misses=%d, want %d", st.CacheMisses, headerEditMisses(repo, slug))
	}
	sameAsCold(t, incremental, repo)
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

// TestHeaderKeysMatchColdBuild is the contract of the header keys. One
// long-lived builder follows a seeded sequence of edits, each changing
// one activity field, every field in turn, over repositories chained
// with core.NewFrom as the engine chains them. After every step the
// builder's pages must be byte-identical to a cold build of the same
// activities. A body-only step must re-render exactly the edited
// activity's two jobs. A header step (a field activity.HeaderFingerprint
// covers) re-renders more; should the projection ever lose that field,
// a listing page goes stale and the cold-build comparison fails.
func TestHeaderKeysMatchColdBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	acts := curation.Activities()
	// pick returns the index of a random activity for which ok holds.
	pick := func(ok func(a *activity.Activity) bool) int {
		start := rng.Intn(len(acts))
		for n := range acts {
			if i := (start + n) % len(acts); ok(acts[i]) {
				return i
			}
		}
		t.Fatal("no activity fits the edit")
		return -1
	}
	every := func(*activity.Activity) bool { return true }
	// edit replaces a picked activity with an edited copy.
	edit := func(ok func(a *activity.Activity) bool, change func(a *activity.Activity)) {
		i := pick(ok)
		cp := *acts[i]
		change(&cp)
		acts[i] = &cp
	}
	// with returns xs plus v, never writing to xs's backing array.
	with := func(xs []string, v string) []string { return append(xs[:len(xs):len(xs)], v) }
	// toggle adds the first of known that xs lacks, or drops xs's last.
	toggle := func(xs, known []string) []string {
		for _, k := range known {
			if !slices.Contains(xs, k) {
				return with(xs, k)
			}
		}
		return xs[:len(xs)-1]
	}
	// missingOutcome is an outcome term of a's first unit that has one
	// a does not list yet.
	missingOutcome := func(a *activity.Activity) string {
		for _, term := range a.CS2013 {
			u, _ := cs2013.ByTerm(term)
			for _, o := range u.Outcomes {
				if det := u.OutcomeTerm(o.Num); !slices.Contains(a.CS2013Details, det) {
					return det
				}
			}
		}
		return ""
	}
	// missingTopic is the tcpp counterpart of missingOutcome.
	missingTopic := func(a *activity.Activity) string {
		for _, term := range a.TCPP {
			ar, _ := tcpp.ByTerm(term)
			for _, tp := range ar.Topics {
				det := tp.Term()
				if owner, _, err := tcpp.FindTopic(det); err == nil && owner.Term == term && !slices.Contains(a.TCPPDetails, det) {
					return det
				}
			}
		}
		return ""
	}
	steps := []struct {
		name   string
		header bool
		apply  func(step int)
	}{
		{"title", true, func(step int) {
			edit(every, func(a *activity.Activity) { a.Title += fmt.Sprintf(" (revision %d)", step) })
		}},
		{"details", false, func(step int) {
			edit(every, func(a *activity.Activity) {
				a.Details += fmt.Sprintf("\n\nRevision %d adds a scatter gather round.", step)
			})
		}},
		{"date", true, func(step int) {
			edit(every, func(a *activity.Activity) { a.Date = fmt.Sprintf("2020-%02d-01", step%12+1) })
		}},
		{"variations", false, func(step int) {
			edit(every, func(a *activity.Activity) {
				a.Variations = with(a.Variations, fmt.Sprintf("Variation %d runs it in pairs.", step))
			})
		}},
		{"author", true, func(step int) {
			edit(every, func(a *activity.Activity) { a.Author += fmt.Sprintf(" and Reviser %d", step) })
		}},
		{"courses note", false, func(step int) {
			edit(every, func(a *activity.Activity) {
				a.CoursesNote = strings.TrimSpace(a.CoursesNote + fmt.Sprintf(" Revision %d fits a lab.", step))
			})
		}},
		{"links", true, func(step int) {
			edit(every, func(a *activity.Activity) {
				a.Links = with(a.Links, fmt.Sprintf("https://example.org/handout-%d", step))
			})
		}},
		{"accessibility", false, func(step int) {
			edit(every, func(a *activity.Activity) {
				a.Accessibility += fmt.Sprintf(" Revision %d adds large-print cards.", step)
			})
		}},
		{"source", true, func(int) {
			// The first step flips the unstamped corpus to a federated
			// one, which moves the Sources link onto every page.
			edit(every, func(a *activity.Activity) {
				if a.Source == "alpha" {
					a.Source = "beta"
				} else {
					a.Source = "alpha"
				}
			})
		}},
		{"assessment prose", false, func(step int) {
			edit((*activity.Activity).HasAssessment, func(a *activity.Activity) {
				a.Assessment += fmt.Sprintf(" Revision %d adds an exit ticket.", step)
			})
		}},
		{"cs2013", true, func(int) {
			edit(func(a *activity.Activity) bool { return len(a.CS2013) < len(cs2013.All()) }, func(a *activity.Activity) {
				for _, term := range cs2013.Terms() {
					if !slices.Contains(a.CS2013, term) {
						a.CS2013 = with(a.CS2013, term)
						return
					}
				}
			})
		}},
		{"citations", false, func(step int) {
			edit(every, func(a *activity.Activity) {
				a.Citations = with(a.Citations, fmt.Sprintf("Reviser %d. Field notes. 2020.", step))
			})
		}},
		{"tcpp", true, func(int) {
			edit(func(a *activity.Activity) bool { return len(a.TCPP) < len(tcpp.All()) }, func(a *activity.Activity) {
				for _, term := range tcpp.Terms() {
					if !slices.Contains(a.TCPP, term) {
						a.TCPP = with(a.TCPP, term)
						return
					}
				}
			})
		}},
		{"courses", true, func(int) {
			edit(func(a *activity.Activity) bool { return len(a.Courses) > 0 }, func(a *activity.Activity) {
				a.Courses = toggle(a.Courses, activity.KnownCourses)
			})
		}},
		{"senses", true, func(int) {
			edit(func(a *activity.Activity) bool { return len(a.Senses) > 0 }, func(a *activity.Activity) {
				a.Senses = toggle(a.Senses, activity.KnownSenses)
			})
		}},
		{"cs2013details", true, func(int) {
			edit(func(a *activity.Activity) bool { return missingOutcome(a) != "" }, func(a *activity.Activity) {
				a.CS2013Details = with(a.CS2013Details, missingOutcome(a))
			})
		}},
		{"tcppdetails", true, func(int) {
			edit(func(a *activity.Activity) bool { return missingTopic(a) != "" }, func(a *activity.Activity) {
				a.TCPPDetails = with(a.TCPPDetails, missingTopic(a))
			})
		}},
		{"medium", true, func(int) {
			edit(func(a *activity.Activity) bool { return len(a.Medium) > 0 }, func(a *activity.Activity) {
				a.Medium = toggle(a.Medium, activity.KnownMediums)
			})
		}},
		{"assessment flip", true, func(step int) {
			edit(every, func(a *activity.Activity) {
				if a.HasAssessment() {
					a.Assessment = "None known."
				} else {
					a.Assessment = fmt.Sprintf("Revision %d: a pre/post quiz on the sorting network.", step)
				}
			})
		}},
		{"slug", true, func(step int) {
			edit(every, func(a *activity.Activity) { a.Slug += fmt.Sprintf("-r%d", step) })
		}},
	}

	b := NewBuilder(Options{})
	repo, err := core.New(acts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(repo); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 2*len(steps); step++ {
		s := steps[(step-1)%len(steps)]
		s.apply(step)
		next, err := core.NewFrom(repo, acts)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, s.name, err)
		}
		repo = next
		site, err := b.Build(repo)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, s.name, err)
		}
		misses := b.LastStats().CacheMisses
		if !s.header && misses != bodyEditMisses {
			t.Errorf("step %d (%s): body-only edit re-rendered %d jobs, want %d", step, s.name, misses, bodyEditMisses)
		}
		if s.header && misses <= bodyEditMisses {
			t.Errorf("step %d (%s): header edit re-rendered %d jobs, want more than %d", step, s.name, misses, bodyEditMisses)
		}
		cold, err := core.New(acts)
		if err != nil {
			t.Fatal(err)
		}
		if sameAsCold(t, site, cold); t.Failed() {
			t.Fatalf("step %d (%s): incremental build differs from a cold build", step, s.name)
		}
	}
}
