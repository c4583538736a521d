// Package core implements the PDCunplugged repository: a validated,
// taxonomy-indexed collection of unplugged PDC activities with the four
// browsing views described in Section II-C of the paper (CS2013, TCPP,
// Courses, Accessibility).
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"path"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/cs2013"
	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/taxonomy"
	"pdcunplugged/internal/tcpp"
)

// Repository is an indexed activity collection. Construct with Load,
// LoadFS, or New; a Repository is immutable once built and safe for
// concurrent readers.
type Repository struct {
	activities map[string]*activity.Activity
	order      []string // sorted slugs
	index      *taxonomy.Index

	sources  []string            // sorted non-empty source names
	bySource map[string][]string // source name -> sorted slugs

	fpOnce sync.Once
	fp     string
	actFP  map[string]string // slug -> activity fingerprint: carried ones from NewFrom, the rest filled under fpOnce

	// Header fingerprints are the site builder's alone: nothing else
	// pays for them, and they are computed the first time it asks.
	hdrOnce sync.Once
	hdrDone atomic.Bool       // set once hdrOnce has filled hdrFP and hdr
	hdr     string            // fold of every activity's header fingerprint
	hdrFP   map[string]string // slug -> header fingerprint: carried ones from NewFrom, the rest filled under hdrOnce
}

// New builds a repository from parsed activities, validating each one and
// indexing all six taxonomies. All validation errors are reported together.
func New(acts []*activity.Activity) (*Repository, error) { return NewFrom(nil, acts) }

// NewFrom is New for the next generation of prev. Activities are
// immutable once in a repository, so an activity that is the very
// pointer prev holds under its slug keeps prev's fingerprint instead of
// being rendered and hashed again; the result is the repository New
// builds from the same activities. A nil prev carries nothing over.
func NewFrom(prev *Repository, acts []*activity.Activity) (*Repository, error) {
	r := &Repository{activities: make(map[string]*activity.Activity, len(acts))}
	if prev != nil {
		r.actFP = make(map[string]string, len(acts))
		r.hdrFP = make(map[string]string, len(acts))
	}
	var problems []string
	var entries []taxonomy.Entry
	for _, a := range acts {
		if prev, dup := r.activities[a.Slug]; dup {
			// Name both provenances: cross-source collisions are the
			// federation failure mode an operator must resolve by hand.
			if prev.Source != "" || a.Source != "" {
				problems = append(problems, fmt.Sprintf(
					"duplicate activity slug %q (sources %q and %q)",
					a.Slug, sourceLabel(prev), sourceLabel(a)))
			} else {
				problems = append(problems, fmt.Sprintf("duplicate activity slug %q", a.Slug))
			}
			continue
		}
		for _, err := range a.Validate() {
			problems = append(problems, err.Error())
		}
		r.activities[a.Slug] = a
		r.order = append(r.order, a.Slug)
		if prev != nil && prev.activities[a.Slug] == a {
			r.actFP[a.Slug] = prev.ActivityFingerprint(a.Slug)
			if prev.hdrDone.Load() {
				r.hdrFP[a.Slug] = prev.hdrFP[a.Slug]
			}
		}
		entries = append(entries, a)
	}
	if len(problems) > 0 {
		return nil, fmt.Errorf("repository: %d problems:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	sort.Strings(r.order)
	r.bySource = map[string][]string{}
	for _, slug := range r.order {
		if src := r.activities[slug].Source; src != "" {
			r.bySource[src] = append(r.bySource[src], slug)
		}
	}
	for src := range r.bySource {
		r.sources = append(r.sources, src)
	}
	sort.Strings(r.sources)
	_, ixSpan := obs.StartSpan(context.Background(), "repo.index")
	ix, err := taxonomy.Build(taxonomy.Standard(), entries)
	ixSpan.End()
	if err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	r.index = ix
	return r, nil
}

// Load parses raw Markdown files (slug -> content) into a repository.
func Load(files map[string]string) (*Repository, error) {
	_, parseSpan := obs.StartSpan(context.Background(), "repo.parse")
	var acts []*activity.Activity
	slugs := make([]string, 0, len(files))
	for slug := range files {
		slugs = append(slugs, slug)
	}
	sort.Strings(slugs)
	for _, slug := range slugs {
		a, err := activity.Parse(slug, files[slug])
		if err != nil {
			parseSpan.End()
			return nil, err
		}
		acts = append(acts, a)
	}
	parseSpan.End()
	return New(acts)
}

// LoadFS reads every .md file under dir in fsys (the content/activities
// folder of the paper's GitHub layout) and builds a repository.
func LoadFS(fsys fs.FS, dir string) (*Repository, error) {
	_, walkSpan := obs.StartSpan(context.Background(), "repo.walk")
	files := map[string]string{}
	err := fs.WalkDir(fsys, dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(p, ".md") {
			return nil
		}
		data, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		slug := strings.TrimSuffix(path.Base(p), ".md")
		files[slug] = string(data)
		return nil
	})
	walkSpan.End()
	if err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	return Load(files)
}

// Len returns the number of activities.
func (r *Repository) Len() int { return len(r.order) }

// Slugs returns all activity slugs, sorted.
func (r *Repository) Slugs() []string { return append([]string(nil), r.order...) }

// Get returns the activity with the given slug.
func (r *Repository) Get(slug string) (*activity.Activity, bool) {
	a, ok := r.activities[slug]
	return a, ok
}

// All returns all activities in slug order.
func (r *Repository) All() []*activity.Activity {
	out := make([]*activity.Activity, len(r.order))
	for i, s := range r.order {
		out[i] = r.activities[s]
	}
	return out
}

// Index exposes the taxonomy index for view construction and analytics.
func (r *Repository) Index() *taxonomy.Index { return r.index }

// Fingerprint returns a content hash over every activity in slug order.
// It names the generation: its first 16 hex digits are the generation
// ID, and a replica verifies a decoded snapshot against it. Computed
// once; the repository is immutable.
func (r *Repository) Fingerprint() string {
	r.fingerprints()
	return r.fp
}

// ActivityFingerprint returns the content hash of one activity (equal to
// its Fingerprint method), or "" for an unknown slug. Every activity is
// rendered and hashed once per repository, however many pages and
// aggregate hashes read it.
func (r *Repository) ActivityFingerprint(slug string) string {
	r.fingerprints()
	return r.actFP[slug]
}

// fingerprints computes every activity fingerprint NewFrom did not carry
// over, and the repository fingerprint over them, once. Rendering and
// hashing the activities is the bulk of the work and independent per
// activity, so it runs on GOMAXPROCS goroutines, each taking every
// GOMAXPROCS-th missing slug; the repository hash is then folded
// serially in slug order.
func (r *Repository) fingerprints() {
	r.fpOnce.Do(func() {
		if r.actFP == nil {
			r.actFP = make(map[string]string, len(r.order))
		}
		var missing []string
		for _, slug := range r.order {
			if _, ok := r.actFP[slug]; !ok {
				missing = append(missing, slug)
			}
		}
		fps := make([]string, len(missing))
		workers := min(runtime.GOMAXPROCS(0), len(missing))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(missing); i += workers {
					fps[i] = r.activities[missing[i]].Fingerprint()
				}
			}()
		}
		wg.Wait()
		for i, slug := range missing {
			r.actFP[slug] = fps[i]
		}
		h := sha256.New()
		for _, slug := range r.order {
			io.WriteString(h, slug)
			h.Write([]byte{0})
			io.WriteString(h, r.actFP[slug])
			h.Write([]byte{0})
		}
		r.fp = hex.EncodeToString(h.Sum(nil))
	})
}

// HeaderFingerprint returns a content hash over every activity's header
// fingerprint in slug order. Pages that list or aggregate the whole
// collection (index, views, API, dramatizations) read only activity
// headers, so the site builder keys them on this value: a body-only edit
// leaves it unchanged. Computed once, and only when first asked for.
func (r *Repository) HeaderFingerprint() string {
	r.headers()
	return r.hdr
}

// ActivityHeaderFingerprint returns the header fingerprint of one
// activity (equal to its HeaderFingerprint method), or "" for an unknown
// slug.
func (r *Repository) ActivityHeaderFingerprint(slug string) string {
	r.headers()
	return r.hdrFP[slug]
}

// headers computes every header fingerprint NewFrom did not carry over,
// and their fold in slug order, once. A header is a short prefix of the
// canonical render, so this runs serially.
func (r *Repository) headers() {
	r.hdrOnce.Do(func() {
		if r.hdrFP == nil {
			r.hdrFP = make(map[string]string, len(r.order))
		}
		h := sha256.New()
		for _, slug := range r.order {
			fp, ok := r.hdrFP[slug]
			if !ok {
				fp = r.activities[slug].HeaderFingerprint()
				r.hdrFP[slug] = fp
			}
			io.WriteString(h, fp)
			h.Write([]byte{0})
		}
		r.hdr = hex.EncodeToString(h.Sum(nil))
		r.hdrDone.Store(true)
	})
}

// Sources returns the distinct non-empty source names present in the
// repository, sorted. A legacy single-corpus repository (no provenance
// stamped) returns nil.
func (r *Repository) Sources() []string { return append([]string(nil), r.sources...) }

// BySource returns the slugs contributed by one source, sorted.
func (r *Repository) BySource(source string) []string {
	return append([]string(nil), r.bySource[source]...)
}

// SourceLen returns how many activities one source contributes, without
// copying its slug list.
func (r *Repository) SourceLen(source string) int { return len(r.bySource[source]) }

func sourceLabel(a *activity.Activity) string {
	if a.Source == "" {
		return "unattributed"
	}
	return a.Source
}

// withTerm returns activities listing term under the taxonomy, slug-sorted.
func (r *Repository) withTerm(tax, term string) []*activity.Activity {
	keys := r.index.EntriesFor(tax, term)
	out := make([]*activity.Activity, len(keys))
	for i, k := range keys {
		out[i] = r.activities[k]
	}
	return out
}

// ByCourse returns the activities recommended for a course term.
func (r *Repository) ByCourse(course string) []*activity.Activity {
	return r.withTerm("courses", course)
}

// BySense returns the activities engaging a sense term.
func (r *Repository) BySense(sense string) []*activity.Activity {
	return r.withTerm("senses", sense)
}

// ByMedium returns the activities using a communication medium.
func (r *Repository) ByMedium(medium string) []*activity.Activity {
	return r.withTerm("medium", medium)
}

// ByKnowledgeUnit returns the activities tagged with a cs2013 term.
func (r *Repository) ByKnowledgeUnit(term string) []*activity.Activity {
	return r.withTerm("cs2013", term)
}

// ByTopicArea returns the activities tagged with a tcpp term.
func (r *Repository) ByTopicArea(term string) []*activity.Activity {
	return r.withTerm("tcpp", term)
}

// ByOutcome returns the activities covering a cs2013details outcome term.
func (r *Repository) ByOutcome(detail string) []*activity.Activity {
	return r.withTerm("cs2013details", detail)
}

// ByTopic returns the activities covering a tcppdetails topic term.
func (r *Repository) ByTopic(detail string) []*activity.Activity {
	return r.withTerm("tcppdetails", detail)
}

// Search returns activities whose title, author or details contain the
// query, case-insensitively, in slug order.
func (r *Repository) Search(query string) []*activity.Activity {
	q := strings.ToLower(strings.TrimSpace(query))
	if q == "" {
		return nil
	}
	var out []*activity.Activity
	for _, s := range r.order {
		a := r.activities[s]
		if strings.Contains(strings.ToLower(a.Title), q) ||
			strings.Contains(strings.ToLower(a.Author), q) ||
			strings.Contains(strings.ToLower(a.Details), q) {
			out = append(out, a)
		}
	}
	return out
}

// OutcomeEntry pairs one CS2013 learning outcome with the activities that
// cover it; part of the CS2013 view.
type OutcomeEntry struct {
	Outcome    cs2013.Outcome
	Term       string // cs2013details term, e.g. PD_3
	Activities []string
}

// UnitView is one knowledge unit's slice of the CS2013 view.
type UnitView struct {
	Unit       cs2013.Unit
	Activities []string // activities tagged with the unit
	Outcomes   []OutcomeEntry
}

// CS2013View builds the per-knowledge-unit view: for each unit, the tagged
// activities and, per learning outcome, the activities covering it. Activity
// authors use this view to gauge impact (Section II-C).
func (r *Repository) CS2013View() []UnitView {
	var views []UnitView
	for _, u := range cs2013.All() {
		v := UnitView{Unit: u, Activities: r.index.EntriesFor("cs2013", u.Term)}
		for _, o := range u.Outcomes {
			term := u.OutcomeTerm(o.Num)
			v.Outcomes = append(v.Outcomes, OutcomeEntry{
				Outcome:    o,
				Term:       term,
				Activities: r.index.EntriesFor("cs2013details", term),
			})
		}
		views = append(views, v)
	}
	return views
}

// TopicEntry pairs one TCPP topic with the activities covering it.
type TopicEntry struct {
	Topic      tcpp.Topic
	Term       string
	Activities []string
}

// AreaView is one topic area's slice of the TCPP view.
type AreaView struct {
	Area       tcpp.Area
	Activities []string
	Topics     []TopicEntry
}

// TCPPView builds the per-topic-area view with per-topic activity listings.
func (r *Repository) TCPPView() []AreaView {
	var views []AreaView
	for _, ar := range tcpp.All() {
		v := AreaView{Area: ar, Activities: r.index.EntriesFor("tcpp", ar.Term)}
		for _, tp := range ar.Topics {
			v.Topics = append(v.Topics, TopicEntry{
				Topic:      tp,
				Term:       tp.Term(),
				Activities: r.index.EntriesFor("tcppdetails", tp.Term()),
			})
		}
		views = append(views, v)
	}
	return views
}

// CourseView groups activities by recommended course, in the fixed order the
// paper reports (K-12, CS0, CS1, CS2, DSA, Systems, then any others in use).
func (r *Repository) CourseView() []taxonomy.TermPage {
	preferred := []string{"K_12", "CS0", "CS1", "CS2", "DSA", "Systems"}
	seen := map[string]bool{}
	var pages []taxonomy.TermPage
	for _, c := range preferred {
		seen[c] = true
		if entries := r.index.EntriesFor("courses", c); len(entries) > 0 {
			pages = append(pages, taxonomy.TermPage{Taxonomy: "courses", Term: c, Entries: entries})
		}
	}
	for _, c := range r.index.Terms("courses") {
		if !seen[c] {
			pages = append(pages, taxonomy.TermPage{Taxonomy: "courses", Term: c, Entries: r.index.EntriesFor("courses", c)})
		}
	}
	return pages
}

// AccessibilityView combines the senses and medium taxonomies (Section II-C:
// "the medium hidden taxonomy is used in tandem with the senses taxonomy to
// build the Accessibility view").
type AccessibilityView struct {
	Senses  []taxonomy.TermPage
	Mediums []taxonomy.TermPage
}

// Accessibility builds the accessibility view.
func (r *Repository) Accessibility() AccessibilityView {
	return AccessibilityView{
		Senses:  r.index.Pages("senses"),
		Mediums: r.index.Pages("medium"),
	}
}
