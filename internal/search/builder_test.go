package search

// Tests for the memoized Builder: its indexes must be the indexes Build
// makes, and the key it memoizes under (the activity fingerprint) must
// change whenever a tokenized field does.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/core"
	"pdcunplugged/internal/curation"
)

// snapshotBytes encodes ix with its build time zeroed: the one stats
// field that legitimately differs between two builds of one corpus.
func snapshotBytes(t *testing.T, ix *Index) []byte {
	t.Helper()
	cp := *ix
	cp.stats.BuildSeconds = 0
	b, err := cp.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// corpusActivities returns fresh copies of the embedded corpus's
// activities, safe to edit.
func corpusActivities(t *testing.T) []*activity.Activity {
	t.Helper()
	repo, err := core.Load(curation.Files())
	if err != nil {
		t.Fatal(err)
	}
	return repo.All()
}

// TestBuilderMatchesBuild drives one memoized builder through a seeded
// sequence of corpus edits. After every edit its index, built on the
// previous build's patched vocabulary, must encode byte-identically to a
// from-scratch Build of the same corpus, and its memo must hold exactly
// one vector per activity.
func TestBuilderMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	acts := corpusActivities(t)
	pick := func() int { return rng.Intn(len(acts)) }
	// edit replaces activity i with an edited copy.
	edit := func(i int, change func(a *activity.Activity)) {
		cp := *acts[i]
		change(&cp)
		acts[i] = &cp
	}
	edits := []struct {
		name  string
		apply func(step int)
	}{
		{"touch one", func(step int) {
			edit(pick(), func(a *activity.Activity) {
				a.Details += fmt.Sprintf("\n\nRevision %d adds a scatter gather round.", step)
			})
		}},
		{"add one", func(step int) {
			cp := *acts[pick()]
			cp.Slug = fmt.Sprintf("added-activity-%d", step)
			cp.Title = fmt.Sprintf("Added activity %d on barriers", step)
			acts = append(acts, &cp)
		}},
		{"delete one", func(int) {
			i := pick()
			acts = append(acts[:i:i], acts[i+1:]...)
		}},
		{"change a tag", func(int) {
			edit(pick(), func(a *activity.Activity) {
				if i := indexOf(a.Courses, "Outreach"); i >= 0 && len(a.Courses) > 1 {
					a.Courses = append(a.Courses[:i:i], a.Courses[i+1:]...)
				} else if i < 0 {
					a.Courses = append(a.Courses[:len(a.Courses):len(a.Courses)], "Outreach")
				} else {
					a.Courses = []string{"CS1"}
				}
			})
		}},
		{"reword one", func(step int) {
			// Words no other document uses come and go in one step, so
			// the patched vocabulary both gains and loses terms.
			edit(pick(), func(a *activity.Activity) {
				a.Details = fmt.Sprintf("Reworded %d: quorum%d lattice%d tableau.", step, step, step)
			})
		}},
		{"change only source", func(int) {
			edit(pick(), func(a *activity.Activity) {
				if a.Source == "alpha" {
					a.Source = "beta"
				} else {
					a.Source = "alpha"
				}
			})
		}},
	}

	b := NewBuilder()
	for step := 0; step < 3*len(edits); step++ {
		e := edits[step%len(edits)]
		if step > 0 {
			e.apply(step)
		}
		repo, err := core.New(acts)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, e.name, err)
		}
		got := b.Build(repo.All(), repo.ActivityFingerprint)
		want := Build(repo.All())
		if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, want)) {
			t.Fatalf("step %d (%s): memoized index differs from Build", step, e.name)
		}
		if len(b.memo) != repo.Len() {
			t.Fatalf("step %d (%s): memo holds %d vectors for %d activities", step, e.name, len(b.memo), repo.Len())
		}
	}
}

// TestBuilderCountsBuilds: a memoized build is still a build, so the
// cold-start invariant tests that watch BuildCalls keep their meaning.
func TestBuilderCountsBuilds(t *testing.T) {
	acts := corpusActivities(t)
	repo, err := core.New(acts)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder()
	before := BuildCalls()
	b.Build(repo.All(), repo.ActivityFingerprint)
	ix := b.Build(repo.All(), repo.ActivityFingerprint)
	if got := BuildCalls() - before; got != 2 {
		t.Errorf("BuildCalls advanced by %d over two builds, want 2", got)
	}
	if ix.Stats().BuildSeconds <= 0 {
		t.Errorf("memoized build reports no build time: %+v", ix.Stats())
	}
	var nilBuilder *Builder
	if got, want := snapshotBytes(t, nilBuilder.Build(acts, nil)), snapshotBytes(t, Build(acts)); !bytes.Equal(got, want) {
		t.Error("nil Builder differs from Build")
	}
}

// TestBuilderConcurrentBuilds: builds from several goroutines share the
// memo and each returns the index Build makes.
func TestBuilderConcurrentBuilds(t *testing.T) {
	repo, err := core.New(corpusActivities(t))
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, Build(repo.All()))
	b := NewBuilder()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ix := b.Build(repo.All(), repo.ActivityFingerprint)
			cp := *ix
			cp.stats.BuildSeconds = 0
			got, err := cp.EncodeSnapshot()
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("concurrent memoized build differs from Build (err %v)", err)
			}
		}()
	}
	wg.Wait()
}

// TestFingerprintCoversTokenizedFields guards the soundness of the memo
// key: changing any field vectorize reads must change the activity's
// fingerprint, or an edit would be served a stale term vector.
func TestFingerprintCoversTokenizedFields(t *testing.T) {
	acts := corpusActivities(t)
	const slug = "findsmallestcard"
	base := -1
	for i, a := range acts {
		if a.Slug == slug {
			base = i
		}
	}
	if base < 0 {
		t.Fatalf("corpus has no %s", slug)
	}
	// unused returns a corpus-wide value of a tag field that a lacks, so
	// the edited activity still validates.
	unused := func(field func(*activity.Activity) []string) string {
		var vals []string
		for _, other := range acts {
			vals = append(vals, field(other)...)
		}
		sort.Strings(vals)
		for _, v := range vals {
			if indexOf(field(acts[base]), v) < 0 {
				return v
			}
		}
		t.Fatalf("no unused tag value for %s", slug)
		return ""
	}
	addTag := func(field func(*activity.Activity) *[]string) func(*activity.Activity) {
		v := unused(func(a *activity.Activity) []string { return *field(a) })
		return func(a *activity.Activity) {
			*field(a) = append(append([]string(nil), *field(a)...), v)
		}
	}
	fields := map[string]func(*activity.Activity){
		"Title":         func(a *activity.Activity) { a.Title += " revised" },
		"Author":        func(a *activity.Activity) { a.Author += " and a coauthor" },
		"Details":       func(a *activity.Activity) { a.Details += "\n\nA further paragraph." },
		"Accessibility": func(a *activity.Activity) { a.Accessibility += " Also tactile." },
		"Assessment":    func(a *activity.Activity) { a.Assessment += " Plus a quiz." },
		"Variations": func(a *activity.Activity) {
			a.Variations = append(append([]string(nil), a.Variations...), "A timed variant.")
		},
		"CS2013":  addTag(func(a *activity.Activity) *[]string { return &a.CS2013 }),
		"TCPP":    addTag(func(a *activity.Activity) *[]string { return &a.TCPP }),
		"Courses": addTag(func(a *activity.Activity) *[]string { return &a.Courses }),
		"Senses":  addTag(func(a *activity.Activity) *[]string { return &a.Senses }),
		"Medium":  addTag(func(a *activity.Activity) *[]string { return &a.Medium }),
	}
	repo, err := core.New(acts)
	if err != nil {
		t.Fatal(err)
	}
	want := repo.ActivityFingerprint(slug)
	for name, change := range fields {
		edited := append([]*activity.Activity(nil), acts...)
		cp := *acts[base]
		change(&cp)
		edited[base] = &cp
		if vectorsEqual(vectorize(&cp), vectorize(acts[base])) {
			t.Errorf("%s: the edit does not change the term vector; pick another", name)
			continue
		}
		r, err := core.New(edited)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.ActivityFingerprint(slug) == want {
			t.Errorf("changing %s leaves ActivityFingerprint unchanged", name)
		}
	}
}

// vectorsEqual compares two term vectors as term -> tf maps.
func vectorsEqual(a, b *termVector) bool {
	if len(a.terms) != len(b.terms) {
		return false
	}
	m := make(map[string]float32, len(a.terms))
	for i, t := range a.terms {
		m[t] = a.tfs[i]
	}
	for i, t := range b.terms {
		if tf, ok := m[t]; !ok || tf != b.tfs[i] {
			return false
		}
	}
	return true
}

func indexOf(s []string, v string) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}
