package replica

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/curation"
	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/query"
	"pdcunplugged/internal/taxonomy"
)

// seededSource writes n variants of curated activities to a temp dir.
// Each keeps its base's curriculum tags (which its details must agree
// with) under a new slug, and draws its courses, senses and mediums
// from the seed, so the term index meets combinations the curated
// corpus does not have.
func seededSource(t testing.TB, n int, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	draw := func(terms []string) []string {
		k := 1 + rng.Intn(min(3, len(terms)))
		out := make([]string, k)
		for i, j := range rng.Perm(len(terms))[:k] {
			out[i] = terms[j]
		}
		return out
	}
	dir := t.TempDir()
	base := curation.Activities()
	for i := 0; i < n; i++ {
		a := *base[rng.Intn(len(base))]
		a.Slug = fmt.Sprintf("%s-seeded-%02d", a.Slug, i)
		a.Courses = draw(activity.KnownCourses)
		a.Senses = draw(activity.KnownSenses)
		a.Medium = draw(activity.KnownMediums)
		if err := os.WriteFile(filepath.Join(dir, a.Slug+".md"), []byte(a.Render()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// facetTaxonomy maps the /api/v1/activities parameters to the term
// index's taxonomy names.
var facetTaxonomy = map[string]string{
	"course": "courses",
	"cs2013": "cs2013",
	"medium": "medium",
	"sense":  "senses",
	"source": "source",
	"tcpp":   "tcpp",
}

// TestTermIndexMatchesNaiveScan holds the one term index to a filter
// over repo.All(), on a federated corpus (builtin, csinparallel and a
// seeded directory source) as the leader built it and as a follower
// decoded it from the snapshot: the query API's listings and facet
// counts, and every read of taxonomy.Index, must equal the naive scan.
func TestTermIndexMatchesNaiveScan(t *testing.T) {
	cfg := engine.Defaults()
	cfg.Rate = 0
	cfg.Catalogs = engine.CatalogList{"builtin", "csinparallel"}
	cfg.Srcs = engine.SourceList{{Name: "seeded", Path: seededSource(t, 40, 28)}}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := eng.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(leader)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := leader.Repo.Sources(); !reflect.DeepEqual(got, []string{"builtin", "csinparallel", "seeded"}) {
		t.Fatalf("sources = %v, want the three federated sources", got)
	}
	for _, g := range []struct {
		name string
		gen  *engine.Generation
	}{{"leader", leader}, {"decoded", decoded}} {
		t.Run(g.name, func(t *testing.T) { checkTermIndex(t, g.gen) })
	}
}

func checkTermIndex(t *testing.T, g *engine.Generation) {
	repo, snap := g.Repo, g.Snapshot()
	all := repo.All()
	carries := func(a *activity.Activity, tax, term string) bool {
		return slices.Contains(a.Terms(tax), term)
	}
	// naive returns the slugs of the activities matching every filter.
	naive := func(filters map[string]string) []string {
		var out []string
		for _, a := range all {
			ok := true
			for param, term := range filters {
				ok = ok && carries(a, facetTaxonomy[param], term)
			}
			if ok {
				out = append(out, a.Slug)
			}
		}
		return out
	}
	naiveTerms := func(tax string) []string {
		seen := map[string]bool{}
		for _, a := range all {
			for _, term := range a.Terms(tax) {
				seen[term] = true
			}
		}
		out := make([]string, 0, len(seen))
		for term := range seen {
			out = append(out, term)
		}
		sort.Strings(out)
		return out
	}
	listed := func(filters map[string]string) []string {
		resp := query.Activities(snap, filters)
		var out []string
		for _, s := range resp.Activities {
			out = append(out, s.Slug)
		}
		if resp.Count != len(out) {
			t.Errorf("Activities(%v) count %d, lists %d", filters, resp.Count, len(out))
		}
		return out
	}

	// Every single (facet, term) pair, plus an unknown term per facet.
	var singles [][2]string
	params := make([]string, 0, len(facetTaxonomy))
	for param := range facetTaxonomy {
		params = append(params, param)
	}
	sort.Strings(params)
	for _, param := range params {
		for _, term := range naiveTerms(facetTaxonomy[param]) {
			singles = append(singles, [2]string{param, term})
		}
		if got := listed(map[string]string{param: "NoSuchTerm"}); len(got) != 0 {
			t.Errorf("%s=NoSuchTerm lists %v", param, got)
		}
	}
	if got, want := listed(nil), naive(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("unfiltered listing = %d activities, want %d", len(got), len(want))
	}
	for _, s := range singles {
		f := map[string]string{s[0]: s[1]}
		if got, want := listed(f), naive(f); !reflect.DeepEqual(got, want) {
			t.Errorf("Activities(%v) = %v, want %v", f, got, want)
		}
	}
	// A seeded sample of multi-facet filters (a repeated facet keeps
	// its last term, as a map does).
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		f := map[string]string{}
		for k := 2 + rng.Intn(2); k > 0; k-- {
			s := singles[rng.Intn(len(singles))]
			f[s[0]] = s[1]
		}
		if got, want := listed(f), naive(f); !reflect.DeepEqual(got, want) {
			t.Errorf("Activities(%v) = %v, want %v", f, got, want)
		}
	}

	facets := query.Facets(snap)
	if facets.Activities != len(all) {
		t.Errorf("Facets activities = %d, want %d", facets.Activities, len(all))
	}
	for _, param := range params {
		want := map[string]int{}
		for _, term := range naiveTerms(facetTaxonomy[param]) {
			want[term] = len(naive(map[string]string{param: term}))
		}
		if got := facets.Facets[param]; !reflect.DeepEqual(got, want) {
			t.Errorf("Facets[%s] = %v, want %v", param, got, want)
		}
	}

	// The taxonomy.Index reads, over every taxonomy the repository indexes.
	ix := repo.Index()
	if got := ix.Keys(); !reflect.DeepEqual(got, repo.Slugs()) {
		t.Errorf("index keys differ from the repository's slug order")
	}
	for _, def := range append(taxonomy.Standard(), taxonomy.Def{Name: "source"}) {
		tax := def.Name
		terms := naiveTerms(tax)
		if got := ix.Terms(tax); !reflect.DeepEqual(got, terms) {
			t.Errorf("Terms(%s) = %v, want %v", tax, got, terms)
		}
		carrying := func(term string) []string {
			var out []string
			for _, a := range all {
				if carries(a, tax, term) {
					out = append(out, a.Slug)
				}
			}
			return out
		}
		for _, term := range terms {
			want := carrying(term)
			if got := ix.EntriesFor(tax, term); !reflect.DeepEqual(got, want) {
				t.Errorf("EntriesFor(%s, %s) = %v, want %v", tax, term, got, want)
			}
			if got := ix.Count(tax, term); got != len(want) {
				t.Errorf("Count(%s, %s) = %d, want %d", tax, term, got, len(want))
			}
		}
		if len(terms) == 0 {
			continue
		}
		for i := 0; i < 40; i++ {
			pick := []string{terms[rng.Intn(len(terms))], terms[rng.Intn(len(terms))], terms[rng.Intn(len(terms))]}[:1+rng.Intn(3)]
			var wantAll, wantAny []string
			for _, a := range all {
				n := 0
				for _, term := range pick {
					if carries(a, tax, term) {
						n++
					}
				}
				if n == len(pick) {
					wantAll = append(wantAll, a.Slug)
				}
				if n > 0 {
					wantAny = append(wantAny, a.Slug)
				}
			}
			if got := ix.WithAll(tax, pick...); !reflect.DeepEqual(got, wantAll) {
				t.Errorf("WithAll(%s, %v) = %v, want %v", tax, pick, got, wantAll)
			}
			if got := ix.WithAny(tax, pick...); !reflect.DeepEqual(got, wantAny) {
				t.Errorf("WithAny(%s, %v) = %v, want %v", tax, pick, got, wantAny)
			}
		}
	}
	for _, src := range repo.Sources() {
		if got, want := repo.BySource(src), fromSource(all, src); !reflect.DeepEqual(got, want) || repo.SourceLen(src) != len(want) {
			t.Errorf("BySource(%s) = %v (len %d), want %v", src, got, repo.SourceLen(src), want)
		}
	}
}

// fromSource returns the slugs of the activities a source contributed.
func fromSource(all []*activity.Activity, source string) []string {
	var out []string
	for _, a := range all {
		if a.Source == source {
			out = append(out, a.Slug)
		}
	}
	return out
}

// withIndexVersion returns a copy of snapshot bytes whose index section
// claims the given search snapshot version, its checksum recomputed so
// only the version is wrong.
func withIndexVersion(t *testing.T, data []byte, version uint16) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	pos := len(magic)
	for i, name := range sectionNames {
		pos += 4 + len(name)
		n := int(binary.LittleEndian.Uint32(out[pos:]))
		crcAt := pos + 4
		payload := out[crcAt+4 : crcAt+4+n]
		if i == len(sectionNames)-1 {
			binary.LittleEndian.PutUint16(payload, version)
			binary.LittleEndian.PutUint32(out[crcAt:], crc32.ChecksumIEEE(payload))
		}
		pos = crcAt + 4 + n
	}
	return out
}

// TestColdStartRefusesIndexV1: a cached snapshot whose index section is
// search snapshot version 1 (it carried per-term bitsets) is refused by
// Load with the search version error and counted rejected, never
// served. As Load's contract says, the node then builds instead: its
// rebuild publishes the same generation, and saving that makes the
// cache loadable again.
func TestColdStartRefusesIndexV1(t *testing.T) {
	src := corpusDir(t, 2)
	gen := buildGen(t, src)
	data, err := Encode(gen)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(dir, withIndexVersion(t, data, 1)); err != nil {
		t.Fatal(err)
	}
	rejected := coldStarts.With("rejected").Value()
	g, raw, err := Load(dir)
	if err == nil || !strings.Contains(err.Error(), "search: snapshot version 1, want 2") {
		t.Fatalf("Load(index v1) err = %v, want the search snapshot version error", err)
	}
	if g != nil || raw != nil {
		t.Error("Load returned a generation alongside its error")
	}
	if got := coldStarts.With("rejected").Value(); got != rejected+1 {
		t.Errorf("rejected cold starts = %v, want %v", got, rejected+1)
	}

	eng := newEngine(t, src)
	rebuilt, err := eng.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.ID != gen.ID {
		t.Errorf("fallback rebuild published %q, want %q", rebuilt.ID, gen.ID)
	}
	fresh, err := Encode(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(dir, fresh); err != nil {
		t.Fatal(err)
	}
	if g, _, err := Load(dir); err != nil || g.ID != gen.ID {
		t.Fatalf("Load after re-save = (%v, %v), want generation %q", g, err, gen.ID)
	}
}
