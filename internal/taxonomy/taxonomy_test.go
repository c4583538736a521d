package taxonomy

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

type fakeEntry struct {
	key   string
	terms map[string][]string
}

func (f fakeEntry) Key() string               { return f.key }
func (f fakeEntry) Terms(tax string) []string { return f.terms[tax] }
func entry(key string, terms map[string][]string) Entry {
	return fakeEntry{key: key, terms: terms}
}

func defs() []Def {
	return []Def{{Name: "courses", Title: "Courses"}, {Name: "senses", Title: "Senses", Hidden: true}}
}

func TestBuildAndLookup(t *testing.T) {
	ix, err := Build(defs(), []Entry{
		entry("b", map[string][]string{"courses": {"CS1", "CS2"}, "senses": {"visual"}}),
		entry("a", map[string][]string{"courses": {"CS1"}}),
		entry("c", map[string][]string{"senses": {"touch", "visual"}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.EntriesFor("courses", "CS1"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("CS1 entries = %v", got)
	}
	if got := ix.Count("senses", "visual"); got != 2 {
		t.Errorf("visual count = %d", got)
	}
	if got := ix.Terms("courses"); !reflect.DeepEqual(got, []string{"CS1", "CS2"}) {
		t.Errorf("terms = %v", got)
	}
	if got := ix.Keys(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("keys = %v", got)
	}
	if ix.Len() != 3 {
		t.Errorf("Len = %d", ix.Len())
	}
	if _, ok := ix.Entry("b"); !ok {
		t.Error("Entry(b) not found")
	}
	if _, ok := ix.Entry("zzz"); ok {
		t.Error("Entry(zzz) found")
	}
	if got := ix.EntriesFor("nope", "x"); got != nil {
		t.Errorf("unknown taxonomy = %v", got)
	}
}

// TestRequestPathReadsAllocateNothing: the shared accessors the query
// API serves from return index state without copying it.
func TestRequestPathReadsAllocateNothing(t *testing.T) {
	ix, err := Build(defs(), []Entry{
		entry("b", map[string][]string{"courses": {"CS1", "CS2"}}),
		entry("a", map[string][]string{"courses": {"CS1"}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := ix.Docs("courses", "CS1")
	if !ok || bs.Count() != 2 {
		t.Fatalf("Docs(courses, CS1) = %v, %v", bs, ok)
	}
	if _, ok := ix.Docs("courses", "DSA"); ok {
		t.Error("Docs found an unused term")
	}
	if _, ok := ix.Docs("nope", "CS1"); ok {
		t.Error("Docs found an unknown taxonomy")
	}
	if got := ix.SharedTerms("courses"); !reflect.DeepEqual(got, []string{"CS1", "CS2"}) {
		t.Errorf("SharedTerms = %v", got)
	}
	if ix.KeyOf(0) != "a" || ix.KeyOf(1) != "b" {
		t.Errorf("KeyOf = %q, %q; want key order", ix.KeyOf(0), ix.KeyOf(1))
	}
	allocs := testing.AllocsPerRun(100, func() {
		ix.Docs("courses", "CS2")
		ix.AllDocs()
		ix.SharedTerms("courses")
		ix.KeyOf(1)
		ix.Count("courses", "CS1")
	})
	if allocs != 0 {
		t.Errorf("request-path reads allocate %v times", allocs)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build([]Def{{Name: ""}}, nil); err == nil {
		t.Error("empty taxonomy name accepted")
	}
	if _, err := Build([]Def{{Name: "x"}, {Name: "x"}}, nil); err == nil {
		t.Error("duplicate taxonomy accepted")
	}
	if _, err := Build(defs(), []Entry{entry("", nil)}); err == nil {
		t.Error("empty entry key accepted")
	}
	if _, err := Build(defs(), []Entry{entry("a", nil), entry("a", nil)}); err == nil {
		t.Error("duplicate entry key accepted")
	}
	if _, err := Build(defs(), []Entry{entry("a", map[string][]string{"courses": {""}})}); err == nil {
		t.Error("empty term accepted")
	}
}

func TestWithAllWithAny(t *testing.T) {
	ix, err := Build(defs(), []Entry{
		entry("a", map[string][]string{"courses": {"CS1", "CS2"}}),
		entry("b", map[string][]string{"courses": {"CS2", "DSA"}}),
		entry("c", map[string][]string{"courses": {"CS1", "DSA"}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.WithAll("courses", "CS1", "CS2"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("WithAll = %v", got)
	}
	if got := ix.WithAny("courses", "CS1", "DSA"); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("WithAny = %v", got)
	}
	if got := ix.WithAll("courses"); len(got) != 3 {
		t.Errorf("WithAll() = %v", got)
	}
	if got := ix.WithAny("courses", "none"); len(got) != 0 {
		t.Errorf("WithAny(none) = %v", got)
	}
}

func TestPages(t *testing.T) {
	ix, err := Build(defs(), []Entry{
		entry("a", map[string][]string{"senses": {"visual"}}),
		entry("b", map[string][]string{"senses": {"touch", "visual"}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	pages := ix.Pages("senses")
	if len(pages) != 2 {
		t.Fatalf("pages = %+v", pages)
	}
	if pages[0].Term != "touch" || !reflect.DeepEqual(pages[0].Entries, []string{"b"}) {
		t.Errorf("page 0 = %+v", pages[0])
	}
	if pages[1].Term != "visual" || !reflect.DeepEqual(pages[1].Entries, []string{"a", "b"}) {
		t.Errorf("page 1 = %+v", pages[1])
	}
}

func TestStandardTaxonomies(t *testing.T) {
	std := Standard()
	if len(std) != 7 {
		t.Fatalf("expected 7 standard taxonomies, got %d", len(std))
	}
	visible, hidden := 0, 0
	names := map[string]bool{}
	for _, d := range std {
		names[d.Name] = true
		if d.Hidden {
			hidden++
		} else {
			visible++
		}
	}
	if visible != 4 || hidden != 3 {
		t.Errorf("visible=%d hidden=%d, paper specifies 4 visible + 3 hidden", visible, hidden)
	}
	for _, want := range []string{"cs2013", "tcpp", "courses", "senses", "cs2013details", "tcppdetails", "medium"} {
		if !names[want] {
			t.Errorf("missing standard taxonomy %q", want)
		}
	}
}

func TestSlug(t *testing.T) {
	cases := map[string]string{
		"PD_ParallelDecomposition": "pd-paralleldecomposition",
		"TCPP_Algorithms":          "tcpp-algorithms",
		"K_12":                     "k-12",
		"C_Speedup":                "c-speedup",
		"role-play":                "role-play",
		"  odd  ":                  "odd",
		"Weird!@#Term":             "weirdterm",
		"a__b":                     "a-b",
	}
	for in, want := range cases {
		if got := Slug(in); got != want {
			t.Errorf("Slug(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: the index is an exact inverse of entry term listings.
func TestIndexInverseProperty(t *testing.T) {
	f := func(raw [][3]uint8) bool {
		taxNames := []string{"courses", "senses"}
		termPool := []string{"CS1", "CS2", "DSA", "visual", "touch"}
		var entries []Entry
		want := map[string]map[string]map[string]bool{} // tax -> term -> key
		for i, r := range raw {
			if i >= 12 {
				break
			}
			key := string(rune('a' + i))
			terms := map[string][]string{}
			for axis := 0; axis < 2; axis++ {
				tax := taxNames[axis]
				seen := map[string]bool{}
				for bit := 0; bit < len(termPool); bit++ {
					if r[axis]&(1<<uint(bit)) != 0 {
						term := termPool[bit]
						if seen[term] {
							continue
						}
						seen[term] = true
						terms[tax] = append(terms[tax], term)
						if want[tax] == nil {
							want[tax] = map[string]map[string]bool{}
						}
						if want[tax][term] == nil {
							want[tax][term] = map[string]bool{}
						}
						want[tax][term][key] = true
					}
				}
			}
			entries = append(entries, entry(key, terms))
		}
		ix, err := Build(defs(), entries)
		if err != nil {
			return false
		}
		for tax, terms := range want {
			for term, keys := range terms {
				got := ix.EntriesFor(tax, term)
				var wantKeys []string
				for k := range keys {
					wantKeys = append(wantKeys, k)
				}
				sort.Strings(wantKeys)
				if !reflect.DeepEqual(got, wantKeys) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

type weightedEntry struct {
	fakeEntry
	weights map[string]int // "tax/term" -> weight
}

func (w weightedEntry) TermWeight(tax, term string) int { return w.weights[tax+"/"+term] }

func TestRankedEntries(t *testing.T) {
	ix, err := Build(defs(), []Entry{
		weightedEntry{fakeEntry{key: "low", terms: map[string][]string{"courses": {"CS1"}}}, map[string]int{"courses/CS1": 1}},
		weightedEntry{fakeEntry{key: "high", terms: map[string][]string{"courses": {"CS1"}}}, map[string]int{"courses/CS1": 9}},
		entry("plain", map[string][]string{"courses": {"CS1"}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := ix.RankedEntries("courses", "CS1")
	if !reflect.DeepEqual(got, []string{"high", "low", "plain"}) {
		t.Errorf("RankedEntries = %v", got)
	}
	// EntriesFor stays alphabetical.
	if got := ix.EntriesFor("courses", "CS1"); !reflect.DeepEqual(got, []string{"high", "low", "plain"}) {
		t.Errorf("EntriesFor = %v", got)
	}
	// Unweighted taxonomy falls back to key order.
	ix2, err := Build(defs(), []Entry{
		entry("b", map[string][]string{"senses": {"visual"}}),
		entry("a", map[string][]string{"senses": {"visual"}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix2.RankedEntries("senses", "visual"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("unweighted ranking = %v", got)
	}
}

// Property: WithAll and WithAny over two terms are the intersection and
// union of the terms' entry lists.
func TestSetOpsProperties(t *testing.T) {
	f := func(a, b []uint8) bool {
		terms := map[string][]string{} // key -> courses terms
		mk := func(xs []uint8, term string) []string {
			set := map[string]bool{}
			for _, x := range xs {
				key := string(rune('a' + int(x%20)))
				if !set[key] {
					set[key] = true
					terms[key] = append(terms[key], term)
				}
			}
			var out []string
			for k := range set {
				out = append(out, k)
			}
			sort.Strings(out)
			return out
		}
		sa, sb := mk(a, "A"), mk(b, "B")
		var entries []Entry
		for key, ts := range terms {
			entries = append(entries, entry(key, map[string][]string{"courses": ts}))
		}
		ix, err := Build(defs(), entries)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(ix.EntriesFor("courses", "A"), sa) || !reflect.DeepEqual(ix.EntriesFor("courses", "B"), sb) {
			return false
		}
		inter := ix.WithAll("courses", "A", "B")
		uni := ix.WithAny("courses", "A", "B")
		// |A∪B| + |A∩B| = |A| + |B|
		if len(uni)+len(inter) != len(sa)+len(sb) {
			return false
		}
		if !sort.StringsAreSorted(inter) || !sort.StringsAreSorted(uni) {
			return false
		}
		for _, x := range inter {
			i := sort.SearchStrings(sa, x)
			j := sort.SearchStrings(sb, x)
			if i >= len(sa) || sa[i] != x || j >= len(sb) || sb[j] != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAllDocsCoversCorpus: AllDocs holds every doc ID, and its doc IDs
// map back to the keys in key order.
func TestAllDocsCoversCorpus(t *testing.T) {
	var entries []Entry
	for i := 129; i >= 0; i-- { // more than two words, built in reverse
		entries = append(entries, entry(fmt.Sprintf("k%03d", i), nil))
	}
	ix, err := Build(defs(), entries)
	if err != nil {
		t.Fatal(err)
	}
	all := ix.AllDocs()
	if all.Count() != ix.Len() {
		t.Errorf("AllDocs covers %d of %d docs", all.Count(), ix.Len())
	}
	var keys []string
	all.ForEach(func(id uint32) { keys = append(keys, ix.KeyOf(id)) })
	if !reflect.DeepEqual(keys, ix.Keys()) || !sort.StringsAreSorted(keys) {
		t.Error("AllDocs iteration is not in key order")
	}
}
