// Package taxonomy implements a Hugo-style taxonomy system: named
// classification axes (taxonomies) whose values (terms) are listed on content
// entries, with an inverted index that groups entries by term and renders
// term pages.
//
// PDCunplugged uses seven taxonomies — cs2013, tcpp, courses, senses and the
// hidden cs2013details, tcppdetails and medium — declared in Section II-B of
// the paper. The engine itself is generic: any entry type that can report
// its terms may be indexed, under any taxonomy definitions (the repository
// adds a hidden source dimension).
//
// The index is the one answer to "which entries carry term t": a doc-ID
// bitset per in-use term (bitset.go), doc IDs assigned in key order.
package taxonomy

import (
	"fmt"
	"sort"
	"strings"
)

// Entry is anything classifiable by taxonomies. Terms returns the terms the
// entry lists for the given taxonomy name (nil when none).
type Entry interface {
	// Key uniquely identifies the entry (activity slug).
	Key() string
	// Terms returns the entry's terms for one taxonomy.
	Terms(taxonomy string) []string
}

// Weighted is optionally implemented by entries that rank themselves
// within a term page, mirroring Hugo's taxonomy weights: entries with
// higher weight list first on the term's page, ties falling back to key
// order.
type Weighted interface {
	Entry
	// TermWeight returns the entry's weight for a term of a taxonomy
	// (0 when unranked).
	TermWeight(taxonomy, term string) int
}

// Def declares one taxonomy axis.
type Def struct {
	// Name is the key used in front matter, e.g. "cs2013".
	Name string
	// Title is the human-readable name shown on pages, e.g. "CS2013".
	Title string
	// Hidden taxonomies classify entries but are not shown in page headers
	// (cs2013details, tcppdetails, medium in the paper).
	Hidden bool
	// Color is the badge color class used when rendering headers; each
	// taxonomy is assigned a different color (Section II-B).
	Color string
}

// Standard returns the six PDCunplugged taxonomies in display order.
func Standard() []Def {
	return []Def{
		{Name: "cs2013", Title: "CS2013", Color: "badge-cs2013"},
		{Name: "tcpp", Title: "TCPP", Color: "badge-tcpp"},
		{Name: "courses", Title: "Courses", Color: "badge-courses"},
		{Name: "senses", Title: "Senses", Color: "badge-senses"},
		{Name: "cs2013details", Title: "CS2013 Details", Hidden: true, Color: "badge-cs2013"},
		{Name: "tcppdetails", Title: "TCPP Details", Hidden: true, Color: "badge-tcpp"},
		{Name: "medium", Title: "Medium", Hidden: true, Color: "badge-medium"},
	}
}

// Index is the inverted term index for a set of entries across a set of
// taxonomy definitions. Entries get doc IDs in key order, and every
// in-use term holds the Bitset of the doc IDs listing it, so a term's
// entries come out sorted by key, a count is a popcount and set algebra
// is word-wise AND and OR. The zero value is not usable; call Build.
type Index struct {
	keys    []string // doc ID -> key, ascending
	entries []Entry  // doc ID -> entry
	all     Bitset   // every doc ID
	tax     map[string]*termSets
}

// termSets is one taxonomy's in-use terms, sorted, each with its bitset.
type termSets struct {
	terms []string
	sets  []Bitset
}

// lookup returns the bitset of an exact term, or nil.
func (ts *termSets) lookup(term string) Bitset {
	i := sort.SearchStrings(ts.terms, term)
	if i < len(ts.terms) && ts.terms[i] == term {
		return ts.sets[i]
	}
	return nil
}

// Build indexes entries under the given taxonomy definitions. Empty or
// duplicate taxonomy names, empty or duplicate entry keys and empty
// terms are rejected.
func Build(defs []Def, entries []Entry) (*Index, error) {
	ix := &Index{
		entries: append([]Entry(nil), entries...),
		tax:     make(map[string]*termSets, len(defs)),
	}
	for _, d := range defs {
		if d.Name == "" {
			return nil, fmt.Errorf("taxonomy: empty taxonomy name")
		}
		if _, dup := ix.tax[d.Name]; dup {
			return nil, fmt.Errorf("taxonomy: duplicate taxonomy %q", d.Name)
		}
		ix.tax[d.Name] = &termSets{}
	}
	sort.Slice(ix.entries, func(i, j int) bool { return ix.entries[i].Key() < ix.entries[j].Key() })
	ix.keys = make([]string, len(ix.entries))
	for id, e := range ix.entries {
		key := e.Key()
		if key == "" {
			return nil, fmt.Errorf("taxonomy: entry with empty key")
		}
		if id > 0 && key == ix.keys[id-1] {
			return nil, fmt.Errorf("taxonomy: duplicate entry key %q", key)
		}
		ix.keys[id] = key
	}
	ix.all = fillBitset(len(ix.keys))
	// Term bitsets are carved from shared slabs of 64 sets each: a
	// corpus has a few hundred terms, and one allocation per term would
	// be most of the index's allocations.
	words := len(ix.all)
	var slab []uint64
	for _, d := range defs {
		byTerm := map[string]Bitset{}
		for id, e := range ix.entries {
			for _, term := range e.Terms(d.Name) {
				if term == "" {
					return nil, fmt.Errorf("taxonomy: entry %q has empty %s term", ix.keys[id], d.Name)
				}
				bs := byTerm[term]
				if bs == nil {
					if len(slab) < words {
						slab = make([]uint64, 64*words)
					}
					bs, slab = Bitset(slab[:words:words]), slab[words:]
					byTerm[term] = bs
				}
				bs.Set(uint32(id))
			}
		}
		ts := ix.tax[d.Name]
		ts.terms = make([]string, 0, len(byTerm))
		for term := range byTerm {
			ts.terms = append(ts.terms, term)
		}
		sort.Strings(ts.terms)
		ts.sets = make([]Bitset, len(ts.terms))
		for i, term := range ts.terms {
			ts.sets[i] = byTerm[term]
		}
	}
	return ix, nil
}

// Terms returns the sorted terms in use for a taxonomy (nil for an
// unknown taxonomy).
func (ix *Index) Terms(taxonomy string) []string {
	ts, ok := ix.tax[taxonomy]
	if !ok {
		return nil
	}
	return append(make([]string, 0, len(ts.terms)), ts.terms...)
}

// SharedTerms is Terms without the copy: the slice is shared index
// state, read-only, for request paths that must not allocate.
func (ix *Index) SharedTerms(taxonomy string) []string {
	if ts, ok := ix.tax[taxonomy]; ok {
		return ts.terms
	}
	return nil
}

// Docs returns the doc-ID bitset of the entries listing a term, or
// (nil, false) when the taxonomy or the term is not in use. The set is
// shared index state, read-only: Clone it before mutating.
func (ix *Index) Docs(taxonomy, term string) (Bitset, bool) {
	ts, ok := ix.tax[taxonomy]
	if !ok {
		return nil, false
	}
	bs := ts.lookup(term)
	return bs, bs != nil
}

// AllDocs returns the bitset of every doc ID. It is shared index state,
// read-only: the filter idiom is AllDocs().Clone() followed by And.
func (ix *Index) AllDocs() Bitset { return ix.all }

// KeyOf returns the key of a doc ID. Doc IDs are positions in key
// order, so KeyOf(i) is the i-th element of Keys.
func (ix *Index) KeyOf(id uint32) string { return ix.keys[id] }

// keysOf returns the keys of a set's doc IDs in key order, nil when the
// set is empty.
func (ix *Index) keysOf(bs Bitset) []string {
	n := bs.Count()
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	bs.ForEach(func(id uint32) { out = append(out, ix.keys[id]) })
	return out
}

// EntriesFor returns the sorted entry keys listing the given term.
func (ix *Index) EntriesFor(taxonomy, term string) []string {
	bs, _ := ix.Docs(taxonomy, term)
	return ix.keysOf(bs)
}

// Count returns the number of entries listing the term.
func (ix *Index) Count(taxonomy, term string) int {
	bs, _ := ix.Docs(taxonomy, term)
	return bs.Count()
}

// Entry returns an indexed entry by key.
func (ix *Index) Entry(key string) (Entry, bool) {
	i := sort.SearchStrings(ix.keys, key)
	if i < len(ix.keys) && ix.keys[i] == key {
		return ix.entries[i], true
	}
	return nil, false
}

// Keys returns all entry keys, sorted.
func (ix *Index) Keys() []string { return append([]string(nil), ix.keys...) }

// Len returns the number of indexed entries.
func (ix *Index) Len() int { return len(ix.keys) }

// WithAll returns the sorted keys of entries that list every given term of
// the taxonomy (intersection); an empty term list selects all entries.
func (ix *Index) WithAll(taxonomy string, terms ...string) []string {
	if len(terms) == 0 {
		return ix.Keys()
	}
	acc := ix.all.Clone()
	for _, t := range terms {
		bs, ok := ix.Docs(taxonomy, t)
		if !ok {
			return nil
		}
		acc.And(bs)
	}
	return ix.keysOf(acc)
}

// WithAny returns the sorted keys of entries listing at least one of the
// terms (union).
func (ix *Index) WithAny(taxonomy string, terms ...string) []string {
	acc := NewBitset(len(ix.keys))
	for _, t := range terms {
		if bs, ok := ix.Docs(taxonomy, t); ok {
			acc.Or(bs)
		}
	}
	return ix.keysOf(acc)
}

// TermPage describes one term's page: the term and its entry keys.
type TermPage struct {
	Taxonomy string
	Term     string
	Entries  []string
}

// Pages returns one TermPage per in-use term of the taxonomy, sorted by term.
func (ix *Index) Pages(taxonomy string) []TermPage {
	ts, ok := ix.tax[taxonomy]
	if !ok {
		return nil
	}
	var pages []TermPage
	for i, t := range ts.terms {
		pages = append(pages, TermPage{Taxonomy: taxonomy, Term: t, Entries: ix.keysOf(ts.sets[i])})
	}
	return pages
}

// RankedEntries returns the term's entry keys ordered by descending weight
// for entries implementing Weighted (key order breaks ties and orders
// unweighted entries).
func (ix *Index) RankedEntries(taxonomy, term string) []string {
	keys := ix.EntriesFor(taxonomy, term)
	weight := func(key string) int {
		e, _ := ix.Entry(key)
		if w, ok := e.(Weighted); ok {
			return w.TermWeight(taxonomy, term)
		}
		return 0
	}
	sort.SliceStable(keys, func(i, j int) bool {
		wi, wj := weight(keys[i]), weight(keys[j])
		if wi != wj {
			return wi > wj
		}
		return keys[i] < keys[j]
	})
	return keys
}

// Slug converts a term to a URL path segment the way Hugo does: lower-case,
// spaces and underscores to hyphens, other punctuation dropped.
func Slug(term string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(term) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '_' || r == '-':
			b.WriteRune('-')
		}
	}
	s := b.String()
	for strings.Contains(s, "--") {
		s = strings.ReplaceAll(s, "--", "-")
	}
	return strings.Trim(s, "-")
}
