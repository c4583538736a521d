package search

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"pdcunplugged/internal/curation"
)

func testDict(terms ...string) dict {
	set := make(map[string]uint32, len(terms))
	for _, t := range terms {
		set[t] = 0
	}
	return buildDict(set)
}

func TestDictLookupAndPrefixRange(t *testing.T) {
	d := testDict("sort", "sorting", "sorted", "card", "cards", "deadlock")
	if d.len_() != 6 {
		t.Fatalf("len = %d", d.len_())
	}
	for _, term := range []string{"sort", "card", "deadlock"} {
		id, ok := d.lookup(term)
		if !ok || d.terms[id] != term {
			t.Errorf("lookup(%q) = %d, %v", term, id, ok)
		}
	}
	if _, ok := d.lookup("missing"); ok {
		t.Error("lookup found a missing term")
	}
	lo, hi := d.prefixRange("sort")
	if got := d.terms[lo:hi]; !reflect.DeepEqual(got, []string{"sort", "sorted", "sorting"}) {
		t.Errorf("prefixRange(sort) = %v", got)
	}
	if lo, hi := d.prefixRange("zz"); lo != hi {
		t.Errorf("prefixRange(zz) = [%d, %d)", lo, hi)
	}
	if lo, hi := d.prefixRange(""); hi-lo != d.len_() {
		t.Errorf("empty prefix covers [%d, %d) of %d", lo, hi, d.len_())
	}
}

func TestEditDistanceOne(t *testing.T) {
	yes := [][2]string{
		{"sort", "sore"},   // substitution
		{"sort", "sorts"},  // insertion at end
		{"sort", "ort"},    // deletion at front
		{"sort", "srt"},    // deletion inside
		{"sort", "port"},   // substitution at front
		{"sort", "s0rt"},   // substitution inside
		{"ab", "b"},        // deletion to one rune
		{"héllo", "hállo"}, // multibyte substitution
		{"éx", "ax"},       // multibyte first-rune substitution
		{"cat", "cart"},    // insertion inside
	}
	for _, p := range yes {
		if !editDistanceOne(p[0], p[1]) || !editDistanceOne(p[1], p[0]) {
			t.Errorf("editDistanceOne(%q, %q) = false, want true", p[0], p[1])
		}
	}
	no := [][2]string{
		{"sort", "sort"}, // identical is distance 0
		{"sort", "sopped"},
		{"sort", "so"},    // two deletions
		{"sort", "trots"}, // unrelated
		{"ab", "ba"},      // transposition is distance 2
		{"", ""},
	}
	for _, p := range no {
		if editDistanceOne(p[0], p[1]) || editDistanceOne(p[1], p[0]) {
			t.Errorf("editDistanceOne(%q, %q) = true, want false", p[0], p[1])
		}
	}
}

// bruteWithinOne is the oracle: full scan with the rune-wise checker.
func bruteWithinOne(d dict, term string) []int {
	var out []int
	for i, cand := range d.terms {
		if editDistanceOne(cand, term) {
			out = append(out, i)
		}
	}
	return out
}

func TestWithinOneMatchesBruteForce(t *testing.T) {
	d := testDict(
		"sort", "sorts", "sorted", "sore", "port", "fort", "ort", "srt",
		"card", "cards", "ard", "hard", "bard", "par", "parallel",
		"éx", "ax", "deadlock", "dead", "lock", "ab", "ba", "b",
	)
	probes := []string{
		"sort", "sord", "sortt", "ort", "card", "ard", "xard", "éx", "ax",
		"parallel", "paralel", "deadlok", "ab", "b", "zz", "cards",
	}
	for _, probe := range probes {
		want := bruteWithinOne(d, probe)
		got := d.withinOne(probe, nil)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			name := func(ids []int) []string {
				var out []string
				for _, id := range ids {
					out = append(out, d.terms[id])
				}
				return out
			}
			t.Errorf("withinOne(%q) = %v, brute force %v", probe, name(got), name(want))
		}
	}
}

func TestWithinOneOverCorpusVocabulary(t *testing.T) {
	ix := Build(curation.Activities())
	d := ix.dict
	// Probe with real vocabulary terms mutated into typos, plus a few
	// vocabulary terms verbatim (distance-0 must never be reported).
	probes := []string{"sortng", "paralell", "deadlok", "bizantine", "cardz", "pipelne"}
	for i := 0; i < d.len_(); i += 37 {
		probes = append(probes, d.terms[i])
	}
	for _, probe := range probes {
		want := bruteWithinOne(d, probe)
		got := d.withinOne(probe, nil)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("withinOne(%q) = %v, brute force %v", probe, got, want)
		}
		if !sort.IntsAreSorted(got) {
			t.Errorf("withinOne(%q) unsorted: %v", probe, got)
		}
		for _, id := range got {
			if d.terms[id] == probe {
				t.Errorf("withinOne(%q) reported the exact term", probe)
			}
		}
	}
}

func TestWithinOneFindsTypoNeighbors(t *testing.T) {
	ix := Build(curation.Activities())
	hits := ix.dict.withinOne("sortng", nil)
	found := false
	for _, id := range hits {
		if ix.dict.terms[id] == "sorting" {
			found = true
		}
	}
	if !found {
		var names []string
		for _, id := range hits {
			names = append(names, ix.dict.terms[id])
		}
		t.Errorf(`withinOne("sortng") = %v, want "sorting" among them`, names)
	}
}

func TestWithinOneAppendsToDst(t *testing.T) {
	d := testDict("sort", "sore", "bored")
	dst := []int{99}
	dst = d.withinOne("sord", dst)
	if len(dst) < 2 || dst[0] != 99 {
		t.Errorf("withinOne clobbered dst: %v", dst)
	}
	if !sort.IntsAreSorted(dst[1:]) {
		t.Errorf("appended IDs unsorted: %v", dst[1:])
	}
}

func TestLenWithinOne(t *testing.T) {
	// The filter admits any byte-length delta a single rune edit could
	// produce (up to utf8.UTFMax) and rejects everything farther apart.
	if !lenWithinOne("ab", "abc") || !lenWithinOne("abc", "ab") || !lenWithinOne("ab", "ab") {
		t.Error("lenWithinOne rejected lengths within 1")
	}
	if !lenWithinOne("ax", "a\U0001F600x") { // 4-byte rune inserted
		t.Error("lenWithinOne rejected a 4-byte insertion")
	}
	if lenWithinOne(strings.Repeat("x", 7), "x") || lenWithinOne("x", strings.Repeat("x", 7)) {
		t.Error("lenWithinOne accepted lengths beyond a single rune edit")
	}
}
