package search

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/curation"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("The Quick-Brown FOX jumps; over 2 logs!")
	want := []string{"quick", "brown", "quickbrown", "fox", "jumps", "over", "logs"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
	if got := Tokenize("a an the of"); got != nil {
		t.Errorf("stop words survived: %v", got)
	}
	if got := Tokenize(""); got != nil {
		t.Errorf("empty input: %v", got)
	}
	if got := Tokenize("PD_ParallelDecomposition"); !reflect.DeepEqual(got, []string{"pd", "paralleldecomposition"}) {
		t.Errorf("tag tokenization: %v", got)
	}
}

func TestTokenizeNeverPanicsAndLowercases(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok != strings.ToLower(tok) || len(tok) < 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func corpusIndex(t *testing.T) *Index {
	t.Helper()
	return Build(curation.Activities())
}

func TestSearchCorpus(t *testing.T) {
	ix := corpusIndex(t)
	if ix.Len() != 38 {
		t.Fatalf("indexed %d docs", ix.Len())
	}
	if ix.Vocabulary() < 300 {
		t.Errorf("vocabulary = %d, suspiciously small", ix.Vocabulary())
	}
	hits := ix.Search("byzantine generals traitors", 5)
	if len(hits) == 0 || hits[0].Slug != "byzantine-generals" {
		t.Errorf("byzantine query: %+v", hits)
	}
	hits = ix.Search("sorting cards", 0)
	if len(hits) < 4 {
		t.Errorf("sorting cards found only %d hits", len(hits))
	}
	top := map[string]bool{}
	for _, h := range hits[:4] {
		top[h.Slug] = true
	}
	if !top["cardsort-parallel"] && !top["findsmallestcard"] && !top["oddeven-transposition"] {
		t.Errorf("card-sorting family not ranked near the top: %+v", hits[:4])
	}
}

func TestSearchRankingPrefersTitleHits(t *testing.T) {
	a := &activity.Activity{Slug: "title-hit", Title: "Jigsaw Everything", Author: "A", Details: "nothing relevant"}
	b := &activity.Activity{Slug: "detail-hit", Title: "Other", Author: "B", Details: "jigsaw jigsaw mentioned here in passing text"}
	ix := Build([]*activity.Activity{a, b})
	hits := ix.Search("jigsaw", 0)
	if len(hits) != 2 || hits[0].Slug != "title-hit" {
		t.Errorf("ranking = %+v", hits)
	}
}

func TestSearchLimitsAndMisses(t *testing.T) {
	ix := corpusIndex(t)
	if hits := ix.Search("zzzznonexistent", 0); len(hits) != 0 {
		t.Errorf("nonsense query hit: %+v", hits)
	}
	if hits := ix.Search("", 0); hits != nil {
		t.Errorf("empty query: %+v", hits)
	}
	if hits := ix.Search("parallel", 3); len(hits) != 3 {
		t.Errorf("limit ignored: %d hits", len(hits))
	}
}

func TestSearchDeterministicOrder(t *testing.T) {
	ix := corpusIndex(t)
	a := ix.Search("parallel students", 10)
	b := ix.Search("parallel students", 10)
	if !reflect.DeepEqual(a, b) {
		t.Error("same query returned different orders")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Score > a[i-1].Score {
			t.Error("hits not sorted by score")
		}
	}
}

func TestSuggest(t *testing.T) {
	ix := corpusIndex(t)
	sugg := ix.Suggest("sor", 0)
	found := false
	for _, s := range sugg {
		if s == "sort" || s == "sorting" || s == "sorted" {
			found = true
		}
	}
	if !found {
		t.Errorf("Suggest(sor) = %v", sugg)
	}
	if got := ix.Suggest("", 5); got != nil {
		t.Errorf("empty prefix: %v", got)
	}
	if got := ix.Suggest("par", 2); len(got) != 2 {
		t.Errorf("limit: %v", got)
	}
}

func TestTagSearchRanksTaxonomyTermsFirst(t *testing.T) {
	// "TCPP_Architecture" tokenizes to {tcpp, architecture}; every activity
	// matches the common "tcpp" token, but the architecture-tagged nine
	// must dominate the ranking.
	ix := corpusIndex(t)
	archTagged := map[string]bool{}
	for _, a := range curation.Activities() {
		for _, term := range a.TCPP {
			if term == "TCPP_Architecture" {
				archTagged[a.Slug] = true
			}
		}
	}
	hits := ix.Search("TCPP_Architecture", 5)
	if len(hits) < 5 {
		t.Fatalf("only %d hits", len(hits))
	}
	for i, h := range hits {
		if !archTagged[h.Slug] {
			t.Errorf("hit %d (%s) is not architecture-tagged", i, h.Slug)
		}
	}
}

func TestTokenizeHyphenCompounds(t *testing.T) {
	// The parts of a hyphenated compound are kept AND the joined form is
	// added, so "odd-even" matches documents written either way.
	got := Tokenize("odd-even transposition")
	want := []string{"odd", "even", "oddeven", "transposition"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
	// Multi-hyphen runs join across every part.
	got = Tokenize("first-come-first-served")
	want = []string{"first", "come", "first", "served", "firstcomefirstserved"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
	// The joined form passes the same filters as any token, and it is what
	// rescues compounds whose parts are filtered out: "e-mail" drops the
	// one-letter "e" but still indexes under "email".
	if got := Tokenize("e-mail"); !reflect.DeepEqual(got, []string{"mail", "email"}) {
		t.Errorf("e-mail: %v", got)
	}
	// A trailing or leading hyphen is punctuation, not a compound.
	if got := Tokenize("-odd even-"); !reflect.DeepEqual(got, []string{"odd", "even"}) {
		t.Errorf("dangling hyphens: %v", got)
	}
	// Normalization is idempotent: re-tokenizing the joined token stream
	// yields the same tokens, which the query cache key depends on.
	joined := strings.Join(Tokenize("odd-even transposition"), " ")
	if !reflect.DeepEqual(Tokenize(joined), Tokenize(strings.Join(Tokenize(joined), " "))) {
		t.Errorf("tokenization not idempotent for %q", joined)
	}
}

func TestCompoundQueryRanksTranspositionFirst(t *testing.T) {
	ix := corpusIndex(t)
	hits := ix.Search("odd-even", 5)
	if len(hits) == 0 || hits[0].Slug != "oddeven-transposition" {
		t.Errorf(`Search("odd-even") = %+v, want oddeven-transposition first`, hits)
	}
}
