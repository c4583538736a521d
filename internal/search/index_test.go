package search

// Tests for the search/3-only surfaces: fuzzy search, pre-tokenized
// search, scratch reuse and index stats.

import (
	"reflect"
	"testing"
)

func TestSearchFuzzyCorrectsTypos(t *testing.T) {
	ix := corpusIndex(t)
	exact := ix.Search("sorting cards", 5)
	if len(exact) == 0 {
		t.Fatal("exact query found nothing")
	}
	hits, fuzzed := ix.SearchFuzzy("sortng cards", 5)
	if !fuzzed {
		t.Fatal("typo query did not trigger fuzzy expansion")
	}
	if len(hits) == 0 {
		t.Fatal("fuzzy query found nothing")
	}
	top := map[string]bool{}
	for _, h := range hits {
		top[h.Slug] = true
	}
	if !top[exact[0].Slug] {
		t.Errorf("fuzzy top-5 %v missed the exact top hit %s", hits, exact[0].Slug)
	}
}

func TestSearchFuzzyExactQueryUnchanged(t *testing.T) {
	// When every token is in the vocabulary, fuzzy search is plain search:
	// identical hits, fuzzed=false.
	ix := corpusIndex(t)
	for _, q := range []string{"sorting cards", "byzantine generals", "parallel"} {
		want := ix.Search(q, 10)
		got, fuzzed := ix.SearchFuzzy(q, 10)
		if fuzzed {
			t.Errorf("SearchFuzzy(%q) expanded an exact query", q)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("SearchFuzzy(%q) = %v, Search = %v", q, got, want)
		}
	}
}

func TestSearchFuzzyPenalty(t *testing.T) {
	// A corrected typo scores exactly half of the exact token: with a
	// single-token query the whole score scales by fuzzyPenalty.
	ix := corpusIndex(t)
	exact := ix.Search("byzantine", 0)
	fuzzy, fuzzed := ix.SearchFuzzy("byzantin", 0)
	if !fuzzed || len(fuzzy) == 0 {
		t.Fatalf("fuzzed=%v hits=%d", fuzzed, len(fuzzy))
	}
	// Every doc reached only via the "byzantine" expansion scores at the
	// penalty ratio.
	exactScore := map[string]float64{}
	for _, h := range exact {
		exactScore[h.Slug] = h.Score
	}
	for _, h := range fuzzy {
		want, ok := exactScore[h.Slug]
		if !ok {
			continue // reached via a different distance-1 neighbor
		}
		if h.Score > want*fuzzyPenalty+1e-12 || h.Score < want*fuzzyPenalty/2 {
			t.Errorf("%s: fuzzy score %v, exact %v (penalty %v)", h.Slug, h.Score, want, fuzzyPenalty)
		}
	}
}

func TestSearchFuzzyMissStaysMiss(t *testing.T) {
	ix := corpusIndex(t)
	hits, fuzzed := ix.SearchFuzzy("zzzznonexistent", 0)
	if fuzzed || len(hits) != 0 {
		t.Errorf("nonsense query: fuzzed=%v hits=%+v", fuzzed, hits)
	}
}

func TestIndexStats(t *testing.T) {
	ix := corpusIndex(t)
	st := ix.Stats()
	if st.Docs != ix.Len() || st.Vocabulary != ix.Vocabulary() {
		t.Errorf("stats shape: %+v", st)
	}
	if st.Postings <= 0 || st.PostingsBytes <= 0 {
		t.Errorf("stats sizes not positive: %+v", st)
	}
	if st.BuildSeconds <= 0 {
		t.Errorf("build duration missing: %+v", st)
	}
	// The gauges follow the most recent build.
	if got := indexDocsGauge.With().Value(); got != float64(st.Docs) {
		t.Errorf("docs gauge = %v, want %d", got, st.Docs)
	}
	if got := indexVocabGauge.With().Value(); got != float64(st.Vocabulary) {
		t.Errorf("vocabulary gauge = %v, want %d", got, st.Vocabulary)
	}
}

func TestSearchTokensMatchesSearch(t *testing.T) {
	ix := corpusIndex(t)
	for _, q := range []string{"sorting cards", "odd-even transposition", "parallel"} {
		if got, want := ix.SearchTokens(Tokenize(q), 10), ix.Search(q, 10); !reflect.DeepEqual(got, want) {
			t.Errorf("SearchTokens(%q) = %v, Search = %v", q, got, want)
		}
	}
	if hits := ix.SearchTokens(nil, 10); hits != nil {
		t.Errorf("nil tokens: %+v", hits)
	}
}

func TestScratchPoolReuseIsClean(t *testing.T) {
	// Back-to-back different queries must not leak scores between runs;
	// run enough queries to cycle pooled scratches.
	ix := corpusIndex(t)
	want := ix.Search("byzantine", 0)
	for i := 0; i < 50; i++ {
		ix.Search("sorting cards parallel students race", 7)
		got := ix.Search("byzantine", 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: scratch leaked state: %+v vs %+v", i, got, want)
		}
	}
}
