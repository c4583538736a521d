package pdcunplugged_test

// Benchmarks for the search/index core: the cold scoring loop, top-k
// ranking, prefix suggestion, and the faceted /api/v1/activities filter
// path. These are the benchmarks whose results persist to
// BENCH_search.json and are regression-gated by `make bench-index`
// (bench_index_gate_test.go); keep their names and shapes stable so the
// committed trajectory stays comparable across PRs.

import (
	"testing"

	"pdcunplugged"
	"pdcunplugged/internal/curation"
	"pdcunplugged/internal/query"
	"pdcunplugged/internal/search"
)

// benchQueries rotates realistic corpus queries through the scoring
// loop: common terms, multi-token queries, a hyphenated compound, a
// taxonomy tag, and one guaranteed miss.
var benchQueries = []string{
	"parallel sort",
	"sorting cards",
	"byzantine generals traitors",
	"message passing deadlock",
	"odd-even transposition",
	"pipeline throughput",
	"TCPP_Architecture",
	"quantum zebra",
}

// benchFilters is the faceted listing the filtered-path benchmark
// exercises: two facets, so the intersection actually narrows.
var benchFilters = map[string]string{"course": "CS1", "sense": "touch"}

func BenchmarkSearchCold(b *testing.B) {
	snap := queryBenchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := snap.Index.Search(benchQueries[i%len(benchQueries)], 0); i%len(benchQueries) == 0 && len(hits) == 0 {
			b.Fatal("no hits for a corpus query")
		}
	}
}

func BenchmarkSearchTopK(b *testing.B) {
	snap := queryBenchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Index.Search(benchQueries[i%len(benchQueries)], 10)
	}
}

func BenchmarkSuggest(b *testing.B) {
	snap := queryBenchSnapshot(b)
	prefixes := []string{"par", "sor", "de", "me"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := snap.Index.Suggest(prefixes[i%len(prefixes)], 5); len(out) == 0 {
			b.Fatal("no suggestions for a corpus prefix")
		}
	}
}

func BenchmarkActivitiesFilter(b *testing.B) {
	snap := queryBenchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := query.Activities(snap, benchFilters); resp.Count == 0 {
			b.Fatal("filtered listing came back empty")
		}
	}
}

func BenchmarkFacetCounts(b *testing.B) {
	snap := queryBenchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := query.Facets(snap); len(resp.Facets) == 0 {
			b.Fatal("no facets")
		}
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	repo, err := pdcunplugged.Open()
	if err != nil {
		b.Fatal(err)
	}
	acts := repo.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix := search.Build(acts); ix.Len() != len(acts) {
			b.Fatal("index lost documents")
		}
	}
}

// BenchmarkIndexRebuildTouchOne is the index half of a one-file publish:
// a memoized builder alternating between the corpus and a copy with one
// activity edited, so every build tokenizes exactly one document and
// assembles the index from the rest of the memo.
func BenchmarkIndexRebuildTouchOne(b *testing.B) {
	files := curation.Files()
	touched := curation.Files()
	touched["findsmallestcard"] += "\n- Index rebuild benchmark citation.\n"
	var repos [2]*pdcunplugged.Repository
	for i, fs := range []map[string]string{files, touched} {
		repo, err := pdcunplugged.Load(fs)
		if err != nil {
			b.Fatal(err)
		}
		repos[i] = repo
	}
	ib := search.NewBuilder()
	ib.Build(repos[1].All(), repos[1].ActivityFingerprint)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repo := repos[i%2]
		if ix := ib.Build(repo.All(), repo.ActivityFingerprint); ix.Len() != repo.Len() {
			b.Fatal("index lost documents")
		}
	}
}
