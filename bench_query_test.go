package pdcunplugged_test

// Benchmarks for the /api/v1 query-serving subsystem: the cold render
// path (parse + search + encode on every request) and the
// generation-keyed cache hit path.

import (
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"pdcunplugged"
	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/query"
)

func queryBenchSnapshot(b testing.TB) *query.Snapshot {
	b.Helper()
	repo, err := pdcunplugged.Open()
	if err != nil {
		b.Fatal(err)
	}
	return query.NewSnapshot(repo)
}

// queryService builds a fresh query service (empty result cache) over
// one fixed snapshot.
func queryService(snap *query.Snapshot) *query.Service {
	return query.New(func() *query.Snapshot { return snap }, query.Options{})
}

func serveOnce(b testing.TB, h http.Handler, target string) {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s = %d: %s", target, rec.Code, rec.Body)
	}
}

func BenchmarkQueryServe(b *testing.B) {
	snap := queryBenchSnapshot(b)
	const target = "/api/v1/search?q=sorting+cards&limit=10"

	// cold: a fresh service per iteration, so every request renders.
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serveOnce(b, queryService(snap).Handler(), target)
		}
	})

	// cached: one warm service; every request is a generation-keyed hit.
	b.Run("cached", func(b *testing.B) {
		h := queryService(snap).Handler()
		serveOnce(b, h, target) // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, h, target)
		}
	})
}

// searchCacheLookups reads the search endpoint's result-cache counters.
func searchCacheLookups() (hit, miss float64) {
	for _, s := range obs.Default().Snapshot("pdcu_query_cache_total") {
		if s.Labels["endpoint"] != "search" {
			continue
		}
		switch s.Labels["result"] {
		case "hit":
			hit += s.Value
		case "miss":
			miss += s.Value
		}
	}
	return hit, miss
}

// TestQueryCachedSpeedup pins the acceptance bound: answering a repeated
// query from the generation-keyed cache is at least 10x faster than
// rendering it cold (a cache hit is a map lookup; a cold render
// tokenizes, walks postings, ranks and re-encodes). First it pins what
// makes the hit cheap without a clock: a repeat on one Service is
// counted as a hit, not a miss, and allocates less than a cold render.
// Then it times the two sides in alternating rounds and compares the
// best round of each, so a burst of machine load during one side's
// round cannot decide the ratio.
func TestQueryCachedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	snap := queryBenchSnapshot(t)
	const target = "/api/v1/search?q=sorting+cards&limit=10"
	// One parsed request serves every call (the handler only reads it),
	// so the timed loops hold the service's work, not the harness's.
	req := httptest.NewRequest(http.MethodGet, target, nil)
	serve := func(h http.Handler) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", target, rec.Code, rec.Body)
		}
	}
	cold := func() { serve(queryService(snap).Handler()) }
	warm := queryService(snap).Handler()
	serve(warm)
	cached := func() { serve(warm) }

	hit0, miss0 := searchCacheLookups()
	cached()
	hit1, miss1 := searchCacheLookups()
	if hit1-hit0 != 1 || miss1 != miss0 {
		t.Errorf("a repeated query moved hits by %v and misses by %v, want +1 and 0", hit1-hit0, miss1-miss0)
	}
	coldAllocs, cachedAllocs := testing.AllocsPerRun(20, cold), testing.AllocsPerRun(20, cached)
	if cachedAllocs >= coldAllocs {
		t.Errorf("cached path allocates %.0f/op, cold %.0f/op: want fewer on a hit", cachedAllocs, coldAllocs)
	}

	// A round runs long enough to include its share of garbage
	// collection, which the cold side's allocations mostly pay for.
	perOp := func(f func()) time.Duration {
		start := time.Now()
		n := 0
		for ; time.Since(start) < 40*time.Millisecond; n++ {
			f()
		}
		return time.Since(start) / time.Duration(n)
	}
	// One P: the collector's background work then runs on the timed
	// thread instead of hiding on an idle core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 6
	coldNs, cachedNs := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		coldNs = min(coldNs, perOp(cold))
		cachedNs = min(cachedNs, perOp(cached))
	}
	if cachedNs <= 0 || coldNs < 10*cachedNs {
		t.Errorf("best rounds: cached %v/op vs cold %v/op: want >= 10x speedup", cachedNs, coldNs)
	}
	t.Logf("best of %d rounds: cold %v/op, cached %v/op (%.1fx); allocs cold %.0f, cached %.0f",
		rounds, coldNs, cachedNs, float64(coldNs)/float64(cachedNs), coldAllocs, cachedAllocs)
}
