package pdcunplugged_test

// The `make bench-index` gate: re-measure the search/index benchmark
// suite and compare it against the committed BENCH_search.json
// trajectory with noise-tolerant thresholds (bench.Gate).
// Re-record after an intentional performance change with
//
//	PDCU_BENCH_SEARCH_RECORD=1 go test -run TestSearchBenchGate -count=1 .
//
// which appends (or refines) a build-stamped record instead of
// overwriting the file — the committed trajectory is the per-PR
// performance history, so the pre-rewrite numbers stay visible next to
// the numbers that replaced them.

import (
	"os"
	"testing"

	"pdcunplugged/internal/bench"
	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/search"
)

const benchTrajectoryPath = "BENCH_search.json"

// gatedBenchmarks names the suite persisted to BENCH_search.json. Cold
// QueryServe is measured inline (the named subsets of BenchmarkQueryServe
// are not individually addressable), everything else reuses the
// benchmark functions from bench_search_test.go.
var gatedBenchmarks = []struct {
	name string
	fn   func(*testing.B)
}{
	{"QueryServeCold", benchQueryServeCold},
	{"SearchCold", BenchmarkSearchCold},
	{"SearchTopK", BenchmarkSearchTopK},
	{"Suggest", BenchmarkSuggest},
	{"ActivitiesFilter", BenchmarkActivitiesFilter},
	{"FacetCounts", BenchmarkFacetCounts},
}

// benchQueryServeCold is the cold render path of BenchmarkQueryServe: a
// fresh service per iteration so every request parses, searches, and
// encodes. Its allocs/op is the headline number of the rewrite.
func benchQueryServeCold(b *testing.B) {
	snap := queryBenchSnapshot(b)
	const target = "/api/v1/search?q=sorting+cards&limit=10"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, queryService(snap).Handler(), target)
	}
}

// measureSuite runs every gated benchmark once via testing.Benchmark.
func measureSuite(t *testing.T) map[string]bench.Result {
	t.Helper()
	out := make(map[string]bench.Result, len(gatedBenchmarks))
	for _, gb := range gatedBenchmarks {
		r := testing.Benchmark(gb.fn)
		if r.N == 0 {
			t.Fatalf("benchmark %s did not run", gb.name)
		}
		out[gb.name] = bench.Result{
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
		}
		t.Logf("%-18s %10d ns/op %8d allocs/op %10d B/op",
			gb.name, r.NsPerOp(), r.AllocsPerOp(), r.AllocedBytesPerOp())
	}
	return out
}

// TestSearchBenchGate is the CI entry point wired through `make
// bench-index`: it fails with the violated metric named when a search
// benchmark regresses past the committed baseline.
func TestSearchBenchGate(t *testing.T) {
	if raceEnabled {
		t.Skip("benchmark gate skipped under the race detector's slowdown")
	}
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}

	cur := measureSuite(t)

	if os.Getenv("PDCU_BENCH_SEARCH_RECORD") != "" {
		bi := engine.ReadBuildInfo()
		rec := bench.Record{
			Engine: search.EngineVersion,
			Build: bench.Stamp{
				GoVersion: bi.GoVersion,
				Revision:  bi.Revision,
				Modified:  bi.Modified,
			},
			Benchmarks: cur,
		}
		traj, err := bench.AppendRecord(benchTrajectoryPath, rec)
		if err != nil {
			t.Fatalf("recording trajectory: %v", err)
		}
		t.Logf("recorded %s under engine %s (%d records)",
			benchTrajectoryPath, rec.Engine, len(traj.Records))
		return
	}

	traj, err := bench.LoadTrajectory(benchTrajectoryPath)
	if err != nil {
		t.Fatalf("no committed baseline: %v (record one with PDCU_BENCH_SEARCH_RECORD=1)", err)
	}
	base := traj.Latest()
	if base == nil {
		t.Fatalf("%s holds no records", benchTrajectoryPath)
	}
	if base.Engine != search.EngineVersion {
		t.Fatalf("baseline engine %s, binary speaks %s — re-record with PDCU_BENCH_SEARCH_RECORD=1",
			base.Engine, search.EngineVersion)
	}
	violations := bench.Gate(base, cur)
	for _, v := range violations {
		t.Error(v.String())
	}
	if len(violations) == 0 {
		t.Logf("bench-index gate passed against engine %s baseline", base.Engine)
	}
}
