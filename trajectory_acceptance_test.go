package pdcunplugged_test

// Deterministic acceptance check for the search/3 rewrite: it reads
// only the committed BENCH_search.json — no timers, no benchmarks — so
// it holds the trajectory file itself to the PR's acceptance criteria
// on every test run, on any machine.

import (
	"testing"

	"pdcunplugged/internal/bench"
	"pdcunplugged/internal/search"
)

func TestBenchTrajectoryAcceptance(t *testing.T) {
	traj, err := bench.LoadTrajectory(benchTrajectoryPath)
	if err != nil {
		t.Fatalf("committed trajectory missing: %v", err)
	}
	if len(traj.Records) < 2 {
		t.Fatalf("trajectory holds %d records, want the search/2 point and its successor", len(traj.Records))
	}
	if got := traj.Records[0].Engine; got != "search/2" {
		t.Errorf("first record engine = %q, want the pre-rewrite search/2 point kept as history", got)
	}
	latest := traj.Latest()
	if latest.Engine != search.EngineVersion {
		t.Fatalf("latest record engine = %q, binary speaks %q — re-record with PDCU_BENCH_SEARCH_RECORD=1",
			latest.Engine, search.EngineVersion)
	}

	old := traj.Records[0].Benchmarks
	cur := latest.Benchmarks
	// Acceptance 1: the cold query-serve path allocates at most half of
	// what the pre-rewrite engine did.
	if b, c := old["QueryServeCold"], cur["QueryServeCold"]; c.AllocsPerOp > b.AllocsPerOp/2 {
		t.Errorf("QueryServeCold allocs/op = %.0f, want <= half of the search/2 baseline %.0f",
			c.AllocsPerOp, b.AllocsPerOp)
	}
	// Acceptance 2: the filtered activities listing runs at least twice
	// as fast as it did on the inverted-map engine.
	if b, c := old["ActivitiesFilter"], cur["ActivitiesFilter"]; c.NsPerOp > b.NsPerOp/2 {
		t.Errorf("ActivitiesFilter ns/op = %.0f, want <= half of the search/2 baseline %.0f",
			c.NsPerOp, b.NsPerOp)
	}
	for _, name := range []string{"QueryServeCold", "SearchCold", "SearchTopK", "Suggest", "ActivitiesFilter", "FacetCounts"} {
		if _, ok := cur[name]; !ok {
			t.Errorf("latest record is missing benchmark %s", name)
		}
	}
}
