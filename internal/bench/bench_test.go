package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func baseRecord() *Record {
	return &Record{
		Engine: "search/3",
		Benchmarks: map[string]Result{
			"SearchCold":     {NsPerOp: 1000, AllocsPerOp: 9, BytesPerOp: 800},
			"QueryServeCold": {NsPerOp: 80000, AllocsPerOp: 80, BytesPerOp: 60000},
		},
	}
}

// TestGate pins the one rule, fail when current > max(base × factor,
// floor), through the trajectory gate's thresholds.
func TestGate(t *testing.T) {
	base := baseRecord()
	for _, tc := range []struct {
		name string
		cur  map[string]Result
		want []string // violated metrics, in order
	}{
		{"identical numbers pass", base.Benchmarks, nil},
		{"under the floor passes", map[string]Result{
			// 15x the ns baseline but under the 20µs floor; allocs and
			// bytes past their factors but under their floors.
			"SearchCold": {NsPerOp: 15000, AllocsPerOp: 20, BytesPerOp: 4000},
		}, nil},
		{"above factor and floor fails", map[string]Result{
			"SearchCold": {NsPerOp: 1000, AllocsPerOp: 40, BytesPerOp: 800},
		}, []string{"SearchCold:allocs_per_op"}},
		{"every metric of a benchmark can fail", map[string]Result{
			"QueryServeCold": {NsPerOp: 250000, AllocsPerOp: 105, BytesPerOp: 90001},
		}, []string{"QueryServeCold:ns_per_op", "QueryServeCold:allocs_per_op", "QueryServeCold:bytes_per_op"}},
		{"a benchmark on one side only is skipped", map[string]Result{
			"NewBenchmark": {NsPerOp: 1e9, AllocsPerOp: 1e6, BytesPerOp: 1e9},
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			for _, v := range Gate(base, tc.cur) {
				got = append(got, v.Metric)
				if !strings.Contains(v.String(), v.Metric) || v.Current <= v.Limit {
					t.Errorf("malformed violation: %s", v)
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("violations = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestAppendRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_search.json")
	rec := func(engine string, ns float64) Record {
		return Record{
			Engine:     engine,
			Build:      Stamp{GoVersion: "go1.x"},
			Benchmarks: map[string]Result{"SearchCold": {NsPerOp: ns}},
		}
	}
	steps := []struct {
		rec     Record
		engines []string
	}{
		{rec("search/2", 4000), []string{"search/2"}},             // absent file: a new trajectory
		{rec("search/3", 1000), []string{"search/2", "search/3"}}, // new engine: appends
		{rec("search/3", 900), []string{"search/2", "search/3"}},  // same engine: refines the last
	}
	for _, st := range steps {
		if _, err := AppendRecord(path, st.rec); err != nil {
			t.Fatalf("AppendRecord(%s): %v", st.rec.Engine, err)
		}
		traj, err := LoadTrajectory(path)
		if err != nil {
			t.Fatal(err)
		}
		var engines []string
		for _, r := range traj.Records {
			engines = append(engines, r.Engine)
		}
		if !reflect.DeepEqual(engines, st.engines) {
			t.Fatalf("after recording %s: engines %v, want %v", st.rec.Engine, engines, st.engines)
		}
		if !reflect.DeepEqual(*traj.Latest(), st.rec) {
			t.Fatalf("latest = %+v, want %+v", *traj.Latest(), st.rec)
		}
	}
	if (&Trajectory{}).Latest() != nil {
		t.Error("empty trajectory has a latest record")
	}
}

func TestReadRejects(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_search.json")
	if err := Write(path, &Trajectory{Schema: TrajectorySchema + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrajectory(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch not rejected: %v", err)
	}
	if _, err := AppendRecord(path, Record{Engine: "search/3"}); err == nil {
		t.Error("AppendRecord overwrote a trajectory of another schema")
	}
	if _, err := LoadTrajectory(filepath.Join(dir, "missing.json")); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v, want not-exist", err)
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrajectory(path); err == nil {
		t.Error("malformed JSON not rejected")
	}
}

// TestCommittedTrajectoryRoundTrips: the committed file loads and writes
// back byte-identical, so re-recording changes only the record it adds.
func TestCommittedTrajectoryRoundTrips(t *testing.T) {
	const committed = "../../BENCH_search.json"
	want, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	traj, err := LoadTrajectory(committed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_search.json")
	if err := Write(path, traj); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("committed trajectory does not round-trip byte-identical")
	}
}
