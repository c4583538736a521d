// Package bench persists committed benchmark baselines and gates fresh
// runs against them.
//
// Every gate rule has one shape: a measured number fails when it
// exceeds max(baseline × factor, floor). The factor absorbs CPU-class
// differences between machines and the floor absorbs scheduler noise on
// small numbers, so a baseline recorded on a fast machine still passes
// on a slower CI runner, while a real regression (a 3x slower query, a
// leaked allocation per request, an injected stall) fails.
//
// Two committed files use it. BENCH_search.json is a Trajectory: an
// append-only history of build-stamped records, one per intentional
// performance change, so the file itself is the performance history.
// BENCH_loadtest.json is one loadgen.Report, gated by loadgen.Gate.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
)

// Stamp records which binary produced a record, so a committed baseline
// is traceable to a commit and a Go toolchain.
type Stamp struct {
	Version   string `json:"version,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

// Violation is one failed gate rule. Metric names what regressed
// ("SearchCold:allocs_per_op", "latency:search", "slo:query-latency")
// so a red CI run states its reason without re-reading the numbers.
type Violation struct {
	Metric   string
	Detail   string
	Baseline float64
	Current  float64
	Limit    float64
}

func (v Violation) String() string {
	return fmt.Sprintf("GATE %-28s %s (baseline %.6g, current %.6g, limit %.6g)",
		v.Metric, v.Detail, v.Baseline, v.Current, v.Limit)
}

// Check applies the gate rule to one metric: when cur exceeds
// max(base × factor, floor) it appends a violation to out. It returns
// out, like append.
func Check(out []Violation, metric string, base, cur, factor, floor float64) []Violation {
	limit := max(base*factor, floor)
	if cur <= limit {
		return out
	}
	return append(out, Violation{
		Metric:   metric,
		Detail:   fmt.Sprintf("%.6g exceeds %.6g", cur, limit),
		Baseline: base, Current: cur, Limit: limit,
	})
}

// Write persists v as a committed artifact: indented JSON with a
// trailing newline.
func Write(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Read decodes the JSON file at path into v once its top-level "schema"
// field equals schema: a gate refuses to compare across layouts rather
// than misread fields.
func Read(path string, schema int, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var head struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if head.Schema != schema {
		return fmt.Errorf("%s: schema %d, this binary speaks %d — re-record", path, head.Schema, schema)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// TrajectorySchema versions the trajectory layout.
const TrajectorySchema = 1

// Result is one benchmark's measured cost.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Record is one point of a trajectory.
type Record struct {
	// Engine is the engine version the record was measured under.
	Engine string `json:"engine"`
	Note   string `json:"note,omitempty"`
	Build  Stamp  `json:"build"`
	// Benchmarks maps benchmark name -> measured cost.
	Benchmarks map[string]Result `json:"benchmarks"`
}

// Trajectory is a committed performance history, oldest record first.
type Trajectory struct {
	Schema  int      `json:"schema"`
	Records []Record `json:"records"`
}

// Latest returns the newest record (nil when the trajectory is empty).
func (t *Trajectory) Latest() *Record {
	if t == nil || len(t.Records) == 0 {
		return nil
	}
	return &t.Records[len(t.Records)-1]
}

// LoadTrajectory reads a committed trajectory.
func LoadTrajectory(path string) (*Trajectory, error) {
	var t Trajectory
	if err := Read(path, TrajectorySchema, &t); err != nil {
		return nil, err
	}
	return &t, nil
}

// AppendRecord loads the trajectory at path (an absent file starts a new
// one), adds rec, and writes it back. When the newest record carries the
// same engine version, rec replaces it: re-recording within one change
// refines the point, while a version bump extends the history.
func AppendRecord(path string, rec Record) (*Trajectory, error) {
	t, err := LoadTrajectory(path)
	if errors.Is(err, fs.ErrNotExist) {
		t = &Trajectory{Schema: TrajectorySchema}
	} else if err != nil {
		return nil, err
	}
	if last := t.Latest(); last != nil && last.Engine == rec.Engine {
		*last = rec
	} else {
		t.Records = append(t.Records, rec)
	}
	return t, Write(path, t)
}

// Thresholds of Gate. ns/op may triple before failing, and never fails
// below 20µs, where scheduler noise dominates. Allocation counts are
// near-deterministic, so their band is much tighter, and their floors sit
// below the cost of the smallest gated benchmark (Suggest: 1 alloc, 76
// bytes per op) so that every benchmark's allocations can fail the gate.
const (
	nsFactor, nsFloor         = 3, 20000
	allocsFactor, allocsFloor = 1.3, 2
	bytesFactor, bytesFloor   = 1.5, 256
)

// Gate compares freshly measured results against a committed record and
// returns every violated metric, in benchmark-name order (empty = pass).
// A benchmark present on only one side is skipped: a new one has
// nothing to regress against, and a retired one nothing to compare.
func Gate(base *Record, cur map[string]Result) []Violation {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Violation
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur[name]
		if !ok {
			continue
		}
		out = Check(out, name+":ns_per_op", b.NsPerOp, c.NsPerOp, nsFactor, nsFloor)
		out = Check(out, name+":allocs_per_op", b.AllocsPerOp, c.AllocsPerOp, allocsFactor, allocsFloor)
		out = Check(out, name+":bytes_per_op", b.BytesPerOp, c.BytesPerOp, bytesFactor, bytesFloor)
	}
	return out
}
