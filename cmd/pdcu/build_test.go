package main

import (
	"log/slog"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pdcunplugged/internal/obs"
)

// phaseRows parses the PHASE TIMINGS table into phase -> [calls, total,
// mean] cells.
func phaseRows(t *testing.T, out string) map[string][]string {
	t.Helper()
	_, table, ok := strings.Cut(out, "PHASE TIMINGS\n")
	if !ok {
		t.Fatalf("no PHASE TIMINGS table in %q", out)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) == 4 {
			rows[f[0]] = f[1:]
		}
	}
	return rows
}

func TestBuildVerbosePhaseTable(t *testing.T) {
	defer obs.SetLevel(slog.LevelInfo)
	out, err := capture(t, "build", "-out", filepath.Join(t.TempDir(), "site"), "-verbose")
	if err != nil {
		t.Fatal(err)
	}
	rows := phaseRows(t, out)
	for _, phase := range []string{"engine.load", "site.build", "markdown.render"} {
		row, ok := rows[phase]
		if !ok {
			t.Errorf("phase table lacks %s:\n%s", phase, out)
			continue
		}
		if n, err := strconv.Atoi(row[0]); err != nil || n <= 0 {
			t.Errorf("%s calls = %q, want > 0", phase, row[0])
		}
	}
}

// TestPhaseTableRoundsFloatSum: the table's totals come from the
// histogram's float-seconds sum, and ten 0.1s observations sum to just
// under 1s as floats. Rounding to whole microseconds must print the
// exact total.
func TestPhaseTableRoundsFloatSum(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("pdcu_phase_seconds", "", nil, "phase").With("test.phase")
	for i := 0; i < 10; i++ {
		h.Observe(0.1)
	}
	var b strings.Builder
	printPhaseTable(&b, reg.Snapshot("pdcu_phase_seconds"))
	row := phaseRows(t, b.String())["test.phase"]
	if strings.Join(row, " ") != "10 1s 100ms" {
		t.Errorf("row = %q, want calls 10, total 1s, mean 100ms", row)
	}
}
