package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// phaseTiming reads one phase's accumulated timing from the
// process-wide registry; zero when the phase never ran. Tests compare
// readings before and after they record, so repeated runs (-count=N)
// in one process do not read each other's observations.
func phaseTiming(phase string) PhaseTiming {
	for _, pt := range PhaseTimings() {
		if pt.Phase == phase {
			return pt
		}
	}
	return PhaseTiming{Phase: phase}
}

// since returns what was recorded for the phase after the reading before.
func (pt PhaseTiming) since(before PhaseTiming) PhaseTiming {
	return PhaseTiming{Phase: pt.Phase, Count: pt.Count - before.Count, Total: pt.Total - before.Total}
}

func TestSpanRecordsAndLogs(t *testing.T) {
	var buf bytes.Buffer
	old := Logger()
	SetLogger(NewLogger(&buf))
	SetLevel(slog.LevelDebug)
	defer func() {
		SetLogger(old)
		SetLevel(slog.LevelInfo)
	}()

	before := phaseTiming("test.span.records")
	sp := StartSpan("test.span.records")
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("span duration = %v, want > 0", d)
	}
	if again := sp.End(); again != 0 {
		t.Errorf("second End = %v, want 0", again)
	}
	if !strings.Contains(buf.String(), "phase=test.span.records") {
		t.Errorf("debug log missing span: %q", buf.String())
	}

	pt := phaseTiming("test.span.records").since(before)
	if pt.Count != 1 || pt.Total != d {
		t.Errorf("timing = %+v, want one span of %v", pt, d)
	}
	if pt.Mean() != pt.Total {
		t.Errorf("mean = %v, want %v for a single span", pt.Mean(), pt.Total)
	}
}

func TestObservePhaseSilent(t *testing.T) {
	var buf bytes.Buffer
	old := Logger()
	SetLogger(NewLogger(&buf))
	SetLevel(slog.LevelDebug)
	defer func() {
		SetLogger(old)
		SetLevel(slog.LevelInfo)
	}()

	before := phaseTiming("test.phase.silent")
	ObservePhase("test.phase.silent", 5*time.Millisecond)
	ObservePhase("test.phase.silent", 5*time.Millisecond)
	if strings.Contains(buf.String(), "test.phase.silent") {
		t.Error("ObservePhase must not log")
	}
	pt := phaseTiming("test.phase.silent").since(before)
	if pt.Count != 2 {
		t.Errorf("count = %d, want 2", pt.Count)
	}
	if pt.Total != 10*time.Millisecond {
		t.Errorf("total = %v, want 10ms", pt.Total)
	}
}

func TestTimeHelper(t *testing.T) {
	err := Time("test.time.helper", func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range PhaseTimings() {
		if pt.Phase == "test.time.helper" {
			return
		}
	}
	t.Error("Time did not record a span")
}

func TestNilSpanEnd(t *testing.T) {
	var sp *Span
	if d := sp.End(); d != 0 {
		t.Errorf("nil span End = %v, want 0", d)
	}
}

// TestPhaseTimingExactTotal is the regression test for the lossy Total
// reconstruction: durations used to be recovered from the histogram's
// float-seconds Sum, so many observations whose float representations
// don't sum exactly (0.1s is not representable in binary) drifted from
// the true time.Duration total. The accumulator must return the exact
// nanosecond sum.
func TestPhaseTimingExactTotal(t *testing.T) {
	const phase = "test.span.exact"
	d := 100 * time.Millisecond // 0.1s: inexact as a float64 of seconds
	const n = 10
	before := phaseTiming(phase)
	for i := 0; i < n; i++ {
		ObservePhase(phase, d)
	}
	// Demonstrate the float path really is lossy for this input — the
	// bug this test guards against.
	var fsum float64
	for i := 0; i < n; i++ {
		fsum += d.Seconds()
	}
	if time.Duration(fsum*float64(time.Second)) == n*d {
		t.Log("float round-trip happened to be exact; exactness check below still applies")
	}
	pt := phaseTiming(phase).since(before)
	if pt.Count != n {
		t.Errorf("count = %d, want %d", pt.Count, n)
	}
	if pt.Total != n*d {
		t.Errorf("total = %v (%d ns), want exactly %v", pt.Total, pt.Total, n*d)
	}
	if pt.Mean() != d {
		t.Errorf("mean = %v, want exactly %v", pt.Mean(), d)
	}
}
