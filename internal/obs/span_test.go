package obs

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"

	"pdcunplugged/internal/obs/trace"
)

// phaseReading reads one phase's observation count and float-seconds
// sum from the process-wide histogram; zero when the phase never ran.
// Tests compare readings before and after they record, so repeated runs
// (-count=N) in one process do not read each other's observations.
func phaseReading(phase string) (uint64, float64) {
	for _, s := range Default().Snapshot("pdcu_phase_seconds") {
		if s.Labels["phase"] == phase {
			return s.Count, s.Sum
		}
	}
	return 0, 0
}

// TestSpanRecordsAndLogs: under a recording trace a span is both a
// pdcu_phase_seconds observation and a child span of the trace, with
// its attributes and failure passed through. Spans do not log: the same
// timings are in /metrics, the trace and `pdcu build -verbose`.
func TestSpanRecordsAndLogs(t *testing.T) {
	var buf bytes.Buffer
	old := Logger()
	SetLogger(NewLogger(&buf))
	SetLevel(slog.LevelDebug)
	defer func() {
		SetLogger(old)
		SetLevel(slog.LevelInfo)
	}()

	const phase = "test.span.records"
	tr := trace.New(trace.Options{SampleRate: 1})
	ctx, root := tr.StartRecorded(context.Background(), "root")
	beforeN, beforeSum := phaseReading(phase)

	sctx, sp := StartSpan(ctx, phase)
	if trace.FromContext(sctx) == root {
		t.Error("the span's context still carries the root, not the child span")
	}
	sp.SetAttr("k", "v")
	sp.FailErr(errors.New("boom"))
	time.Sleep(time.Millisecond)
	sp.End()
	root.End()

	n, sum := phaseReading(phase)
	if n-beforeN != 1 || sum-beforeSum < time.Millisecond.Seconds() {
		t.Errorf("phase reading +%d calls, +%gs; want one observation of at least 1ms", n-beforeN, sum-beforeSum)
	}
	d, ok := tr.Store().Get(root.TraceID())
	if !ok {
		t.Fatal("trace not stored")
	}
	var child *trace.SpanData
	for i := range d.Spans {
		if d.Spans[i].Name == phase {
			child = &d.Spans[i]
		}
	}
	if child == nil {
		t.Fatalf("trace spans %+v lack %s", d.Spans, phase)
	}
	if child.Parent != root.ID() || child.Err != "boom" ||
		len(child.Attrs) != 1 || child.Attrs[0] != (trace.Attr{Key: "k", Value: "v"}) {
		t.Errorf("child span = %+v, want parent %v, err boom, attr k=v", *child, root.ID())
	}
	if strings.Contains(buf.String(), phase) {
		t.Errorf("span logged: %q", buf.String())
	}
}

// TestNilSpanEnd: without a recording trace a span has a nil trace
// child; it returns ctx unchanged, its trace-side methods are no-ops,
// and End still records the phase.
func TestNilSpanEnd(t *testing.T) {
	const phase = "test.span.untraced"
	ctx := context.Background()
	before, _ := phaseReading(phase)
	sctx, sp := StartSpan(ctx, phase)
	if sctx != ctx {
		t.Error("an untraced span derived a new context")
	}
	sp.SetAttr("k", "v")
	sp.FailErr(errors.New("boom"))
	sp.End()
	if n, _ := phaseReading(phase); n-before != 1 {
		t.Errorf("phase count +%d, want 1", n-before)
	}
}

// TestUntracedSpanAllocs: the always-on path of a span (no recording
// trace) allocates nothing. The histogram family is resolved once, not
// per End, so request-path spans stay cheap.
func TestUntracedSpanAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpan(ctx, "test.span.allocs")
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("untraced StartSpan+End = %v allocs, want 0", allocs)
	}
}

// TestPhaseBucketsResolveMicroseconds: request-path layers take a few
// microseconds, so pdcu_phase_seconds needs bounds below a millisecond.
// A 3µs observation lands at or under the 5µs bound and above the 2.5µs
// one, not in a first bucket that holds everything under 500µs.
func TestPhaseBucketsResolveMicroseconds(t *testing.T) {
	const phase = "test.span.buckets"
	cumulative := func(le float64) uint64 {
		for _, s := range Default().Snapshot("pdcu_phase_seconds") {
			if s.Labels["phase"] != phase {
				continue
			}
			var n uint64
			for i, b := range s.Bounds {
				if b > le {
					break
				}
				n += s.Counts[i]
			}
			return n
		}
		return 0
	}
	under5, under2 := cumulative(5e-6), cumulative(2.5e-6)
	phaseSeconds.With(phase).Observe(3e-6)
	if got := cumulative(5e-6) - under5; got != 1 {
		t.Errorf("le=5e-06 bucket grew by %d, want 1", got)
	}
	if got := cumulative(2.5e-6) - under2; got != 0 {
		t.Errorf("le=2.5e-06 bucket grew by %d, want 0", got)
	}
}
