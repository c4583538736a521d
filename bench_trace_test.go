package pdcunplugged_test

// Benchmarks and the acceptance gate for request-scoped tracing
// overhead. The comparison holds everything else constant — the same
// warm generation-keyed cache hit on /api/v1/search, the same metrics
// middleware — and varies only the tracer: absent versus present with
// sampling off. Sampling off is the honest worst case for untraced
// traffic: spans are created, timed, and buffered, then the whole trace
// is dropped at the root's End by tail-based retention.

import (
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"testing"
	"time"

	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/obs/trace"
)

const traceBenchTarget = "/api/v1/search?q=sorting+cards&limit=10"

// traceBenchHandler builds a warm cached query handler wrapped in the
// metrics middleware, with tr pinned (nil disables tracing entirely).
func traceBenchHandler(b testing.TB, tr *trace.Tracer) http.Handler {
	b.Helper()
	s := queryService(queryBenchSnapshot(b))
	h := obs.NewHTTPMetrics(obs.NewRegistry()).WithTracer(tr).Wrap(s.Handler())
	serveOnce(b, h, traceBenchTarget) // warm the cache
	return h
}

// quietLogs suppresses the per-request Info access log for the duration
// of a benchmark; stderr writes would otherwise dominate the timing.
func quietLogs(b testing.TB) {
	b.Helper()
	obs.SetLevel(slog.LevelError)
	b.Cleanup(func() { obs.SetLevel(slog.LevelInfo) })
}

func BenchmarkTraceOverhead(b *testing.B) {
	quietLogs(b)

	b.Run("notrace", func(b *testing.B) {
		h := traceBenchHandler(b, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, h, traceBenchTarget)
		}
	})

	b.Run("sampled-off", func(b *testing.B) {
		h := traceBenchHandler(b, trace.New(trace.Options{SampleRate: 0}))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, h, traceBenchTarget)
		}
	})
}

// TestTraceOverheadBudget enforces the tracing cost ceiling: with
// sampling off, the traced cached /api/v1/search path must stay within
// 5% of the untraced one. Deltas this small sit below the noise floor
// of a single wall-clock run on a shared machine, so each leg is timed
// as the minimum over several interleaved reps (min-of-k filters GC and
// scheduler interference out of both legs symmetrically), and the gate
// passes on the best of a few attempts — a genuine regression fails
// them all.
func TestTraceOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	if raceEnabled {
		t.Skip("timing gate is meaningless under the race detector")
	}
	quietLogs(t)

	const (
		attempts = 5
		reps     = 4
		iters    = 2000
		budget   = 1.05
	)
	base := traceBenchHandler(t, nil)
	traced := traceBenchHandler(t, trace.New(trace.Options{SampleRate: 0}))
	measure := func(h http.Handler) time.Duration {
		best := time.Duration(math.MaxInt64)
		for k := 0; k < reps; k++ {
			runtime.GC()
			start := time.Now()
			for i := 0; i < iters; i++ {
				serveOnce(t, h, traceBenchTarget)
			}
			if d := time.Since(start) / iters; d < best {
				best = d
			}
		}
		return best
	}
	// Warm both paths (lazy init, page cache, branch predictors) before
	// any timed rep.
	measure(base)
	measure(traced)

	var last string
	for i := 0; i < attempts; i++ {
		b := measure(base)
		tr := measure(traced)
		ratio := float64(tr) / float64(b)
		last = tr.String() + " traced vs " + b.String() + " untraced"
		t.Logf("attempt %d: %s (%.3fx)", i+1, last, ratio)
		if ratio <= budget {
			return
		}
	}
	t.Errorf("tracing overhead above 5%% across %d attempts (last: %s)", attempts, last)
}
