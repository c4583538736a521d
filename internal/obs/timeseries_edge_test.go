package obs

import (
	"math"
	"testing"
	"time"
)

// TestRollupEmptyWindows pins what the SLO engine sees before any
// traffic exists: HistOver/CounterOver must distinguish "family unknown"
// (ok=false) from "family known, zero events" — an SLO over an empty
// window is no-data, never a breach.
func TestRollupEmptyWindows(t *testing.T) {
	reg := NewRegistry()
	ru := NewRollup(reg, time.Second, 8)
	ru.Collect() // a window with no families at all

	if _, ok := ru.HistOver("pdcu_query_duration_seconds", 0, nil); ok {
		t.Error("HistOver on an unknown family reported data")
	}
	if _, ok := ru.CounterOver("pdcu_query_requests_total", 0, nil); ok {
		t.Error("CounterOver on an unknown family reported data")
	}

	// Register the families but record nothing; windows stay empty.
	reg.Histogram("pdcu_query_duration_seconds", "lat", QueryBuckets(), "endpoint").With("search")
	reg.Counter("pdcu_query_requests_total", "req", "endpoint", "code").With("search", "200")
	ru.Collect()
	h, ok := ru.HistOver("pdcu_query_duration_seconds", 0, nil)
	if !ok {
		t.Fatal("HistOver missed a registered family")
	}
	if h.Count != 0 || h.AtOrBelow(0.005) != 0 {
		t.Errorf("empty family: count=%v good=%v, want 0/0", h.Count, h.AtOrBelow(0.005))
	}
	if h.Quantile(0.99) != 0 {
		t.Errorf("quantile of zero observations = %v, want 0", h.Quantile(0.99))
	}
	if v, ok := ru.CounterOver("pdcu_query_requests_total", 0, nil); !ok || v != 0 {
		t.Errorf("empty counter = %v (ok=%v), want 0/true", v, ok)
	}
}

// TestRollupCounterReset pins the reset rule: when a monotonic counter
// goes backwards between collections (a registry swap or process restart
// behind a shared rollup), the window records the post-reset absolute
// value, never a negative delta that would corrupt rates and burn math.
func TestRollupCounterReset(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_reset_total", "r", "ep")
	ru := NewRollup(reg, time.Second, 8)

	c.With("a").Add(100)
	ru.Collect()

	// Simulate the reset: a fresh registry re-registers the same family
	// starting from zero, and the rollup keeps sampling it.
	reg2 := NewRegistry()
	reg2.Counter("t_reset_total", "r", "ep").With("a").Add(7)
	ru.reg = reg2
	ru.Collect()

	vals := ru.Series("t_reset_total")[0].Values
	if got := vals[len(vals)-1].V; got != 7 {
		t.Errorf("post-reset window delta = %v, want 7 (the new absolute)", got)
	}
	if sum, _ := ru.CounterOver("t_reset_total", 0, nil); sum != 107 {
		t.Errorf("CounterOver across reset = %v, want 107", sum)
	}
}

// TestRollupHistogramReset applies the same rule to histogram sum, count
// and per-bucket deltas.
func TestRollupHistogramReset(t *testing.T) {
	mk := func(n int) *Registry {
		reg := NewRegistry()
		h := reg.Histogram("t_reset_seconds", "r", []float64{0.001, 0.01, 0.1}, "ep")
		for i := 0; i < n; i++ {
			h.With("a").Observe(0.005)
		}
		return reg
	}
	reg := mk(50)
	ru := NewRollup(reg, time.Second, 8)
	ru.Collect()

	ru.reg = mk(3) // reset: only 3 observations in the new incarnation
	ru.Collect()

	h, ok := ru.HistOver("t_reset_seconds", 0, nil)
	if !ok {
		t.Fatal("family lost across reset")
	}
	if h.Count != 53 {
		t.Errorf("count across reset = %v, want 53", h.Count)
	}
	if good := h.AtOrBelow(0.01); good != 53 {
		t.Errorf("bucket counts across reset = %v, want 53", good)
	}
	last := ru.Series("t_reset_seconds")[0].Counts
	if got := last[len(last)-1].V; got != 3 {
		t.Errorf("post-reset count delta = %v, want 3", got)
	}
}

// TestRollupWindowSpansGenerationSwap models a -watch publish landing in
// the middle of a collection window: traffic under the old generation,
// the swap (purge counter fires, a brand-new labeled series appears),
// then traffic under the new generation — all inside one window. The
// window must hold the combined deltas, the late series must backfill
// NaN (not zero) for windows before it existed, and HistOver must count
// observations from both sides of the swap.
func TestRollupWindowSpansGenerationSwap(t *testing.T) {
	reg := NewRegistry()
	dur := reg.Histogram("t_query_seconds", "lat", []float64{0.001, 0.01}, "endpoint")
	hits := reg.Counter("t_cache_total", "c", "endpoint", "result")
	swaps := reg.Counter("t_swaps_total", "s")
	ru := NewRollup(reg, time.Second, 8)

	// A warm window entirely under generation A.
	dur.With("search").Observe(0.0005)
	hits.With("search", "hit").Add(10)
	ru.Collect()

	// One window spanning the swap: old-generation traffic...
	dur.With("search").Observe(0.0005)
	hits.With("search", "hit").Add(4)
	// ...the publish: cache purged, swap counted...
	swaps.Inc()
	// ...then new-generation traffic: repopulating misses (a series
	// that never existed before) plus post-swap latency.
	hits.With("search", "miss").Add(6)
	dur.With("search").Observe(0.005)
	ru.Collect()

	for _, ts := range ru.Series("t_cache_total") {
		switch ts.Labels["result"] {
		case "hit":
			if ts.Values[1].V != 4 {
				t.Errorf("hit delta across swap = %v, want 4", ts.Values[1].V)
			}
		case "miss":
			if !math.IsNaN(ts.Values[0].V) {
				t.Errorf("miss series pre-existence = %v, want NaN backfill", ts.Values[0].V)
			}
			if ts.Values[1].V != 6 {
				t.Errorf("miss delta = %v, want 6", ts.Values[1].V)
			}
		}
		if len(ts.Values) != 2 {
			t.Errorf("series %v misaligned: %d windows, want 2", ts.Labels, len(ts.Values))
		}
	}
	if v, _ := ru.CounterOver("t_swaps_total", 1, nil); v != 1 {
		t.Errorf("swap delta = %v, want 1", v)
	}
	// The swap-spanning window holds both sides' observations.
	h, _ := ru.HistOver("t_query_seconds", 1, nil)
	if h.Count != 2 {
		t.Errorf("swap window observations = %v, want 2 (one per generation)", h.Count)
	}
	if h.AtOrBelow(0.001) != 1 {
		t.Errorf("sub-ms bucket = %v, want 1", h.AtOrBelow(0.001))
	}
}

// TestHistSumQuantile pins the interpolation: 100 observations split
// across two buckets yield a p99 inside the top one.
func TestHistSumQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t_q_seconds", "q", []float64{0.001, 0.01, 0.1}, "ep")
	for i := 0; i < 90; i++ {
		h.With("a").Observe(0.0005)
	}
	for i := 0; i < 10; i++ {
		h.With("a").Observe(0.05)
	}
	ru := NewRollup(reg, time.Second, 4)
	ru.Collect()

	hs, _ := ru.HistOver("t_q_seconds", 0, nil)
	p50 := hs.Quantile(0.50)
	if p50 <= 0 || p50 > 0.001 {
		t.Errorf("p50 = %v, want within first bucket", p50)
	}
	p99 := hs.Quantile(0.99)
	if p99 <= 0.01 || p99 > 0.1 {
		t.Errorf("p99 = %v, want inside the 10ms..100ms bucket", p99)
	}
}

// TestHistSumQuantileClampedToSum: interpolation inside a bucket may
// not read past what the aggregate sum allows. A single 10.8ms
// observation in the (10ms, 25ms] bucket is every quantile.
func TestHistSumQuantileClampedToSum(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("t_clamp_seconds", "q", PhaseBuckets()).With().Observe(0.0108)
	ru := NewRollup(reg, time.Second, 4)
	ru.Collect()

	hs, _ := ru.HistOver("t_clamp_seconds", 0, nil)
	for _, q := range []float64{0.5, 0.9} {
		if got := hs.Quantile(q); math.Abs(got-0.0108) > 1e-12 {
			t.Errorf("p%.0f = %v, want 0.0108", q*100, got)
		}
	}
}

// TestRollupLateHistogramAfterRingFull: a histogram series first seen
// after the ring has filled must keep its bucket rows aligned with the
// windows, or the trim cuts them and every quantile and good-event
// count of that series reads zero. HistOver's label match selects one
// series of the family.
func TestRollupLateHistogramAfterRingFull(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t_phase_seconds", "p", []float64{0.001, 0.01}, "phase")
	ru := NewRollup(reg, time.Second, 3)
	h.With("early").Observe(0.005)
	for i := 0; i < 5; i++ {
		ru.Collect()
	}
	h.With("late").Observe(0.0005)
	h.With("late").Observe(0.0005)
	ru.Collect()

	late := func(l map[string]string) bool { return l["phase"] == "late" }
	for _, tick := range []int{0, 1} {
		if tick == 1 {
			ru.Collect() // one more trim past the late series' first window
		}
		hs, ok := ru.HistOver("t_phase_seconds", 0, late)
		if !ok || hs.Count != 2 {
			t.Fatalf("tick %d: late series count = %v (ok=%v), want 2", tick, hs.Count, ok)
		}
		if good := hs.AtOrBelow(0.001); good != 2 {
			t.Errorf("tick %d: late series bucket counts %v, want 2 at or below 1ms", tick, hs.Counts)
		}
		if p50 := hs.Quantile(0.5); p50 <= 0 || p50 > 0.001 {
			t.Errorf("tick %d: late series p50 = %v, want inside the first bucket", tick, p50)
		}
	}
	// The early observation's window has been trimmed away.
	if hs, ok := ru.HistOver("t_phase_seconds", 0, func(l map[string]string) bool { return l["phase"] == "early" }); !ok || hs.Count != 0 {
		t.Errorf("early series over retained windows = %v (ok=%v), want 0/true", hs.Count, ok)
	}
}
