package obs

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestRollupCounterDeltas(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_requests_total", "requests", "endpoint")
	ru := NewRollup(reg, time.Second, 4)

	c.With("search").Add(3)
	ru.Collect()
	c.With("search").Add(5)
	ru.Collect()
	ru.Collect() // idle window

	series := ru.Series("t_requests_total")
	if len(series) != 1 {
		t.Fatalf("got %d series, want 1", len(series))
	}
	vals := series[0].Values
	if len(vals) != 3 {
		t.Fatalf("got %d windows, want 3", len(vals))
	}
	want := []float64{3, 5, 0}
	for i, w := range want {
		if vals[i].V != w {
			t.Errorf("window %d delta = %v, want %v", i, vals[i].V, w)
		}
	}
}

func TestRollupGaugeLevels(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("t_level", "level")
	ru := NewRollup(reg, time.Second, 4)
	g.Set(7)
	ru.Collect()
	g.Set(2)
	ru.Collect()
	vals := ru.Series("t_level")[0].Values
	if vals[0].V != 7 || vals[1].V != 2 {
		t.Errorf("gauge windows = %v, want levels 7 then 2", vals)
	}
}

func TestRollupHistogramSumAndCount(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t_latency_seconds", "latency", nil, "endpoint")
	ru := NewRollup(reg, time.Second, 4)
	h.With("search").Observe(0.2)
	h.With("search").Observe(0.4)
	ru.Collect()
	h.With("search").Observe(1)
	ru.Collect()

	s := ru.Series("t_latency_seconds")[0]
	if s.Counts == nil {
		t.Fatal("histogram series missing count windows")
	}
	if got := s.Counts[0].V; got != 2 {
		t.Errorf("window 0 count = %v, want 2", got)
	}
	if got := s.Values[0].V; math.Abs(got-0.6) > 1e-9 {
		t.Errorf("window 0 sum = %v, want 0.6", got)
	}
	if got := s.Counts[1].V; got != 1 {
		t.Errorf("window 1 count = %v, want 1", got)
	}
}

// TestRollupRingTrims pins the fixed-size window property and that a
// series registered mid-flight backfills NaN rather than zeros.
func TestRollupRingTrims(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_a_total", "a")
	ru := NewRollup(reg, time.Second, 3)
	c.Inc()
	ru.Collect()
	ru.Collect()

	late := reg.Counter("t_late_total", "late")
	late.Inc()
	ru.Collect()

	if got := ru.Windows(); got != 3 {
		t.Fatalf("windows = %d, want 3", got)
	}
	ls := ru.Series("t_late_total")[0]
	if len(ls.Values) != 3 {
		t.Fatalf("late series has %d windows, want aligned 3", len(ls.Values))
	}
	if !math.IsNaN(ls.Values[0].V) || !math.IsNaN(ls.Values[1].V) {
		t.Errorf("pre-registration windows = %v, want NaN backfill", ls.Values[:2])
	}
	if ls.Values[2].V != 1 {
		t.Errorf("first live window = %v, want 1", ls.Values[2].V)
	}

	for i := 0; i < 5; i++ {
		ru.Collect()
	}
	if got := ru.Windows(); got != 3 {
		t.Errorf("windows after overflow = %d, want ring cap 3", got)
	}
	as := ru.Series("t_a_total")[0]
	if len(as.Values) != 3 {
		t.Errorf("series length %d escaped the ring cap", len(as.Values))
	}
}

func TestRollupHooksRunBeforeSample(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("t_hooked", "hooked")
	ru := NewRollup(reg, time.Second, 4)
	n := 0.0
	ru.AddHook(func() { n++; g.Set(n) })
	ru.Collect()
	ru.Collect()
	vals := ru.Series("t_hooked")[0].Values
	if vals[0].V != 1 || vals[1].V != 2 {
		t.Errorf("hook did not run before sampling: %v", vals)
	}
}

func TestRuntimeCollector(t *testing.T) {
	reg := NewRegistry()
	rc := NewRuntimeCollector(reg)
	rc.Collect()

	snap := reg.Snapshot("pdcu_runtime_goroutines")
	if len(snap) != 1 || snap[0].Value < 1 {
		t.Errorf("goroutines gauge = %+v, want >= 1", snap)
	}
	if heap := reg.Snapshot("pdcu_runtime_heap_alloc_bytes"); len(heap) != 1 || heap[0].Value <= 0 {
		t.Errorf("heap gauge = %+v, want > 0", heap)
	}
	for _, name := range []string{
		"pdcu_runtime_heap_objects", "pdcu_runtime_sys_bytes",
		"pdcu_runtime_gc_cycles", "pdcu_runtime_gc_pause_seconds",
	} {
		if got := reg.Snapshot(name); len(got) != 1 {
			t.Errorf("gauge %s not registered/collected: %+v", name, got)
		}
	}
}

// TestRegistryGather: every registered family, sorted by name, with its
// kind, declared label names, and series — including families that have
// no series yet.
func TestRegistryGather(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_b_total", "b", "path", "code").With("/", "200").Inc()
	reg.Gauge("t_a", "a")
	reg.Histogram("t_c_seconds", "c", nil)
	fams := reg.Gather()
	if len(fams) != 3 {
		t.Fatalf("families = %+v", fams)
	}
	if fams[0].Name != "t_a" || fams[0].Kind != KindGauge || len(fams[0].Series) != 0 {
		t.Errorf("families not sorted by name, or empty family lost: %+v", fams)
	}
	if b := fams[1]; b.Help != "b" || !slices.Equal(b.LabelNames, []string{"path", "code"}) || len(b.Series) != 1 {
		t.Errorf("counter family = %+v", b)
	}
	if fams[2].Kind != KindHistogram {
		t.Errorf("histogram kind lost: %+v", fams[2])
	}
}
