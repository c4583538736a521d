package obs

import (
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the /metrics body byte for byte: one
// HELP/TYPE header per family, families by name, series by label
// values, cumulative histogram buckets with le last after the series'
// own labels, _sum and _count per series, and backslash, quote and
// newline escaped in label values.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	req := reg.Counter("app_requests_total", "Requests served.", "path", "code")
	req.With("/", "200").Add(10)
	req.With(`/q"x\y`+"\nz", "500").Inc()
	lat := reg.Histogram("app_latency_seconds", "Latency.", []float64{0.1, 1}, "ep")
	lat.With("search").Observe(0.05)
	lat.With("search").Observe(2)
	lat.With("suggest").Observe(0.5)
	reg.Gauge("app_lag", "Generations behind.").Set(2)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_lag Generations behind.
# TYPE app_lag gauge
app_lag 2
# HELP app_latency_seconds Latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{ep="search",le="0.1"} 1
app_latency_seconds_bucket{ep="search",le="1"} 1
app_latency_seconds_bucket{ep="search",le="+Inf"} 2
app_latency_seconds_sum{ep="search"} 2.05
app_latency_seconds_count{ep="search"} 2
app_latency_seconds_bucket{ep="suggest",le="0.1"} 0
app_latency_seconds_bucket{ep="suggest",le="1"} 1
app_latency_seconds_bucket{ep="suggest",le="+Inf"} 1
app_latency_seconds_sum{ep="suggest"} 0.5
app_latency_seconds_count{ep="suggest"} 1
# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{path="/",code="200"} 10
app_requests_total{path="/q\"x\\y\nz",code="500"} 1
`
	if b.String() != want {
		t.Errorf("registry exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

// TestWriteText pins the writer on hand-built snapshots: labels follow
// LabelNames, a label a series does not carry is left out, an empty
// help writes no HELP line, and a family with no series writes nothing.
func TestWriteText(t *testing.T) {
	var b strings.Builder
	WriteText(&b, []FamilySnapshot{
		{Name: "bare", Kind: KindGauge, Series: []SeriesSnapshot{{Value: 0.5}}},
		{Name: "m_total", Kind: KindCounter, LabelNames: []string{"path", "code"},
			Series: []SeriesSnapshot{
				{Labels: map[string]string{"path": "/x", "code": "200"}, Value: 12},
				{Labels: map[string]string{"code": "500"}, Value: 1},
			}},
		{Name: "none", Help: "declared, never set", Kind: KindGauge},
	})
	want := "# TYPE bare gauge\nbare 0.5\n# TYPE m_total counter\n" +
		`m_total{path="/x",code="200"} 12` + "\n" +
		`m_total{code="500"} 1` + "\n"
	if b.String() != want {
		t.Errorf("WriteText = %q, want %q", b.String(), want)
	}
}
