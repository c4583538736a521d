package obs

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestParseExpositionRoundTrip pins the parser against the writer: a
// registry rendered by WritePrometheus parses back into exactly what
// Gather returns (families with no series aside, since the writer skips
// them) — kinds, help, label order, escaped label values, and each
// histogram reassembled from its cumulative bucket lines.
func TestParseExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rt_requests_total", "requests", "path", "code").With("/api", "200").Add(41)
	reg.Counter("rt_requests_total", "requests", "path", "code").With("/api", "500").Add(2)
	reg.Gauge("rt_lag", "lag").Set(3)
	reg.Gauge("rt_weird", "escapes", "q").With(`sl\ash "quote"` + "\nnl").Set(-1.5)
	reg.Gauge("rt_declared_only", "no series yet", "x")
	h := reg.Histogram("rt_latency_seconds", "latency", []float64{0.01, 0.1}, "ep")
	h.With("search").Observe(0.005)
	h.With("search").Observe(0.05)
	h.With("search").Observe(7)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseExposition: %v\nbody:\n%s", err, b.String())
	}
	var want []FamilySnapshot
	for _, f := range reg.Gather() {
		if len(f.Series) > 0 {
			want = append(want, f)
		}
	}
	if !reflect.DeepEqual(fams, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", fams, want)
	}

	byName := map[string]FamilySnapshot{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if len(byName) != 4 {
		t.Fatalf("parsed %d families, want 4: %+v", len(byName), fams)
	}
	ctr := byName["rt_requests_total"]
	if ctr.Kind != KindCounter || ctr.Help != "requests" || len(ctr.Series) != 2 {
		t.Errorf("counter family = %+v", ctr)
	}
	if s := ctr.Series[0]; s.Value != 41 || s.Labels["path"] != "/api" || s.Labels["code"] != "200" {
		t.Errorf("counter series 0 = %+v", s)
	}
	weird := byName["rt_weird"].Series[0]
	if got, want := weird.Labels["q"], `sl\ash "quote"`+"\nnl"; got != want {
		t.Errorf("escaped label round-trip = %q, want %q", got, want)
	}
	if weird.Value != -1.5 {
		t.Errorf("gauge value = %v, want -1.5", weird.Value)
	}
	hist := byName["rt_latency_seconds"]
	if hist.Kind != KindHistogram || len(hist.Series) != 1 {
		t.Fatalf("histogram family = %+v", hist)
	}
	hs := hist.Series[0]
	if hs.Labels["ep"] != "search" || hs.Count != 3 || hs.Sum != 7.055 ||
		!reflect.DeepEqual(hs.Bounds, []float64{0.01, 0.1}) ||
		!reflect.DeepEqual(hs.Counts, []uint64{1, 1, 1}) {
		t.Errorf("histogram series = %+v, want ep=search, 3 observations, one per bucket", hs)
	}
}

// TestParseExpositionTolerance covers input our writer never produces
// but a foreign peer might: untyped samples, timestamps, +Inf values,
// comments, and blank lines.
func TestParseExpositionTolerance(t *testing.T) {
	body := `
# a bare comment
up 1 1712345678000

# TYPE bound gauge
bound{le="+Inf"} +Inf
# TYPE h histogram
h_bucket{le="0.5"} 1 1712345678000
h_bucket{le="+Inf"} 2 1712345678000
h_count 2 1712345678000
`
	fams, err := ParseExposition(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]FamilySnapshot{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if len(fams) != 3 {
		t.Errorf("parsed %d families, want up, bound and h: %+v", len(fams), fams)
	}
	if up := byName["up"]; up.Kind != KindGauge || len(up.Series) != 1 || up.Series[0].Value != 1 {
		t.Errorf("untyped sample = %+v", up)
	}
	if b := byName["bound"]; !math.IsInf(b.Series[0].Value, 1) || b.Series[0].Labels["le"] != "+Inf" {
		t.Errorf("+Inf gauge parsed as %+v", b.Series[0])
	}
	if h := byName["h"].Series[0]; h.Count != 2 || !reflect.DeepEqual(h.Counts, []uint64{1, 1}) {
		t.Errorf("timestamped histogram parsed as %+v", h)
	}
}

// TestParseExpositionErrors: malformed sample lines, and histograms that
// cannot be reassembled, fail loudly with the line number instead of
// federating wrong numbers.
func TestParseExpositionErrors(t *testing.T) {
	for _, tc := range []struct{ body, line string }{
		{"novalue\n", "line 1"},
		{`x{a="unterminated} 1` + "\n", "line 1"},
		{`x{a=unquoted} 1` + "\n", "line 1"},
		{"x notanumber\n", "line 1"},
		{"# TYPE h histogram\n" + `h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\nh_count 3\n",
			"line 3"}, // decreasing cumulative buckets
		{"# TYPE h histogram\nh_bucket 5\n", "line 2"}, // a bucket without le
		{"# TYPE h histogram\n" + `h_bucket{ep="a",le="1"} 2` + "\n" + `h_sum{ep="a"} 1` + "\n" + `h_count{ep="a"} 2` + "\n",
			"line 2"}, // a series without +Inf
		{"# TYPE h histogram\n" + `h_bucket{le="2"} 1` + "\n" + `h_bucket{le="1"} 1` + "\n", "line 3"}, // bounds out of order
		{"# TYPE h histogram\nh 1\n", "line 2"},                                                        // a histogram sample with no suffix
	} {
		_, err := ParseExposition(strings.NewReader(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.line+":") {
			t.Errorf("ParseExposition(%q) = %v, want an error naming %s", tc.body, err, tc.line)
		}
	}
}

// TestWriteText pins the writer on hand-built snapshots: labels follow
// LabelNames, so a leading node= comes first; a label a series does not
// carry is left out; escaping matches /metrics; an empty help writes no
// HELP line; a family with no series writes nothing; and the output
// re-parses.
func TestWriteText(t *testing.T) {
	var b strings.Builder
	WriteText(&b, []FamilySnapshot{
		{Name: "bare", Kind: KindGauge, Series: []SeriesSnapshot{{Value: 0.5}}},
		{Name: "m_total", Kind: KindCounter, LabelNames: []string{"node", "path", "code"},
			Series: []SeriesSnapshot{
				{Labels: map[string]string{"node": `f"1`, "path": "/x", "code": "200"}, Value: 12},
				{Labels: map[string]string{"node": "f2", "code": "500"}, Value: 1},
			}},
		{Name: "none", Help: "declared, never set", Kind: KindGauge},
	})
	want := "# TYPE bare gauge\nbare 0.5\n# TYPE m_total counter\n" +
		`m_total{node="f\"1",path="/x",code="200"} 12` + "\n" +
		`m_total{node="f2",code="500"} 1` + "\n"
	if b.String() != want {
		t.Errorf("WriteText = %q, want %q", b.String(), want)
	}
	fams, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := fams[1].Series[0].Labels["node"]; got != `f"1` {
		t.Errorf("re-parsed node label = %q", got)
	}
}
