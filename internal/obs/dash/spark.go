package dash

import (
	"fmt"
	"html/template"
	"math"
	"strconv"
	"strings"
	"time"
)

// spark renders a windowed series as an inline SVG sparkline. NaN values
// (windows before the series existed) break the polyline instead of
// plotting as zero, so fresh series do not draw a misleading flatline.
// The y-axis is anchored at zero because every dashboard series is
// non-negative.
func spark(vals []float64, w, h int) template.HTML {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg class="spark" width="%d" height="%d" viewBox="0 0 %d %d">`, w, h, w, h)
	max := 0.0
	for _, v := range vals {
		if !math.IsNaN(v) && v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	// One x step per window; a single point still needs a visible dot.
	step := float64(w)
	if len(vals) > 1 {
		step = float64(w-2) / float64(len(vals)-1)
	}
	pad := 2.0
	var pts []string
	flush := func() {
		switch len(pts) {
		case 0:
		case 1:
			fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="1.5" fill="#6cb6ff"/>`,
				strings.Split(pts[0], ",")[0], strings.Split(pts[0], ",")[1])
		default:
			fmt.Fprintf(&b, `<polyline points="%s"/>`, strings.Join(pts, " "))
		}
		pts = pts[:0]
	}
	for i, v := range vals {
		if math.IsNaN(v) {
			flush()
			continue
		}
		x := 1 + float64(i)*step
		y := float64(h) - pad - (v/max)*(float64(h)-2*pad)
		pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
	}
	flush()
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}

// fmtRate renders a per-second rate compactly.
func fmtRate(v float64) string {
	if v == 0 {
		return "0/s"
	}
	if v < 10 {
		return strconv.FormatFloat(v, 'f', 1, 64) + "/s"
	}
	return strconv.FormatFloat(v, 'f', 0, 64) + "/s"
}

// fmtSeconds renders a duration expressed in float seconds at a
// latency-appropriate precision.
func fmtSeconds(v float64) string {
	if v == 0 {
		return "0"
	}
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

func fmtNum(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

func fmtPct(v float64) string {
	return strconv.FormatFloat(v*100, 'f', 1, 64) + "%"
}

func fmtAge(d time.Duration) string {
	switch {
	case d < time.Minute:
		return d.Round(time.Second).String()
	case d < time.Hour:
		return d.Round(time.Minute).String()
	}
	return d.Round(time.Hour).String()
}
