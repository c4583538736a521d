package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// WriteText writes fams in the Prometheus text exposition format
// (version 0.0.4), skipping families with no series; /metrics renders
// Registry.Gather through it. A series' labels are written in
// LabelNames order, leaving out any name the series does not carry.
func WriteText(b *strings.Builder, fams []FamilySnapshot) {
	for _, f := range fams {
		if len(f.Series) == 0 {
			continue
		}
		if f.Help != "" {
			fmt.Fprintf(b, "# HELP %s %s\n", f.Name, strings.ReplaceAll(f.Help, "\n", " "))
		}
		fmt.Fprintf(b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, s := range f.Series {
			labels := labelPairs(f.LabelNames, s.Labels)
			block := ""
			if labels != "" {
				block = "{" + labels + "}"
			}
			if f.Kind != KindHistogram {
				fmt.Fprintf(b, "%s%s %s\n", f.Name, block, formatFloat(s.Value))
				continue
			}
			if labels != "" {
				labels += ","
			}
			var cum uint64
			for i, c := range s.Counts {
				cum += c
				le := "+Inf"
				if i < len(s.Bounds) {
					le = formatFloat(s.Bounds[i])
				}
				fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", f.Name, labels, le, cum)
			}
			fmt.Fprintf(b, "%s_sum%s %s\n", f.Name, block, formatFloat(s.Sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.Name, block, s.Count)
		}
	}
}

// labelPairs renders `k="v",...` for each name the series carries.
func labelPairs(names []string, labels map[string]string) string {
	var b strings.Builder
	for _, n := range names {
		v, ok := labels[n]
		if !ok {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies the exposition-format label escapes: backslash,
// double quote and newline.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
