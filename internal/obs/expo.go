package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// This file holds both directions of the Prometheus text exposition
// format (version 0.0.4). WriteText is the one writer: /metrics renders
// Registry.Gather through it, and the fleet federator renders every
// node's families through it under a leading node= label.
// ParseExposition is its inverse for remote peers: it turns a scraped
// /metrics body into the same FamilySnapshot that Gather returns.
//
// The parser is deliberately tolerant where the writer is strict: bare
// comments, blank lines, unknown TYPE keywords, and optional trailing
// timestamps are all accepted, because a peer may one day not be us. A
// histogram it cannot reassemble is an error instead: a half-parsed peer
// histogram would federate wrong numbers.

// WriteText writes fams in the text exposition format, skipping families
// with no series. A series' labels are written in LabelNames order,
// leaving out any name the series does not carry; the fleet federator
// leads every series with node= by putting it first in LabelNames.
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

// The exposition-format label escapes (backslash, double quote and
// newline) and their inverse.
var (
	escapeLabel   = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace
	unescapeLabel = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n").Replace
)

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseExposition parses a peer's text-exposition body into families, in
// source order. A histogram family is reassembled from its cumulative
// _bucket lines and its _sum and _count into Bounds, non-cumulative
// Counts, Sum and Count; an untyped sample becomes a gauge family. A
// malformed line, or a histogram series whose buckets decrease, lack le
// or lack +Inf, is an error naming the line.
func ParseExposition(r io.Reader) ([]FamilySnapshot, error) {
	p := parser{idx: map[string]int{}, hist: map[string]int{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for line := 1; sc.Scan(); line++ {
		if err := p.line(line, strings.TrimSpace(sc.Text())); err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, h := range p.hists {
		f := &p.fams[h.fam]
		s := &f.Series[h.series]
		if len(s.Counts) != len(s.Bounds)+1 {
			return nil, fmt.Errorf("obs: exposition line %d: histogram %s: series has no +Inf bucket", h.line, f.Name)
		}
		for i := len(s.Counts) - 1; i > 0; i-- {
			s.Counts[i] -= s.Counts[i-1] // cumulative to per-bucket
		}
	}
	return p.fams, nil
}

// parser accumulates families while ParseExposition reads lines.
type parser struct {
	fams  []FamilySnapshot
	idx   map[string]int // family name -> index in fams
	hist  map[string]int // histogram family and label key -> index in hists
	hists []histSeries   // in order of first line
}

// histSeries locates one histogram series being reassembled; until the
// parse ends its Counts are cumulative.
type histSeries struct{ fam, series, line int }

type labelPair struct{ name, value string }

// family returns the index of the named family, creating an untyped
// (gauge) one on first sight.
func (p *parser) family(name string) int {
	if i, ok := p.idx[name]; ok {
		return i
	}
	p.fams = append(p.fams, FamilySnapshot{Name: name, Kind: KindGauge})
	p.idx[name] = len(p.fams) - 1
	return len(p.fams) - 1
}

// owner resolves which family a sample belongs to: its exact name, else
// the histogram its _bucket/_sum/_count suffix names (returned as
// suffix), else a new untyped family.
func (p *parser) owner(name string) (i int, suffix string) {
	if i, ok := p.idx[name]; ok {
		return i, ""
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, cut := strings.CutSuffix(name, suffix)
		if i, ok := p.idx[base]; cut && ok && p.fams[i].Kind == KindHistogram {
			return i, suffix
		}
	}
	return p.family(name), ""
}

func (p *parser) line(n int, text string) error {
	if text == "" {
		return nil
	}
	if strings.HasPrefix(text, "#") {
		fields := strings.SplitN(text, " ", 4)
		if len(fields) < 4 || fields[1] != "HELP" && fields[1] != "TYPE" {
			return nil // a bare comment, or a HELP/TYPE with nothing to say
		}
		f := &p.fams[p.family(fields[2])]
		if fields[1] == "HELP" {
			f.Help = fields[3]
		}
		for k := KindCounter; k <= KindHistogram && fields[1] == "TYPE"; k++ {
			if fields[3] == k.String() {
				f.Kind = k
			}
		}
		return nil
	}
	name, pairs, value, err := parseSampleLine(text)
	if err != nil {
		return err
	}
	i, suffix := p.owner(name)
	f := &p.fams[i]
	if f.Kind != KindHistogram {
		f.Series = append(f.Series, SeriesSnapshot{Labels: f.labels(pairs), Value: value})
		return nil
	}
	if suffix == "" {
		return fmt.Errorf("histogram %s: sample without a _bucket, _sum or _count suffix", f.Name)
	}
	le := ""
	if suffix == "_bucket" {
		j := slices.IndexFunc(pairs, func(l labelPair) bool { return l.name == "le" })
		if j < 0 {
			return fmt.Errorf("histogram bucket %s: no le label", name)
		}
		le = pairs[j].value
		pairs = slices.Delete(pairs, j, j+1)
	}
	labels := f.labels(pairs)
	key := f.Name + "\xff" + labelKey(labels)
	h, ok := p.hist[key]
	if !ok {
		f.Series = append(f.Series, SeriesSnapshot{Labels: labels})
		h = len(p.hists)
		p.hist[key] = h
		p.hists = append(p.hists, histSeries{fam: i, series: len(f.Series) - 1, line: n})
	}
	s := &f.Series[p.hists[h].series]
	switch suffix {
	case "_sum":
		s.Sum = value
	case "_count":
		s.Count = uint64(value)
	case "_bucket":
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("histogram bucket %s: le %q: %w", name, le, err)
		}
		if len(s.Counts) > len(s.Bounds) || len(s.Bounds) > 0 && bound <= s.Bounds[len(s.Bounds)-1] {
			return fmt.Errorf("histogram bucket %s: le %q out of order", name, le)
		}
		if value < 0 || len(s.Counts) > 0 && value < float64(s.Counts[len(s.Counts)-1]) {
			return fmt.Errorf("histogram bucket %s: cumulative count %s decreases", name, formatFloat(value))
		}
		s.Counts = append(s.Counts, uint64(value))
		if !math.IsInf(bound, 1) {
			s.Bounds = append(s.Bounds, bound)
		}
	}
	return nil
}

// labels maps a sample's label pairs, adding each name the family has not
// seen yet to LabelNames in source order.
func (f *FamilySnapshot) labels(pairs []labelPair) map[string]string {
	m := make(map[string]string, len(pairs))
	for _, l := range pairs {
		m[l.name] = l.value
		if !slices.Contains(f.LabelNames, l.name) {
			f.LabelNames = append(f.LabelNames, l.name)
		}
	}
	return m
}

// parseSampleLine parses `name{label="value",...} value [timestamp]`.
// strconv.QuotedPrefix finds the end of each quoted label value, since
// the text format's escapes are a subset of Go's.
func parseSampleLine(s string) (name string, pairs []labelPair, value float64, err error) {
	name, rest, ok := strings.Cut(s, " ")
	if brace := strings.IndexByte(s, '{'); brace >= 0 {
		name, rest, ok = s[:brace], s[brace+1:], true
		for {
			rest = strings.TrimLeft(rest, ", ")
			if rest == "" {
				return "", nil, 0, fmt.Errorf("sample %q: unterminated label block", s)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			lname, val, found := strings.Cut(rest, "=")
			q, qerr := strconv.QuotedPrefix(val)
			if !found || lname == "" || qerr != nil || q[0] != '"' {
				return "", nil, 0, fmt.Errorf("sample %q: malformed label %q", s, lname)
			}
			pairs = append(pairs, labelPair{lname, unescapeLabel(q[1 : len(q)-1])})
			rest = val[len(q):]
		}
	}
	fields := strings.Fields(rest)
	if name == "" || !ok || len(fields) == 0 {
		return "", nil, 0, fmt.Errorf("sample %q: no name or no value", s)
	}
	// ParseFloat reads +Inf/-Inf/NaN natively; a trailing timestamp is
	// ignored.
	if value, err = strconv.ParseFloat(fields[0], 64); err != nil {
		return "", nil, 0, fmt.Errorf("sample %s: value %q: %w", name, fields[0], err)
	}
	return name, pairs, value, nil
}
