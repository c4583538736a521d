// Package markdown renders the Markdown dialect used by PDCunplugged
// activity bodies to HTML, and splits activity bodies into their titled
// sections.
//
// The dialect covers what the repository's content actually uses (and what
// Hugo rendered for the original site): ATX headings, paragraphs, horizontal
// rules, unordered and ordered lists with nesting, fenced code blocks,
// blockquotes, pipe tables, inline emphasis/strong/code, links, and images.
// All text is HTML-escaped; raw HTML passthrough is deliberately not
// supported so contributed activities cannot inject markup.
package markdown

import (
	"context"
	"fmt"
	"strings"

	"pdcunplugged/internal/obs"
)

// EngineVersion names the renderer implementation revision. Cached page
// fingerprints mix it in, so changing the dialect here invalidates every
// cached page even when the source text is unchanged. Bump it whenever
// Render's output can change for the same input.
const EngineVersion = "md/1"

// Render converts Markdown source to HTML. Each call is timed as the
// metric-only markdown.render span: rendering runs once per activity
// section, so a trace span per call would crowd a rebuild trace.
func Render(src string) string {
	_, span := obs.StartSpan(context.Background(), "markdown.render")
	var b strings.Builder
	p := &parser{lines: splitLines(src)}
	p.blocks(&b, 0)
	span.End()
	return b.String()
}

type parser struct {
	lines []string
	pos   int
}

func splitLines(src string) []string {
	src = strings.ReplaceAll(src, "\r\n", "\n")
	return strings.Split(src, "\n")
}

func (p *parser) peek() (string, bool) {
	if p.pos >= len(p.lines) {
		return "", false
	}
	return p.lines[p.pos], true
}

// blocks renders block elements until end of input. indent is the number of
// leading spaces stripped for nested list content.
func (p *parser) blocks(b *strings.Builder, indent int) {
	for {
		line, ok := p.peek()
		if !ok {
			return
		}
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "":
			p.pos++
		case isRule(trimmed):
			p.pos++
			b.WriteString("<hr>\n")
		case strings.HasPrefix(trimmed, "#"):
			p.heading(b, trimmed)
		case strings.HasPrefix(trimmed, "```"):
			p.codeBlock(b, trimmed)
		case strings.HasPrefix(trimmed, ">"):
			p.blockquote(b)
		case isTableRow(trimmed) && p.tableAhead():
			p.table(b)
		case isListItem(trimmed):
			p.list(b, indentOf(line))
		default:
			p.paragraph(b)
		}
	}
}

func isRule(s string) bool {
	if len(s) < 3 {
		return false
	}
	for _, r := range s {
		if r != '-' && r != ' ' {
			return false
		}
	}
	return strings.Count(s, "-") >= 3
}

func indentOf(line string) int {
	n := 0
	for n < len(line) && line[n] == ' ' {
		n++
	}
	return n
}

func isListItem(s string) bool {
	if strings.HasPrefix(s, "- ") || strings.HasPrefix(s, "* ") || strings.HasPrefix(s, "+ ") {
		return true
	}
	return ordinalPrefix(s) > 0
}

// ordinalPrefix returns the length of an ordered-list marker ("12. ") or 0.
func ordinalPrefix(s string) int {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == 0 || i+1 >= len(s) || s[i] != '.' || s[i+1] != ' ' {
		return 0
	}
	return i + 2
}

func (p *parser) heading(b *strings.Builder, trimmed string) {
	level := 0
	for level < len(trimmed) && trimmed[level] == '#' {
		level++
	}
	text := strings.TrimSpace(strings.TrimLeft(trimmed, "#"))
	if level > 6 {
		level = 6
	}
	fmt.Fprintf(b, "<h%d>%s</h%d>\n", level, Inline(text), level)
	p.pos++
}

func (p *parser) codeBlock(b *strings.Builder, open string) {
	lang := strings.TrimSpace(strings.TrimPrefix(open, "```"))
	p.pos++
	var code []string
	for {
		line, ok := p.peek()
		if !ok {
			break
		}
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			p.pos++
			break
		}
		code = append(code, line)
		p.pos++
	}
	if lang != "" {
		fmt.Fprintf(b, "<pre><code class=\"language-%s\">", escape(lang))
	} else {
		b.WriteString("<pre><code>")
	}
	b.WriteString(escape(strings.Join(code, "\n")))
	b.WriteString("</code></pre>\n")
}

func (p *parser) blockquote(b *strings.Builder) {
	var inner []string
	for {
		line, ok := p.peek()
		if !ok {
			break
		}
		t := strings.TrimSpace(line)
		if !strings.HasPrefix(t, ">") {
			break
		}
		inner = append(inner, strings.TrimPrefix(strings.TrimPrefix(t, ">"), " "))
		p.pos++
	}
	b.WriteString("<blockquote>\n")
	sub := &parser{lines: inner}
	sub.blocks(b, 0)
	b.WriteString("</blockquote>\n")
}

func isTableRow(s string) bool {
	return strings.HasPrefix(s, "|") && strings.HasSuffix(s, "|") && len(s) > 1
}

func isTableSep(s string) bool {
	if !isTableRow(s) {
		return false
	}
	for _, cell := range tableCells(s) {
		c := strings.TrimSpace(cell)
		if c == "" {
			return false
		}
		for _, r := range c {
			if r != '-' && r != ':' {
				return false
			}
		}
	}
	return true
}

// tableAhead reports whether the current row is followed by a separator row.
func (p *parser) tableAhead() bool {
	if p.pos+1 >= len(p.lines) {
		return false
	}
	return isTableSep(strings.TrimSpace(p.lines[p.pos+1]))
}

func tableCells(row string) []string {
	row = strings.TrimSpace(row)
	row = strings.TrimPrefix(row, "|")
	row = strings.TrimSuffix(row, "|")
	return strings.Split(row, "|")
}

func (p *parser) table(b *strings.Builder) {
	header, _ := p.peek()
	p.pos++ // header
	p.pos++ // separator
	b.WriteString("<table>\n<thead><tr>")
	for _, c := range tableCells(strings.TrimSpace(header)) {
		fmt.Fprintf(b, "<th>%s</th>", Inline(strings.TrimSpace(c)))
	}
	b.WriteString("</tr></thead>\n<tbody>\n")
	for {
		line, ok := p.peek()
		if !ok || !isTableRow(strings.TrimSpace(line)) {
			break
		}
		b.WriteString("<tr>")
		for _, c := range tableCells(strings.TrimSpace(line)) {
			fmt.Fprintf(b, "<td>%s</td>", Inline(strings.TrimSpace(c)))
		}
		b.WriteString("</tr>\n")
		p.pos++
	}
	b.WriteString("</tbody>\n</table>\n")
}

func (p *parser) list(b *strings.Builder, indent int) {
	first, _ := p.peek()
	ordered := ordinalPrefix(strings.TrimSpace(first)) > 0
	if ordered {
		b.WriteString("<ol>\n")
	} else {
		b.WriteString("<ul>\n")
	}
	for {
		line, ok := p.peek()
		if !ok {
			break
		}
		trimmed := strings.TrimSpace(line)
		ind := indentOf(line)
		if trimmed == "" {
			// A blank line ends the list unless another item follows directly.
			if p.pos+1 < len(p.lines) && isListItem(strings.TrimSpace(p.lines[p.pos+1])) && indentOf(p.lines[p.pos+1]) >= indent {
				p.pos++
				continue
			}
			break
		}
		if !isListItem(trimmed) || ind < indent {
			break
		}
		if ind > indent {
			// Nested list inside the previous item: splice before </li>.
			var nested strings.Builder
			p.list(&nested, ind)
			s := b.String()
			if strings.HasSuffix(s, "</li>\n") {
				trimmedOut := strings.TrimSuffix(s, "</li>\n")
				b.Reset()
				b.WriteString(trimmedOut)
				b.WriteString("\n")
				b.WriteString(nested.String())
				b.WriteString("</li>\n")
			} else {
				b.WriteString(nested.String())
			}
			continue
		}
		var text string
		if n := ordinalPrefix(trimmed); n > 0 {
			text = trimmed[n:]
		} else {
			text = trimmed[2:]
		}
		fmt.Fprintf(b, "<li>%s</li>\n", Inline(text))
		p.pos++
	}
	if ordered {
		b.WriteString("</ol>\n")
	} else {
		b.WriteString("</ul>\n")
	}
}

func (p *parser) paragraph(b *strings.Builder) {
	var parts []string
	for {
		line, ok := p.peek()
		if !ok {
			break
		}
		t := strings.TrimSpace(line)
		if t == "" || isRule(t) || strings.HasPrefix(t, "#") || strings.HasPrefix(t, "```") ||
			strings.HasPrefix(t, ">") || isListItem(t) || (isTableRow(t) && p.tableAhead()) {
			break
		}
		parts = append(parts, t)
		p.pos++
	}
	if len(parts) == 0 {
		p.pos++ // defensive: never loop forever
		return
	}
	fmt.Fprintf(b, "<p>%s</p>\n", Inline(strings.Join(parts, "\n")))
}

// Inline renders inline Markdown (emphasis, strong, code, links, images)
// with HTML escaping.
func Inline(s string) string {
	var b strings.Builder
	i := 0
	for i < len(s) {
		switch {
		case s[i] == '`':
			end := strings.IndexByte(s[i+1:], '`')
			if end < 0 {
				b.WriteString(escape(s[i:]))
				return b.String()
			}
			fmt.Fprintf(&b, "<code>%s</code>", escape(s[i+1:i+1+end]))
			i += end + 2
		case strings.HasPrefix(s[i:], "**"):
			sub := s[i+2:]
			end := strings.Index(sub, "**")
			if end < 0 {
				b.WriteString(escape(s[i : i+2]))
				i += 2
				continue
			}
			// "***" closes strong at the last star of the run so that the
			// inner single star can pair (e.g. **bold *and em***).
			if end+2 < len(sub) && sub[end+2] == '*' {
				end++
			}
			fmt.Fprintf(&b, "<strong>%s</strong>", Inline(sub[:end]))
			i += end + 4
		case s[i] == '*':
			end := strings.IndexByte(s[i+1:], '*')
			if end < 0 {
				b.WriteString(escape(s[i : i+1]))
				i++
				continue
			}
			fmt.Fprintf(&b, "<em>%s</em>", Inline(s[i+1:i+1+end]))
			i += end + 2
		case s[i] == '!' && i+1 < len(s) && s[i+1] == '[':
			alt, url, n := parseLink(s[i+1:])
			if n == 0 {
				b.WriteString(escape(s[i : i+1]))
				i++
				continue
			}
			fmt.Fprintf(&b, "<img src=%q alt=%q>", url, alt)
			i += n + 1
		case s[i] == '[':
			text, url, n := parseLink(s[i:])
			if n == 0 {
				b.WriteString(escape(s[i : i+1]))
				i++
				continue
			}
			fmt.Fprintf(&b, "<a href=%q>%s</a>", url, Inline(text))
			i += n
		default:
			j := strings.IndexAny(s[i:], "`*![")
			if j < 0 {
				b.WriteString(escape(s[i:]))
				return b.String()
			}
			if j == 0 {
				j = 1
			}
			b.WriteString(escape(s[i : i+j]))
			i += j
		}
	}
	return b.String()
}

// parseLink parses "[text](url)" at the start of s, returning text, url and
// the number of bytes consumed (0 when s is not a link).
func parseLink(s string) (text, url string, n int) {
	if len(s) == 0 || s[0] != '[' {
		return "", "", 0
	}
	close1 := strings.IndexByte(s, ']')
	if close1 < 0 || close1+1 >= len(s) || s[close1+1] != '(' {
		return "", "", 0
	}
	close2 := strings.IndexByte(s[close1+2:], ')')
	if close2 < 0 {
		return "", "", 0
	}
	return s[1:close1], s[close1+2 : close1+2+close2], close1 + close2 + 3
}

// htmlEntities maps each byte that escape rewrites to its entity; every
// other entry is empty. It is read-only, so all callers share it.
var htmlEntities = [256]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '"': "&quot;"}

// escape HTML-escapes &, <, > and ". Input with nothing to escape is
// returned as is; otherwise the escaped copy is sized exactly up front and
// costs one allocation (strings.Replacer costs two).
func escape(s string) string {
	n := len(s)
	for i := 0; i < len(s); i++ {
		if e := htmlEntities[s[i]]; e != "" {
			n += len(e) - 1
		}
	}
	if n == len(s) {
		return s
	}
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < len(s); i++ {
		if e := htmlEntities[s[i]]; e != "" {
			b.WriteString(e)
		} else {
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// Escape exposes HTML escaping for other packages that compose rendered
// fragments with plain text.
func Escape(s string) string { return escape(s) }
