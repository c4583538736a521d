package markdown

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHeadings(t *testing.T) {
	cases := []struct{ in, want string }{
		{"# Title", "<h1>Title</h1>\n"},
		{"## Details", "<h2>Details</h2>\n"},
		{"###### deep", "<h6>deep</h6>\n"},
		{"####### toodeep", "<h6>toodeep</h6>\n"},
	}
	for _, c := range cases {
		if got := Render(c.in); got != c.want {
			t.Errorf("Render(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParagraphJoining(t *testing.T) {
	got := Render("line one\nline two\n\nnext para")
	want := "<p>line one\nline two</p>\n<p>next para</p>\n"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestHorizontalRule(t *testing.T) {
	if got := Render("---"); got != "<hr>\n" {
		t.Errorf("rule: %q", got)
	}
	if got := Render("- - -"); got != "<hr>\n" {
		t.Errorf("spaced rule: %q", got)
	}
	// Two dashes are not a rule.
	if got := Render("--"); !strings.Contains(got, "<p>") {
		t.Errorf("two dashes should be a paragraph: %q", got)
	}
}

func TestUnorderedList(t *testing.T) {
	got := Render("- a\n- b\n* c")
	want := "<ul>\n<li>a</li>\n<li>b</li>\n<li>c</li>\n</ul>\n"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestOrderedList(t *testing.T) {
	got := Render("1. first\n2. second\n10. tenth")
	want := "<ol>\n<li>first</li>\n<li>second</li>\n<li>tenth</li>\n</ol>\n"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestNestedList(t *testing.T) {
	got := Render("- outer\n  - inner\n- next")
	if !strings.Contains(got, "<li>outer\n<ul>\n<li>inner</li>\n</ul>\n</li>") {
		t.Errorf("nested list: %q", got)
	}
	if !strings.Contains(got, "<li>next</li>") {
		t.Errorf("sibling after nested lost: %q", got)
	}
}

func TestCodeBlock(t *testing.T) {
	got := Render("```go\nx := <1>\n```")
	want := "<pre><code class=\"language-go\">x := &lt;1&gt;</code></pre>\n"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
	// Unterminated fence consumes to EOF without panic.
	got = Render("```\ncode")
	if !strings.Contains(got, "<pre><code>code</code></pre>") {
		t.Errorf("unterminated fence: %q", got)
	}
}

func TestBlockquote(t *testing.T) {
	got := Render("> quoted\n> more")
	if !strings.Contains(got, "<blockquote>\n<p>quoted\nmore</p>\n</blockquote>") {
		t.Errorf("blockquote: %q", got)
	}
}

func TestTable(t *testing.T) {
	src := "| KU | Acts |\n|---|---|\n| PD | 21 |\n| PF | 2 |"
	got := Render(src)
	for _, want := range []string{"<table>", "<th>KU</th>", "<td>PD</td>", "<td>21</td>", "<td>2</td>", "</table>"} {
		if !strings.Contains(got, want) {
			t.Errorf("table missing %q in %q", want, got)
		}
	}
	// A pipe line without a separator row is a plain paragraph.
	got = Render("| not | a table |")
	if strings.Contains(got, "<table>") {
		t.Errorf("lone pipe row became a table: %q", got)
	}
}

func TestInline(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"*em*", "<em>em</em>"},
		{"**strong**", "<strong>strong</strong>"},
		{"`code`", "<code>code</code>"},
		{"**bold *and em***", "<strong>bold <em>and em</em></strong>"},
		{"[text](http://x)", `<a href="http://x">text</a>`},
		{"![alt](img.png)", `<img src="img.png" alt="alt">`},
		{"a < b & c > d", "a &lt; b &amp; c &gt; d"},
		{"`<script>`", "<code>&lt;script&gt;</code>"},
		{"dangling *star", "dangling *star"},
		{"dangling ` tick", "dangling ` tick"},
		{"not [a link", "not [a link"},
		{"bang! end", "bang! end"},
	}
	for _, c := range cases {
		if got := Inline(c.in); got != c.want {
			t.Errorf("Inline(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestLinkInsideEmphasis(t *testing.T) {
	got := Inline("*see [site](u)*")
	if got != `<em>see <a href="u">site</a></em>` {
		t.Errorf("got %q", got)
	}
}

func TestRenderNeverPanicsAndAlwaysEscapes(t *testing.T) {
	f := func(s string) bool {
		out := Render(s)
		// No raw angle brackets from input may survive: every '<' in the
		// output must start one of our known tags.
		stripped := out
		for _, tag := range []string{
			"<h1>", "<h2>", "<h3>", "<h4>", "<h5>", "<h6>",
			"</h1>", "</h2>", "</h3>", "</h4>", "</h5>", "</h6>",
			"<p>", "</p>", "<hr>", "<ul>", "</ul>", "<ol>", "</ol>",
			"<li>", "</li>", "<pre>", "</pre>", "<code", "</code>",
			"<blockquote>", "</blockquote>", "<table>", "</table>",
			"<thead>", "</thead>", "<tbody>", "</tbody>",
			"<tr>", "</tr>", "<th>", "</th>", "<td>", "</td>",
			"<em>", "</em>", "<strong>", "</strong>",
			"<a href=", "</a>", "<img src=",
		} {
			stripped = strings.ReplaceAll(stripped, tag, "")
		}
		// Remaining '<' would indicate unescaped input.
		return !strings.ContainsAny(stripped, "<")
	}
	cfg := &quick.Config{MaxCount: 400}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// Also check a few adversarial fixed inputs.
	for _, s := range []string{"<script>alert(1)</script>", "## <b>", "- <i>", "> <u>", "|<x>|\n|---|\n|<y>|"} {
		if strings.Contains(Render(s), "<script") || strings.Contains(Render(s), "<b>") {
			t.Errorf("unescaped HTML survived for %q: %q", s, Render(s))
		}
	}
}

func TestBalancedTagsProperty(t *testing.T) {
	f := func(s string) bool {
		out := Render(s)
		for _, pair := range [][2]string{
			{"<ul>", "</ul>"}, {"<ol>", "</ol>"}, {"<li>", "</li>"},
			{"<p>", "</p>"}, {"<blockquote>", "</blockquote>"},
			{"<table>", "</table>"}, {"<em>", "</em>"}, {"<strong>", "</strong>"},
		} {
			if strings.Count(out, pair[0]) != strings.Count(out, pair[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestSplitSections(t *testing.T) {
	body := `## Original Author/link

Bachelis et al.

---

## Details

Deck of cards.

---

## Citations

[10]
`
	secs := SplitSections(body)
	if len(secs) != 3 {
		t.Fatalf("got %d sections: %+v", len(secs), secs)
	}
	if secs[0].Title != "Original Author/link" || secs[0].Content != "Bachelis et al." {
		t.Errorf("section 0 = %+v", secs[0])
	}
	if secs[1].Title != "Details" || secs[1].Content != "Deck of cards." {
		t.Errorf("section 1 = %+v", secs[1])
	}
	if secs[2].Title != "Citations" || secs[2].Content != "[10]" {
		t.Errorf("section 2 = %+v", secs[2])
	}
}

func TestSplitSectionsPreamble(t *testing.T) {
	secs := SplitSections("intro text\n\n## First\n\nbody")
	if len(secs) != 2 || secs[0].Title != "" || secs[0].Content != "intro text" {
		t.Fatalf("preamble handling: %+v", secs)
	}
}

func TestSplitSectionsRuleInsideContent(t *testing.T) {
	// A rule NOT followed by a heading stays in the content.
	secs := SplitSections("## A\n\nbefore\n\n---\n\nafter more text\n\nfinal")
	if len(secs) != 1 {
		t.Fatalf("sections: %+v", secs)
	}
	if !strings.Contains(secs[0].Content, "---") {
		t.Errorf("mid-content rule was dropped: %q", secs[0].Content)
	}
}

func TestSplitEmptyTemplateSections(t *testing.T) {
	// The Fig. 1 template: seven empty sections separated by rules.
	tmpl := "## Original Author/link\n\n---\n\n## CS2013 Knowledge Unit Coverage\n\n---\n\n## TCPP Topics Coverage\n\n---\n\n## Recommended Courses\n\n---\n\n## Accessibility\n\n---\n\n## Assessment\n\n---\n\n## Citations\n"
	secs := SplitSections(tmpl)
	if len(secs) != 7 {
		t.Fatalf("template should have 7 sections, got %d: %+v", len(secs), secs)
	}
	for _, s := range secs {
		if s.Content != "" {
			t.Errorf("template section %q not empty: %q", s.Title, s.Content)
		}
	}
}

func TestJoinSplitRoundTrip(t *testing.T) {
	secs := []Section{
		{Title: "Original Author/link", Content: "Someone"},
		{Title: "Details", Content: "Line one.\n\nLine two."},
		{Title: "Citations", Content: "[1] A paper."},
	}
	got := SplitSections(JoinSections(secs))
	if len(got) != len(secs) {
		t.Fatalf("round trip count: %d vs %d", len(got), len(secs))
	}
	for i := range secs {
		if got[i] != secs[i] {
			t.Errorf("section %d: %+v vs %+v", i, got[i], secs[i])
		}
	}
}

func TestSectionsQuickRoundTrip(t *testing.T) {
	sanitize := func(s string) string {
		s = strings.ReplaceAll(s, "\r", "")
		lines := strings.Split(s, "\n")
		var keep []string
		for _, l := range lines {
			t := strings.TrimSpace(l)
			if strings.HasPrefix(t, "## ") || isRule(t) {
				continue
			}
			keep = append(keep, t)
		}
		return strings.TrimSpace(strings.Join(keep, "\n"))
	}
	f := func(a, b string) bool {
		secs := []Section{
			{Title: "Details", Content: sanitize(a)},
			{Title: "Assessment", Content: sanitize(b)},
		}
		got := SplitSections(JoinSections(secs))
		if len(got) != 2 {
			return false
		}
		return got[0] == secs[0] && got[1] == secs[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
