// Package activity defines the PDCunplugged content model: one unplugged
// activity per Markdown file, with the front-matter header of Fig. 2 and the
// seven body sections of Fig. 1 (Original Author/link, optional Details,
// CS2013 Knowledge Unit Coverage, TCPP Topics Coverage, Recommended Courses,
// Accessibility, Assessment, Citations).
package activity

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"pdcunplugged/internal/cs2013"
	"pdcunplugged/internal/frontmatter"
	"pdcunplugged/internal/markdown"
	"pdcunplugged/internal/tcpp"
)

// Section titles in the Fig. 1 template, in canonical order.
const (
	SecAuthor        = "Original Author/link"
	SecDetails       = "Details"
	SecVariations    = "Variations"
	SecCS2013        = "CS2013 Knowledge Unit Coverage"
	SecTCPP          = "TCPP Topics Coverage"
	SecCourses       = "Recommended Courses"
	SecAccessibility = "Accessibility"
	SecAssessment    = "Assessment"
	SecCitations     = "Citations"
)

// NoExternalNote is the sentence the paper specifies for activities whose
// author has no public-facing resources; a Details section then follows.
const NoExternalNote = "No external resources found. See details below."

// Course terms accepted by the courses taxonomy. College-level courses have
// separate terms while K-12 activities use the K_12 term (Section II-B).
var KnownCourses = []string{"K_12", "CS0", "CS1", "CS2", "DSA", "Systems", "Graduate", "Outreach"}

// Sense terms accepted by the senses taxonomy, including the general
// "accessible" term for activities presentable to diverse populations.
var KnownSenses = []string{"visual", "movement", "touch", "sound", "accessible"}

// Medium terms accepted by the hidden medium taxonomy.
var KnownMediums = []string{
	"analogy", "role-play", "game", "paper", "board", "cards",
	"pens", "coins", "food", "instrument", "objects", "discussion",
}

// Activity is one unplugged PDC activity.
type Activity struct {
	// Slug is the file name without extension and the URL path segment.
	Slug string
	// Title and Date come from the front-matter header.
	Title string
	Date  string

	// Source names the corpus adapter that contributed the activity
	// ("builtin", "csinparallel", a -src directory name…). It is stamped
	// by corpus loading, survives render→parse round-trips via the
	// front-matter `source` key, and is therefore covered by
	// Fingerprint(). Empty means unattributed (single-corpus legacy).
	Source string

	// Visible taxonomies (Section II-B).
	CS2013  []string // knowledge-unit terms, e.g. PD_ParallelDecomposition
	TCPP    []string // topic-area terms, e.g. TCPP_Algorithms
	Courses []string // e.g. CS1, DSA, K_12
	Senses  []string // e.g. visual, touch, accessible

	// Hidden taxonomies.
	CS2013Details []string // learning-outcome terms, e.g. PD_3
	TCPPDetails   []string // Bloom topic terms, e.g. C_Speedup
	Medium        []string // e.g. analogy, cards, role-play

	// Author is the activity author line from the first section.
	Author string
	// Links are the external resource URLs listed in the author section.
	// An activity with no links carries the NoExternalNote and a Details
	// section instead.
	Links []string

	// Body sections (raw Markdown).
	Details       string
	Variations    []string // known variations, one per line in the section
	CoursesNote   string   // prose in Recommended Courses beyond the terms
	Accessibility string
	Assessment    string
	Citations     []string // one citation per list item
}

// Key implements taxonomy.Entry.
func (a *Activity) Key() string { return a.Slug }

// Terms implements taxonomy.Entry for the six standard taxonomies.
func (a *Activity) Terms(tax string) []string {
	switch tax {
	case "cs2013":
		return a.CS2013
	case "tcpp":
		return a.TCPP
	case "courses":
		return a.Courses
	case "senses":
		return a.Senses
	case "cs2013details":
		return a.CS2013Details
	case "tcppdetails":
		return a.TCPPDetails
	case "medium":
		return a.Medium
	case "source":
		if a.Source == "" {
			return nil
		}
		return []string{a.Source}
	default:
		return nil
	}
}

// Fingerprint returns a content hash of the activity's canonical
// serialization (Render). Two activities whose parsed models are equal
// share a fingerprint even if their source files differ in formatting,
// which is exactly the identity the page cache wants: the rendered page
// depends only on the model. The hash covers every field Render emits —
// front-matter tags and all body sections.
func (a *Activity) Fingerprint() string {
	sum := sha256.Sum256(a.canonical())
	return hex.EncodeToString(sum[:])
}

// HeaderFingerprint returns a content hash of the activity's header: the
// fields listing pages (term, source and view pages, the index, the JSON
// API) read. It covers the slug, the whether-assessed bit (HasAssessment)
// and the canonical serialization's prefix up to the end of the author
// section, which holds the title, date, source, the seven tag lists, the
// author and the links. A body-only edit (details, variations, courses
// note, accessibility, assessment prose, citations) leaves it unchanged.
func (a *Activity) HeaderFingerprint() string {
	var buf [1024]byte // a header rarely outgrows it, so this stays on the stack
	b := append(append(buf[:0], a.Slug...), 0)
	if a.HasAssessment() {
		b = append(b, '1')
	} else {
		b = append(b, '0')
	}
	sum := sha256.Sum256(a.appendHeader(append(b, 0)))
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// HasExternalResources reports whether the activity links to slides,
// handouts or other materials (Section III-A reports this for 41% of the
// curation).
func (a *Activity) HasExternalResources() bool { return len(a.Links) > 0 }

// HasAssessment reports whether any assessment is recorded. The literal
// "None known." counts as no assessment.
func (a *Activity) HasAssessment() bool {
	t := strings.TrimSpace(a.Assessment)
	return t != "" && !strings.EqualFold(t, "None known.") && !strings.EqualFold(t, "None known")
}

// parseCalls counts Parse invocations process-wide. Cold-start tests
// assert that adopting a decoded snapshot never reparses Markdown.
var parseCalls atomic.Int64

// ParseCalls returns how many times Parse has run in this process.
func ParseCalls() int64 { return parseCalls.Load() }

// Parse reads an activity from its Markdown file content.
func Parse(slug, content string) (*Activity, error) {
	parseCalls.Add(1)
	doc, err := frontmatter.Parse(content)
	if err != nil {
		return nil, fmt.Errorf("activity %s: %w", slug, err)
	}
	a := &Activity{
		Slug:          slug,
		Title:         doc.Get("title"),
		Date:          doc.Get("date"),
		Source:        doc.Get("source"),
		CS2013:        doc.GetList("cs2013"),
		TCPP:          doc.GetList("tcpp"),
		Courses:       doc.GetList("courses"),
		Senses:        doc.GetList("senses"),
		CS2013Details: doc.GetList("cs2013details"),
		TCPPDetails:   doc.GetList("tcppdetails"),
		Medium:        doc.GetList("medium"),
	}
	for _, sec := range markdown.SplitSections(doc.Body) {
		switch sec.Title {
		case SecAuthor:
			a.parseAuthor(sec.Content)
		case SecDetails:
			a.Details = sec.Content
		case SecVariations:
			a.Variations = parseListItems(sec.Content)
		case SecCS2013, SecTCPP:
			// Generated from tags on render; prose is not retained.
		case SecCourses:
			// The rendered section leads with the generated course-term
			// list; only prose beyond it is retained as the note.
			note := strings.TrimSpace(strings.TrimPrefix(sec.Content, strings.Join(a.Courses, ", ")))
			if note != "None recommended yet." {
				a.CoursesNote = note
			}
		case SecAccessibility:
			a.Accessibility = sec.Content
		case SecAssessment:
			a.Assessment = sec.Content
		case SecCitations:
			a.Citations = parseListItems(sec.Content)
		case "":
			// Preamble before the first section; ignored.
		default:
			return nil, fmt.Errorf("activity %s: unknown section %q", slug, sec.Title)
		}
	}
	return a, nil
}

func (a *Activity) parseAuthor(content string) {
	for _, line := range strings.Split(content, "\n") {
		t := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "-"))
		if t == "" || t == NoExternalNote {
			continue
		}
		if text, url, n := linkParts(t); n {
			if a.Author == "" {
				a.Author = text
			}
			a.Links = append(a.Links, url)
			continue
		}
		if strings.HasPrefix(t, "http://") || strings.HasPrefix(t, "https://") {
			a.Links = append(a.Links, t)
			continue
		}
		if a.Author == "" {
			a.Author = t
		}
	}
}

func linkParts(s string) (text, url string, ok bool) {
	open := strings.IndexByte(s, '[')
	if open < 0 {
		return "", "", false
	}
	close1 := strings.IndexByte(s[open:], ']')
	if close1 < 0 {
		return "", "", false
	}
	close1 += open
	if close1+1 >= len(s) || s[close1+1] != '(' {
		return "", "", false
	}
	close2 := strings.IndexByte(s[close1+2:], ')')
	if close2 < 0 {
		return "", "", false
	}
	return strings.TrimSpace(s[:open] + s[open+1:close1]), s[close1+2 : close1+2+close2], true
}

func parseListItems(content string) []string {
	var out []string
	for _, line := range strings.Split(content, "\n") {
		t := strings.TrimSpace(line)
		t = strings.TrimPrefix(t, "- ")
		t = strings.TrimPrefix(t, "* ")
		if n := ordinal(t); n > 0 {
			t = t[n:]
		}
		t = strings.TrimSpace(t)
		if t != "" {
			out = append(out, t)
		}
	}
	return out
}

func ordinal(s string) int {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == 0 || i+1 >= len(s) || s[i] != '.' || s[i+1] != ' ' {
		return 0
	}
	return i + 2
}

// Render serializes the activity back to its Markdown file content in the
// Fig. 1 section order, generating the two coverage sections from tags.
func (a *Activity) Render() string { return string(a.canonical()) }

// canonical returns the canonical Markdown file in one buffer, sized from
// the activity's variable-length fields so that it rarely regrows.
func (a *Activity) canonical() []byte {
	n := 1024 + len(a.Title) + len(a.Author) + len(a.Details) + len(a.CoursesNote) +
		len(a.Accessibility) + len(a.Assessment)
	for _, ss := range [][]string{a.Links, a.Variations, a.Citations} {
		for _, s := range ss {
			n += len(s) + 4
		}
	}
	return a.appendCanonical(make([]byte, 0, n))
}

// appendCanonical appends the canonical Markdown file (front matter, then
// the sections joined as markdown.JoinSections joins them) to b. Render
// and Fingerprint share it, so a fingerprint costs one buffer and one
// hash.
func (a *Activity) appendCanonical(b []byte) []byte {
	b = a.appendHeader(b)
	var at int
	if a.Details != "" {
		b, at = appendHeading(b, SecDetails, false)
		b = endSection(append(b, a.Details...), at)
	}
	if len(a.Variations) > 0 {
		b, at = appendHeading(b, SecVariations, false)
		b = endSection(appendBullets(b, at, a.Variations), at)
	}

	b, at = appendHeading(b, SecCS2013, false)
	if len(a.CS2013) == 0 {
		b = append(b, "None."...)
	} else {
		for i, term := range a.CS2013 {
			u, ok := cs2013.ByTerm(term)
			if !ok {
				b = appendItem(b, term)
				continue
			}
			if i > 0 {
				b = append(b, '\n')
			}
			b = appendStrong(b, u.Name)
			for _, det := range a.CS2013Details {
				du, o, err := cs2013.ParseDetail(det)
				if err == nil && du.Abbrev == u.Abbrev {
					b = append(b, "- "...)
					b = append(b, det...)
					b = append(b, " ("...)
					b = append(b, o.Tier.String()...)
					b = append(b, "): "...)
					b = append(b, o.Text...)
					b = append(b, '\n')
				}
			}
		}
		b = trimFrom(b, at)
	}
	b = endSection(b, at)

	b, at = appendHeading(b, SecTCPP, false)
	if len(a.TCPP) == 0 {
		b = append(b, "None."...)
	} else {
		for i, term := range a.TCPP {
			ar, ok := tcpp.ByTerm(term)
			if !ok {
				b = appendItem(b, term)
				continue
			}
			if i > 0 {
				b = append(b, '\n')
			}
			b = appendStrong(b, ar.Name)
			for _, det := range a.TCPPDetails {
				da, tp, err := tcpp.FindTopic(det)
				if err == nil && da.Name == ar.Name {
					b = append(b, "- "...)
					b = append(b, det...)
					b = append(b, ": "...)
					b = append(b, tp.Bloom.String()...)
					b = append(b, ' ')
					b = append(b, tp.Name...)
					b = append(b, '\n')
				}
			}
		}
		b = trimFrom(b, at)
	}
	b = endSection(b, at)

	b, at = appendHeading(b, SecCourses, false)
	parts := 0
	for i, c := range a.Courses {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, c...)
		parts = 1
	}
	if a.CoursesNote != "" {
		b = appendLine(b, a.CoursesNote, parts)
		parts++
	}
	if parts == 0 {
		b = append(b, "None recommended yet."...)
	}
	b = endSection(b, at)

	b, at = appendHeading(b, SecAccessibility, false)
	b = endSection(append(b, a.Accessibility...), at)
	b, at = appendHeading(b, SecAssessment, false)
	b = endSection(append(b, a.Assessment...), at)
	b, at = appendHeading(b, SecCitations, false)
	return endSection(appendBullets(b, at, a.Citations), at)
}

// appendHeader appends the canonical file's header: the front matter and
// the author section, which together hold every field HeaderFingerprint
// covers except the slug and the assessment bit. It is the prefix of
// appendCanonical's output.
func (a *Activity) appendHeader(b []byte) []byte {
	b = append(b, "---\n"...)
	b = appendScalar(b, "title", a.Title)
	if a.Date != "" {
		b = appendScalar(b, "date", a.Date)
	}
	if a.Source != "" {
		b = appendScalar(b, "source", a.Source)
	}
	b = appendList(b, "cs2013", a.CS2013)
	b = appendList(b, "tcpp", a.TCPP)
	b = appendList(b, "courses", a.Courses)
	b = appendList(b, "senses", a.Senses)
	b = appendList(b, "cs2013details", a.CS2013Details)
	b = appendList(b, "tcppdetails", a.TCPPDetails)
	b = appendList(b, "medium", a.Medium)
	b = append(b, "---\n\n"...)

	b, at := appendHeading(b, SecAuthor, true)
	lines := 0
	if a.Author != "" {
		b = append(b, a.Author...)
		lines++
	}
	for _, l := range a.Links {
		b = appendLine(b, l, lines)
		lines++
	}
	if len(a.Links) == 0 {
		b = appendLine(b, NoExternalNote, lines)
	}
	return endSection(b, at)
}

// appendScalar appends a quoted front-matter scalar line.
func appendScalar(b []byte, key, value string) []byte {
	b = append(b, key...)
	b = append(b, ": \""...)
	b = append(b, value...)
	return append(b, "\"\n"...)
}

// appendList appends a flow-style front-matter list line; an empty list
// is left out.
func appendList(b []byte, key string, values []string) []byte {
	if len(values) == 0 {
		return b
	}
	b = append(b, key...)
	b = append(b, ": ["...)
	for i, v := range values {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, '"')
		b = append(b, v...)
		b = append(b, '"')
	}
	return append(b, "]\n"...)
}

// appendHeading starts a body section: the separator between sections,
// the title line and the blank line that opens the content. It returns
// the offset where the content starts.
func appendHeading(b []byte, title string, first bool) ([]byte, int) {
	if !first {
		b = append(b, "\n---\n\n"...)
	}
	b = append(b, "## "...)
	b = append(b, title...)
	b = append(b, "\n\n"...)
	return b, len(b)
}

// endSection closes a section whose content starts at offset at. An empty
// section keeps only its title line.
func endSection(b []byte, at int) []byte {
	if len(b) == at {
		return b[:at-1]
	}
	return append(b, '\n')
}

// appendLine appends s as the next of a section's paragraphs, n of which
// precede it.
func appendLine(b []byte, s string, n int) []byte {
	if n > 0 {
		b = append(b, "\n\n"...)
	}
	return append(b, s...)
}

// appendItem appends one "- item" list line.
func appendItem(b []byte, item string) []byte {
	b = append(b, "- "...)
	b = append(b, item...)
	return append(b, '\n')
}

// appendStrong appends one "**name**" line.
func appendStrong(b []byte, name string) []byte {
	b = append(b, "**"...)
	b = append(b, name...)
	return append(b, "**\n"...)
}

// appendBullets appends items as a bulleted list and trims the section
// content starting at offset at.
func appendBullets(b []byte, at int, items []string) []byte {
	for _, it := range items {
		b = appendItem(b, it)
	}
	return trimFrom(b, at)
}

// trimFrom trims leading and trailing white space from b[at:] in place,
// as strings.TrimSpace trims a section's content.
func trimFrom(b []byte, at int) []byte {
	return b[:at+copy(b[at:], bytes.TrimSpace(b[at:]))]
}

// Template returns the Fig. 1 archetype: the file a contributor starts from,
// equivalent to `hugo new activities/<slug>.md`.
func Template(title string) string {
	doc := frontmatter.New()
	doc.Set("title", title)
	doc.Set("date", "")
	doc.SetList("tags", nil)
	secs := []markdown.Section{
		{Title: SecAuthor}, {Title: SecCS2013}, {Title: SecTCPP},
		{Title: SecCourses}, {Title: SecAccessibility},
		{Title: SecAssessment}, {Title: SecCitations},
	}
	doc.Body = markdown.JoinSections(secs)
	return doc.Render()
}

// Validate checks the activity against the content rules the curator applies
// to contributions. It returns all problems found rather than stopping at
// the first.
func (a *Activity) Validate() []error {
	var errs []error
	fail := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf("activity %s: "+format, append([]interface{}{a.Slug}, args...)...))
	}
	if a.Slug == "" {
		fail("empty slug")
	}
	if a.Title == "" {
		fail("empty title")
	}
	if a.Author == "" {
		fail("missing author in %q section", SecAuthor)
	}
	if len(a.Links) == 0 && a.Details == "" {
		fail("no external resources and no Details section; the paper requires %q plus details", NoExternalNote)
	}
	for _, term := range a.CS2013 {
		if _, ok := cs2013.ByTerm(term); !ok {
			fail("unknown cs2013 term %q", term)
		}
	}
	for _, term := range a.TCPP {
		if _, ok := tcpp.ByTerm(term); !ok {
			fail("unknown tcpp term %q", term)
		}
	}
	for _, det := range a.CS2013Details {
		u, _, err := cs2013.ParseDetail(det)
		if err != nil {
			fail("%v", err)
			continue
		}
		if !contains(a.CS2013, u.Term) {
			fail("detail %s requires cs2013 term %s", det, u.Term)
		}
	}
	for _, det := range a.TCPPDetails {
		ar, _, err := tcpp.FindTopic(det)
		if err != nil {
			fail("%v", err)
			continue
		}
		if !contains(a.TCPP, ar.Term) {
			fail("detail %s requires tcpp term %s", det, ar.Term)
		}
	}
	for _, c := range a.Courses {
		if !contains(KnownCourses, c) {
			fail("unknown course term %q", c)
		}
	}
	for _, s := range a.Senses {
		if !contains(KnownSenses, s) {
			fail("unknown sense term %q", s)
		}
	}
	for _, m := range a.Medium {
		if !contains(KnownMediums, m) {
			fail("unknown medium term %q", m)
		}
	}
	for _, set := range []struct {
		name  string
		terms []string
	}{
		{"cs2013", a.CS2013}, {"tcpp", a.TCPP}, {"courses", a.Courses},
		{"senses", a.Senses}, {"cs2013details", a.CS2013Details},
		{"tcppdetails", a.TCPPDetails}, {"medium", a.Medium},
	} {
		if dup := firstDuplicate(set.terms); dup != "" {
			fail("duplicate %s term %q", set.name, dup)
		}
	}
	return errs
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// firstDuplicate returns the first term listed twice, or "". Tag lists
// are short, so a pairwise scan answers without allocating; long lists
// fall back to a set.
func firstDuplicate(xs []string) string {
	if len(xs) <= 16 {
		for i, x := range xs {
			for _, y := range xs[:i] {
				if x == y {
					return x
				}
			}
		}
		return ""
	}
	seen := make(map[string]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return x
		}
		seen[x] = true
	}
	return ""
}

// SortTags normalizes tag ordering in place (sorted lexicographically),
// which keeps rendered files and diffs stable.
func (a *Activity) SortTags() {
	for _, s := range [][]string{a.CS2013, a.TCPP, a.Courses, a.Senses, a.CS2013Details, a.TCPPDetails, a.Medium} {
		sort.Strings(s)
	}
}
