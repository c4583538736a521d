package activity

import (
	"fmt"
	"strings"

	"pdcunplugged/internal/cs2013"
	"pdcunplugged/internal/frontmatter"
	"pdcunplugged/internal/markdown"
	"pdcunplugged/internal/tcpp"
)

// RenderOracle is the reference canonical rendering: the activity built
// section by section as strings, joined by markdown.JoinSections and
// fenced by frontmatter.Doc. Render and Fingerprint write the same bytes
// into one buffer; the render tests and FuzzActivityRender hold them to
// this.
func RenderOracle(a *Activity) string {
	doc := frontmatter.New()
	doc.Set("title", a.Title)
	if a.Date != "" {
		doc.Set("date", a.Date)
	}
	if a.Source != "" {
		doc.Set("source", a.Source)
	}
	for _, kv := range []struct {
		key  string
		vals []string
	}{
		{"cs2013", a.CS2013}, {"tcpp", a.TCPP}, {"courses", a.Courses},
		{"senses", a.Senses}, {"cs2013details", a.CS2013Details},
		{"tcppdetails", a.TCPPDetails}, {"medium", a.Medium},
	} {
		if len(kv.vals) > 0 {
			doc.SetList(kv.key, kv.vals)
		}
	}

	var secs []markdown.Section
	secs = append(secs, markdown.Section{Title: SecAuthor, Content: oracleAuthor(a)})
	if a.Details != "" {
		secs = append(secs, markdown.Section{Title: SecDetails, Content: a.Details})
	}
	if len(a.Variations) > 0 {
		secs = append(secs, markdown.Section{Title: SecVariations, Content: oracleBulleted(a.Variations)})
	}
	secs = append(secs,
		markdown.Section{Title: SecCS2013, Content: oracleCS2013(a)},
		markdown.Section{Title: SecTCPP, Content: oracleTCPP(a)},
		markdown.Section{Title: SecCourses, Content: oracleCourses(a)},
		markdown.Section{Title: SecAccessibility, Content: a.Accessibility},
		markdown.Section{Title: SecAssessment, Content: a.Assessment},
		markdown.Section{Title: SecCitations, Content: oracleBulleted(a.Citations)},
	)
	doc.Body = markdown.JoinSections(secs)
	return doc.Render()
}

func oracleAuthor(a *Activity) string {
	var lines []string
	if a.Author != "" {
		lines = append(lines, a.Author)
	}
	for _, l := range a.Links {
		lines = append(lines, l)
	}
	if len(a.Links) == 0 {
		lines = append(lines, NoExternalNote)
	}
	return strings.Join(lines, "\n\n")
}

func oracleCS2013(a *Activity) string {
	if len(a.CS2013) == 0 {
		return "None."
	}
	var b strings.Builder
	for i, term := range a.CS2013 {
		u, ok := cs2013.ByTerm(term)
		if !ok {
			fmt.Fprintf(&b, "- %s\n", term)
			continue
		}
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "**%s**\n", u.Name)
		for _, det := range a.CS2013Details {
			du, o, err := cs2013.ParseDetail(det)
			if err == nil && du.Abbrev == u.Abbrev {
				fmt.Fprintf(&b, "- %s (%s): %s\n", det, o.Tier, o.Text)
			}
		}
	}
	return strings.TrimSpace(b.String())
}

func oracleTCPP(a *Activity) string {
	if len(a.TCPP) == 0 {
		return "None."
	}
	var b strings.Builder
	for i, term := range a.TCPP {
		ar, ok := tcpp.ByTerm(term)
		if !ok {
			fmt.Fprintf(&b, "- %s\n", term)
			continue
		}
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "**%s**\n", ar.Name)
		for _, det := range a.TCPPDetails {
			da, tp, err := tcpp.FindTopic(det)
			if err == nil && da.Name == ar.Name {
				fmt.Fprintf(&b, "- %s: %s %s\n", det, tp.Bloom, tp.Name)
			}
		}
	}
	return strings.TrimSpace(b.String())
}

func oracleCourses(a *Activity) string {
	var parts []string
	if len(a.Courses) > 0 {
		parts = append(parts, strings.Join(a.Courses, ", "))
	}
	if a.CoursesNote != "" {
		parts = append(parts, a.CoursesNote)
	}
	if len(parts) == 0 {
		return "None recommended yet."
	}
	return strings.Join(parts, "\n\n")
}

func oracleBulleted(items []string) string {
	var b strings.Builder
	for _, it := range items {
		fmt.Fprintf(&b, "- %s\n", it)
	}
	return strings.TrimSpace(b.String())
}
