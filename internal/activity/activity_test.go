package activity

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Activity {
	return &Activity{
		Slug:          "findsmallestcard",
		Title:         "FindSmallestCard",
		Date:          "2019-10-16",
		CS2013:        []string{"PD_ParallelDecomposition", "PD_ParallelAlgorithms"},
		TCPP:          []string{"TCPP_Algorithms", "TCPP_Programming"},
		Courses:       []string{"CS1", "CS2", "DSA"},
		Senses:        []string{"touch", "visual"},
		CS2013Details: []string{"PD_2", "PAAP_4"},
		TCPPDetails:   []string{"C_ParallelSelection", "C_Speedup"},
		Medium:        []string{"cards"},
		Author:        "Bachelis, Maxim, James and Stout",
		Details:       "Students each hold a card and cooperate to find the smallest.",
		Variations:    []string{"Moore's largest-card variant", "Ghafoor's CS1 adaptation"},
		Accessibility: "Tactile and visual; suitable for most audiences.",
		Assessment:    "None known.",
		Citations:     []string{"Bachelis et al., School Science and Mathematics, 1994."},
	}
}

func TestRenderParseRoundTrip(t *testing.T) {
	a := sample()
	content := a.Render()
	b, err := Parse(a.Slug, content)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, content)
	}
	if b.Title != a.Title || b.Date != a.Date || b.Author != a.Author {
		t.Errorf("header fields: %+v", b)
	}
	for name, pair := range map[string][2][]string{
		"cs2013":        {a.CS2013, b.CS2013},
		"tcpp":          {a.TCPP, b.TCPP},
		"courses":       {a.Courses, b.Courses},
		"senses":        {a.Senses, b.Senses},
		"cs2013details": {a.CS2013Details, b.CS2013Details},
		"tcppdetails":   {a.TCPPDetails, b.TCPPDetails},
		"medium":        {a.Medium, b.Medium},
		"variations":    {a.Variations, b.Variations},
		"citations":     {a.Citations, b.Citations},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s: %v vs %v", name, pair[0], pair[1])
		}
	}
	if b.Details != a.Details || b.Accessibility != a.Accessibility || b.Assessment != a.Assessment {
		t.Errorf("sections differ: %+v", b)
	}
}

func TestParseFig2Header(t *testing.T) {
	content := `---
title: "FindSmallestCard"
cs2013: ["PD_ParallelDecomposition", "PD_ParallelAlgorithms"]
tcpp: ["TCPP_Algorithms", "TCPP_Programming"]
courses: ["CS1", "CS2", "DSA"]
senses: ["touch", "visual"]
---

## Original Author/link

Gilbert Bachelis et al.

http://example.edu/findsmallestcard

---

## Citations

- Bachelis et al. 1994.
`
	a, err := Parse("findsmallestcard", content)
	if err != nil {
		t.Fatal(err)
	}
	if a.Title != "FindSmallestCard" {
		t.Errorf("title = %q", a.Title)
	}
	if !a.HasExternalResources() || len(a.Links) != 1 {
		t.Errorf("links = %v", a.Links)
	}
	if a.Author != "Gilbert Bachelis et al." {
		t.Errorf("author = %q", a.Author)
	}
	if len(a.Citations) != 1 {
		t.Errorf("citations = %v", a.Citations)
	}
}

func TestParseMarkdownLinkInAuthor(t *testing.T) {
	content := "---\ntitle: \"X\"\n---\n\n## Original Author/link\n\n[Paul Sivilotti](http://web.cse.ohio-state.edu/~sivilotti.1/)\n"
	a, err := Parse("x", content)
	if err != nil {
		t.Fatal(err)
	}
	if a.Author != "Paul Sivilotti" {
		t.Errorf("author = %q", a.Author)
	}
	if len(a.Links) != 1 || !strings.Contains(a.Links[0], "ohio-state") {
		t.Errorf("links = %v", a.Links)
	}
}

func TestParseNoExternalResources(t *testing.T) {
	content := "---\ntitle: \"X\"\n---\n\n## Original Author/link\n\nSomeone\n\n" +
		NoExternalNote + "\n\n---\n\n## Details\n\nHow it works.\n"
	a, err := Parse("x", content)
	if err != nil {
		t.Fatal(err)
	}
	if a.HasExternalResources() {
		t.Error("should have no external resources")
	}
	if a.Details != "How it works." {
		t.Errorf("details = %q", a.Details)
	}
}

func TestParseUnknownSection(t *testing.T) {
	content := "---\ntitle: \"X\"\n---\n\n## Mystery\n\nstuff\n"
	if _, err := Parse("x", content); err == nil || !strings.Contains(err.Error(), "Mystery") {
		t.Errorf("unknown section not rejected: %v", err)
	}
}

func TestParseBadFrontmatter(t *testing.T) {
	if _, err := Parse("x", "no header"); err == nil {
		t.Error("missing front matter accepted")
	}
}

func TestHasAssessment(t *testing.T) {
	a := sample()
	if a.HasAssessment() {
		t.Error("'None known.' should count as no assessment")
	}
	a.Assessment = "Pre/post quiz showed gains in CS1."
	if !a.HasAssessment() {
		t.Error("real assessment not detected")
	}
	a.Assessment = "  "
	if a.HasAssessment() {
		t.Error("blank assessment detected")
	}
}

func TestValidateOK(t *testing.T) {
	if errs := sample().Validate(); len(errs) != 0 {
		t.Fatalf("sample should validate: %v", errs)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	check := func(name string, mutate func(*Activity), wantSub string) {
		a := sample()
		mutate(a)
		errs := a.Validate()
		found := false
		for _, e := range errs {
			if strings.Contains(e.Error(), wantSub) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want error containing %q, got %v", name, wantSub, errs)
		}
	}
	check("empty title", func(a *Activity) { a.Title = "" }, "empty title")
	check("empty slug", func(a *Activity) { a.Slug = "" }, "empty slug")
	check("no author", func(a *Activity) { a.Author = "" }, "missing author")
	check("bad cs2013", func(a *Activity) { a.CS2013 = append(a.CS2013, "PD_Bogus") }, "unknown cs2013 term")
	check("bad tcpp", func(a *Activity) { a.TCPP = append(a.TCPP, "TCPP_Bogus") }, "unknown tcpp term")
	check("bad detail", func(a *Activity) { a.CS2013Details = append(a.CS2013Details, "PD_99") }, "out of range")
	check("detail without unit", func(a *Activity) { a.CS2013Details = append(a.CS2013Details, "DS_1") }, "requires cs2013 term")
	check("tcpp detail without area", func(a *Activity) { a.TCPPDetails = append(a.TCPPDetails, "C_Concurrency") }, "requires tcpp term")
	check("bad course", func(a *Activity) { a.Courses = append(a.Courses, "CS9") }, "unknown course")
	check("bad sense", func(a *Activity) { a.Senses = append(a.Senses, "smell") }, "unknown sense")
	check("bad medium", func(a *Activity) { a.Medium = append(a.Medium, "hologram") }, "unknown medium")
	check("duplicate term", func(a *Activity) { a.Courses = append(a.Courses, "CS1") }, "duplicate courses term")
	check("no details or links", func(a *Activity) { a.Links = nil; a.Details = "" }, "no external resources and no Details")
}

func TestTemplateMatchesFig1(t *testing.T) {
	tmpl := Template("example")
	// Fig. 1: title/date/tags header and seven sections separated by rules.
	for _, want := range []string{
		"title:", "date:", "tags:",
		"## " + SecAuthor, "## " + SecCS2013, "## " + SecTCPP,
		"## " + SecCourses, "## " + SecAccessibility,
		"## " + SecAssessment, "## " + SecCitations,
	} {
		if !strings.Contains(tmpl, want) {
			t.Errorf("template missing %q:\n%s", want, tmpl)
		}
	}
	if got := strings.Count(tmpl, "---"); got < 8 { // 2 fences + 6 separators
		t.Errorf("template has %d --- fences/rules, want >= 8", got)
	}
	if strings.Count(tmpl, "## ") != 7 {
		t.Errorf("template should have exactly 7 sections")
	}
}

func TestTermsInterface(t *testing.T) {
	a := sample()
	if a.Key() != "findsmallestcard" {
		t.Errorf("Key = %q", a.Key())
	}
	if got := a.Terms("cs2013"); !reflect.DeepEqual(got, a.CS2013) {
		t.Errorf("Terms(cs2013) = %v", got)
	}
	if got := a.Terms("medium"); !reflect.DeepEqual(got, a.Medium) {
		t.Errorf("Terms(medium) = %v", got)
	}
	if got := a.Terms("bogus"); got != nil {
		t.Errorf("Terms(bogus) = %v", got)
	}
}

func TestSortTags(t *testing.T) {
	a := sample()
	a.Courses = []string{"DSA", "CS1", "CS2"}
	a.SortTags()
	if !reflect.DeepEqual(a.Courses, []string{"CS1", "CS2", "DSA"}) {
		t.Errorf("SortTags: %v", a.Courses)
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Random subsets of valid tags must survive render/parse.
	courses := KnownCourses
	senses := KnownSenses
	f := func(cmask, smask uint8) bool {
		a := sample()
		a.Courses = nil
		for i, c := range courses {
			if cmask&(1<<uint(i%8)) != 0 && i < 8 {
				a.Courses = append(a.Courses, c)
			}
		}
		a.Senses = nil
		for i, s := range senses {
			if smask&(1<<uint(i)) != 0 {
				a.Senses = append(a.Senses, s)
			}
		}
		b, err := Parse(a.Slug, a.Render())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(b.Courses, a.Courses) && reflect.DeepEqual(b.Senses, a.Senses)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCoverageSectionsGenerated(t *testing.T) {
	content := sample().Render()
	// The CS2013 section should expand the tagged knowledge units and the
	// learning outcomes from cs2013details.
	if !strings.Contains(content, "**Parallel Decomposition**") {
		t.Errorf("CS2013 coverage section missing unit name:\n%s", content)
	}
	if !strings.Contains(content, "PD_2") {
		t.Error("CS2013 coverage section missing outcome detail")
	}
	if !strings.Contains(content, "**Algorithms**") {
		t.Error("TCPP coverage section missing area name")
	}
	if !strings.Contains(content, "C_Speedup") {
		t.Error("TCPP coverage section missing topic detail")
	}
}

func TestFingerprint(t *testing.T) {
	a, err := Parse("fp-test", "---\ntitle: \"FP\"\ncourses: [\"CS1\"]\n---\n\n## Original Author/link\n\nA. Author\n\n## Details\n\nSome steps.\n")
	if err != nil {
		t.Fatal(err)
	}
	fp := a.Fingerprint()
	if len(fp) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex digest", fp)
	}
	if a.Fingerprint() != fp {
		t.Error("fingerprint not stable across calls")
	}
	// The fingerprint is content-addressed over the canonical rendering:
	// a semantic change moves it, and two activities normalizing to the
	// same model share it.
	b, err := Parse("fp-test", "---\ntitle: \"FP\"\ncourses: [\"CS1\"]\n---\n\n## Original Author/link\n\nA. Author\n\n## Details\n\nDifferent steps.\n")
	if err != nil {
		t.Fatal(err)
	}
	if b.Fingerprint() == fp {
		t.Error("changed details kept the same fingerprint")
	}
	c, err := Parse("fp-test", a.Render())
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() != fp {
		t.Error("round-tripped activity has a different fingerprint")
	}
}

// TestFirstDuplicate: the pairwise scan for short tag lists and the set
// for long ones report the same first repeated term.
func TestFirstDuplicate(t *testing.T) {
	long := make([]string, 40)
	for i := range long {
		long[i] = strings.Repeat("t", i+1)
	}
	for _, tc := range []struct {
		xs   []string
		want string
	}{
		{nil, ""},
		{[]string{"a", "b", "c"}, ""},
		{[]string{"a", "b", "b", "a"}, "b"},
		{[]string{"a", "b", "c", "a", "b"}, "a"},
		{long, ""},
		{append(append([]string(nil), long...), long[30], long[2]), long[30]},
	} {
		if got := firstDuplicate(tc.xs); got != tc.want {
			t.Errorf("firstDuplicate(%d terms) = %q, want %q", len(tc.xs), got, tc.want)
		}
	}
}
