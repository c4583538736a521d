package site

import (
	"fmt"
	"html/template"
	"strings"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/core"
	"pdcunplugged/internal/corpus"
	"pdcunplugged/internal/markdown"
	"pdcunplugged/internal/taxonomy"
)

// renderer renders one job's pages into a job-local map, so concurrent
// jobs never share a write target. The builder merges the maps after the
// worker pool drains, which is what makes a parallel build byte-identical
// to a serial one: every page is produced by exactly one deterministic
// render with no cross-job ordering effects.
type renderer struct {
	repo  *core.Repository
	pages map[string][]byte
}

func newRenderer(repo *core.Repository) *renderer {
	return &renderer{repo: repo, pages: map[string][]byte{}}
}

// badge is one taxonomy chip in an activity header (Fig. 3).
type badge struct {
	Term  string
	Color string
	Href  string
}

// headerBadges builds the Fig. 3 chips for the four visible taxonomies.
func (rn *renderer) headerBadges(a *activity.Activity) []badge {
	var out []badge
	for _, def := range taxonomy.Standard() {
		if def.Hidden {
			continue
		}
		for _, term := range a.Terms(def.Name) {
			out = append(out, badge{
				Term:  term,
				Color: def.Color,
				Href:  fmt.Sprintf("/%s/%s/", def.Name, taxonomy.Slug(term)),
			})
		}
	}
	return out
}

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}} | PDCunplugged</title>
<link rel="stylesheet" href="/style.css">
</head>
<body>
<header>
<h1><a href="/">PDCunplugged</a></h1>
<nav>
<a href="/views/cs2013/">CS2013</a>
<a href="/views/tcpp/">TCPP</a>
<a href="/views/courses/">Courses</a>
<a href="/views/accessibility/">Accessibility</a>
<a href="/views/dramatizations/">Dramatizations</a>
{{if .HasSources}}<a href="/sources/">Sources</a>
{{end}}</nav>
</header>
<main>
<h2>{{.Title}}</h2>
{{if .Badges}}<p class="badges">{{range .Badges}}<a class="badge {{.Color}}" href="{{.Href}}">{{.Term}}</a> {{end}}</p>{{end}}
{{.Body}}
</main>
<footer>A free repository of unplugged Parallel &amp; Distributed Computing activities.</footer>
</body>
</html>
`))

type pageData struct {
	Title  string
	Badges []badge
	Body   template.HTML
	// HasSources gates the Sources nav link: only federated
	// (source-stamped) corpora have per-source browse pages to link to.
	HasSources bool
}

func (rn *renderer) renderPage(path, title string, badges []badge, bodyHTML string) error {
	var b strings.Builder
	err := pageTmpl.Execute(&b, pageData{
		Title:      title,
		Badges:     badges,
		Body:       template.HTML(bodyHTML), // built from escaped fragments below
		HasSources: len(rn.repo.Sources()) > 0,
	})
	if err != nil {
		return fmt.Errorf("site: render %s: %w", path, err)
	}
	rn.pages[path] = []byte(b.String())
	return nil
}

func (rn *renderer) buildActivity(a *activity.Activity) error {
	var body strings.Builder
	section := func(title, md string) {
		if strings.TrimSpace(md) == "" {
			return
		}
		fmt.Fprintf(&body, "<section><h3>%s</h3>\n%s</section>\n", markdown.Escape(title), markdown.Render(md))
	}
	var author strings.Builder
	if a.Author != "" {
		author.WriteString(a.Author + "\n\n")
	}
	for _, l := range a.Links {
		fmt.Fprintf(&author, "[%s](%s)\n\n", l, l)
	}
	if len(a.Links) == 0 {
		author.WriteString(activity.NoExternalNote + "\n")
	}
	section(activity.SecAuthor, author.String())
	if simName, ok := corpus.SimulationFor(a.Slug); ok {
		section("Runnable Dramatization",
			fmt.Sprintf("This activity ships with an executable goroutine dramatization: `pdcu sim run %s -trace`.", simName))
	}
	if a.Source != "" {
		section("Corpus Source",
			fmt.Sprintf("This activity entered the repository through the `%s` corpus source ([browse the source](/sources/%s/)).", a.Source, a.Source))
	}
	if len(a.CS2013Details)+len(a.TCPPDetails) > 0 {
		section("Assessment Sheet",
			fmt.Sprintf("A printable [pre/post assessment](/assess/%s/) is generated from this activity's learning outcomes.", a.Slug))
	}
	section(activity.SecDetails, a.Details)
	if len(a.Variations) > 0 {
		section(activity.SecVariations, "- "+strings.Join(a.Variations, "\n- "))
	}
	section(activity.SecCourses, strings.Join(a.Courses, ", ")+"\n\n"+a.CoursesNote)
	section(activity.SecAccessibility, a.Accessibility)
	section(activity.SecAssessment, a.Assessment)
	if len(a.Citations) > 0 {
		section(activity.SecCitations, "- "+strings.Join(a.Citations, "\n- "))
	}
	return rn.renderPage(
		"activities/"+a.Slug+"/index.html",
		a.Title,
		rn.headerBadges(a),
		body.String(),
	)
}

func (rn *renderer) activityList(slugs []string) string {
	var b strings.Builder
	b.WriteString("<ul class=\"activity-list\">\n")
	for _, slug := range slugs {
		a, ok := rn.repo.Get(slug)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "<li><a href=\"/activities/%s/\">%s</a>", slug, markdown.Escape(a.Title))
		if a.HasExternalResources() {
			b.WriteString(" <span class=\"res\">[materials]</span>")
		}
		b.WriteString("</li>\n")
	}
	b.WriteString("</ul>\n")
	return b.String()
}

func (rn *renderer) buildIndex() error {
	var body strings.Builder
	fmt.Fprintf(&body, "<p>%d unplugged activities curated from thirty years of PDC literature.</p>\n", rn.repo.Len())
	body.WriteString(rn.activityList(rn.repo.Slugs()))
	return rn.renderPage("index.html", "All Activities", nil, body.String())
}

// buildSourcePage renders one corpus source's browse page: every
// activity that entered the repository through that adapter.
func (rn *renderer) buildSourcePage(src string) error {
	slugs := rn.repo.BySource(src)
	var body strings.Builder
	fmt.Fprintf(&body, "<p>%d activities from the <code>%s</code> corpus source.</p>\n",
		len(slugs), markdown.Escape(src))
	body.WriteString(rn.activityList(slugs))
	return rn.renderPage("sources/"+src+"/index.html", "Source: "+src, nil, body.String())
}

// buildSourcesPage renders the federation overview listing every corpus
// source with its activity count.
func (rn *renderer) buildSourcesPage() error {
	var body strings.Builder
	body.WriteString("<p>This site federates the following corpus sources.</p>\n<ul>\n")
	for _, src := range rn.repo.Sources() {
		fmt.Fprintf(&body, "<li><a href=\"/sources/%s/\">%s</a> — %d activities</li>\n",
			src, markdown.Escape(src), rn.repo.SourceLen(src))
	}
	body.WriteString("</ul>\n")
	return rn.renderPage("sources/index.html", "Corpus Sources", nil, body.String())
}

// buildTermPage renders one taxonomy term's page: the activities that
// list the term.
func (rn *renderer) buildTermPage(def taxonomy.Def, page taxonomy.TermPage) error {
	var body strings.Builder
	fmt.Fprintf(&body, "<p>%d activities tagged <code>%s</code> in the %s taxonomy.</p>\n",
		len(page.Entries), markdown.Escape(page.Term), markdown.Escape(def.Title))
	body.WriteString(rn.activityList(page.Entries))
	path := fmt.Sprintf("%s/%s/index.html", def.Name, taxonomy.Slug(page.Term))
	return rn.renderPage(path, def.Title+": "+page.Term, nil, body.String())
}

func (rn *renderer) buildCS2013View() error {
	var body strings.Builder
	for _, v := range rn.repo.CS2013View() {
		fmt.Fprintf(&body, "<section><h3>%s (%d activities)</h3>\n", markdown.Escape(v.Unit.Name), len(v.Activities))
		body.WriteString("<ol>\n")
		for _, o := range v.Outcomes {
			fmt.Fprintf(&body, "<li>%s <em>(%s)</em>: ", markdown.Escape(o.Outcome.Text), o.Outcome.Tier)
			if len(o.Activities) == 0 {
				body.WriteString("<span class=\"gap\">no activities</span>")
			} else {
				links := make([]string, 0, len(o.Activities))
				for _, slug := range o.Activities {
					links = append(links, fmt.Sprintf("<a href=\"/activities/%s/\">%s</a>", slug, slug))
				}
				body.WriteString(strings.Join(links, ", "))
			}
			body.WriteString("</li>\n")
		}
		body.WriteString("</ol></section>\n")
	}
	return rn.renderPage("views/cs2013/index.html", "CS2013 View", nil, body.String())
}

func (rn *renderer) buildTCPPView() error {
	var body strings.Builder
	for _, v := range rn.repo.TCPPView() {
		fmt.Fprintf(&body, "<section><h3>%s (%d activities)</h3>\n", markdown.Escape(v.Area.Name), len(v.Activities))
		fmt.Fprintf(&body, "<p>Recommended courses: %s</p>\n", markdown.Escape(strings.Join(v.Area.Courses, ", ")))
		sub := ""
		open := false
		for _, te := range v.Topics {
			if te.Topic.Subcategory != sub {
				if open {
					body.WriteString("</ul>\n")
				}
				sub = te.Topic.Subcategory
				fmt.Fprintf(&body, "<h4>%s</h4>\n<ul>\n", markdown.Escape(sub))
				open = true
			}
			fmt.Fprintf(&body, "<li><code>%s</code> %s: ", markdown.Escape(te.Term), markdown.Escape(te.Topic.Name))
			if len(te.Activities) == 0 {
				body.WriteString("<span class=\"gap\">no activities</span>")
			} else {
				links := make([]string, 0, len(te.Activities))
				for _, slug := range te.Activities {
					links = append(links, fmt.Sprintf("<a href=\"/activities/%s/\">%s</a>", slug, slug))
				}
				body.WriteString(strings.Join(links, ", "))
			}
			body.WriteString("</li>\n")
		}
		if open {
			body.WriteString("</ul>\n")
		}
		body.WriteString("</section>\n")
	}
	return rn.renderPage("views/tcpp/index.html", "TCPP View", nil, body.String())
}

func (rn *renderer) buildCoursesView() error {
	var body strings.Builder
	for _, page := range rn.repo.CourseView() {
		fmt.Fprintf(&body, "<section><h3>%s (%d activities)</h3>\n", markdown.Escape(page.Term), len(page.Entries))
		body.WriteString(rn.activityList(page.Entries))
		body.WriteString("</section>\n")
	}
	return rn.renderPage("views/courses/index.html", "Courses View", nil, body.String())
}

func (rn *renderer) buildAccessibilityView() error {
	av := rn.repo.Accessibility()
	var body strings.Builder
	body.WriteString("<section><h3>By sense</h3>\n")
	for _, page := range av.Senses {
		fmt.Fprintf(&body, "<h4>%s (%d)</h4>\n", markdown.Escape(page.Term), len(page.Entries))
		body.WriteString(rn.activityList(page.Entries))
	}
	body.WriteString("</section>\n<section><h3>By medium</h3>\n")
	for _, page := range av.Mediums {
		fmt.Fprintf(&body, "<h4>%s (%d)</h4>\n", markdown.Escape(page.Term), len(page.Entries))
		body.WriteString(rn.activityList(page.Entries))
	}
	body.WriteString("</section>\n")
	return rn.renderPage("views/accessibility/index.html", "Accessibility View", nil, body.String())
}

const styleCSS = `body{font-family:Georgia,serif;margin:0;color:#222}
header{background:#1a3a5c;color:#fff;padding:0.5rem 1.5rem;display:flex;gap:2rem;align-items:baseline}
header a{color:#fff;text-decoration:none}
nav{display:flex;gap:1rem}
main{max-width:52rem;margin:1rem auto;padding:0 1rem}
footer{text-align:center;color:#777;padding:2rem}
.badges .badge{display:inline-block;padding:0.1rem 0.5rem;border-radius:0.6rem;color:#fff;font-size:0.8rem;text-decoration:none;margin-right:0.2rem}
.badge-cs2013{background:#2a6f4e}
.badge-tcpp{background:#8a4b2a}
.badge-courses{background:#4b2a8a}
.badge-senses{background:#a0527c}
.badge-medium{background:#555}
.gap{color:#b00;font-style:italic}
.res{color:#2a6f4e;font-size:0.8rem}
section{margin-bottom:1.5rem}
`
