package site

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"pdcunplugged/internal/core"
	"pdcunplugged/internal/markdown"
	"pdcunplugged/internal/taxonomy"
)

// engineVersion names the page-rendering engine revision. Every job
// fingerprint mixes it in together with markdown.EngineVersion, so
// template or generator changes invalidate cached pages even when the
// content is unchanged. Bump it whenever rendered output can change for
// the same repository.
const engineVersion = "site/3"

// job is one node of the page graph: a cache identity, a pipeline stage
// (the metric label), a content-addressed fingerprint of everything the
// render reads, and the render itself. Most jobs emit one page; the api
// job emits the JSON export group.
type job struct {
	id     string // stable cache key, e.g. "activity/findsmallestcard"
	stage  string // activity, assess, index, terms, view, api, sims, static
	fp     string // input fingerprint incl. engine versions
	render func(*renderer) error
}

// fingerprint hashes the ordered parts with separators so distinct part
// lists never collide. The parts are gathered into one buffer and hashed
// in one call: a term page's fingerprint has a part per member.
func fingerprint(parts ...string) string {
	n := 0
	for _, p := range parts {
		n += len(p) + 1
	}
	buf := make([]byte, 0, n)
	for _, p := range parts {
		buf = append(append(buf, p...), 0)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// planJobs lays out the page graph for one repository. Activity-scoped
// jobs (the activity page and its assessment sheet) are fingerprinted by
// that activity alone, so touching one source file invalidates exactly
// two jobs; each taxonomy term page keys on its members, so the edit
// re-renders only the term pages that list the activity (or stop or
// start listing it); the remaining repository-scoped jobs (index, views,
// API, dramatizations) list or aggregate every activity and therefore
// key on the whole-repository fingerprint.
func planJobs(repo *core.Repository) []job {
	jobs := make([]job, 0, 2*repo.Len()+9)
	for _, a := range repo.All() {
		a := a
		actFP := fingerprint(engineVersion, markdown.EngineVersion, repo.ActivityFingerprint(a.Slug))
		jobs = append(jobs,
			job{id: "activity/" + a.Slug, stage: "activity", fp: actFP,
				render: func(rn *renderer) error { return rn.buildActivity(a) }},
			job{id: "assess/" + a.Slug, stage: "assess", fp: actFP,
				render: func(rn *renderer) error { return rn.buildAssessmentPage(a) }},
		)
	}
	// Per-source browse pages exist only for federated (source-stamped)
	// corpora. Each keys on its own source fingerprint, so touching one
	// source's activities re-renders that source's page but leaves every
	// other source's page cached; the overview aggregates all sources and
	// keys on all of their fingerprints.
	if sources := repo.Sources(); len(sources) > 0 {
		overviewParts := []string{engineVersion, markdown.EngineVersion, "sources-overview"}
		for _, src := range sources {
			src := src
			srcFP := repo.SourceFingerprint(src)
			jobs = append(jobs, job{
				id:     "source/" + src,
				stage:  "source",
				fp:     fingerprint(engineVersion, markdown.EngineVersion, srcFP),
				render: func(rn *renderer) error { return rn.buildSourcePage(src) },
			})
			overviewParts = append(overviewParts, srcFP)
		}
		jobs = append(jobs, job{
			id:     "sources",
			stage:  "source",
			fp:     fingerprint(overviewParts...),
			render: (*renderer).buildSourcesPage,
		})
	}
	// A term page lists its members' titles and material flags under a
	// header that links the Sources page only in federated corpora, so
	// its fingerprint covers the term, that flag, and every member's
	// slug and activity fingerprint. Jobs follow taxonomy and term order,
	// so two terms sharing a page path resolve as they always have.
	hasSources := strconv.FormatBool(len(repo.Sources()) > 0)
	for _, def := range taxonomy.Standard() {
		def := def
		for _, page := range repo.Index().Pages(def.Name) {
			page := page
			parts := make([]string, 0, 7+2*len(page.Entries))
			parts = append(parts, engineVersion, markdown.EngineVersion, "term", def.Name, def.Title, page.Term, hasSources)
			for _, slug := range page.Entries {
				parts = append(parts, slug, repo.ActivityFingerprint(slug))
			}
			jobs = append(jobs, job{
				id:     "terms/" + def.Name + "/" + page.Term,
				stage:  "terms",
				fp:     fingerprint(parts...),
				render: func(rn *renderer) error { return rn.buildTermPage(def, page) },
			})
		}
	}
	repoFP := fingerprint(engineVersion, markdown.EngineVersion, repo.Fingerprint())
	repoJob := func(id, stage string, render func(*renderer) error) job {
		return job{id: id, stage: stage, fp: repoFP, render: render}
	}
	return append(jobs,
		repoJob("index", "index", (*renderer).buildIndex),
		repoJob("view/cs2013", "view", (*renderer).buildCS2013View),
		repoJob("view/tcpp", "view", (*renderer).buildTCPPView),
		repoJob("view/courses", "view", (*renderer).buildCoursesView),
		repoJob("view/accessibility", "view", (*renderer).buildAccessibilityView),
		repoJob("api", "api", (*renderer).buildAPI),
		repoJob("sims", "sims", (*renderer).buildSimsPage),
		job{id: "static", stage: "static", fp: fingerprint(engineVersion, markdown.EngineVersion),
			render: func(rn *renderer) error {
				rn.pages["style.css"] = []byte(styleCSS)
				return nil
			}},
	)
}
