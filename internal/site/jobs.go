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

// planJobs lays out the page graph for one repository. Each job keys on
// exactly what its render reads:
//   - the activity page and assessment sheet read the whole activity, so
//     they key on its full fingerprint;
//   - listing pages read only activity headers (title, date, author,
//     source, tags, links, whether assessed; see
//     activity.HeaderFingerprint). A term or source page keys on its
//     members' header fingerprints; the index, the four views, the API
//     export and the dramatizations page on the fold of every header
//     (Repository.HeaderFingerprint);
//   - the sources overview keys on each source's name and count.
//
// A body-only edit therefore re-renders the edited activity's two jobs
// and nothing else; a header edit also re-renders the term and source
// pages listing the activity and the seven whole-collection jobs. Every
// page shows the Sources nav link only in a federated corpus, so every
// key but static's also covers that flag.
//
// planJobs also returns the term and source pages' keys, for the next
// plan: given them as prev, it reuses them when the repository's header
// fingerprint is the one they were computed for. Then every listing
// page has the same members with the same headers, so its key is the
// same, and a body-only edit rehashes none of them.
func planJobs(repo *core.Repository, prev *listingKeys) ([]job, *listingKeys) {
	jobs := make([]job, 0, 2*repo.Len()+9)
	hasSources := strconv.FormatBool(len(repo.Sources()) > 0)
	keys := &listingKeys{hdr: repo.HeaderFingerprint(), byID: map[string]string{}}
	var carried map[string]string
	if prev != nil && prev.hdr == keys.hdr {
		carried = prev.byID
	}
	for _, a := range repo.All() {
		a := a
		actFP := fingerprint(engineVersion, markdown.EngineVersion, hasSources, repo.ActivityFingerprint(a.Slug))
		jobs = append(jobs,
			job{id: "activity/" + a.Slug, stage: "activity", fp: actFP,
				render: func(rn *renderer) error { return rn.buildActivity(a) }},
			job{id: "assess/" + a.Slug, stage: "assess", fp: actFP,
				render: func(rn *renderer) error { return rn.buildAssessmentPage(a) }},
		)
	}
	// listing keys the page id, which lists slugs, on their header
	// fingerprints after the parts naming the page.
	listing := func(id string, slugs []string, parts ...string) string {
		key, ok := carried[id]
		if !ok {
			parts = append(append(make([]string, 0, len(parts)+3+2*len(slugs)),
				engineVersion, markdown.EngineVersion, hasSources), parts...)
			for _, slug := range slugs {
				parts = append(parts, slug, repo.ActivityHeaderFingerprint(slug))
			}
			key = fingerprint(parts...)
		}
		keys.byID[id] = key
		return key
	}
	// Per-source browse pages exist only for federated (source-stamped)
	// corpora.
	if sources := repo.Sources(); len(sources) > 0 {
		overviewParts := []string{engineVersion, markdown.EngineVersion, "sources-overview"}
		for _, src := range sources {
			src, id := src, "source/"+src
			jobs = append(jobs, job{
				id:     id,
				stage:  "source",
				fp:     listing(id, repo.BySource(src), "source", src),
				render: func(rn *renderer) error { return rn.buildSourcePage(src) },
			})
			overviewParts = append(overviewParts, src, strconv.Itoa(repo.SourceLen(src)))
		}
		jobs = append(jobs, job{
			id:     "sources",
			stage:  "source",
			fp:     fingerprint(overviewParts...),
			render: (*renderer).buildSourcesPage,
		})
	}
	// Jobs follow taxonomy and term order, so two terms sharing a page
	// path resolve as they always have.
	for _, def := range taxonomy.Standard() {
		def := def
		for _, page := range repo.Index().Pages(def.Name) {
			page, id := page, "terms/"+def.Name+"/"+page.Term
			jobs = append(jobs, job{
				id:     id,
				stage:  "terms",
				fp:     listing(id, page.Entries, "term", def.Name, def.Title, page.Term),
				render: func(rn *renderer) error { return rn.buildTermPage(def, page) },
			})
		}
	}
	repoFP := fingerprint(engineVersion, markdown.EngineVersion, repo.HeaderFingerprint())
	repoJob := func(id, stage string, render func(*renderer) error) job {
		return job{id: id, stage: stage, fp: repoFP, render: render}
	}
	jobs = append(jobs,
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
	return jobs, keys
}

// listingKeys are one plan's term and source page keys, by job id, and
// the repository header fingerprint they were computed for. planJobs
// never writes to the keys it is given.
type listingKeys struct {
	hdr  string
	byID map[string]string
}
