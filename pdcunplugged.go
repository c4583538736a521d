// Package pdcunplugged is a Go reproduction of "PDCunplugged: A Free
// Repository of Unplugged Parallel & Distributed Computing Activities"
// (Matthews, IPDPSW 2020): the complete repository system — content model,
// Hugo-style taxonomy engine, static-site generator — together with the
// curated 38-activity corpus whose statistics the paper reports, the
// coverage analytics behind Tables I and II, and runnable goroutine
// dramatizations of every activity family in the curation.
//
// The quickest start:
//
//	repo, err := pdcunplugged.Open()          // the curated corpus
//	rows := pdcunplugged.TableI(repo)         // the paper's Table I
//	rep, err := pdcunplugged.Simulate("oddeven", pdcunplugged.SimConfig{Trace: true})
package pdcunplugged

import (
	"io/fs"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/assess"
	"pdcunplugged/internal/bib"
	"pdcunplugged/internal/contrib"
	"pdcunplugged/internal/core"
	"pdcunplugged/internal/corpus"
	"pdcunplugged/internal/coverage"
	"pdcunplugged/internal/curation"
	"pdcunplugged/internal/plan"
	"pdcunplugged/internal/search"
	"pdcunplugged/internal/sim"
	_ "pdcunplugged/internal/sim/activities" // register all dramatizations
	"pdcunplugged/internal/site"
)

// Repository is a validated, taxonomy-indexed collection of unplugged
// activities with the CS2013 / TCPP / Courses / Accessibility views.
type Repository = core.Repository

// Activity is one unplugged PDC activity: the Fig. 1 sections plus the six
// taxonomy tag sets.
type Activity = activity.Activity

// Coverage analytics result types (Tables I and II and Section III stats).
type (
	// CS2013Row is one row of Table I.
	CS2013Row = coverage.CS2013Row
	// TCPPRow is one row of Table II.
	TCPPRow = coverage.TCPPRow
	// SubcategoryRow is one row of the Section III-C sub-category table.
	SubcategoryRow = coverage.SubcategoryRow
	// TermCount pairs a taxonomy term with its activity count.
	TermCount = coverage.TermCount
	// SenseStat is a per-sense count and corpus share.
	SenseStat = coverage.SenseStat
	// Gaps lists uncovered outcomes and topics.
	Gaps = coverage.Gaps
)

// Simulation types.
type (
	// SimConfig parameterizes a dramatization run.
	SimConfig = sim.Config
	// SimReport is a dramatization outcome with metrics and narration.
	SimReport = sim.Report
)

// Site is a built static site (path -> page bytes).
type Site = site.Site

// Open returns the embedded curated corpus: the 38 activities the paper's
// evaluation is computed over, loaded through the full Markdown pipeline.
func Open() (*Repository, error) {
	return curation.Repository()
}

// CorpusFiles returns the curated corpus as rendered Markdown files keyed
// by slug — the content/activities folder of the paper's GitHub layout.
func CorpusFiles() map[string]string {
	return curation.Files()
}

// Load builds a repository from raw Markdown file contents keyed by slug.
func Load(files map[string]string) (*Repository, error) {
	return core.Load(files)
}

// LoadFS builds a repository from every .md file under dir in fsys.
func LoadFS(fsys fs.FS, dir string) (*Repository, error) {
	return core.LoadFS(fsys, dir)
}

// ParseActivity parses one activity Markdown file.
func ParseActivity(slug, content string) (*Activity, error) {
	return activity.Parse(slug, content)
}

// ActivityTemplate returns the Fig. 1 archetype a contributor starts from
// (the `hugo new activities/<slug>.md` equivalent).
func ActivityTemplate(title string) string {
	return activity.Template(title)
}

// TableI computes the paper's Table I (CS2013 coverage) over a repository.
func TableI(r *Repository) []CS2013Row { return coverage.TableI(r) }

// TableII computes the paper's Table II (TCPP coverage) over a repository.
func TableII(r *Repository) []TCPPRow { return coverage.TableII(r) }

// Subcategories computes the Section III-C sub-category coverage.
func Subcategories(r *Repository) []SubcategoryRow { return coverage.Subcategories(r) }

// CourseCounts computes the Section III-A per-course activity counts.
func CourseCounts(r *Repository) []TermCount { return coverage.CourseCounts(r) }

// MediumCounts computes the Section III-D per-medium activity counts.
func MediumCounts(r *Repository) []TermCount { return coverage.MediumCounts(r) }

// SenseStats computes the Section III-D per-sense counts and percentages.
func SenseStats(r *Repository) []SenseStat { return coverage.SenseStats(r) }

// FindGaps lists every uncovered learning outcome and core topic: the
// paper's "where should educators concentrate" answer.
func FindGaps(r *Repository) Gaps { return coverage.FindGaps(r) }

// Impact scores a proposed activity by how many currently-uncovered
// outcome/topic terms it would cover.
func Impact(r *Repository, cs2013Details, tcppDetails []string) (int, []string, error) {
	return coverage.Impact(r, cs2013Details, tcppDetails)
}

// Simulate runs a registered activity dramatization by name.
func Simulate(name string, cfg SimConfig) (*SimReport, error) {
	return sim.Run(name, cfg)
}

// Simulations returns the names of all registered dramatizations.
func Simulations() []string { return sim.Names() }

// SimulationFor returns the dramatization that rehearses an activity
// from any registered corpus source (ok is false when none is linked).
func SimulationFor(slug string) (string, bool) { return corpus.SimulationFor(slug) }

// CorpusSource is one corpus adapter: a named provider of activities
// that can be federated into a single repository.
type CorpusSource = corpus.Source

// BuiltinSource is the embedded 38-activity curation as a corpus source.
func BuiltinSource() CorpusSource { return corpus.Builtin() }

// DirSource adapts a directory tree of activity .md files as a corpus
// source (an empty name derives one from the directory's base name).
func DirSource(name, path string) CorpusSource { return corpus.Dir(name, path) }

// CatalogSource resolves a built-in named catalog ("builtin",
// "csinparallel") as a corpus source.
func CatalogSource(name string) (CorpusSource, error) { return corpus.Catalog(name) }

// OpenSources federates any number of corpus sources into one
// repository, stamping every activity with its source's name and
// rejecting cross-source slug collisions. No sources selects the
// builtin curation.
func OpenSources(sources ...CorpusSource) (*Repository, error) {
	return corpus.LoadAll(sources...)
}

// BuildSite renders the repository to a static site with a one-shot
// builder (one worker per CPU, no cache reuse across calls).
func BuildSite(r *Repository) (*Site, error) { return site.Build(r) }

// SiteBuilder schedules the page graph onto a bounded worker pool and
// keeps a fingerprint-keyed page cache across builds, so repeated
// builds of a slightly-changed repository re-render only the affected
// jobs.
type SiteBuilder = site.Builder

// SiteBuildOptions configures a SiteBuilder.
type SiteBuildOptions = site.Options

// SiteBuildStats summarizes one SiteBuilder build (jobs, cache hits and
// misses, pool size, duration).
type SiteBuildStats = site.BuildStats

// NewSiteBuilder returns a site builder with an empty page cache.
func NewSiteBuilder(opts SiteBuildOptions) *SiteBuilder { return site.NewBuilder(opts) }

// BuildSiteParallel renders the repository with a bounded worker pool
// (workers <= 0 selects one per CPU). Output is byte-identical to
// BuildSite regardless of worker count.
func BuildSiteParallel(r *Repository, workers int) (*Site, error) {
	return site.NewBuilder(site.Options{Workers: workers}).Build(r)
}

// Reference is one bibliography entry of the curated literature.
type Reference = bib.Reference

// Bibliography returns the full citation database, year-ordered.
func Bibliography() []Reference { return bib.All() }

// ResolveCitation matches a free-text citation to a bibliography entry.
func ResolveCitation(text string) (Reference, bool) { return bib.Resolve(text) }

// ExportBibTeX renders references as BibTeX (all of them when refs is nil).
func ExportBibTeX(refs []Reference) string { return bib.Export(refs) }

// CitationGraph resolves every activity citation and groups activities by
// shared sources (the curation's variation clusters).
type CitationGraph = bib.Graph

// BuildCitationGraph builds the citation graph over a repository.
func BuildCitationGraph(r *Repository) *CitationGraph { return bib.BuildGraph(r.All()) }

// SearchIndex is a TF-IDF inverted index over activities.
type SearchIndex = search.Index

// SearchHit is one ranked result.
type SearchHit = search.Hit

// NewSearchIndex indexes the repository for ranked full-text search.
func NewSearchIndex(r *Repository) *SearchIndex { return search.Build(r.All()) }

// Review is a curator report on a contributed activity.
type Review = contrib.Review

// ReviewSubmission evaluates one contributed Markdown file against the
// repository: validity, nudges, duplicates, variation candidates, impact.
func ReviewSubmission(r *Repository, slug, content string) *Review {
	return contrib.Evaluate(r, slug, content)
}

// UpdateReview is a curator report on an edit to an existing activity (the
// augmentation path: assessments, variations, accessibility notes).
type UpdateReview = contrib.UpdateReview

// ReviewUpdate evaluates an edited version of an existing activity.
func ReviewUpdate(r *Repository, slug, content string) *UpdateReview {
	return contrib.EvaluateUpdate(r, slug, content)
}

// ApplyUpdate replaces an activity in a new repository, returning the
// coverage delta; the original repository is unchanged.
func ApplyUpdate(r *Repository, a *Activity) (*Repository, MergeDelta, error) {
	return contrib.ApplyUpdate(r, a)
}

// MergeDelta describes how a merge changes coverage.
type MergeDelta = contrib.Delta

// MergeActivity adds an accepted submission, returning the new repository
// and the coverage delta; the original repository is unchanged.
func MergeActivity(r *Repository, a *Activity) (*Repository, MergeDelta, error) {
	return contrib.Merge(r, a)
}

// BloomRow is per-Bloom-level TCPP coverage.
type BloomRow = coverage.BloomRow

// BloomStats computes coverage per Bloom level (Know/Comprehend/Apply).
func BloomStats(r *Repository) []BloomRow { return coverage.BloomStats(r) }

// DecadeRow counts activities per source decade.
type DecadeRow = coverage.DecadeRow

// Timeline buckets the curation by source decade — the "thirty years of
// PDC literature".
func Timeline(r *Repository) []DecadeRow { return coverage.Timeline(r) }

// AssessmentSheet is a generated pre/post assessment for one activity.
type AssessmentSheet = assess.Sheet

// AssessmentResponse is one student's pre/post answers.
type AssessmentResponse = assess.Response

// AssessmentAnalysis is the item analysis over collected responses.
type AssessmentAnalysis = assess.Analysis

// GenerateAssessment scaffolds a pre/post assessment from an activity's
// tagged learning outcomes and topics.
func GenerateAssessment(a *Activity) (*AssessmentSheet, error) { return assess.Generate(a) }

// AnalyzeAssessment computes item difficulty, discrimination and the
// normalized learning gain over collected responses.
func AnalyzeAssessment(nItems int, responses []AssessmentResponse) (*AssessmentAnalysis, error) {
	return assess.Analyze(nItems, responses)
}

// SimulatedResponses produces a deterministic synthetic class for
// exercising the analysis pipeline.
func SimulatedResponses(nItems, students int, learnRate float64, seed int64) []AssessmentResponse {
	return assess.Simulated(nItems, students, learnRate, seed)
}

// PlanConstraints narrow the workshop-planner candidate pool.
type PlanConstraints = plan.Constraints

// WorkshopPlan is a greedy maximum-coverage activity sequence.
type WorkshopPlan = plan.Plan

// BuildPlan selects the activity sequence maximizing distinct outcome and
// topic coverage under the constraints.
func BuildPlan(r *Repository, c PlanConstraints) (*WorkshopPlan, error) {
	return plan.Build(r, c)
}
