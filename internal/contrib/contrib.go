// Package contrib implements the contribution workflow of Section II:
// contributors submit one activity Markdown file (by pull request into
// content/activities or by e-mail), and the curator reviews it — validity,
// the gentle nudges on assessment and accessibility, duplicate detection
// against the existing curation, citation resolution, and the impact score
// for the coverage it would add — before merging it into the repository.
package contrib

import (
	"fmt"
	"sort"
	"strings"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/bib"
	"pdcunplugged/internal/core"
	"pdcunplugged/internal/coverage"
	"pdcunplugged/internal/search"
)

// Review is the curator's report on one submission.
type Review struct {
	// Activity is the parsed submission (nil when parsing failed).
	Activity *activity.Activity
	// Errors block a merge: parse failures and validation problems.
	Errors []string
	// Warnings are the paper's gentle nudges; they do not block a merge.
	Warnings []string
	// SimilarTo lists existing activities the submission may duplicate or
	// be a variation of, most similar first.
	SimilarTo []string
	// SharedSources lists existing activities citing the same literature,
	// candidates for collapsing as variations (Section III's curation
	// rule).
	SharedSources []string
	// ImpactScore counts currently-uncovered outcome/topic terms the
	// submission covers; NovelTerms lists them.
	ImpactScore int
	NovelTerms  []string
}

// Accepted reports whether the submission can be merged.
func (r *Review) Accepted() bool { return len(r.Errors) == 0 }

// Summary renders the report as the curator would post it on the pull
// request.
func (r *Review) Summary() string {
	var b strings.Builder
	if r.Activity != nil {
		fmt.Fprintf(&b, "review of %q (%s)\n", r.Activity.Title, r.Activity.Slug)
	}
	if r.Accepted() {
		b.WriteString("verdict: ACCEPT\n")
	} else {
		b.WriteString("verdict: NEEDS WORK\n")
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "  error: %s\n", e)
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "  note:  %s\n", w)
	}
	fmt.Fprintf(&b, "  impact: %d novel term(s)", r.ImpactScore)
	if len(r.NovelTerms) > 0 {
		fmt.Fprintf(&b, " (%s)", strings.Join(r.NovelTerms, ", "))
	}
	b.WriteByte('\n')
	if len(r.SimilarTo) > 0 {
		fmt.Fprintf(&b, "  similar existing activities: %s\n", strings.Join(r.SimilarTo, ", "))
	}
	if len(r.SharedSources) > 0 {
		fmt.Fprintf(&b, "  shares sources with: %s (consider listing as a variation)\n", strings.Join(r.SharedSources, ", "))
	}
	return b.String()
}

// Evaluate reviews a submission (slug + raw Markdown) against the current
// repository.
func Evaluate(repo *core.Repository, slug, content string) *Review {
	return EvaluateIndexed(repo, search.Build(repo.All()), slug, content)
}

// EvaluateIndexed is Evaluate with a caller-supplied search index over
// repo. The query tier's /api/v1/contrib/validate endpoint passes the
// published generation's index here, so a follower that adopted a
// decoded snapshot reviews submissions without ever building an index
// locally (the cold-start invariant its tests pin).
func EvaluateIndexed(repo *core.Repository, ix *search.Index, slug, content string) *Review {
	r := &Review{}
	a, err := activity.Parse(slug, content)
	if err != nil {
		r.Errors = append(r.Errors, err.Error())
		return r
	}
	r.Activity = a
	if _, exists := repo.Get(slug); exists {
		r.Errors = append(r.Errors, fmt.Sprintf("slug %q already exists in the repository", slug))
	}
	for _, verr := range a.Validate() {
		r.Errors = append(r.Errors, verr.Error())
	}

	// The paper's gentle nudges (Section II-A).
	if !a.HasAssessment() {
		r.Warnings = append(r.Warnings, "no assessment recorded; consider evaluating the activity in class")
	}
	if strings.TrimSpace(a.Accessibility) == "" {
		r.Warnings = append(r.Warnings, "no accessibility notes; think about inclusion when designing activities")
	}
	if !a.HasExternalResources() && a.Details == "" {
		r.Warnings = append(r.Warnings, "no external materials and no details")
	} else if !a.HasExternalResources() {
		r.Warnings = append(r.Warnings, "no external materials linked; slides or handouts help adopters")
	}
	for _, c := range a.Citations {
		if _, ok := bib.Resolve(c); !ok {
			r.Warnings = append(r.Warnings, fmt.Sprintf("citation not in the bibliography: %.60s...", c))
		}
	}

	// Duplicate detection: rank the existing corpus against the
	// submission's title and details.
	hits := ix.Search(a.Title+" "+a.Details, 3)
	for _, h := range hits {
		if h.Score >= 0.5 {
			r.SimilarTo = append(r.SimilarTo, h.Slug)
		}
	}

	// Variation candidates: existing activities citing the same sources.
	g := bib.BuildGraph(repo.All())
	seen := map[string]bool{}
	for _, c := range a.Citations {
		if ref, ok := bib.Resolve(c); ok {
			for _, other := range g.ByRef[ref.Key] {
				if !seen[other] {
					seen[other] = true
					r.SharedSources = append(r.SharedSources, other)
				}
			}
		}
	}
	sort.Strings(r.SharedSources)

	// Impact scoring (Section II-C: authors gauge impact via the views).
	if score, novel, err := coverage.Impact(repo, a.CS2013Details, a.TCPPDetails); err == nil {
		r.ImpactScore, r.NovelTerms = score, novel
	} else {
		r.Errors = append(r.Errors, err.Error())
	}
	return r
}

// Delta describes how a merge changes coverage.
type Delta struct {
	OutcomesBefore, OutcomesAfter int
	TopicsBefore, TopicsAfter     int
	Activities                    int
}

// String renders the delta for the merge log.
func (d Delta) String() string {
	return fmt.Sprintf("activities %d; covered outcomes %d -> %d; covered topics %d -> %d",
		d.Activities, d.OutcomesBefore, d.OutcomesAfter, d.TopicsBefore, d.TopicsAfter)
}

// Merge adds an accepted submission to the repository, returning the new
// repository and the coverage delta. The original repository is unchanged.
func Merge(repo *core.Repository, a *activity.Activity) (*core.Repository, Delta, error) {
	if a == nil {
		return nil, Delta{}, fmt.Errorf("contrib: nil activity")
	}
	acts := append(repo.All(), a)
	merged, err := core.New(acts)
	if err != nil {
		return nil, Delta{}, fmt.Errorf("contrib: %w", err)
	}
	d := Delta{
		OutcomesBefore: coveredOutcomes(repo),
		OutcomesAfter:  coveredOutcomes(merged),
		TopicsBefore:   coveredTopics(repo),
		TopicsAfter:    coveredTopics(merged),
		Activities:     merged.Len(),
	}
	return merged, d, nil
}

func coveredOutcomes(r *core.Repository) int {
	n := 0
	for _, row := range coverage.TableI(r) {
		n += row.CoveredOutcomes
	}
	return n
}

func coveredTopics(r *core.Repository) int {
	n := 0
	for _, row := range coverage.TableII(r) {
		n += row.CoveredTopics
	}
	return n
}
