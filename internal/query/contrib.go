// The /api/v1/contrib/validate endpoint: POST an activity Markdown body
// (with ?slug=) and receive the curator's structured review — the same
// contrib.Review that `pdcu contrib` prints, evaluated against the
// federated corpus the server is currently publishing.
//
// The endpoint deliberately bypasses the read-path stack in handle():
// responses are per-submission and never cacheable, so it gets its own
// token bucket (Options.ContribRate), its own metrics family, and a body
// size cap instead of the LRU/ETag machinery. Crucially it
// reviews against the published Snapshot's index rather than building
// one (contrib.EvaluateIndexed), so a replica follower that adopted a
// decoded snapshot can validate submissions while keeping its cold-start
// invariant of zero local index builds.
package query

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"pdcunplugged/internal/contrib"
	"pdcunplugged/internal/obs"
)

// contribMaxBody caps submission bodies at 1 MiB; the largest curated
// activity is under 8 KiB, so the cap only exists to bound what a
// misbehaving client can make the parser chew on.
const contribMaxBody = 1 << 20

var (
	contribRequests = obs.Default().Counter("pdcu_contrib_requests_total",
		"Contribution validation requests, by outcome (accepted, needs_work, bad_request, shed, unavailable).",
		"outcome")
	contribDuration = obs.Default().Histogram("pdcu_contrib_duration_seconds",
		"Contribution validation latency (parse, validate, duplicate ranking, impact scoring).",
		obs.DefBuckets())
)

// ContribValidation is the /api/v1/contrib/validate response body: the
// curator's review of one submission, JSON-shaped. Accepted mirrors
// Review.Accepted (no blocking errors); warnings never block.
type ContribValidation struct {
	Generation    string   `json:"generation"`
	Slug          string   `json:"slug"`
	Accepted      bool     `json:"accepted"`
	Errors        []string `json:"errors,omitempty"`
	Warnings      []string `json:"warnings,omitempty"`
	SimilarTo     []string `json:"similarTo,omitempty"`
	SharedSources []string `json:"sharedSources,omitempty"`
	ImpactScore   int      `json:"impactScore"`
	NovelTerms    []string `json:"novelTerms,omitempty"`
}

// ValidateContribution reviews one submission against a snapshot using
// its already-built index; the single implementation behind the HTTP
// endpoint, exported so smoke tests and tools can call it directly.
func ValidateContribution(snap *Snapshot, slug, content string) *ContribValidation {
	r := contrib.EvaluateIndexed(snap.Repo, snap.Index, slug, content)
	return &ContribValidation{
		Generation:    snap.Generation,
		Slug:          slug,
		Accepted:      r.Accepted(),
		Errors:        r.Errors,
		Warnings:      r.Warnings,
		SimilarTo:     r.SimilarTo,
		SharedSources: r.SharedSources,
		ImpactScore:   r.ImpactScore,
		NovelTerms:    r.NovelTerms,
	}
}

func (s *Service) handleContrib() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() { contribDuration.Observe(time.Since(start).Seconds()) }()
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", "POST")
			contribRequests.With("bad_request").Inc()
			writeError(w, "contrib", http.StatusMethodNotAllowed, "method not allowed; POST the activity Markdown")
			return
		}
		if ok, retry := s.contribLimiter.take(); !ok {
			contribRequests.With("shed").Inc()
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
			writeError(w, "contrib", http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		slug := r.URL.Query().Get("slug")
		if slug == "" {
			contribRequests.With("bad_request").Inc()
			writeError(w, "contrib", http.StatusBadRequest, "missing required parameter slug")
			return
		}
		// Read one byte past the cap so an at-the-limit body is
		// distinguishable from an over-limit one.
		body, err := io.ReadAll(io.LimitReader(r.Body, contribMaxBody+1))
		if err != nil {
			contribRequests.With("bad_request").Inc()
			writeError(w, "contrib", http.StatusBadRequest, "reading request body: "+err.Error())
			return
		}
		if len(body) > contribMaxBody {
			contribRequests.With("bad_request").Inc()
			writeError(w, "contrib", http.StatusRequestEntityTooLarge,
				fmt.Sprintf("submission exceeds %d bytes", contribMaxBody))
			return
		}
		snap := s.source()
		if snap == nil {
			contribRequests.With("unavailable").Inc()
			writeError(w, "contrib", http.StatusServiceUnavailable, "no generation published yet")
			return
		}
		w.Header().Set("Pdcu-Generation", snap.Generation)
		resp := ValidateContribution(snap, slug, string(body))
		if resp.Accepted {
			contribRequests.With("accepted").Inc()
		} else {
			contribRequests.With("needs_work").Inc()
		}
		queryRequests.With("contrib", "200").Inc()
		writeJSON(w, resp)
	}
}

// writeJSON emits an uncached 200 response. Contrib bodies are
// per-submission, so they get no ETag and no pre-compressed copy.
func writeJSON(w http.ResponseWriter, v any) {
	body := marshalBody(v)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		obs.Logger().Warn("contrib response write failed", "err", err)
	}
}
