// Package site is the static-site generator behind pdcunplugged.org: it
// renders a core.Repository to a tree of HTML pages — one page per
// activity, one page per taxonomy term, the four browsing views of Section
// II-C, and an index — and can serve the result for local preview (the
// `hugo serve` workflow the paper recommends to contributors).
//
// Building is organized as a page-graph pipeline: every output page (or
// closely-coupled page group) is a job with a content-addressed input
// fingerprint, scheduled onto a bounded worker pool by a Builder. A
// Builder kept across builds reuses cached page bytes for jobs whose
// fingerprints are unchanged, which is what makes `pdcu serve -watch`
// rebuilds incremental. See builder.go and jobs.go.
package site

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pdcunplugged/internal/core"
	"pdcunplugged/internal/coverage"
	"pdcunplugged/internal/obs"
)

// Site holds a built static site: path -> page bytes. Paths use forward
// slashes and end in .html (plus one style.css). A Site is immutable
// once built; `pdcu serve -watch` swaps whole Sites atomically rather
// than mutating one in place.
type Site struct {
	Pages map[string][]byte
	etags sync.Map // path -> strong ETag, computed on first use
}

// newSite wraps merged pages. Page ETags are not computed here: a
// generation serves few of its pages before the next replaces it, so
// each page's tag is hashed the first time it is asked for.
func newSite(pages map[string][]byte) *Site { return &Site{Pages: pages} }

// FromPages assembles a servable Site from already-rendered page bytes
// (a replication snapshot). ETags come from the content hashes, so a
// restored site serves the same strong validators as the build that
// produced it — identical bytes, identical ETags.
func FromPages(pages map[string][]byte) *Site { return newSite(pages) }

// Len returns the number of generated files.
func (s *Site) Len() int { return len(s.Pages) }

// Paths returns all generated paths, sorted.
func (s *Site) Paths() []string {
	out := make([]string, 0, len(s.Pages))
	for p := range s.Pages {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ETag returns the entity tag served for a page path, or "" when the
// page does not exist: the serving-side analogue of the build-side
// fingerprints, a page's ETag changes iff its bytes do. It is computed
// from the page's sha256 the first time it is asked for and kept for the
// life of the Site; concurrent first calls compute the same value.
func (s *Site) ETag(path string) string {
	if tag, ok := s.etags.Load(path); ok {
		return tag.(string)
	}
	data, ok := s.Pages[path]
	if !ok {
		return ""
	}
	sum := sha256.Sum256(data)
	tag, _ := s.etags.LoadOrStore(path, `"`+hex.EncodeToString(sum[:8])+`"`)
	return tag.(string)
}

// WriteTo writes the site under dir. Every page lands via a temp file +
// rename in its final directory, so a crash or concurrent reader never
// observes a truncated page; files left from a previous build that this
// site no longer generates are swept away afterwards, along with any
// directories the sweep empties.
func (s *Site) WriteTo(dir string) error {
	_, span := obs.StartSpan(context.Background(), "site.write")
	defer span.End()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("site: %w", err)
	}
	for p, data := range s.Pages {
		full := filepath.Join(dir, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return fmt.Errorf("site: %w", err)
		}
		if err := writeFileAtomic(full, data); err != nil {
			return fmt.Errorf("site: %w", err)
		}
	}
	return s.sweepStale(dir)
}

// writeFileAtomic writes data next to path and renames it into place.
// The temp file lives in the destination directory so the rename stays
// on one filesystem and is atomic.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".pdcu-tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// sweepStale removes files under dir that the current build did not
// produce, then prunes directories the sweep emptied (deepest first, so
// an abandoned tree collapses bottom-up).
func (s *Site) sweepStale(dir string) error {
	var subdirs []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." {
				subdirs = append(subdirs, p)
			}
			return nil
		}
		if _, ok := s.Pages[filepath.ToSlash(rel)]; !ok {
			if err := os.Remove(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("site: sweep: %w", err)
	}
	sort.Slice(subdirs, func(i, j int) bool { return len(subdirs[i]) > len(subdirs[j]) })
	for _, d := range subdirs {
		// Remove fails on non-empty directories; that is the signal to keep them.
		os.Remove(d)
	}
	return nil
}

// handlerTotal counts every site-handler response by outcome, so 404s
// and method rejections are as observable as successful page serves.
var handlerTotal = obs.Default().Counter("pdcu_site_handler_total",
	"Site handler responses by outcome (ok, not_modified, not_found, method_not_allowed).",
	"result")

// Handler serves the built site over HTTP for local preview. An unknown
// path is a 404 whatever the method, so every unknown URL lands in the
// HTTP middleware's one not-found series instead of minting a path
// label. Only GET and HEAD are accepted (the site is static);
// HEAD responses carry the same headers, including Content-Length,
// without a body. Every page is served with a strong ETag derived from
// its content hash, and a matching If-None-Match short-circuits to 304
// Not Modified.
func (s *Site) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := strings.TrimPrefix(r.URL.Path, "/")
		if p == "" {
			p = "index.html"
		}
		if strings.HasSuffix(p, "/") {
			p += "index.html"
		}
		data, ok := s.Pages[p]
		if !ok {
			if alt, found := s.Pages[p+"/index.html"]; found {
				p, data, ok = p+"/index.html", alt, true
			}
		}
		if !ok {
			handlerTotal.With("not_found").Inc()
			http.NotFound(w, r)
			return
		}
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			handlerTotal.With("method_not_allowed").Inc()
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		switch {
		case strings.HasSuffix(p, ".css"):
			w.Header().Set("Content-Type", "text/css; charset=utf-8")
		case strings.HasSuffix(p, ".json"):
			w.Header().Set("Content-Type", "application/json")
		default:
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
		}
		etag := s.ETag(p)
		w.Header().Set("ETag", etag)
		if ETagMatch(r.Header.Get("If-None-Match"), etag) {
			handlerTotal.With("not_modified").Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
		handlerTotal.With("ok").Inc()
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		if r.Method == http.MethodHead {
			return
		}
		if _, err := w.Write(data); err != nil {
			obs.Logger().Warn("response write failed", "path", r.URL.Path, "err", err)
		}
	})
}

// ETagMatch implements the If-None-Match comparison every conditional
// GET in the server uses: a wildcard or any listed tag matches, and
// weak-validator prefixes compare equal (weak comparison is what the 304
// path requires).
func ETagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

// Gaps renders the uncovered outcomes and topics as a page-ready fragment;
// exposed for the gap-analysis tooling.
func Gaps(repo *core.Repository) string {
	g := coverage.FindGaps(repo)
	var b strings.Builder
	b.WriteString("Uncovered CS2013 learning outcomes:\n")
	for _, og := range g.Outcomes {
		fmt.Fprintf(&b, "  %-8s %s\n", og.Term, og.Outcome.Text)
	}
	b.WriteString("Uncovered TCPP core topics:\n")
	for _, tg := range g.Topics {
		fmt.Fprintf(&b, "  %-28s %s (%s)\n", tg.Term, tg.Topic.Name, tg.Area.Name)
	}
	return b.String()
}
