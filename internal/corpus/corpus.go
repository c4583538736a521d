// Package corpus federates several activity catalogs into one
// core.Repository. Each catalog is a Source adapter — the builtin
// curation, a Markdown directory tree, or a curated external catalog like
// CSinParallel's PDCAssignments — and every activity it contributes is
// stamped with the source's name as provenance. The stamp lives in the
// activity model (and therefore its fingerprint and rendered Markdown),
// so it survives snapshot replication and render→parse round-trips, and
// the search index can expose it as a facet dimension.
package corpus

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/core"
	"pdcunplugged/internal/curation"
	"pdcunplugged/internal/obs"
)

// Source is one corpus adapter: a named catalog of activities. Load
// returns freshly parsed/copied activities the caller may mutate; the
// federation layer stamps each one's Source field with Name().
type Source interface {
	// Name identifies the source ("builtin", "csinparallel", a -src
	// directory name…). It becomes the activities' provenance stamp,
	// the ?source= facet term, and the per-source browse page slug.
	Name() string
	// Load reads the catalog. Implementations return fresh values on
	// every call so a reload observes on-disk edits.
	Load() ([]*activity.Activity, error)
}

// Catalog resolves a named built-in catalog (the -catalog flag).
func Catalog(name string) (Source, error) {
	switch name {
	case "builtin":
		return Builtin(), nil
	case "csinparallel":
		return CSinParallel(), nil
	default:
		return nil, fmt.Errorf("corpus: unknown catalog %q (known: %s)", name, strings.Join(CatalogNames(), ", "))
	}
}

// CatalogNames lists the built-in catalogs, sorted.
func CatalogNames() []string { return []string{"builtin", "csinparallel"} }

// builtin adapts the embedded 38-activity curation.
type builtin struct{}

// Builtin returns the adapter for the embedded paper curation.
func Builtin() Source { return builtin{} }

func (builtin) Name() string { return "builtin" }

func (builtin) Load() ([]*activity.Activity, error) {
	return curation.Activities(), nil
}

// dir adapts a Markdown directory tree (the content/activities layout of
// the paper's GitHub repository): every .md file underneath is one
// activity, slug = file name without extension.
type dir struct {
	name string
	path string
}

// Dir returns an adapter for a Markdown directory tree. An empty name
// derives one from the directory's base name.
func Dir(name, dirPath string) Source {
	if name == "" {
		name = DeriveName(dirPath)
	}
	return dir{name: name, path: dirPath}
}

// DeriveName turns a directory path into a source name: the cleaned base
// name, lower-cased.
func DeriveName(dirPath string) string {
	return strings.ToLower(filepath.Base(filepath.Clean(dirPath)))
}

func (d dir) Name() string { return d.name }

func (d dir) Load() ([]*activity.Activity, error) { return d.load(nil, nil) }

// load reads every .md file under the directory. With a memo (a non-nil
// next), a file whose bytes equal the ones carried under its path keeps
// the carried activity instead of being parsed again, every file read is
// recorded into next, and every activity comes back stamped with the
// source name. Without one it returns fresh, unstamped activities, as
// Source.Load promises.
func (d dir) load(carried, next map[fileKey]memoFile) ([]*activity.Activity, error) {
	fsys := os.DirFS(d.path)
	var acts []*activity.Activity
	err := fs.WalkDir(fsys, ".", func(p string, ent fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if ent.IsDir() || !strings.HasSuffix(p, ".md") {
			return nil
		}
		data, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		key := fileKey{source: d.name, path: p}
		if f, ok := carried[key]; ok && bytes.Equal(f.data, data) {
			next[key] = f
			acts = append(acts, f.act)
			return nil
		}
		a, err := activity.Parse(strings.TrimSuffix(path.Base(p), ".md"), string(data))
		if err != nil {
			return err
		}
		if next != nil {
			a.Source = d.name
			next[key] = memoFile{data: data, act: a}
		}
		acts = append(acts, a)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("corpus %s: %w", d.name, err)
	}
	sort.Slice(acts, func(i, j int) bool { return acts[i].Slug < acts[j].Slug })
	return acts, nil
}

// LoadAll loads every source, stamps per-activity provenance, and
// federates the result into one repository. Source names must be unique;
// cross-source slug collisions surface through core.New with both source
// names in the error.
func LoadAll(sources ...Source) (*core.Repository, error) {
	return new(Memo).LoadAll(sources...)
}

// Memo carries activities from one load to the next, so a reload parses
// and fingerprints only what changed. A directory file whose bytes are
// unchanged yields the very activity the previous load returned; a
// compiled-in catalog (builtin, csinparallel) cannot change while the
// process runs, so its activities are carried whole. A carried activity
// keeps its fingerprint from the previous repository (core.NewFrom).
// Carried activities are shared with repositories still being served,
// so nothing writes to them once they enter the memo: they are stamped
// with their source before. The memo holds what its last successful
// load returned only, so it is bounded by the corpus; a failed load
// leaves it as it was. The zero value is an empty memo, safe for
// concurrent use.
type Memo struct {
	mu       sync.Mutex
	files    map[fileKey]memoFile
	catalogs map[string][]*activity.Activity // compiled-in catalog name -> its stamped activities
	repo     *core.Repository                // the last successful load
}

// fileKey names one directory-source file: the source name and the
// file's path under the directory.
type fileKey struct{ source, path string }

// memoFile is one carried file: its exact bytes and the activity parsed
// from them, stamped with its source.
type memoFile struct {
	data []byte
	act  *activity.Activity
}

// LoadAll is the package-level LoadAll, carrying unchanged activities
// over from the memo's last successful load.
func (m *Memo) LoadAll(sources ...Source) (*core.Repository, error) {
	if len(sources) == 0 {
		sources = []Source{Builtin()}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	next := make(map[fileKey]memoFile, len(m.files))
	catalogs := map[string][]*activity.Activity{}
	seen := map[string]bool{}
	var acts []*activity.Activity
	for _, s := range sources {
		name := s.Name()
		if name == "" {
			return nil, fmt.Errorf("corpus: adapter with empty name")
		}
		if seen[name] {
			return nil, fmt.Errorf("corpus: duplicate source name %q", name)
		}
		seen[name] = true
		_, span := obs.StartSpan(context.Background(), "corpus.load."+name)
		var loaded []*activity.Activity
		var err error
		switch src := s.(type) {
		case dir:
			loaded, err = src.load(m.files, next)
		case builtin, csinparallel:
			if loaded = m.catalogs[name]; loaded == nil {
				loaded, err = loadStamped(s)
			}
			catalogs[name] = loaded
		default:
			loaded, err = loadStamped(s)
		}
		span.End()
		if err != nil {
			return nil, err
		}
		acts = append(acts, loaded...)
	}
	repo, err := core.NewFrom(m.repo, acts)
	if err != nil {
		return nil, err
	}
	m.files, m.catalogs, m.repo = next, catalogs, repo
	return repo, nil
}

// loadStamped loads a source and stamps every activity with its name.
func loadStamped(s Source) ([]*activity.Activity, error) {
	loaded, err := s.Load()
	name := s.Name()
	for _, a := range loaded {
		a.Source = name
	}
	return loaded, err
}

// sourceActivities reports how many activities each source contributes
// to the published generation, on /metrics.
var sourceActivities = obs.Default().Gauge(
	"pdcu_corpus_source_activities",
	"Activities contributed by each corpus source in the published generation.",
	"source")

// ObserveRepository refreshes the per-source activity gauges from a
// published repository. The engine calls it on every publish — including
// adopted replica snapshots, so followers report the leader's source mix.
func ObserveRepository(r *core.Repository) {
	if r == nil {
		return
	}
	attributed := 0
	for _, src := range r.Sources() {
		n := r.SourceLen(src)
		attributed += n
		sourceActivities.With(src).Set(float64(n))
	}
	if rest := r.Len() - attributed; rest > 0 {
		sourceActivities.With("unattributed").Set(float64(rest))
	}
}

// SimulationFor returns the registered dramatization rehearsing an
// activity from any known catalog: the curation's own links first, then
// the cross-links curated for external catalogs (CSinParallel).
func SimulationFor(slug string) (string, bool) {
	if name, ok := curation.SimulationFor(slug); ok {
		return name, ok
	}
	name, ok := cspSimulations[slug]
	return name, ok
}
