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
	"context"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"

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

func (d dir) Load() ([]*activity.Activity, error) {
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
		a, err := activity.Parse(strings.TrimSuffix(path.Base(p), ".md"), string(data))
		if err != nil {
			return err
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
	if len(sources) == 0 {
		sources = []Source{Builtin()}
	}
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
		loaded, err := s.Load()
		span.End()
		if err != nil {
			return nil, err
		}
		for _, a := range loaded {
			a.Source = name
			acts = append(acts, a)
		}
	}
	return core.New(acts)
}

// sourceActivities reports how many activities each source contributes
// to the published generation; the /debug/obs Corpus panel reads it.
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
		n := len(r.BySource(src))
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
