package corpus

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/core"
	"pdcunplugged/internal/curation"
	"pdcunplugged/internal/sim"
	_ "pdcunplugged/internal/sim/activities"
)

// TestCSinParallelCatalogValid pins the curated external catalog to the
// same content rules contributions face: every assignment validates,
// round-trips through Markdown with provenance intact, and cross-links
// to a registered dramatization.
func TestCSinParallelCatalogValid(t *testing.T) {
	acts, err := CSinParallel().Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 5 {
		t.Fatalf("catalog has %d activities, want 5", len(acts))
	}
	for _, a := range acts {
		for _, err := range a.Validate() {
			t.Errorf("%s: %v", a.Slug, err)
		}
		a.Source = "csinparallel"
		back, err := activity.Parse(a.Slug, a.Render())
		if err != nil {
			t.Fatalf("%s: reparse: %v", a.Slug, err)
		}
		if back.Source != "csinparallel" {
			t.Errorf("%s: Source %q did not survive render→parse", a.Slug, back.Source)
		}
		if back.Fingerprint() != a.Fingerprint() {
			t.Errorf("%s: fingerprint changed across render→parse round-trip", a.Slug)
		}
		name, ok := SimulationFor(a.Slug)
		if !ok {
			t.Errorf("%s: no linked dramatization", a.Slug)
			continue
		}
		if _, registered := sim.Get(name); !registered {
			t.Errorf("%s links to unregistered simulation %q", a.Slug, name)
		}
	}
}

// TestSimulationForFallsBackToCuration keeps the combined lookup a strict
// superset of the curation's own links.
func TestSimulationForFallsBackToCuration(t *testing.T) {
	for _, slug := range curation.SimulatedSlugs() {
		want, _ := curation.SimulationFor(slug)
		got, ok := SimulationFor(slug)
		if !ok || got != want {
			t.Errorf("SimulationFor(%s) = %q,%v; curation says %q", slug, got, ok, want)
		}
	}
	if _, ok := SimulationFor("no-such-activity"); ok {
		t.Error("SimulationFor accepted unknown slug")
	}
}

// TestLoadAllFederates is the provenance contract: activities from each
// adapter carry its name, the repository reports per-source membership,
// and the source fingerprint depends only on that source's activities.
func TestLoadAllFederates(t *testing.T) {
	repo, err := LoadAll(Builtin(), CSinParallel())
	if err != nil {
		t.Fatal(err)
	}
	if repo.Len() != curation.Size+5 {
		t.Fatalf("federated repo has %d activities, want %d", repo.Len(), curation.Size+5)
	}
	sources := repo.Sources()
	if len(sources) != 2 || sources[0] != "builtin" || sources[1] != "csinparallel" {
		t.Fatalf("Sources() = %v", sources)
	}
	if n := len(repo.BySource("builtin")); n != curation.Size {
		t.Errorf("builtin contributes %d, want %d", n, curation.Size)
	}
	if n := len(repo.BySource("csinparallel")); n != 5 {
		t.Errorf("csinparallel contributes %d, want 5", n)
	}
	for _, slug := range repo.BySource("csinparallel") {
		a, _ := repo.Get(slug)
		if a.Source != "csinparallel" {
			t.Errorf("%s: Source = %q", slug, a.Source)
		}
	}

	// Stamping provenance must change the corpus fingerprint relative to
	// the unstamped single-corpus load (replication depends on this).
	plain, err := curation.Repository()
	if err != nil {
		t.Fatal(err)
	}
	if repo.Fingerprint() == plain.Fingerprint() {
		t.Error("federated fingerprint equals unstamped curation fingerprint")
	}

	// SourceLen counts what BySource lists, without the copy.
	for _, src := range repo.Sources() {
		if got, want := repo.SourceLen(src), len(repo.BySource(src)); got != want {
			t.Errorf("SourceLen(%q) = %d, want %d", src, got, want)
		}
	}
	if n := repo.SourceLen("no-such-source"); n != 0 {
		t.Errorf("SourceLen of an unknown source = %d, want 0", n)
	}
}

// TestCrossSourceCollisionNamesBothSources is the satellite contract:
// the same slug arriving from two sources is rejected at load time with
// an error naming both provenances.
func TestCrossSourceCollisionNamesBothSources(t *testing.T) {
	dirPath := t.TempDir()
	a := curation.Activities()[0]
	if err := os.WriteFile(filepath.Join(dirPath, a.Slug+".md"), []byte(a.Render()), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadAll(Builtin(), Dir("classroom", dirPath))
	if err == nil {
		t.Fatal("cross-source slug collision not rejected")
	}
	for _, want := range []string{a.Slug, `"builtin"`, `"classroom"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("collision error %q does not name %s", err, want)
		}
	}
}

// TestDirAdapter loads a Markdown tree and derives names from paths.
func TestDirAdapter(t *testing.T) {
	dirPath := filepath.Join(t.TempDir(), "Workshop")
	if err := os.MkdirAll(filepath.Join(dirPath, "nested"), 0o755); err != nil {
		t.Fatal(err)
	}
	acts := curation.Activities()
	for i, sub := range []string{"", "nested"} {
		a := acts[i]
		if err := os.WriteFile(filepath.Join(dirPath, sub, a.Slug+".md"), []byte(a.Render()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	src := Dir("", dirPath)
	if src.Name() != "workshop" {
		t.Errorf("derived name = %q, want workshop", src.Name())
	}
	loaded, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 {
		t.Fatalf("loaded %d activities, want 2", len(loaded))
	}
}

// TestLoadAllRejectsDuplicateSourceNames guards the adapter namespace.
func TestLoadAllRejectsDuplicateSourceNames(t *testing.T) {
	if _, err := LoadAll(Builtin(), Builtin()); err == nil || !strings.Contains(err.Error(), "duplicate source name") {
		t.Fatalf("duplicate source names: err = %v", err)
	}
	if _, err := LoadAll(); err != nil {
		t.Fatalf("empty source list should default to builtin: %v", err)
	}
}

// TestObserveRepository updates the per-source gauges (smoke: no panic,
// values visible through the registry snapshot).
func TestObserveRepository(t *testing.T) {
	repo, err := LoadAll(Builtin(), CSinParallel())
	if err != nil {
		t.Fatal(err)
	}
	ObserveRepository(repo)
	var unstamped *core.Repository
	ObserveRepository(unstamped) // nil-safe
}
