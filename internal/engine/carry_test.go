package engine

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/curation"
)

// carryCorpus writes copies of n curated activities under fresh slugs to
// a temp directory and returns it with the copies' file paths.
func carryCorpus(t *testing.T, n int) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for i, a := range curation.Activities()[:n] {
		p := filepath.Join(dir, fmt.Sprintf("%s-%02d.md", a.Slug, i))
		if err := os.WriteFile(p, []byte(a.Render()), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return dir, paths
}

// edit appends a line to a corpus file, changing its parsed model.
func edit(t *testing.T, path, line string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, "\n- "+line+"\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
}

func carryEngine(t *testing.T, dir string) *Engine {
	return newTestEngine(t, func(c *Config) {
		c.Catalogs = CatalogList{"builtin"}
		c.Srcs = SourceList{{Name: "carried", Path: dir}}
	})
}

// rebuild runs one pipeline and reports the Markdown parses it took.
func rebuild(t *testing.T, e *Engine) (*Generation, int64) {
	t.Helper()
	before := activity.ParseCalls()
	gen, err := e.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return gen, activity.ParseCalls() - before
}

// TestRebuildCarriesUnchangedActivities: touching one of n -src files
// parses that file alone, every untouched activity (the builtin
// catalog's too) is the previous generation's pointer with its
// fingerprint, and the generation — ID, pages and ETags — is the one a
// fresh engine builds cold from the same files.
func TestRebuildCarriesUnchangedActivities(t *testing.T) {
	const n = 12
	dir, paths := carryCorpus(t, n)
	e := carryEngine(t, dir)
	first, parses := rebuild(t, e)
	if parses != n {
		t.Errorf("first rebuild parsed %d files, want %d", parses, n)
	}
	edit(t, paths[5], "A carried-over edit.")
	second, parses := rebuild(t, e)
	if parses != 1 {
		t.Errorf("touch-one rebuild parsed %d files, want 1", parses)
	}
	edited := 0
	for _, slug := range second.Repo.Slugs() {
		a1, _ := first.Repo.Get(slug)
		a2, _ := second.Repo.Get(slug)
		if a2.Source != "carried" && a2.Source != "builtin" {
			t.Errorf("%s: source %q", slug, a2.Source)
		}
		if first.Repo.ActivityFingerprint(slug) != second.Repo.ActivityFingerprint(slug) {
			edited++
			continue
		}
		if a1 != a2 {
			t.Errorf("%s: unchanged activity was not carried over", slug)
		}
	}
	if edited != 1 {
		t.Errorf("%d activities changed fingerprint, want 1", edited)
	}

	cold, _ := rebuild(t, carryEngine(t, dir))
	if cold.ID != second.ID || cold.Fingerprint != second.Fingerprint {
		t.Errorf("carried generation %s, cold build %s", second.ID, cold.ID)
	}
	if cold.Site.Len() != second.Site.Len() {
		t.Fatalf("carried site has %d pages, cold build %d", second.Site.Len(), cold.Site.Len())
	}
	for _, p := range cold.Site.Paths() {
		if !bytes.Equal(cold.Site.Pages[p], second.Site.Pages[p]) {
			t.Errorf("%s: carried page differs from the cold build", p)
		}
		if cold.Site.ETag(p) != second.Site.ETag(p) {
			t.Errorf("%s: carried ETag %s, cold build %s", p, second.Site.ETag(p), cold.Site.ETag(p))
		}
	}
}

// TestRebuildBrokenEditKeepsMemo: a broken edit fails the rebuild and
// leaves the published generation live, and the next good edit still
// parses only the file it changed.
func TestRebuildBrokenEditKeepsMemo(t *testing.T) {
	dir, paths := carryCorpus(t, 6)
	e := carryEngine(t, dir)
	live, _ := rebuild(t, e)
	good, err := os.ReadFile(paths[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[2], []byte("---\ntitle: unterminated\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Rebuild(context.Background()); err == nil {
		t.Fatal("rebuild of a broken edit succeeded")
	}
	if e.Current() != live {
		t.Fatal("failed rebuild replaced the published generation")
	}
	if err := os.WriteFile(paths[2], good, 0o644); err != nil {
		t.Fatal(err)
	}
	edit(t, paths[2], "Mended.")
	if _, parses := rebuild(t, e); parses != 1 {
		t.Errorf("good edit after a failed rebuild parsed %d files, want 1", parses)
	}
}

// TestCarriedGenerationReadDuringRebuild: readers walk generation N's
// activities and page ETags while generations N+1… rebuild from edits
// that share every other activity with N. Run under -race, it fails if
// the carry-over writes to a shared activity or ETags race.
func TestCarriedGenerationReadDuringRebuild(t *testing.T) {
	dir, paths := carryCorpus(t, 6)
	e := carryEngine(t, dir)
	gen, _ := rebuild(t, e)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, a := range gen.Repo.All() {
					if a.Render() == "" || a.Source == "" {
						t.Errorf("%s: empty render or source", a.Slug)
					}
				}
				for _, p := range gen.Site.Paths() {
					if gen.Site.ETag(p) == "" {
						t.Errorf("%s: empty ETag", p)
					}
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		edit(t, paths[i%len(paths)], fmt.Sprintf("Concurrent edit %d.", i))
		rebuild(t, e)
	}
	close(stop)
	wg.Wait()
}
