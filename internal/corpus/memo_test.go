package corpus

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/core"
	"pdcunplugged/internal/curation"
)

// memoCorpus writes copies of the first n curated activities to a temp
// directory and returns it with the copies' slugs.
func memoCorpus(t *testing.T, n int) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	var slugs []string
	for _, a := range curation.Activities()[:n] {
		slug := a.Slug + "-copy"
		if err := os.WriteFile(filepath.Join(dir, slug+".md"), []byte(a.Render()), 0o644); err != nil {
			t.Fatal(err)
		}
		slugs = append(slugs, slug)
	}
	return dir, slugs
}

// appendTo appends text to a corpus file, changing its parsed model.
func appendTo(t *testing.T, dir, slug, text string) {
	t.Helper()
	path := filepath.Join(dir, slug+".md")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, text...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// load runs one memo load of the builtin catalog plus dir, counting the
// Markdown parses it takes.
func load(t *testing.T, m *Memo, dir string) (*core.Repository, int64, error) {
	t.Helper()
	before := activity.ParseCalls()
	repo, err := m.LoadAll(Builtin(), Dir("gen", dir))
	return repo, activity.ParseCalls() - before, err
}

// TestMemoParsesOnlyChangedFiles: a reload after touching one of n files
// parses that file alone; every untouched activity, the compiled-in
// catalog's included, is the previous load's pointer, still stamped,
// with the previous fingerprint.
func TestMemoParsesOnlyChangedFiles(t *testing.T) {
	const n = 8
	dir, slugs := memoCorpus(t, n)
	var m Memo
	first, parses, err := load(t, &m, dir)
	if err != nil {
		t.Fatal(err)
	}
	if parses != n {
		t.Errorf("cold load parsed %d files, want %d", parses, n)
	}
	appendTo(t, dir, slugs[3], "\n- A carried-over edit.\n")
	second, parses, err := load(t, &m, dir)
	if err != nil {
		t.Fatal(err)
	}
	if parses != 1 {
		t.Errorf("reload after one edit parsed %d files, want 1", parses)
	}
	for i, slug := range slugs {
		a1, _ := first.Get(slug)
		a2, _ := second.Get(slug)
		if a2.Source != "gen" {
			t.Errorf("%s: source %q, want gen", slug, a2.Source)
		}
		if i == 3 {
			if a1 == a2 || first.ActivityFingerprint(slug) == second.ActivityFingerprint(slug) {
				t.Errorf("%s: the edited activity was carried over", slug)
			}
			continue
		}
		if a1 != a2 {
			t.Errorf("%s: untouched activity was not carried over", slug)
		}
		if first.ActivityFingerprint(slug) != second.ActivityFingerprint(slug) {
			t.Errorf("%s: carried fingerprint changed", slug)
		}
	}
	for _, slug := range first.BySource("builtin") {
		a1, _ := first.Get(slug)
		a2, _ := second.Get(slug)
		if a1 != a2 || a2.Source != "builtin" {
			t.Errorf("%s: builtin activity was not carried over", slug)
		}
	}
	cold, err := LoadAll(Builtin(), Dir("gen", dir))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Fingerprint() != second.Fingerprint() {
		t.Errorf("carried fingerprint %.16s, cold load %.16s", second.Fingerprint(), cold.Fingerprint())
	}
	for _, slug := range cold.Slugs() {
		if cold.ActivityFingerprint(slug) != second.ActivityFingerprint(slug) {
			t.Errorf("%s: carried and cold fingerprints differ", slug)
		}
	}
}

// TestMemoDropsDeletedFiles: the memo holds only the files on disk.
func TestMemoDropsDeletedFiles(t *testing.T) {
	dir, slugs := memoCorpus(t, 4)
	var m Memo
	if _, _, err := load(t, &m, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, slugs[0]+".md")); err != nil {
		t.Fatal(err)
	}
	repo, _, err := load(t, &m, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := repo.Get(slugs[0]); ok {
		t.Errorf("deleted %s is still in the repository", slugs[0])
	}
	if len(m.files) != len(slugs)-1 {
		t.Errorf("memo holds %d files, want %d", len(m.files), len(slugs)-1)
	}
	if _, ok := m.files[fileKey{source: "gen", path: slugs[0] + ".md"}]; ok {
		t.Errorf("memo kept the deleted file %s", slugs[0])
	}
}

// TestMemoFailedLoadKeepsMemo: a load that fails, on a parse error or on
// validation, leaves the memo as it was, so the next good edit parses
// only the file it changed.
func TestMemoFailedLoadKeepsMemo(t *testing.T) {
	dir, slugs := memoCorpus(t, 4)
	var m Memo
	if _, _, err := load(t, &m, dir); err != nil {
		t.Fatal(err)
	}
	files, repo := m.files, m.repo
	path := filepath.Join(dir, slugs[1]+".md")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, broken := range map[string]string{
		"parse":    "---\ntitle: unterminated\n",
		"validate": "---\ntitle: \"T\"\ncourses: [\"NoSuchCourse\"]\n---\n\n## Original Author/link\n\nA. Author\n\nhttp://example.edu/x\n",
	} {
		if err := os.WriteFile(path, []byte(broken), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := load(t, &m, dir); err == nil {
			t.Fatalf("%s: broken edit loaded", name)
		}
		if reflect.ValueOf(m.files).Pointer() != reflect.ValueOf(files).Pointer() || len(m.files) != len(slugs) || m.repo != repo {
			t.Errorf("%s: failed load changed the memo", name)
		}
	}
	if err := os.WriteFile(path, append(good, "\n- A good edit.\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, parses, err := load(t, &m, dir); err != nil || parses != 1 {
		t.Errorf("good edit after a failed load: %d parses, err %v; want 1, nil", parses, err)
	}
}
