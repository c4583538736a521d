package replica

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/curation"
	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/search"
)

// corpusDir writes n curated activities to a temp dir, so codec tests
// run against real corpus content without the full embedded set.
func corpusDir(t testing.TB, n int) string {
	t.Helper()
	dir := t.TempDir()
	slugs := make([]string, 0, n)
	for slug := range curation.Files() {
		slugs = append(slugs, slug)
		if len(slugs) == n {
			break
		}
	}
	for _, slug := range slugs {
		if err := os.WriteFile(filepath.Join(dir, slug+".md"), []byte(curation.Files()[slug]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// buildGen runs the real pipeline over a small corpus and returns the
// published generation.
func buildGen(t testing.TB, src string) *engine.Generation {
	t.Helper()
	cfg := engine.Defaults()
	cfg.Rate = 0
	cfg.Srcs = engine.DirSources(src)
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := eng.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestSnapshotRoundTrip pins the codec's core contract: decode restores
// an equivalent, servable generation without invoking the Markdown
// parser or the index builder, and re-encoding the decoded generation
// reproduces the original bytes exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	gen := buildGen(t, corpusDir(t, 3))
	data, err := Encode(gen)
	if err != nil {
		t.Fatal(err)
	}

	parseBefore, buildBefore := activity.ParseCalls(), search.BuildCalls()
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := activity.ParseCalls() - parseBefore; n != 0 {
		t.Errorf("decode invoked activity.Parse %d times; snapshots must not reparse Markdown", n)
	}
	if n := search.BuildCalls() - buildBefore; n != 0 {
		t.Errorf("decode invoked search.Build %d times; snapshots must not rebuild the index", n)
	}

	if got.Seq != gen.Seq || got.ID != gen.ID || got.Fingerprint != gen.Fingerprint {
		t.Errorf("identity: got seq=%d id=%q fp=%.16s, want seq=%d id=%q fp=%.16s",
			got.Seq, got.ID, got.Fingerprint, gen.Seq, gen.ID, gen.Fingerprint)
	}
	if !got.BuiltAt.Equal(gen.BuiltAt) {
		t.Errorf("BuiltAt = %v, want %v", got.BuiltAt, gen.BuiltAt)
	}
	if got.Repo.Fingerprint() != gen.Repo.Fingerprint() {
		t.Error("decoded repository fingerprint differs")
	}
	if got.Handler() == nil || got.Snapshot() == nil {
		t.Fatal("decoded generation is not servable (nil handler or query snapshot)")
	}

	// The restored site is the same site: same paths, same bytes, same
	// strong validators.
	if want, have := gen.Site.Paths(), got.Site.Paths(); len(want) != len(have) {
		t.Fatalf("site has %d pages, want %d", len(have), len(want))
	}
	for _, p := range gen.Site.Paths() {
		if !bytes.Equal(gen.Site.Pages[p], got.Site.Pages[p]) {
			t.Errorf("page %q bytes differ after round trip", p)
		}
		if gen.Site.ETag(p) != got.Site.ETag(p) {
			t.Errorf("page %q ETag %q != %q", p, got.Site.ETag(p), gen.Site.ETag(p))
		}
	}

	// The restored index answers queries identically.
	for _, q := range []string{"sort", "parallel", "card"} {
		want := gen.Index.Search(q, 0)
		have := got.Index.Search(q, 0)
		if len(want) != len(have) {
			t.Fatalf("query %q: %d hits from decoded index, want %d", q, len(have), len(want))
		}
		for i := range want {
			if want[i].Slug != have[i].Slug || want[i].Score != have[i].Score {
				t.Errorf("query %q hit %d: got (%s, %v), want (%s, %v)",
					q, i, have[i].Slug, have[i].Score, want[i].Slug, want[i].Score)
			}
		}
	}

	// Determinism: encode(decode(x)) == x, byte for byte.
	again, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encode is not byte-identical: %d bytes vs %d", len(again), len(data))
	}
}

// TestDecodeRejectsTruncation feeds every short prefix (exhaustively
// near the frame boundaries, sampled through the bulk) to Decode; all
// must fail cleanly — no panic, no partially-adopted generation.
func TestDecodeRejectsTruncation(t *testing.T) {
	data, err := Encode(buildGen(t, corpusDir(t, 2)))
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{0}
	for n := 1; n < len(data); {
		lengths = append(lengths, n)
		if n < 256 || n > len(data)-256 {
			n++
		} else {
			n += 997
		}
	}
	for _, n := range lengths {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("Decode accepted a %d-byte prefix of a %d-byte snapshot", n, len(data))
		}
	}
}

// TestDecodeRejectsCorruption flips one byte at positions spread across
// the whole snapshot; the CRC framing (or a structural check behind it)
// must reject every variant.
func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(buildGen(t, corpusDir(t, 2)))
	if err != nil {
		t.Fatal(err)
	}
	step := len(data)/257 + 1
	for pos := 0; pos < len(data); pos += step {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x41
		if _, err := Decode(mut); err == nil {
			t.Fatalf("Decode accepted a snapshot with byte %d flipped", pos)
		}
	}
}

// TestDecodeRejectsIdentityMismatch: a snapshot whose meta claims a
// different corpus than its corpus section carries must not decode —
// that is the defense against mixed-up or maliciously spliced parts.
func TestDecodeRejectsIdentityMismatch(t *testing.T) {
	gen := buildGen(t, corpusDir(t, 2))

	lied := *gen
	lied.Fingerprint = "deadbeef" + gen.Fingerprint[8:]
	lied.ID = lied.Fingerprint[:len(gen.ID)]
	data, err := Encode(&lied)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil {
		t.Error("Decode accepted a snapshot whose fingerprint does not match its corpus")
	}

	badID := *gen
	badID.ID = "0123456789abcdef"
	if badID.ID == gen.ID {
		badID.ID = "fedcba9876543210"
	}
	data, err = Encode(&badID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil {
		t.Error("Decode accepted a generation ID that is not a fingerprint prefix")
	}
}

// TestDecodeRejectsPreFederationMagic pins the upgrade path: a v1
// envelope is refused with an error naming the version gap, not a
// generic magic mismatch and never a misparse — v1 fingerprints do not
// cover corpus provenance, so adopting one could serve wrong attributions.
func TestDecodeRejectsPreFederationMagic(t *testing.T) {
	data, err := Encode(buildGen(t, corpusDir(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	copy(data, magicV1)
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "predates corpus federation") {
		t.Errorf("Decode(v1) err = %v, want the federation upgrade error", err)
	}
}

// TestSnapshotCarriesSources pins the v2 payload addition: corpus
// provenance survives the round trip (gob carries Activity.Source; meta
// lists the federated source names), and a meta/corpus disagreement is
// rejected.
func TestSnapshotCarriesSources(t *testing.T) {
	gen := buildGen(t, corpusDir(t, 2))
	want := gen.Repo.Sources()
	if len(want) == 0 {
		t.Fatal("test generation has no corpus sources; the round trip would be vacuous")
	}
	data, err := Encode(gen)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if have := got.Repo.Sources(); !equalStrings(have, want) {
		t.Errorf("decoded sources %v, want %v", have, want)
	}
	for _, a := range got.Repo.All() {
		if a.Source != want[0] {
			t.Errorf("activity %s decoded with source %q, want %q", a.Slug, a.Source, want[0])
		}
	}
}
