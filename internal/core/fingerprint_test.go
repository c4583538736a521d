package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"pdcunplugged/internal/core"
	"pdcunplugged/internal/corpus"
	"pdcunplugged/internal/curation"
)

// rehash recomputes the repository fingerprint the way the repository
// defines it, straight from each activity's own Fingerprint method.
func rehash(t *testing.T, repo *core.Repository, slugs []string) string {
	t.Helper()
	h := sha256.New()
	for _, slug := range slugs {
		a, ok := repo.Get(slug)
		if !ok {
			t.Fatalf("slug %q missing", slug)
		}
		io.WriteString(h, slug)
		h.Write([]byte{0})
		io.WriteString(h, a.Fingerprint())
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// headerFold recomputes the repository header fingerprint straight from
// each activity's own HeaderFingerprint method.
func headerFold(repo *core.Repository) string {
	h := sha256.New()
	for _, a := range repo.All() {
		io.WriteString(h, a.HeaderFingerprint())
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFingerprintMemo checks that the memoized per-activity fingerprints
// and the aggregates built from them equal a direct re-hash of every
// activity over the federated builtin+csinparallel corpus; likewise the
// header fingerprints and their fold.
func TestFingerprintMemo(t *testing.T) {
	repo, err := corpus.LoadAll(corpus.Builtin(), corpus.CSinParallel())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range repo.All() {
		if got, want := repo.ActivityFingerprint(a.Slug), a.Fingerprint(); got != want {
			t.Errorf("ActivityFingerprint(%q) = %.16s, want %.16s", a.Slug, got, want)
		}
	}
	if got := repo.ActivityFingerprint("no-such-activity"); got != "" {
		t.Errorf("unknown slug fingerprint = %q, want empty", got)
	}
	if got, want := repo.Fingerprint(), rehash(t, repo, repo.Slugs()); got != want {
		t.Errorf("Fingerprint = %.16s, want %.16s", got, want)
	}
	for _, a := range repo.All() {
		if got, want := repo.ActivityHeaderFingerprint(a.Slug), a.HeaderFingerprint(); got != want {
			t.Errorf("ActivityHeaderFingerprint(%q) = %.16s, want %.16s", a.Slug, got, want)
		}
	}
	if got := repo.ActivityHeaderFingerprint("no-such-activity"); got != "" {
		t.Errorf("unknown slug header fingerprint = %q, want empty", got)
	}
	if got, want := repo.HeaderFingerprint(), headerFold(repo); got != want {
		t.Errorf("HeaderFingerprint = %.16s, want %.16s", got, want)
	}
}

// TestGenerationIDsPinned pins the generation IDs (the first 16 hex
// digits of the repository fingerprint) of the embedded corpora. Editing
// the curation or the fingerprint definition moves them; changing only
// when or how often fingerprints are computed must not.
func TestGenerationIDsPinned(t *testing.T) {
	builtin, err := curation.Repository()
	if err != nil {
		t.Fatal(err)
	}
	federated, err := corpus.LoadAll(corpus.Builtin(), corpus.CSinParallel())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		repo *core.Repository
		want string
	}{
		{"builtin", builtin, "6c87faad8508f67a"},
		{"builtin+csinparallel", federated, "bd620c7e4e385db8"},
	} {
		if got := tc.repo.Fingerprint()[:16]; got != tc.want {
			t.Errorf("%s generation id = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestNewFromCarriesFingerprints: NewFrom keys carry-over on pointer
// identity. An activity that is the very pointer prev holds keeps prev's
// fingerprint without being rendered again, which the test exposes by
// writing to a shared activity — something production code never does.
// A copy with equal content is fingerprinted afresh, to the same value,
// and the aggregate fingerprint is the one New computes.
func TestNewFromCarriesFingerprints(t *testing.T) {
	acts := curation.Activities()
	prev, err := core.New(acts)
	if err != nil {
		t.Fatal(err)
	}
	shared, copied := acts[0], acts[1]
	sharedFP, copiedFP := prev.ActivityFingerprint(shared.Slug), prev.ActivityFingerprint(copied.Slug)
	c := *copied
	acts[1] = &c
	next, err := core.NewFrom(prev, acts)
	if err != nil {
		t.Fatal(err)
	}
	if got := next.ActivityFingerprint(copied.Slug); got != copiedFP {
		t.Errorf("copied activity fingerprint %.16s, want %.16s", got, copiedFP)
	}
	if next.Fingerprint() != prev.Fingerprint() {
		t.Errorf("NewFrom fingerprint %.16s, New %.16s", next.Fingerprint(), prev.Fingerprint())
	}

	shared.Assessment += " Edited in place."
	again, err := core.NewFrom(next, acts)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.ActivityFingerprint(shared.Slug); got != sharedFP {
		t.Errorf("shared activity was fingerprinted again: %.16s, want the carried %.16s", got, sharedFP)
	}
	cold, err := core.New(acts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.ActivityFingerprint(shared.Slug) == sharedFP {
		t.Error("New without prev kept a stale fingerprint")
	}
}

// TestNewFromCarriesHeaderFingerprints: header fingerprints are carried
// on pointer identity like full ones, but only when prev computed them.
// NewFrom never hashes prev's headers, so a repository nobody built a
// site from (a follower's) costs no header hashing. As above, writing to
// a shared activity exposes which value was kept.
func TestNewFromCarriesHeaderFingerprints(t *testing.T) {
	acts := curation.Activities()
	hashed, err := core.New(acts)
	if err != nil {
		t.Fatal(err)
	}
	unhashed, err := core.New(acts)
	if err != nil {
		t.Fatal(err)
	}
	shared := acts[0]
	before := hashed.ActivityHeaderFingerprint(shared.Slug)
	shared.Title += " (edited in place)"
	edited := shared.HeaderFingerprint()
	if edited == before {
		t.Fatal("a title edit left the header fingerprint unchanged")
	}

	fromHashed, err := core.NewFrom(hashed, acts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fromHashed.ActivityHeaderFingerprint(shared.Slug); got != before {
		t.Errorf("header fingerprint %.16s, want the carried %.16s", got, before)
	}
	fromUnhashed, err := core.NewFrom(unhashed, acts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fromUnhashed.ActivityHeaderFingerprint(shared.Slug); got != edited {
		t.Errorf("header fingerprint %.16s, want %.16s hashed afresh", got, edited)
	}
}
