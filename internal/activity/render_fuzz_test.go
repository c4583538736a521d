package activity_test

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/corpus"
	"pdcunplugged/internal/curation"
)

// The fuzz input is an activity flattened to one string: fields are
// separated by fieldSep, in the order of the fields table, and a list
// field's items each end with itemSep (an unterminated last item counts
// too), so "" is a nil list and itemSep alone is one empty item.
const (
	fieldSep = "\x1e"
	itemSep  = "\x1f"
)

type field struct {
	scalar func(*activity.Activity) *string
	list   func(*activity.Activity) *[]string
}

var fields = []field{
	{scalar: func(a *activity.Activity) *string { return &a.Title }},
	{scalar: func(a *activity.Activity) *string { return &a.Date }},
	{scalar: func(a *activity.Activity) *string { return &a.Source }},
	{scalar: func(a *activity.Activity) *string { return &a.Author }},
	{scalar: func(a *activity.Activity) *string { return &a.Details }},
	{scalar: func(a *activity.Activity) *string { return &a.CoursesNote }},
	{scalar: func(a *activity.Activity) *string { return &a.Accessibility }},
	{scalar: func(a *activity.Activity) *string { return &a.Assessment }},
	{list: func(a *activity.Activity) *[]string { return &a.CS2013 }},
	{list: func(a *activity.Activity) *[]string { return &a.TCPP }},
	{list: func(a *activity.Activity) *[]string { return &a.Courses }},
	{list: func(a *activity.Activity) *[]string { return &a.Senses }},
	{list: func(a *activity.Activity) *[]string { return &a.CS2013Details }},
	{list: func(a *activity.Activity) *[]string { return &a.TCPPDetails }},
	{list: func(a *activity.Activity) *[]string { return &a.Medium }},
	{list: func(a *activity.Activity) *[]string { return &a.Links }},
	{list: func(a *activity.Activity) *[]string { return &a.Variations }},
	{list: func(a *activity.Activity) *[]string { return &a.Citations }},
}

func flatten(a *activity.Activity) string {
	parts := make([]string, len(fields))
	for i, f := range fields {
		if f.scalar != nil {
			parts[i] = *f.scalar(a)
			continue
		}
		for _, it := range *f.list(a) {
			parts[i] += it + itemSep
		}
	}
	return strings.Join(parts, fieldSep)
}

func unflatten(s string) *activity.Activity {
	a := &activity.Activity{Slug: "fuzz"}
	parts := strings.SplitN(s, fieldSep, len(fields))
	for i, p := range parts {
		if f := fields[i]; f.scalar != nil {
			*f.scalar(a) = p
		} else if items := strings.Split(p, itemSep); len(items) > 1 || items[0] != "" {
			if items[len(items)-1] == "" {
				items = items[:len(items)-1]
			}
			*f.list(a) = items
		}
	}
	return a
}

// FuzzActivityRender holds the one-buffer canonical render to the
// string-building oracle: Render must equal RenderOracle byte for byte,
// and Fingerprint must be the sha256 of the oracle's bytes. The seeds are
// every builtin and CSinParallel activity plus the edge cases the two
// renderers handle differently: white-space-only and padded fields
// (Unicode white space included), empty list items, unknown cs2013/tcpp
// terms and details matching no unit.
func FuzzActivityRender(f *testing.F) {
	csp, err := corpus.CSinParallel().Load()
	if err != nil {
		f.Fatal(err)
	}
	for _, a := range append(curation.Activities(), csp...) {
		f.Add(flatten(a))
	}
	for _, a := range []*activity.Activity{
		{},
		{Title: " ", Author: " \n", Details: "\n\t", Accessibility: "  ", Assessment: "\n"},
		{Title: " t ", Author: "\n a \n", Links: []string{" http://x ", ""}, Citations: []string{" c ", " \n"}},
		{Links: []string{""}, Courses: []string{""}, Variations: []string{"", " "}, Citations: []string{""}},
		{Courses: []string{" CS1", "DSA "}, CoursesNote: "\nnote\n"},
		{Citations: []string{"c\t\r"}, Variations: []string{"v\u00a0"}, CS2013: []string{"PD_Nope\u0085"}, TCPP: []string{"TCPP_Nope\v\f"}},
		{CS2013: []string{"PD_Nope", " PD_ParallelDecomposition"}, TCPP: []string{"TCPP_Nope", "TCPP_Algorithms "}},
		{CS2013: []string{"PD_ParallelDecomposition", "PD_Nope"}, CS2013Details: []string{"PD_99", "XX_1", "PD", "PAAP_4"}},
		{TCPP: []string{"TCPP_Algorithms", "TCPP_Nope"}, TCPPDetails: []string{"K_Speedup", "Z_x", "C_", "C_Speedup"}},
		{CS2013: []string{"PD_ParallelAlgorithms"}, CS2013Details: []string{"PD_1"}, TCPP: []string{"TCPP_Programming"}, TCPPDetails: []string{"C_Speedup"}},
	} {
		f.Add(flatten(a))
	}
	f.Fuzz(func(t *testing.T, s string) {
		a := unflatten(s)
		want := activity.RenderOracle(a)
		if got := a.Render(); got != want {
			t.Fatalf("Render differs from the oracle for %q:\ngot:\n%q\nwant:\n%q", s, got, want)
		}
		sum := sha256.Sum256([]byte(want))
		if got := a.Fingerprint(); got != hex.EncodeToString(sum[:]) {
			t.Fatalf("Fingerprint %s is not the sha256 of the oracle for %q", got, s)
		}
	})
}

// BenchmarkFingerprint fingerprints every builtin activity once per
// iteration: the per-activity cost a replica pays to verify a snapshot's
// corpus.
func BenchmarkFingerprint(b *testing.B) {
	acts := curation.Activities()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, a := range acts {
			a.Fingerprint()
		}
	}
}

// BenchmarkHeaderFingerprint header-fingerprints every builtin activity
// once per iteration: what the site builder adds per activity it has not
// seen before.
func BenchmarkHeaderFingerprint(b *testing.B) {
	acts := curation.Activities()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, a := range acts {
			a.HeaderFingerprint()
		}
	}
}
