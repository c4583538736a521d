package core_test

import (
	"fmt"
	"strconv"
	"testing"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/core"
	"pdcunplugged/internal/curation"
)

// BenchmarkRepositoryNew times core.New, the per-generation validation
// and term-index build, over the curated activities and over 300
// activities made of curated copies under new slugs. Fingerprints are
// lazy, so neither case renders or hashes an activity.
func BenchmarkRepositoryNew(b *testing.B) {
	base := curation.Activities()
	for _, n := range []int{len(base), 300} {
		acts := make([]*activity.Activity, n)
		for i := range acts {
			a := *base[i%len(base)]
			if i >= len(base) {
				a.Slug = fmt.Sprintf("%s-%03d", a.Slug, i)
			}
			acts[i] = &a
		}
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.New(acts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
