package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/curation"
	"pdcunplugged/internal/search"
)

// vocabulary lists the distinct search tokens of the curated corpus,
// sorted: the words generated activities and queries are made of.
func vocabulary() []string {
	seen := map[string]bool{}
	for _, a := range curation.Activities() {
		for _, tok := range search.Tokenize(strings.Join([]string{a.Title, a.Details, a.Accessibility, a.Assessment}, " ")) {
			seen[tok] = true
		}
	}
	words := make([]string, 0, len(seen))
	for w := range seen {
		words = append(words, w)
	}
	sort.Strings(words)
	return words
}

// writeCorpus writes n seeded variants of the curated activities to dir,
// one Markdown file each, and returns them. A variant keeps its base
// activity's curriculum tags, which must agree with its outcome and topic
// details, and draws its courses, senses, mediums and a details paragraph
// from the seed, so the facets and the vocabulary the catalog is queried
// on depend on it.
func writeCorpus(dir string, n int, seed int64, words []string) ([]*activity.Activity, error) {
	rng := rand.New(rand.NewSource(seed))
	base := curation.Activities()
	acts := make([]*activity.Activity, n)
	for i := range acts {
		a := *base[rng.Intn(len(base))]
		a.Slug = fmt.Sprintf("%s-%04d", a.Slug, i)
		a.Title = fmt.Sprintf("%s Variant %d", a.Title, i)
		a.Courses = draw(rng, activity.KnownCourses, 1+rng.Intn(3))
		a.Senses = draw(rng, activity.KnownSenses, 1+rng.Intn(2))
		a.Medium = draw(rng, activity.KnownMediums, 1+rng.Intn(2))
		a.Details = phrase(rng, words, 40) + "."
		if err := os.WriteFile(filepath.Join(dir, a.Slug+".md"), []byte(a.Render()), 0o644); err != nil {
			return nil, err
		}
		acts[i] = &a
	}
	return acts, nil
}

// draw picks k distinct terms in seeded order.
func draw(rng *rand.Rand, terms []string, k int) []string {
	out := make([]string, k)
	for i, j := range rng.Perm(len(terms))[:k] {
		out[i] = terms[j]
	}
	return out
}

// phrase joins n words drawn from the vocabulary.
func phrase(rng *rand.Rand, words []string, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = words[rng.Intn(len(words))]
	}
	return strings.Join(parts, " ")
}

// word makes a letters-only token no corpus contains, so a search for it
// finds exactly the activity it was written into.
func word(rng *rand.Rand) string {
	b := []byte("qz")
	for len(b) < 12 {
		b = append(b, byte('a'+rng.Intn(26)))
	}
	return string(b)
}
