// Package search provides the repository's full-text search: a tokenized
// inverted index over activity titles, authors, details and tags, with
// TF-IDF ranking. It backs `pdcu search` and the site's search index.
//
// Engine search/3 is a layered IR core rather than a map of maps:
//
//   - dict.go — the interned, sorted term dictionary; string tokens
//     resolve to dense term IDs once per query, and prefix/fuzzy
//     matching are binary-search range scans over the sorted terms.
//   - postings.go — slab postings: each term's (doc ID, weighted tf)
//     list is a contiguous span of two shared flat arrays.
//   - bitset.go — precomputed per-taxonomy-term doc bitsets, making a
//     faceted listing a run of AND instructions and a facet count a
//     popcount.
//   - score.go — the pooled scoring workspace: dense accumulator,
//     touched-list reset, and a bounded heap for top-k selection, so a
//     steady-state query allocates only the hits it returns.
//
// An index is assembled from per-document weighted term vectors. A
// long-lived Builder memoizes those vectors by content key across
// builds, so a rebuild after a one-file edit tokenizes one document,
// and patches the previous build's sorted vocabulary with the terms
// that came and went rather than sorting it again.
//
// Doc IDs are assigned in slug order, which makes doc-ID order the
// repository's canonical ordering: tie-breaks and bitset iteration need
// no string comparisons. Ranking is unchanged from engine search/2 —
// the same tokenizer, weights, idf, and norms produce bit-identical
// scores (weighted tfs are small integers, so every sum here is exact
// in float64 regardless of accumulation order).
package search

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/taxonomy"
)

// EngineVersion names the tokenizer/index implementation revision. The
// benchmark trajectory (BENCH_search.json) keys its records by it, so a
// bump starts a new point in the performance history. Bump it whenever
// Build's output can change for the same input.
const EngineVersion = "search/3"

// Field weights: a hit in a title matters more than one in the details.
const (
	weightTitle   = 4.0
	weightAuthor  = 2.0
	weightTags    = 2.0
	weightDetails = 1.0
)

// fuzzyPenalty scales the idf contribution of an edit-distance-1
// expansion: a corrected typo counts half of what an exact token would.
const fuzzyPenalty = 0.5

// Index is an inverted text index over activities. Build once, query many
// times; an Index is immutable and safe for concurrent readers.
type Index struct {
	docCount int
	slugs    []string  // doc ID -> slug; IDs assigned in slug order
	norms    []float64 // doc ID -> Euclidean norm of the weighted tf vector
	dict     dict      // sorted term dictionary
	post     postings  // slab posting lists, indexed by term ID
	facets   map[string]facet
	all      Bitset // every document; clone-and-AND filter seed
	stats    IndexStats
}

// facet holds one taxonomy's precomputed term bitsets, terms sorted.
type facet struct {
	terms []string
	sets  []Bitset
}

// lookup returns the bitset for an exact term, or nil.
func (f facet) lookup(term string) Bitset {
	i := sort.SearchStrings(f.terms, term)
	if i < len(f.terms) && f.terms[i] == term {
		return f.sets[i]
	}
	return nil
}

// IndexStats describes a built index's shape and cost; exported on the
// pdcu_search_index_* gauges.
type IndexStats struct {
	Docs          int     `json:"docs"`
	Vocabulary    int     `json:"vocabulary"`
	Postings      int     `json:"postings"`      // total (term, doc) pairs
	PostingsBytes int     `json:"postingsBytes"` // dict offsets + id/tf slabs
	BitsetBytes   int     `json:"bitsetBytes"`   // all facet bitsets + the all-docs set
	BuildSeconds  float64 `json:"buildSeconds"`
}

// Tokenize lowercases, splits on non-letters/digits, and drops stop words
// and one-letter tokens. Hyphenated compounds additionally index their
// joined form: "odd-even" yields odd, even, and oddeven, so a query for
// the exact compound matches the documents that spell it out.
func Tokenize(text string) []string {
	var out []string
	emit := func(tok string) {
		if len(tok) < 2 || stopWords[tok] {
			return
		}
		out = append(out, tok)
	}
	var cur strings.Builder    // current hyphen-separated part
	var joined strings.Builder // compound run with hyphens removed
	parts := 0                 // non-empty parts seen in the current run
	flushPart := func() {
		if cur.Len() == 0 {
			return
		}
		parts++
		joined.WriteString(cur.String())
		emit(cur.String())
		cur.Reset()
	}
	flushRun := func() {
		flushPart()
		if parts > 1 {
			emit(joined.String())
		}
		joined.Reset()
		parts = 0
	}
	for _, r := range strings.ToLower(text) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur.WriteRune(r)
		case r == '-':
			// A hyphen continues a compound run only between word
			// characters; anything else ends the run.
			flushPart()
		default:
			flushRun()
		}
	}
	flushRun()
	return out
}

var stopWords = map[string]bool{
	"a": true, "an": true, "the": true, "and": true, "or": true, "of": true,
	"to": true, "in": true, "on": true, "by": true, "for": true, "with": true,
	"is": true, "are": true, "as": true, "at": true, "be": true, "it": true,
	"its": true, "their": true, "then": true, "that": true, "this": true,
	"each": true, "into": true, "from": true,
}

// Index-shape gauges, refreshed by every Build and exported on /metrics.
var (
	indexDocsGauge = obs.Default().Gauge("pdcu_search_index_docs",
		"Documents in the most recently built search index.")
	indexVocabGauge = obs.Default().Gauge("pdcu_search_index_vocabulary",
		"Distinct terms in the most recently built search index.")
	indexPostingsBytesGauge = obs.Default().Gauge("pdcu_search_index_postings_bytes",
		"Bytes held by the posting slabs of the most recently built search index.")
	indexBitsetBytesGauge = obs.Default().Gauge("pdcu_search_index_bitset_bytes",
		"Bytes held by the facet bitsets of the most recently built search index.")
	indexBuildSecondsGauge = obs.Default().Gauge("pdcu_search_index_build_seconds",
		"Wall-clock duration of the most recent search index build.")
)

// buildCalls counts index builds process-wide, memoized or not.
// Cold-start tests assert that adopting a decoded snapshot never
// re-inverts the corpus.
var buildCalls atomic.Int64

// BuildCalls returns how many indexes have been built in this process.
func BuildCalls() int64 { return buildCalls.Load() }

// termVector is one document's weighted term frequencies and the
// Euclidean norm over them: everything the index reads from a
// document's text. It depends only on the tokenized fields, so a
// Builder reuses it for as long as the document's content key holds.
type termVector struct {
	terms []string
	tfs   []float32
	norm  float64
}

// vectorize tokenizes and weighs every indexed field of a. Weighted tfs
// are integer sums, so the norm is exact whatever order the terms come
// in.
func vectorize(a *activity.Activity) *termVector {
	tf := map[string]float64{}
	add := func(text string, weight float64) {
		for _, tok := range Tokenize(text) {
			tf[tok] += weight
		}
	}
	add(a.Title, weightTitle)
	add(a.Author, weightAuthor)
	add(a.Details, weightDetails)
	add(a.Accessibility, weightDetails)
	add(a.Assessment, weightDetails)
	add(strings.Join(a.Variations, " "), weightDetails)
	for _, tags := range [][]string{a.CS2013, a.TCPP, a.Courses, a.Senses, a.Medium} {
		add(strings.Join(tags, " "), weightTags)
	}
	v := &termVector{terms: make([]string, 0, len(tf)), tfs: make([]float32, 0, len(tf))}
	var sq float64
	for tok, w := range tf {
		v.terms = append(v.terms, tok)
		v.tfs = append(v.tfs, float32(w))
		sq += w * w
	}
	v.norm = math.Sqrt(sq)
	return v
}

// Builder builds indexes while memoizing each document's term vector
// under a caller-supplied content key, so a rebuild after a one-file
// edit tokenizes only the edited document. It also keeps the latest
// build's vocabulary, which the next build patches with the terms the
// edit added and the terms no document uses any more instead of
// interning and sorting every term again. The postings, norms and facet
// bitsets are still assembled from every vector. The memo keeps only
// the latest build's keys, so it is bounded by the corpus size. A
// Builder is safe for concurrent use.
type Builder struct {
	mu   sync.Mutex
	memo map[string]*termVector // content key -> term vector
	last *vocabulary            // the latest build's vocabulary, nil before the first
}

// NewBuilder returns a builder with an empty memo.
func NewBuilder() *Builder { return &Builder{} }

// Build indexes acts, tokenizing only the documents whose key(slug) the
// previous build did not see. key must change whenever any tokenized
// field of the activity does; core.Repository.ActivityFingerprint
// qualifies. A nil Builder builds without a memo, like the package-level
// Build.
func (b *Builder) Build(acts []*activity.Activity, key func(slug string) string) *Index {
	if b == nil {
		return Build(acts)
	}
	// A memo map is never written after it is published, so builds read
	// the previous one without holding the lock.
	b.mu.Lock()
	prev, last := b.memo, b.last
	b.mu.Unlock()
	next := make(map[string]*termVector, len(acts))
	ix, voc := build(acts, last, func(a *activity.Activity) *termVector {
		k := key(a.Slug)
		v := next[k]
		if v == nil {
			v = prev[k]
		}
		if v == nil {
			v = vectorize(a)
		}
		next[k] = v
		return v
	})
	b.mu.Lock()
	b.memo, b.last = next, voc
	b.mu.Unlock()
	return ix
}

// Build indexes the given activities from scratch: the memo-less case
// of Builder.Build.
func Build(acts []*activity.Activity) *Index {
	ix, _ := build(acts, nil, vectorize)
	return ix
}

// build assembles an index from the documents' term vectors: intern the
// vocabulary (or patch prev's, when given), lay the posting lists out as
// slabs in doc-ID order, and precompute one doc bitset per in-use
// taxonomy term. vector supplies each document's term vector, tokenizing
// it or recalling it. It returns the vocabulary with the index, for the
// next build to patch.
func build(acts []*activity.Activity, prev *vocabulary, vector func(*activity.Activity) *termVector) (*Index, *vocabulary) {
	buildCalls.Add(1)
	start := time.Now()
	n := len(acts)
	sorted := make([]*activity.Activity, n)
	copy(sorted, acts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Slug < sorted[j].Slug })

	// Pass 1: per-document term vectors and the vocabulary.
	vecs := make([]*termVector, n)
	total := 0 // postings: one per (term, doc) pair
	for d, a := range sorted {
		vecs[d] = vector(a)
		total += len(vecs[d].terms)
	}
	var voc *vocabulary
	if prev != nil {
		voc = prev.patch(vecs, total)
	} else {
		voc = newVocabulary(vecs, total)
	}

	ix := &Index{
		docCount: n,
		slugs:    make([]string, n),
		norms:    make([]float64, n),
		dict:     dict{terms: voc.terms},
		all:      fillBitset(n),
	}
	for d, a := range sorted {
		ix.slugs[d] = a.Slug
		ix.norms[d] = vecs[d].norm
	}

	// Pass 2: slab layout. Prefix-sum the document frequencies into the
	// offsets table, then scatter postings; walking documents in doc-ID
	// order leaves every span sorted by doc ID.
	offsets := make([]uint32, ix.dict.len_()+1)
	var sum uint32
	for tid, c := range voc.df {
		offsets[tid] = sum
		sum += c
	}
	offsets[len(voc.df)] = sum
	next := append([]uint32(nil), offsets[:len(voc.df)]...)
	ids := make([]uint32, total)
	tfs := make([]float32, total)
	for d, v := range vecs {
		for i, tid := range voc.tids[v] {
			pos := next[tid]
			ids[pos] = uint32(d)
			tfs[pos] = v.tfs[i]
			next[tid]++
		}
	}
	ix.post = postings{offsets: offsets, ids: ids, tfs: tfs}

	// Pass 3: facet bitsets for every standard taxonomy term in use,
	// plus the corpus-source provenance dimension. Source is a facet
	// only — never tokenized into postings — so federating sources
	// cannot perturb ranking (the search/2 parity contract).
	facetDims := make([]string, 0, len(taxonomy.Standard())+1)
	for _, def := range taxonomy.Standard() {
		facetDims = append(facetDims, def.Name)
	}
	facetDims = append(facetDims, "source")
	ix.facets = make(map[string]facet)
	bitsetBytes := ix.all.Bytes()
	for _, dim := range facetDims {
		byTerm := map[string]Bitset{}
		for d, a := range sorted {
			for _, term := range a.Terms(dim) {
				bs := byTerm[term]
				if bs == nil {
					bs = NewBitset(n)
					byTerm[term] = bs
				}
				bs.Set(uint32(d))
			}
		}
		f := facet{
			terms: make([]string, 0, len(byTerm)),
			sets:  make([]Bitset, 0, len(byTerm)),
		}
		for term := range byTerm {
			f.terms = append(f.terms, term)
		}
		sort.Strings(f.terms)
		for _, term := range f.terms {
			f.sets = append(f.sets, byTerm[term])
			bitsetBytes += byTerm[term].Bytes()
		}
		ix.facets[dim] = f
	}

	ix.stats = IndexStats{
		Docs:          n,
		Vocabulary:    ix.dict.len_(),
		Postings:      ix.post.count(),
		PostingsBytes: ix.post.bytes(),
		BitsetBytes:   bitsetBytes,
		BuildSeconds:  time.Since(start).Seconds(),
	}
	indexDocsGauge.Set(float64(ix.stats.Docs))
	indexVocabGauge.Set(float64(ix.stats.Vocabulary))
	indexPostingsBytesGauge.Set(float64(ix.stats.PostingsBytes))
	indexBitsetBytesGauge.Set(float64(ix.stats.BitsetBytes))
	indexBuildSecondsGauge.Set(ix.stats.BuildSeconds)
	return ix, voc
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int { return ix.docCount }

// Vocabulary returns the number of distinct tokens.
func (ix *Index) Vocabulary() int { return ix.dict.len_() }

// Stats describes the built index's shape and cost.
func (ix *Index) Stats() IndexStats { return ix.stats }

// SlugOf returns the slug of a doc ID (IDs are assigned in slug order).
func (ix *Index) SlugOf(id uint32) string { return ix.slugs[id] }

// AllDocs returns the bitset of every indexed document. It is shared
// index state: callers must Clone before mutating (the intended filter
// idiom is AllDocs().Clone() followed by And with facet bitsets).
func (ix *Index) AllDocs() Bitset { return ix.all }

// FacetBitset returns the precomputed doc bitset for one taxonomy term,
// or (nil, false) when the taxonomy or term is unused. The returned set
// is shared index state — read-only.
func (ix *Index) FacetBitset(taxonomy, term string) (Bitset, bool) {
	f, ok := ix.facets[taxonomy]
	if !ok {
		return nil, false
	}
	bs := f.lookup(term)
	return bs, bs != nil
}

// FacetTerms returns the sorted in-use terms of a taxonomy. The slice is
// shared index state — read-only.
func (ix *Index) FacetTerms(taxonomy string) []string {
	return ix.facets[taxonomy].terms
}

// FacetCount returns how many documents list the term (a popcount).
func (ix *Index) FacetCount(taxonomy, term string) int {
	f, ok := ix.facets[taxonomy]
	if !ok {
		return 0
	}
	bs := f.lookup(term)
	if bs == nil {
		return 0
	}
	return bs.Count()
}

// Hit is one ranked search result.
type Hit struct {
	Slug  string
	Score float64
}

// Search ranks activities against the query by TF-IDF with length
// normalization, returning up to limit hits (all when limit <= 0).
func (ix *Index) Search(query string, limit int) []Hit {
	hits, _ := ix.search(Tokenize(query), limit, false)
	return hits
}

// SearchTokens is Search over a pre-tokenized query: callers that
// already ran Tokenize (the query service normalizes the query string
// for its cache key) skip the second tokenization pass.
func (ix *Index) SearchTokens(tokens []string, limit int) []Hit {
	hits, _ := ix.search(tokens, limit, false)
	return hits
}

// SearchFuzzy is Search with typo correction: query tokens absent from
// the vocabulary are expanded to their edit-distance-1 neighbors, each
// contributing at half weight (fuzzyPenalty). The second return reports
// whether any expansion actually happened — exact queries rank
// identically to Search.
func (ix *Index) SearchFuzzy(query string, limit int) ([]Hit, bool) {
	return ix.search(Tokenize(query), limit, true)
}

// SearchTokensFuzzy is SearchFuzzy over a pre-tokenized query.
func (ix *Index) SearchTokensFuzzy(tokens []string, limit int) ([]Hit, bool) {
	return ix.search(tokens, limit, true)
}

// search is the scoring core. Token accumulation order matches engine
// search/2 (query-token order, then postings order within a token), so
// scores are bit-identical to the map-based engine's.
func (ix *Index) search(tokens []string, limit int, fuzzy bool) ([]Hit, bool) {
	if len(tokens) == 0 || ix.docCount == 0 {
		return nil, false
	}
	sc := getScratch(ix.docCount)
	defer sc.release()
	fuzzed := false
	for _, tok := range tokens {
		if tid, ok := ix.dict.lookup(tok); ok {
			ix.accumulate(sc, tid, 1)
			continue
		}
		if !fuzzy {
			continue
		}
		sc.cand = ix.dict.withinOne(tok, sc.cand[:0])
		for _, tid := range sc.cand {
			ix.accumulate(sc, tid, fuzzyPenalty)
			fuzzed = true
		}
	}
	for _, id := range sc.touched {
		norm := ix.norms[id]
		if norm == 0 {
			norm = 1
		}
		sc.scores[id] /= norm
	}
	m := len(sc.touched)
	if limit <= 0 || limit >= m {
		// Full listing: materialize every touched doc and sort outright.
		hits := make([]Hit, 0, m)
		for _, id := range sc.touched {
			hits = append(hits, Hit{Slug: ix.slugs[id], Score: sc.scores[id]})
		}
		sort.Slice(hits, func(i, j int) bool {
			if hits[i].Score != hits[j].Score {
				return hits[i].Score > hits[j].Score
			}
			return hits[i].Slug < hits[j].Slug
		})
		return hits, fuzzed
	}
	// Top-k: a bounded heap whose root is the worst kept hit; doc-ID
	// order is slug order, so the tie-break never touches a string.
	for _, id := range sc.touched {
		s := sc.scores[id]
		if len(sc.heapID) < limit {
			sc.heapPush(id, s)
			continue
		}
		if s > sc.heapSc[0] || (s == sc.heapSc[0] && id < sc.heapID[0]) {
			sc.heapID[0], sc.heapSc[0] = id, s
			sc.heapSiftDown()
		}
	}
	hits := make([]Hit, len(sc.heapID))
	for i := len(hits) - 1; i >= 0; i-- {
		id, s := sc.heapPop()
		hits[i] = Hit{Slug: ix.slugs[id], Score: s}
	}
	return hits, fuzzed
}

// accumulate adds one term's idf-scaled contributions to the scratch
// accumulator, tracking first-touched documents.
func (ix *Index) accumulate(sc *scratch, tid int, scale float64) {
	ids, tfs := ix.post.span(tid)
	if len(ids) == 0 {
		return
	}
	idf := math.Log(1 + float64(ix.docCount)/float64(len(ids)))
	if scale != 1 {
		idf *= scale
	}
	for k, id := range ids {
		if sc.scores[id] == 0 {
			sc.touched = append(sc.touched, id)
		}
		sc.scores[id] += float64(tfs[k]) * idf
	}
}

// Suggest returns indexed tokens starting with prefix (for CLI tab-style
// completion), up to limit. The dictionary is sorted, so the matches are
// one contiguous binary-searched range — no vocabulary scan.
func (ix *Index) Suggest(prefix string, limit int) []string {
	prefix = strings.ToLower(prefix)
	if prefix == "" {
		return nil
	}
	lo, hi := ix.dict.prefixRange(prefix)
	if lo == hi {
		return nil
	}
	if limit > 0 && hi-lo > limit {
		hi = lo + limit
	}
	return append([]string(nil), ix.dict.terms[lo:hi]...)
}
