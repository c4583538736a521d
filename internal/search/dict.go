package search

import (
	"sort"
	"strings"
	"unicode/utf8"
)

// dict is the interned term dictionary: every distinct token of the
// corpus, sorted, addressed by dense term ID (its index). String keys
// are resolved to IDs once per query token; everything after that —
// postings offsets, document frequencies — is array indexing. The
// sorted order is load-bearing: prefix lookups (Suggest) are a
// binary-search range instead of a full-vocabulary scan, and the
// edit-distance matcher prunes whole runs by first byte.
type dict struct {
	terms []string
}

// buildDict interns the given term set, sorted, and records each term's
// ID in the set so callers resolve terms without a binary search.
func buildDict(set map[string]uint32) dict {
	terms := make([]string, 0, len(set))
	for t := range set {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for id, t := range terms {
		set[t] = uint32(id)
	}
	return dict{terms: terms}
}

// len_ returns the vocabulary size.
func (d dict) len_() int { return len(d.terms) }

// lookup returns the term's ID via binary search.
func (d dict) lookup(term string) (int, bool) {
	i := sort.SearchStrings(d.terms, term)
	if i < len(d.terms) && d.terms[i] == term {
		return i, true
	}
	return 0, false
}

// prefixRange returns the half-open term-ID range [lo, hi) of terms
// starting with prefix. Both bounds are binary searches: terms sharing
// a prefix are contiguous in sorted order, so the run's end is the
// first index where the prefix no longer matches.
func (d dict) prefixRange(prefix string) (lo, hi int) {
	lo = sort.SearchStrings(d.terms, prefix)
	hi = lo + sort.Search(len(d.terms)-lo, func(i int) bool {
		return !strings.HasPrefix(d.terms[lo+i], prefix)
	})
	return lo, hi
}

// withinOne appends to dst the IDs of dictionary terms at edit distance
// exactly 1 from term (distance 0 is an exact hit the caller already
// handled), returning dst sorted by term ID. The sorted dictionary does
// the pruning: candidates sharing term's first byte are one contiguous
// prefixRange run and get the full rune-wise distance check; for every
// other candidate the first runes differ, which forces the single edit
// to rune position 0, so matching reduces to exact byte-suffix
// comparisons (plus one binary-search probe for the first-rune
// deletion) instead of a distance computation per term.
func (d dict) withinOne(term string, dst []int) []int {
	if term == "" {
		return dst
	}
	base := len(dst)
	lo, hi := d.prefixRange(term[:1])
	for i := lo; i < hi; i++ {
		if cand := d.terms[i]; cand != term && lenWithinOne(cand, term) && editDistanceOne(cand, term) {
			dst = append(dst, i)
		}
	}
	_, s := utf8.DecodeRuneInString(term) // first-rune byte width
	// First rune deleted: one targeted probe.
	if tail := term[s:]; tail != "" {
		if id, ok := d.lookup(tail); ok && (id < lo || id >= hi) {
			dst = append(dst, id)
		}
	}
	// First rune substituted or a rune inserted in front: scan the terms
	// outside the run with exact suffix equality. Each check is a length
	// filter plus one byte comparison of the tails.
	check := func(i int) {
		cand := d.terms[i]
		_, k := utf8.DecodeRuneInString(cand)
		if cand[k:] == term || cand[k:] == term[s:] {
			dst = append(dst, i)
		}
	}
	for i := 0; i < lo; i++ {
		check(i)
	}
	for i := hi; i < len(d.terms); i++ {
		check(i)
	}
	sort.Ints(dst[base:])
	return dst
}

// lenWithinOne is the cheap pre-filter for a possible distance-1 pair:
// a single rune edit changes byte length by at most utf8.UTFMax (an
// insertion or deletion of a 4-byte rune). Byte lengths are what the
// dictionary has for free; the rune-wise check decides for real.
func lenWithinOne(a, b string) bool {
	d := len(a) - len(b)
	return d >= -utf8.UTFMax && d <= utf8.UTFMax
}

// editDistanceOne reports whether a and b are at Levenshtein distance
// exactly 1, by rune. One pass: advance both while runes match; the
// first divergence decides the edit, and the tails past it must be
// byte-identical for one of substitution, insertion, or deletion.
func editDistanceOne(a, b string) bool {
	if a == b {
		return false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ra, sa := utf8.DecodeRuneInString(a[i:])
		rb, sb := utf8.DecodeRuneInString(b[j:])
		if ra != rb {
			return a[i+sa:] == b[j+sb:] || // substitute ra for rb
				a[i:] == b[j+sb:] || // delete rb from b
				a[i+sa:] == b[j:] // delete ra from a
		}
		i += sa
		j += sb
	}
	// One string is a proper prefix of the other (a == b was rejected):
	// distance 1 iff exactly one rune remains on the longer side.
	rest := a[i:] + b[j:]
	_, size := utf8.DecodeRuneInString(rest)
	return size == len(rest)
}

// vocabulary is one build's dictionary together with what the next
// build needs to patch it rather than intern every term again: each
// term's document frequency, the build's per-document term vectors and
// each vector's term IDs. It is immutable once built; a Builder keeps
// the latest one.
type vocabulary struct {
	terms []string                 // sorted; term ID = index
	df    []uint32                 // term ID -> documents using the term
	vecs  []*termVector            // the build's documents' vectors, in doc-ID order
	tids  map[*termVector][]uint32 // vector -> its terms' IDs, in its terms order
}

// newVocabulary interns every term of vecs, which hold total postings.
func newVocabulary(vecs []*termVector, total int) *vocabulary {
	// term -> ID once buildDict lays the dictionary out; sized for a
	// term's ~2 documents on average.
	ids := make(map[string]uint32, total/2)
	for _, v := range vecs {
		for _, tok := range v.terms {
			ids[tok] = 0
		}
	}
	voc := &vocabulary{
		terms: buildDict(ids).terms,
		vecs:  vecs,
		tids:  make(map[*termVector][]uint32, len(vecs)),
	}
	voc.df = make([]uint32, len(voc.terms))
	slab := make([]uint32, 0, total)
	for _, v := range vecs {
		tids, seen := voc.tids[v]
		if !seen {
			for _, tok := range v.terms {
				slab = append(slab, ids[tok])
			}
			tids = slab[len(slab)-len(v.terms) : len(slab) : len(slab)]
			voc.tids[v] = tids
		}
		for _, id := range tids {
			voc.df[id]++
		}
	}
	return voc
}

// patch returns the vocabulary of vecs, which hold total postings,
// derived from p's. Only the vectors whose document count changed are
// visited term by term: the old dictionary loses the terms no document
// uses any more and gains the new ones in one sorted merge, and the
// carried vectors' term IDs are renumbered through an old-to-new ID
// table. The result equals newVocabulary(vecs, total).
func (p *vocabulary) patch(vecs []*termVector, total int) *vocabulary {
	// How many more (or fewer) documents use each vector than before.
	delta := make(map[*termVector]int, len(vecs))
	for _, v := range p.vecs {
		delta[v]--
	}
	for _, v := range vecs {
		delta[v]++
	}
	df := append([]uint32(nil), p.df...)
	added := map[string]uint32{} // term p lacks -> documents using it
	for v, n := range delta {
		if n == 0 {
			continue
		}
		if tids, ok := p.tids[v]; ok {
			for _, id := range tids {
				df[id] = uint32(int(df[id]) + n)
			}
			continue
		}
		// A vector p never saw, so only ever added (n > 0).
		for _, tok := range v.terms {
			if id, ok := p.dict().lookup(tok); ok {
				df[id] += uint32(n)
			} else {
				added[tok] += uint32(n)
			}
		}
	}
	fresh := make([]string, 0, len(added))
	for tok := range added {
		fresh = append(fresh, tok)
	}
	sort.Strings(fresh)

	// Merge the surviving old terms with the fresh ones. renum maps an
	// old ID to its new one; added maps a fresh term to its new ID.
	voc := &vocabulary{
		terms: make([]string, 0, len(p.terms)+len(fresh)),
		df:    make([]uint32, 0, len(p.terms)+len(fresh)),
		vecs:  vecs,
		tids:  make(map[*termVector][]uint32, len(vecs)),
	}
	renum := make([]uint32, len(p.terms))
	for i, j := 0, 0; i < len(p.terms) || j < len(fresh); {
		if j == len(fresh) || (i < len(p.terms) && p.terms[i] < fresh[j]) {
			if df[i] > 0 {
				renum[i] = uint32(len(voc.terms))
				voc.terms = append(voc.terms, p.terms[i])
				voc.df = append(voc.df, df[i])
			}
			i++
			continue
		}
		voc.df = append(voc.df, added[fresh[j]])
		added[fresh[j]] = uint32(len(voc.terms))
		voc.terms = append(voc.terms, fresh[j])
		j++
	}

	slab := make([]uint32, 0, total)
	for _, v := range vecs {
		if _, done := voc.tids[v]; done {
			continue
		}
		if old, ok := p.tids[v]; ok {
			for _, id := range old {
				slab = append(slab, renum[id])
			}
		} else {
			for _, tok := range v.terms {
				if id, ok := p.dict().lookup(tok); ok {
					slab = append(slab, renum[id])
				} else {
					slab = append(slab, added[tok])
				}
			}
		}
		voc.tids[v] = slab[len(slab)-len(v.terms) : len(slab) : len(slab)]
	}
	return voc
}

// dict returns the vocabulary's terms as a dictionary.
func (p *vocabulary) dict() dict { return dict{terms: p.terms} }
