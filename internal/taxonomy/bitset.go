package taxonomy

import "math/bits"

// Bitset is a dense doc-ID set: one bit per entry, 64 entries per word.
// It is the index's representation of a term's entries: Build sets one
// per in-use term, so a faceted listing is a handful of AND
// instructions and a term count is a popcount, however many entries
// carry the term.
type Bitset []uint64

// NewBitset returns an empty set sized for n documents.
func NewBitset(n int) Bitset {
	return make(Bitset, (n+63)/64)
}

// Set marks doc id as present.
func (b Bitset) Set(id uint32) { b[id>>6] |= 1 << (id & 63) }

// Has reports whether doc id is present.
func (b Bitset) Has(id uint32) bool { return b[id>>6]&(1<<(id&63)) != 0 }

// And intersects other into b in place. The sets must be sized for the
// same doc-ID space (an index builds every one from the same entries).
func (b Bitset) And(other Bitset) {
	for i := range b {
		b[i] &= other[i]
	}
}

// Or unions other into b in place; the sizing rule is And's.
func (b Bitset) Or(other Bitset) {
	for i := range b {
		b[i] |= other[i]
	}
}

// Clone returns an independent copy; the per-query working set the
// read path ANDs term bitsets into without mutating the index.
func (b Bitset) Clone() Bitset {
	out := make(Bitset, len(b))
	copy(out, b)
	return out
}

// Count returns the number of present documents (a popcount per word).
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// AndCount returns the size of the intersection of b and other without
// materializing it.
func (b Bitset) AndCount(other Bitset) int {
	n := 0
	for i, w := range b {
		n += bits.OnesCount64(w & other[i])
	}
	return n
}

// ForEach calls fn for every present doc id in ascending order. Doc IDs
// are assigned in key order, so iteration yields entries sorted by key
// with no sort.
func (b Bitset) ForEach(fn func(id uint32)) {
	for i, w := range b {
		base := uint32(i) << 6
		for w != 0 {
			fn(base + uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// fillBitset returns a set with the first n bits set (every document).
func fillBitset(n int) Bitset {
	b := NewBitset(n)
	for i := range b {
		b[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 && len(b) > 0 {
		b[len(b)-1] = (1 << rem) - 1
	}
	return b
}
