package search

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// Index snapshot codec: the serialized form of a built Index, so a
// replica can adopt a leader's inverted file without re-tokenizing the
// corpus or re-inverting postings. The layout mirrors the in-memory
// slabs one-to-one — slugs, norms, sorted dictionary, offsets/ids/tfs
// arrays — which makes encoding a handful of bulk copies and decoding a
// handful of bounds-checked reads. The format is deterministic, so
// encode→decode→encode is byte-identical; internal/replica wraps it in
// a CRC-framed section.

// snapshotVersion is bumped whenever the slab layout below changes.
// EngineVersion covers tokenizer/scoring semantics; this covers bytes.
// Version 1 also carried per-taxonomy-term bitsets, which the
// repository's term index now derives from the corpus.
const snapshotVersion = 2

// EncodeSnapshot serializes the index's slabs. The result depends only
// on the index contents (stats included), never on map iteration order.
func (ix *Index) EncodeSnapshot() ([]byte, error) {
	statsJSON, err := json.Marshal(ix.stats)
	if err != nil {
		return nil, fmt.Errorf("search: encode stats: %w", err)
	}
	var b []byte
	b = binary.LittleEndian.AppendUint16(b, snapshotVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(ix.docCount))
	for _, s := range ix.slugs {
		b = appendString(b, s)
	}
	for _, n := range ix.norms {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(ix.dict.len_()))
	for _, t := range ix.dict.terms {
		b = appendString(b, t)
	}
	for _, off := range ix.post.offsets {
		b = binary.LittleEndian.AppendUint32(b, off)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ix.post.ids)))
	for _, id := range ix.post.ids {
		b = binary.LittleEndian.AppendUint32(b, id)
	}
	for _, tf := range ix.post.tfs {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(tf))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(statsJSON)))
	b = append(b, statsJSON...)
	return b, nil
}

// DecodeSnapshot reconstructs an Index from EncodeSnapshot bytes without
// running Build: no tokenization and no inversion.
// Every length is validated against the remaining input before it is
// allocated, so truncated or corrupted input returns an error instead
// of panicking or ballooning memory.
func DecodeSnapshot(data []byte) (*Index, error) {
	r := &snapReader{buf: data}
	if v := r.u16(); v != snapshotVersion {
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("search: snapshot version %d, want %d", v, snapshotVersion)
	}
	docCount := int(r.u32())
	if err := r.checkCount(docCount, 9); err != nil { // slug >= 4+0 bytes, norm 8
		return nil, err
	}
	ix := &Index{docCount: docCount}
	ix.slugs = make([]string, docCount)
	for i := range ix.slugs {
		ix.slugs[i] = r.str()
	}
	ix.norms = make([]float64, docCount)
	for i := range ix.norms {
		ix.norms[i] = math.Float64frombits(r.u64())
	}
	vocab := int(r.u32())
	if err := r.checkCount(vocab, 4); err != nil {
		return nil, err
	}
	terms := make([]string, vocab)
	for i := range terms {
		terms[i] = r.str()
	}
	ix.dict = dict{terms: terms}
	if err := r.checkCount(vocab+1, 4); err != nil {
		return nil, err
	}
	offsets := make([]uint32, vocab+1)
	for i := range offsets {
		offsets[i] = r.u32()
	}
	npost := int(r.u32())
	if err := r.checkCount(npost, 8); err != nil { // id 4 + tf 4
		return nil, err
	}
	ids := make([]uint32, npost)
	for i := range ids {
		ids[i] = r.u32()
	}
	tfs := make([]float32, npost)
	for i := range tfs {
		tfs[i] = math.Float32frombits(r.u32())
	}
	ix.post = postings{offsets: offsets, ids: ids, tfs: tfs}
	statsJSON := r.bytes(int(r.u32()))
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != r.pos {
		return nil, fmt.Errorf("search: %d trailing bytes after snapshot", len(r.buf)-r.pos)
	}
	if err := json.Unmarshal(statsJSON, &ix.stats); err != nil {
		return nil, fmt.Errorf("search: snapshot stats: %w", err)
	}
	// Structural invariants the scoring hot path indexes by without
	// checks of its own: reject here rather than panic at query time.
	if len(offsets) != vocab+1 {
		return nil, fmt.Errorf("search: snapshot offsets/vocabulary mismatch")
	}
	if vocab > 0 || npost > 0 {
		if offsets[0] != 0 || int(offsets[vocab]) != npost {
			return nil, fmt.Errorf("search: snapshot offsets do not span postings")
		}
	}
	for i := 0; i < vocab; i++ {
		if offsets[i] > offsets[i+1] {
			return nil, fmt.Errorf("search: snapshot offsets not monotonic at term %d", i)
		}
		if i > 0 && terms[i] <= terms[i-1] {
			return nil, fmt.Errorf("search: snapshot dictionary out of order at term %d", i)
		}
	}
	for _, id := range ids {
		if int(id) >= docCount {
			return nil, fmt.Errorf("search: snapshot posting doc id %d out of range", id)
		}
	}
	return ix, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// snapReader is a bounds-checked little-endian reader: the first short
// read latches err and every later read returns zero values, so decode
// paths need one error check per logical section, not per field.
type snapReader struct {
	buf []byte
	pos int
	err error
}

func (r *snapReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("search: snapshot truncated at byte %d", r.pos)
	}
}

// checkCount rejects a count whose minimal encoding could not fit in the
// remaining input — the guard that keeps a corrupted count field from
// allocating gigabytes before the truncation is discovered.
func (r *snapReader) checkCount(n, minBytes int) error {
	if r.err != nil {
		return r.err
	}
	if n < 0 || n*minBytes > len(r.buf)-r.pos {
		r.err = fmt.Errorf("search: snapshot count %d exceeds remaining input", n)
		return r.err
	}
	return nil
}

func (r *snapReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.pos {
		r.fail()
		return nil
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *snapReader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *snapReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *snapReader) str() string {
	return string(r.bytes(int(r.u32())))
}
