// Package replica makes a published engine.Generation a transportable
// artifact. A snapshot is the wire and on-disk form of one generation:
// the parsed corpus, the rendered site, and the search-index slabs,
// framed in a versioned, CRC-guarded binary envelope. Decoding a
// snapshot reconstructs a servable *engine.Generation without reparsing
// any Markdown or rebuilding the index — the two expensive stages of the
// pipeline — which is what lets followers adopt a leader's build in
// milliseconds and lets any node cold-start from its last snapshot.
//
// On top of the codec the package provides the replication tier itself:
// a Leader that serves snapshots over HTTP with long-poll change
// notification (/replica/v1/*), a Follower loop that keeps an engine
// converged to a leader, a disk cache for cold starts, and a fleet
// coordinator that tracks every follower's sequence and staleness.
package replica

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"time"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/core"
	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/search"
	"pdcunplugged/internal/site"
)

// magic identifies a generation snapshot; the trailing digit is the
// envelope version. A format change bumps the digit, so a node never
// misinterprets an old snapshot — it refuses it and rebuilds. Version 2
// carries corpus provenance: activities gained a Source field (covered
// by the fingerprint) and the meta section lists the federated sources,
// so a v1 node's fingerprints can never collide with a v2 corpus.
const magic = "PDCUSNP2"

// magicV1 is the pre-federation envelope. It is recognized only to be
// refused with an actionable error instead of a generic magic mismatch.
const magicV1 = "PDCUSNP1"

// checkMagic classifies the envelope header: nil for the current
// version, a version-specific upgrade error for known-old magic, and a
// generic error for anything else.
func checkMagic(got string) error {
	switch got {
	case magic:
		return nil
	case magicV1:
		return fmt.Errorf("replica: snapshot version %q predates corpus federation; rebuild or refetch from an upgraded leader (want %q)", got, magic)
	default:
		return fmt.Errorf("replica: not a snapshot (magic %q)", got)
	}
}

// sectionNames is the fixed section order of the envelope. Fixed order
// (rather than a directory) keeps encoding deterministic: the same
// generation always serializes to the same bytes, so snapshot equality
// is byte equality and caches can use content ranges as validators.
var sectionNames = [4]string{"meta", "corpus", "site", "index"}

// meta is the snapshot's identity section, encoded as JSON: everything
// a node needs to decide whether to adopt the snapshot before paying
// for the corpus and index sections.
type meta struct {
	Seq           uint64            `json:"seq"`
	Fingerprint   string            `json:"fingerprint"`
	ID            string            `json:"id"`
	BuiltAtUnixNs int64             `json:"builtAtUnixNs"`
	TraceID       string            `json:"traceId,omitempty"`
	Stats         site.BuildStats   `json:"stats"`
	IndexStats    search.IndexStats `json:"indexStats"`
	// Sources lists the corpus sources federated into this generation
	// (empty for an unattributed pre-federation-style corpus), so a node
	// can report provenance from the meta section alone.
	Sources []string `json:"sources,omitempty"`
}

// Encode serializes a published generation into the snapshot envelope.
// The result is deterministic: encoding the same generation (or one
// decoded from this snapshot) yields byte-identical output.
func Encode(g *engine.Generation) ([]byte, error) {
	if g == nil || g.Repo == nil || g.Site == nil || g.Index == nil {
		return nil, fmt.Errorf("replica: encode: generation is incomplete")
	}
	metaPayload, err := json.Marshal(meta{
		Seq:           g.Seq,
		Fingerprint:   g.Fingerprint,
		ID:            g.ID,
		BuiltAtUnixNs: g.BuiltAt.UnixNano(),
		TraceID:       g.TraceID,
		Stats:         g.Stats,
		IndexStats:    g.IndexStats,
		Sources:       g.Repo.Sources(),
	})
	if err != nil {
		return nil, fmt.Errorf("replica: encode meta: %w", err)
	}

	var corpus bytes.Buffer
	if err := gob.NewEncoder(&corpus).Encode(g.Repo.All()); err != nil {
		return nil, fmt.Errorf("replica: encode corpus: %w", err)
	}

	index, err := g.Index.EncodeSnapshot()
	if err != nil {
		return nil, fmt.Errorf("replica: encode index: %w", err)
	}

	// The site section is the bulk of a snapshot, so its payload is laid
	// out straight into the envelope, which is sized once up front.
	paths := g.Site.Paths()
	pagesLen := 4
	for _, p := range paths {
		pagesLen += 8 + len(p) + len(g.Site.Pages[p])
	}
	size := len(magic) + len(metaPayload) + corpus.Len() + pagesLen + len(index)
	for _, name := range sectionNames {
		size += 12 + len(name)
	}

	out := make([]byte, 0, size)
	out = append(out, magic...)
	out = appendSection(out, sectionNames[0], metaPayload)
	out = appendSection(out, sectionNames[1], corpus.Bytes())
	out = appendStr(out, sectionNames[2])
	out = appendU32(out, uint32(pagesLen))
	crcAt := len(out)
	out = appendU32(out, 0) // the CRC, patched once the payload is in place
	out = appendU32(out, uint32(len(paths)))
	for _, p := range paths {
		out = appendStr(out, p)
		data := g.Site.Pages[p]
		out = appendU32(out, uint32(len(data)))
		out = append(out, data...)
	}
	binary.LittleEndian.PutUint32(out[crcAt:], crc32.ChecksumIEEE(out[crcAt+4:]))
	return appendSection(out, sectionNames[3], index), nil
}

// Decode reconstructs a servable generation from snapshot bytes. Every
// section CRC is verified before its payload is interpreted, the corpus
// is re-validated through core.New, and the rebuilt repository's
// fingerprint must equal the one the snapshot claims — a snapshot that
// was truncated, bit-flipped, or assembled from mismatched parts is
// rejected rather than served. Markdown parsing and index building are
// never invoked.
func Decode(data []byte) (*engine.Generation, error) {
	r := &envReader{buf: data}
	if got := string(r.bytes(len(magic))); r.err == nil {
		if err := checkMagic(got); err != nil {
			return nil, err
		}
	}
	sections := make([][]byte, len(sectionNames))
	for i, want := range sectionNames {
		name := r.str()
		if r.err == nil && name != want {
			return nil, fmt.Errorf("replica: section %d is %q, want %q", i, name, want)
		}
		n := int(r.u32())
		sum := r.u32()
		payload := r.bytes(n)
		if r.err != nil {
			return nil, r.err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("replica: section %q fails checksum", want)
		}
		sections[i] = payload
	}
	if r.pos != len(r.buf) {
		return nil, fmt.Errorf("replica: %d trailing bytes after last section", len(r.buf)-r.pos)
	}

	var m meta
	if err := json.Unmarshal(sections[0], &m); err != nil {
		return nil, fmt.Errorf("replica: decode meta: %w", err)
	}

	var acts []*activity.Activity
	if err := gob.NewDecoder(bytes.NewReader(sections[1])).Decode(&acts); err != nil {
		return nil, fmt.Errorf("replica: decode corpus: %w", err)
	}
	repo, err := core.New(acts)
	if err != nil {
		return nil, fmt.Errorf("replica: corpus failed validation: %w", err)
	}
	if fp := repo.Fingerprint(); fp != m.Fingerprint {
		return nil, fmt.Errorf("replica: corpus fingerprint %.16s does not match snapshot %.16s", fp, m.Fingerprint)
	}
	if len(m.Fingerprint) < len(m.ID) || m.Fingerprint[:len(m.ID)] != m.ID || m.ID == "" {
		return nil, fmt.Errorf("replica: generation id %q is not a prefix of the fingerprint", m.ID)
	}
	if got := repo.Sources(); !equalStrings(got, m.Sources) {
		return nil, fmt.Errorf("replica: corpus sources %v do not match snapshot meta %v", got, m.Sources)
	}

	// The pages are sliced out of one copy of the site section, so a
	// decoded site owns its bytes (data may be reused by the caller) at
	// the cost of one allocation rather than one per page.
	sr := &envReader{buf: append([]byte(nil), sections[2]...)}
	n := int(sr.u32())
	if sr.err == nil && n > len(sr.buf)/2 {
		return nil, fmt.Errorf("replica: site section claims %d pages in %d bytes", n, len(sr.buf))
	}
	pagesMap := make(map[string][]byte, n)
	prev := ""
	for i := 0; i < n && sr.err == nil; i++ {
		p := sr.str()
		size := int(sr.u32())
		body := sr.bytes(size)
		if sr.err != nil {
			break
		}
		if i > 0 && p <= prev {
			return nil, fmt.Errorf("replica: site pages out of order at %q", p)
		}
		prev = p
		pagesMap[p] = body[:size:size]
	}
	if sr.err != nil {
		return nil, sr.err
	}
	if sr.pos != len(sr.buf) {
		return nil, fmt.Errorf("replica: trailing bytes in site section")
	}

	ix, err := search.DecodeSnapshot(sections[3])
	if err != nil {
		return nil, fmt.Errorf("replica: decode index: %w", err)
	}
	if ix.Len() != repo.Len() {
		return nil, fmt.Errorf("replica: index covers %d docs, corpus has %d", ix.Len(), repo.Len())
	}

	return engine.NewGeneration(engine.Generation{
		Seq:         m.Seq,
		Repo:        repo,
		Site:        site.FromPages(pagesMap),
		Index:       ix,
		Fingerprint: m.Fingerprint,
		ID:          m.ID,
		BuiltAt:     time.Unix(0, m.BuiltAtUnixNs),
		TraceID:     m.TraceID,
		Stats:       m.Stats,
		IndexStats:  m.IndexStats,
	}), nil
}

// DecodeMeta reads only the identity section of a snapshot — enough for
// a node to report what it has on disk (or decline a stale fetch)
// without paying for corpus validation.
func DecodeMeta(data []byte) (seq uint64, id, fingerprint string, err error) {
	r := &envReader{buf: data}
	if got := string(r.bytes(len(magic))); r.err == nil {
		if err := checkMagic(got); err != nil {
			return 0, "", "", err
		}
	}
	name := r.str()
	n := int(r.u32())
	sum := r.u32()
	payload := r.bytes(n)
	if r.err != nil {
		return 0, "", "", r.err
	}
	if name != "meta" || crc32.ChecksumIEEE(payload) != sum {
		return 0, "", "", fmt.Errorf("replica: corrupt meta section")
	}
	var m meta
	if err := json.Unmarshal(payload, &m); err != nil {
		return 0, "", "", fmt.Errorf("replica: decode meta: %w", err)
	}
	return m.Seq, m.ID, m.Fingerprint, nil
}

// equalStrings compares two source lists element-wise (both are sorted
// by construction; nil and empty compare equal).
func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// appendU32 appends v little-endian.
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// appendStr appends a u32-length-prefixed string.
func appendStr(b []byte, s string) []byte { return append(appendU32(b, uint32(len(s))), s...) }

// appendSection appends one framed section: name, payload length, CRC
// and payload.
func appendSection(b []byte, name string, payload []byte) []byte {
	b = appendStr(b, name)
	b = appendU32(b, uint32(len(payload)))
	b = appendU32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// envReader is a bounds-checked cursor over envelope bytes: the first
// out-of-range read latches err and every later read returns zero, so
// decode paths check err once per section instead of per field, and a
// truncated input can never index past the buffer.
type envReader struct {
	buf []byte
	pos int
	err error
}

func (r *envReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("replica: truncated snapshot: "+format, args...)
	}
}

func (r *envReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.fail("need %d bytes at offset %d of %d", n, r.pos, len(r.buf))
		return nil
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *envReader) u32() uint32 {
	b := r.bytes(4)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *envReader) str() string {
	n := int(r.u32())
	if r.err != nil {
		return ""
	}
	if n > len(r.buf)-r.pos {
		r.fail("string of %d bytes at offset %d of %d", n, r.pos, len(r.buf))
		return ""
	}
	return string(r.bytes(n))
}
