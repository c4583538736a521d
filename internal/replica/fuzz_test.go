package replica

import "testing"

// FuzzSnapshotDecode drives the full decode path — envelope framing,
// CRC checks, gob corpus and the term index core.New derives from it,
// site pages, search posting slabs — with arbitrary bytes. The contract
// is narrow and absolute: Decode either returns a verified generation
// or an error; it never panics, never over-reads, and never allocates
// proportionally to a length field a corrupt header merely claims.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add([]byte("PDCUSNP0junk"))
	f.Add([]byte(magicV1 + "junk")) // pre-federation envelope: refused, never parsed
	// One real snapshot (and light corruptions of it) seeds coverage
	// inside the section payloads, not just the envelope.
	data, err := Encode(buildGen(f, corpusDir(f, 1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	mut := append([]byte(nil), data...)
	mut[len(mut)/3] ^= 0xff
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		gen, err := Decode(data)
		if err == nil && gen == nil {
			t.Fatal("Decode returned neither a generation nor an error")
		}
	})
}
