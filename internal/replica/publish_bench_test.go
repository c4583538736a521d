package replica

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"pdcunplugged/internal/curation"
	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/obs"
)

// BenchmarkPublish measures the write path one edit takes, layer by
// layer, over the builtin catalog plus 50 generated activities on disk:
//   - rebuild_touch_one: the leader's rebuild after a body-only edit to
//     one file (a citation). The load parses that file alone, the site
//     build re-renders its activity page and assessment sheet (2 jobs),
//     and the index build tokenizes that activity alone;
//   - encode: the snapshot encode;
//   - decode: the snapshot decode, which re-validates the corpus and
//     verifies its fingerprint;
//   - adopt: a follower adopting the decoded generation.
func BenchmarkPublish(b *testing.B) {
	obs.SetLevel(slog.LevelWarn) // Adopt logs every publish at info
	b.Cleanup(func() { obs.SetLevel(slog.LevelInfo) })

	dir := b.TempDir()
	base := curation.Activities()
	var touched string
	for i := 0; i < 50; i++ {
		a := *base[i%len(base)]
		a.Slug = fmt.Sprintf("%s-%04d", a.Slug, i)
		a.Title = fmt.Sprintf("%s Variant %d", a.Title, i)
		path := filepath.Join(dir, a.Slug+".md")
		if err := os.WriteFile(path, []byte(a.Render()), 0o644); err != nil {
			b.Fatal(err)
		}
		touched = path
	}
	orig, err := os.ReadFile(touched)
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.Defaults()
	cfg.Rate = 0
	cfg.Catalogs = engine.CatalogList{"builtin"}
	cfg.Srcs = engine.SourceList{{Name: "generated", Path: dir}}
	leader, err := engine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := leader.Rebuild(context.Background())
	if err != nil {
		b.Fatal(err)
	}

	b.Run("rebuild_touch_one", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Each iteration changes the same file relative to the
			// previous build, so exactly one activity re-renders.
			edit := fmt.Appendf(append([]byte(nil), orig...), "\n- Publish benchmark edit %d.\n", i)
			if err := os.WriteFile(touched, edit, 0o644); err != nil {
				b.Fatal(err)
			}
			if gen, err = leader.Rebuild(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})

	data, err := Encode(gen)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := Encode(gen); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adopt", func(b *testing.B) {
		follower, err := engine.New(engine.Defaults())
		if err != nil {
			b.Fatal(err)
		}
		g, err := Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A follower only moves forward, so each adopt carries the
			// next sequence number.
			next := *g
			next.Seq = g.Seq + uint64(i) + 1
			if !follower.Adopt(engine.NewGeneration(next)) {
				b.Fatalf("adopt of seq %d refused", next.Seq)
			}
		}
	})
}
