package markdown

import (
	"sync"
	"testing"
)

func TestEscape(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", ""},
		{"plain text", "plain text"},
		{"&", "&amp;"},
		{"<", "&lt;"},
		{">", "&gt;"},
		{`"`, "&quot;"},
		{`a < b && c > "d"`, `a &lt; b &amp;&amp; c &gt; &quot;d&quot;`},
		{"<script>alert(1)</script>", "&lt;script&gt;alert(1)&lt;/script&gt;"},
		// Already-escaped input is escaped again, not passed through.
		{"&amp; &lt;", "&amp;amp; &amp;lt;"},
		{"'single' stays", "'single' stays"},
	} {
		if got := Escape(tc.in); got != tc.want {
			t.Errorf("Escape(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestEscapeAllocs pins the shared escaper's cost: one allocation for the
// escaped copy, none when the input needs no escaping.
func TestEscapeAllocs(t *testing.T) {
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = Escape(`Odd-Even <Sort> & "Cards"`) }); n > 1 {
		t.Errorf("Escape of markup allocates %v times, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = Escape("Odd-Even Transposition Sort") }); n != 0 {
		t.Errorf("Escape of plain text allocates %v times, want 0", n)
	}
	_ = sink
}

// TestEscapeConcurrent runs the shared escaper from several goroutines;
// under the race detector it checks that sharing one Replacer is safe.
func TestEscapeConcurrent(t *testing.T) {
	const in, want = `<a href="x">&</a>`, "&lt;a href=&quot;x&quot;&gt;&amp;&lt;/a&gt;"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := Escape(in); got != want {
					t.Errorf("Escape(%q) = %q, want %q", in, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
