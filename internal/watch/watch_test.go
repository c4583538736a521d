package watch

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestScanAndEqual(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.md"), "alpha")
	write(t, filepath.Join(dir, "sub", "b.md"), "beta")
	write(t, filepath.Join(dir, ".hidden"), "skip me")
	write(t, filepath.Join(dir, ".git", "config"), "skip tree")

	snap, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 2 {
		t.Fatalf("scan = %d files (%v), want 2", len(snap), snap)
	}
	if _, ok := snap["a.md"]; !ok {
		t.Error("a.md missing from snapshot")
	}
	if _, ok := snap["sub/b.md"]; !ok {
		t.Error("sub/b.md missing from snapshot")
	}

	again, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Equal(again) {
		t.Error("identical trees compare unequal")
	}

	// A content change of the same byte length still flips Equal via the
	// modification time.
	time.Sleep(5 * time.Millisecond)
	write(t, filepath.Join(dir, "a.md"), "gamma")
	changed, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Equal(changed) {
		t.Error("changed tree compares equal")
	}

	// A new file flips Equal by count.
	write(t, filepath.Join(dir, "c.md"), "new")
	grown, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if changed.Equal(grown) {
		t.Error("grown tree compares equal")
	}
}

func TestWatchFiresOnChange(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.md"), "v1")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	fired := make(chan struct{}, 8)
	done := make(chan error, 1)
	go func() {
		done <- Watch(ctx, dir, 5*time.Millisecond, func() { fired <- struct{}{} })
	}()

	// Let the baseline scan land, then edit.
	time.Sleep(20 * time.Millisecond)
	write(t, filepath.Join(dir, "a.md"), "v2 with more bytes")

	select {
	case <-fired:
	case <-ctx.Done():
		t.Fatal("watcher never reported the change")
	}

	cancel()
	if err := <-done; err != context.Canceled {
		t.Errorf("Watch returned %v, want context.Canceled", err)
	}
}

// startWatch runs Watch in the background with a counting onChange and
// returns the rebuild counter, a fire-notification channel, and the
// Watch return channel.
func startWatch(t *testing.T, ctx context.Context, dir string, interval time.Duration) (*atomic.Int64, chan struct{}, chan error) {
	t.Helper()
	var count atomic.Int64
	fired := make(chan struct{}, 64)
	done := make(chan error, 1)
	go func() {
		done <- Watch(ctx, dir, interval, func() {
			count.Add(1)
			select {
			case fired <- struct{}{}:
			default:
			}
		})
	}()
	return &count, fired, done
}

// waitFire blocks until the watcher reports a change, then waits many
// more poll intervals and asserts no further rebuild was triggered —
// one filesystem event must map to exactly one rebuild.
func waitFire(t *testing.T, ctx context.Context, count *atomic.Int64, fired chan struct{}, interval time.Duration, what string) {
	t.Helper()
	select {
	case <-fired:
	case <-ctx.Done():
		t.Fatalf("watcher never reported %s", what)
	}
	time.Sleep(20 * interval)
	if got := count.Load(); got != 1 {
		t.Errorf("%s triggered %d rebuilds, want exactly 1", what, got)
	}
}

func TestWatchFileDeletion(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.md"), "alpha")
	write(t, filepath.Join(dir, "b.md"), "beta")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	const interval = 5 * time.Millisecond
	count, fired, done := startWatch(t, ctx, dir, interval)

	time.Sleep(4 * interval) // let the baseline scan land
	if err := os.Remove(filepath.Join(dir, "a.md")); err != nil {
		t.Fatal(err)
	}
	waitFire(t, ctx, count, fired, interval, "a deleted file")

	cancel()
	if err := <-done; err != context.Canceled {
		t.Errorf("Watch returned %v, want context.Canceled", err)
	}
}

func TestWatchDirRemoval(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.md"), "alpha")
	write(t, filepath.Join(dir, "sub", "b.md"), "beta")
	write(t, filepath.Join(dir, "sub", "c.md"), "gamma")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	const interval = 5 * time.Millisecond
	count, fired, done := startWatch(t, ctx, dir, interval)

	time.Sleep(4 * interval)
	// Removing a whole subtree drops two files at once; that is still
	// one observed change and one rebuild.
	if err := os.RemoveAll(filepath.Join(dir, "sub")); err != nil {
		t.Fatal(err)
	}
	waitFire(t, ctx, count, fired, interval, "a removed directory")

	cancel()
	if err := <-done; err != context.Canceled {
		t.Errorf("Watch returned %v, want context.Canceled", err)
	}
}

func TestWatchTouchedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.md")
	write(t, path, "alpha")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	const interval = 5 * time.Millisecond
	count, fired, done := startWatch(t, ctx, dir, interval)

	time.Sleep(4 * interval)
	// A touch changes only the mtime — same size, same content — as an
	// editor save or `touch` mid-scan would. Still exactly one rebuild.
	stamp := time.Now().Add(time.Hour)
	if err := os.Chtimes(path, stamp, stamp); err != nil {
		t.Fatal(err)
	}
	waitFire(t, ctx, count, fired, interval, "a touched file")

	cancel()
	if err := <-done; err != context.Canceled {
		t.Errorf("Watch returned %v, want context.Canceled", err)
	}
}

// TestWatchRootVanishes pins the scan-error path: if the watched tree
// disappears mid-watch, the loop logs, fires nothing, and does not
// panic; when the tree comes back changed, exactly one rebuild fires.
func TestWatchRootVanishes(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "corpus")
	write(t, filepath.Join(dir, "a.md"), "alpha")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	const interval = 5 * time.Millisecond
	count, fired, done := startWatch(t, ctx, dir, interval)

	time.Sleep(4 * interval)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// Scans now error on every tick; the loop must absorb that quietly.
	time.Sleep(10 * interval)
	if got := count.Load(); got != 0 {
		t.Errorf("vanished root triggered %d rebuilds, want 0", got)
	}

	// The tree returns with different content: one rebuild.
	write(t, filepath.Join(dir, "a.md"), "alpha, revised")
	waitFire(t, ctx, count, fired, interval, "the restored root")

	cancel()
	if err := <-done; err != context.Canceled {
		t.Errorf("Watch returned %v, want context.Canceled", err)
	}
}

// TestWatchRemovalFileByFile drives the settle rule with a scan after
// every step of a tree removal, the interleaving a poll tick can catch
// an os.RemoveAll in: the half-removed states must not fire, and the
// whole removal fires exactly once. A failed scan in the middle resets
// the pending state, so it cannot settle a change on its own.
func TestWatchRemovalFileByFile(t *testing.T) {
	dir := t.TempDir()
	files := []string{"sub/a.md", "sub/b.md", "sub/c.md"}
	for _, f := range files {
		write(t, filepath.Join(dir, f), f)
	}
	write(t, filepath.Join(dir, "keep.md"), "keep")

	first, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := settle{fired: first, last: first, lastOK: true}
	fires := 0
	scan := func(step string) {
		t.Helper()
		if st.observe(Scan(dir)) == "changed" {
			fires++
			t.Logf("fired after %s", step)
		}
	}
	for _, f := range files {
		if err := os.Remove(filepath.Join(dir, f)); err != nil {
			t.Fatal(err)
		}
		scan("removing " + f)
		if fires != 0 {
			t.Fatalf("half-removed tree fired after removing %s", f)
		}
	}
	if got := st.observe(nil, os.ErrNotExist); got != "error" {
		t.Fatalf("failed scan observed as %q", got)
	}
	scan("a failed scan")
	if fires != 0 {
		t.Fatal("a scan right after a failed scan fired")
	}
	if err := os.Remove(filepath.Join(dir, "sub")); err != nil {
		t.Fatal(err)
	}
	scan("removing sub/")
	for i := 0; i < 3; i++ {
		scan("an idle scan")
	}
	if fires != 1 {
		t.Errorf("tree removed file by file fired %d rebuilds, want exactly 1", fires)
	}
}

func TestWatchMissingRoot(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := Watch(ctx, filepath.Join(t.TempDir(), "nope"), time.Millisecond, func() {}); err == nil {
		t.Error("Watch of a missing root should fail fast")
	}
}
