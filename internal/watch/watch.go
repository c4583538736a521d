// Package watch implements a dependency-free filesystem watcher for the
// `pdcu serve -watch` loop. It polls: each tick takes a snapshot of the
// watched tree (path, size, modification time) and compares it with the
// previous one. Polling is deliberately chosen over platform notify APIs
// — the corpus is a few dozen markdown files, a scan is microseconds,
// and the stdlib-only constraint of this codebase rules out inotify and
// kqueue wrappers.
package watch

import (
	"context"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"pdcunplugged/internal/obs"
)

var scansTotal = obs.Default().Counter("pdcu_watch_scans_total",
	"Watcher poll scans, by result (changed, pending, unchanged, error).",
	"result")

// fileState is the per-file change signal: a rewrite that preserves both
// size and mtime is invisible, which polling accepts by design.
type fileState struct {
	size    int64
	modTime time.Time
}

// Snapshot maps each regular file under a root (by slash-separated
// relative path) to its observed state.
type Snapshot map[string]fileState

// Scan walks root and records every regular file. Hidden files and
// directories (dot-prefixed, e.g. .git or editor swap files) are
// skipped so commits and editors don't trigger spurious rebuilds.
func Scan(root string) (Snapshot, error) {
	snap := Snapshot{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, ".") && p != root {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		snap[filepath.ToSlash(rel)] = fileState{size: info.Size(), modTime: info.ModTime()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// Equal reports whether two snapshots describe the same tree state.
func (s Snapshot) Equal(other Snapshot) bool {
	if len(s) != len(other) {
		return false
	}
	for p, st := range s {
		o, ok := other[p]
		if !ok || o.size != st.size || !o.modTime.Equal(st.modTime) {
			return false
		}
	}
	return true
}

// settle turns a sequence of scans into change events. A multi-file
// change (an os.RemoveAll, an editor's write-then-rename) can be caught
// half done by one scan; firing on every differing scan would then count
// one change as two. So a change fires only once a successful scan
// differs from the last fired state and equals the scan just before it.
// A failed scan resets that pending state.
type settle struct {
	fired  Snapshot // the tree state the last onChange saw
	last   Snapshot // the previous successful scan
	lastOK bool     // false after a failed scan
}

// observe folds one scan result in and reports it as a scan result
// label: "changed" (fire onChange), "pending" (differs, not yet
// settled), "unchanged" or "error".
func (s *settle) observe(next Snapshot, err error) string {
	if err != nil {
		s.lastOK = false
		return "error"
	}
	settled := s.lastOK && next.Equal(s.last)
	s.last, s.lastOK = next, true
	switch {
	case next.Equal(s.fired):
		return "unchanged"
	case !settled:
		return "pending"
	}
	s.fired = next
	return "changed"
}

// Watch polls root every interval and calls onChange once per settled
// change: after a scan that differs from the state the previous call saw
// and equals the scan before it. The initial scan establishes the
// baseline without firing. Scan errors are logged and counted but do
// not stop the loop (a file may vanish mid-walk during a save). Watch
// blocks until ctx is done and then returns ctx.Err().
func Watch(ctx context.Context, root string, interval time.Duration, onChange func()) error {
	first, err := Scan(root)
	if err != nil {
		return err
	}
	st := settle{fired: first, last: first, lastOK: true}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
		next, err := Scan(root)
		result := st.observe(next, err)
		scansTotal.With(result).Inc()
		switch result {
		case "error":
			obs.Logger().Warn("watch scan failed", "root", root, "err", err)
		case "changed":
			onChange()
		}
	}
}
