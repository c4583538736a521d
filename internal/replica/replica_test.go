package replica

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"pdcunplugged/internal/engine"
)

// newEngine returns an unbuilt engine with admission control off.
func newEngine(t testing.TB, src string) *engine.Engine {
	t.Helper()
	cfg := engine.Defaults()
	cfg.Rate = 0
	cfg.Srcs = engine.DirSources(src)
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// TestSnapshotIfNoneMatchForms: the snapshot endpoint applies the same
// If-None-Match rule as the site and the query API, so a weak-prefixed
// tag and a list that contains the tag both revalidate to 304.
func TestSnapshotIfNoneMatchForms(t *testing.T) {
	eng := newEngine(t, corpusDir(t, 2))
	leader := NewLeader(eng)
	gen, err := eng.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tag := `"` + gen.ID + "-" + itoa(gen.Seq) + `"`
	for _, header := range []string{"W/" + tag, `"other", ` + tag} {
		req := httptest.NewRequest(http.MethodGet, "/replica/v1/snapshot", nil)
		req.Header.Set("If-None-Match", header)
		rec := httptest.NewRecorder()
		leader.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
			t.Errorf("If-None-Match %s = %d with %d body bytes, want 304 and none", header, rec.Code, rec.Body.Len())
		}
	}
}

// TestLeaderSnapshotEndpoint pins the wire contract of /replica/v1/:
// 503 before the first publish, then an ETagged snapshot that decodes
// to the published generation, 304 on If-None-Match, and a long-poll
// that returns 304 when nothing new arrives inside the window.
func TestLeaderSnapshotEndpoint(t *testing.T) {
	eng := newEngine(t, corpusDir(t, 2))
	leader := NewLeader(eng)
	srv := httptest.NewServer(leader.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/replica/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("snapshot before first publish = %d, want 503", resp.StatusCode)
	}

	gen, err := eng.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/replica/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("snapshot = %d etag %q, want 200 with a strong ETag", resp.StatusCode, etag)
	}
	if got := resp.Header.Get("Pdcu-Generation"); got != gen.ID {
		t.Errorf("Pdcu-Generation = %q, want %q", got, gen.ID)
	}
	var body []byte
	if body, err = readAll(resp); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(body)
	if err != nil {
		t.Fatalf("served snapshot does not decode: %v", err)
	}
	if decoded.Seq != gen.Seq || decoded.ID != gen.ID {
		t.Errorf("served snapshot is seq %d gen %q, want seq %d gen %q", decoded.Seq, decoded.ID, gen.Seq, gen.ID)
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/replica/v1/snapshot", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("conditional refetch = %d, want 304", resp.StatusCode)
	}

	// Long-poll at the current seq: nothing new arrives, so the window
	// closes with 304 rather than a redundant transfer.
	start := time.Now()
	resp, err = http.Get(srv.URL + "/replica/v1/snapshot?wait_seq=" + itoa(gen.Seq) + "&timeout=100ms")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("timed-out long poll = %d, want 304", resp.StatusCode)
	}
	if waited := time.Since(start); waited < 80*time.Millisecond {
		t.Errorf("long poll returned after %v, want ~100ms wait", waited)
	}

	// A publish during the wait releases the poller with the new bytes.
	done := make(chan *http.Response, 1)
	go func() {
		r, err := http.Get(srv.URL + "/replica/v1/snapshot?wait_seq=" + itoa(gen.Seq) + "&timeout=10s")
		if err == nil {
			done <- r
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := eng.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("long poll after publish = %d, want 200", r.StatusCode)
		}
		if got := r.Header.Get("Pdcu-Seq"); got != itoa(gen.Seq+1) {
			t.Errorf("long poll Pdcu-Seq = %q, want %q", got, itoa(gen.Seq+1))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll was not released by the publish")
	}
}

// TestFollowerConverges is the replication loop end to end, in process:
// a follower engine with no corpus of its own adopts the leader's
// generation, tracks a mid-test corpus edit, reports to the fleet, and
// serves the same bytes the leader serves.
func TestFollowerConverges(t *testing.T) {
	dir := corpusDir(t, 3)
	leaderEng := newEngine(t, dir)
	if _, err := leaderEng.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	leader := NewLeader(leaderEng)
	srv := httptest.NewServer(leader.Handler())
	defer srv.Close()

	followerEng := newEngine(t, "")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fol := &Follower{Eng: followerEng, Base: srv.URL, Node: "test-follower"}
	go fol.Run(ctx)

	waitFor(t, 10*time.Second, "follower to adopt generation 1", func() bool {
		g := followerEng.Current()
		return g != nil && g.Seq == leaderEng.Current().Seq
	})
	lg, fg := leaderEng.Current(), followerEng.Current()
	if fg.ID != lg.ID || fg.Fingerprint != lg.Fingerprint {
		t.Fatalf("follower converged to %q, leader has %q", fg.ID, lg.ID)
	}

	// Mid-test corpus edit: the leader rebuilds, the follower's long
	// poll picks it up without being told.
	victim := filepath.Join(dir, lg.Repo.Slugs()[0]+".md")
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	gen2, err := leaderEng.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "follower to adopt generation 2", func() bool {
		g := followerEng.Current()
		return g != nil && g.Seq == gen2.Seq
	})
	if fg := followerEng.Current(); fg.ID != gen2.ID || fg.Repo.Len() != gen2.Repo.Len() {
		t.Fatalf("follower at %q (%d activities), leader at %q (%d)",
			fg.ID, fg.Repo.Len(), gen2.ID, gen2.Repo.Len())
	}

	// Fleet status knows the follower and reports it converged.
	waitFor(t, 10*time.Second, "fleet to show the follower at lag 0", func() bool {
		st := leader.FleetStatus()
		return len(st.Followers) == 1 && st.Followers[0].Node == "test-follower" && st.Followers[0].Lag == 0
	})
	resp, err := http.Get(srv.URL + "/replica/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.LeaderSeq != gen2.Seq || len(st.Followers) != 1 || st.Followers[0].Seq != gen2.Seq {
		t.Errorf("fleet status = %+v, want leader and follower at seq %d", st, gen2.Seq)
	}
}

// TestColdStartCache pins the Save/Load cycle: a saved snapshot loads
// back to an adoptable generation, and a corrupted file is rejected
// rather than served.
func TestColdStartCache(t *testing.T) {
	gen := buildGen(t, corpusDir(t, 2))
	data, err := Encode(gen)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	if g, _, err := Load(dir); err != nil || g != nil {
		t.Fatalf("Load from empty dir = (%v, %v), want (nil, nil)", g, err)
	}
	if err := Save(dir, data); err != nil {
		t.Fatal(err)
	}
	g, raw, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if g.Seq != gen.Seq || g.ID != gen.ID || len(raw) != len(data) {
		t.Errorf("Load = seq %d gen %q (%d bytes), want seq %d gen %q (%d bytes)",
			g.Seq, g.ID, len(raw), gen.Seq, gen.ID, len(data))
	}

	eng := newEngine(t, "")
	if !eng.Adopt(g) {
		t.Fatal("engine refused the cold-started generation")
	}
	if eng.Current().ID != gen.ID {
		t.Errorf("adopted generation %q, want %q", eng.Current().ID, gen.ID)
	}

	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0xff
	if err := Save(dir, corrupt); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir); err == nil {
		t.Error("Load accepted a corrupted snapshot file")
	}
}

// TestAdoptRejectsStale: replayed or out-of-order snapshots must not
// move a node backwards.
func TestAdoptRejectsStale(t *testing.T) {
	dir := corpusDir(t, 2)
	eng := newEngine(t, dir)
	gen1, err := eng.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	old, err := Decode(mustEncode(t, gen1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	if eng.Adopt(old) {
		t.Fatal("engine adopted a stale generation over a newer one")
	}
	if eng.Current().Seq != gen1.Seq+1 {
		t.Errorf("current seq = %d, want %d", eng.Current().Seq, gen1.Seq+1)
	}
}

func mustEncode(t *testing.T, g *engine.Generation) []byte {
	t.Helper()
	data, err := Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
