package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/replica"
	"pdcunplugged/internal/search"
)

// replicaNode is one serving process in miniature: an engine, its mux
// with the /replica/v1/ tree mounted (every node can relay snapshots),
// and an httptest listener — the same wiring cmdServe performs.
type replicaNode struct {
	eng *engine.Engine
	srv *httptest.Server
}

func newReplicaNode(t *testing.T, eng *engine.Engine) *replicaNode {
	t.Helper()
	mux := eng.Mux()
	mux.Handle("/replica/v1/", replica.NewLeader(eng).Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &replicaNode{eng: eng, srv: srv}
}

func (n *replicaNode) get(t *testing.T, path string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(n.srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Pdcu-Generation"), body
}

func waitConverged(t *testing.T, leader *engine.Engine, followers ...*engine.Engine) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		want := leader.Current().Seq
		n := 0
		for _, f := range followers {
			if g := f.Current(); g != nil && g.Seq == want {
				n++
			}
		}
		if n == len(followers) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("followers did not converge to leader seq %d", leader.Current().Seq)
}

// TestReplicaSmoke is the replication tier end to end, the way `make
// replica-smoke` gates it: a leader and two followers (one chained off
// the other, exercising the relay topology), a mid-test corpus edit,
// and the assertion that every probe surface — query API, site pages —
// serves byte-identical, generation-tagged responses from all three
// nodes, with neither follower ever parsing Markdown or building an
// index.
func TestReplicaSmoke(t *testing.T) {
	dir := writeCorpus(t)
	leader := newReplicaNode(t, builtEngine(t, func(c *engine.Config) { c.Srcs = engine.DirSources(dir) }))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	f1 := newReplicaNode(t, testEngine(t, nil))
	go (&replica.Follower{Eng: f1.eng, Base: leader.srv.URL, Node: "f1"}).Run(ctx)
	// f2 follows f1, not the leader: the snapshot it receives was
	// re-encoded by a follower, so this only passes if the codec is
	// deterministic end to end.
	f2 := newReplicaNode(t, testEngine(t, nil))
	go (&replica.Follower{Eng: f2.eng, Base: f1.srv.URL, Node: "f2"}).Run(ctx)

	waitConverged(t, leader.eng, f1.eng, f2.eng)

	probes := []string{
		"/api/v1/search?q=parallel+sorting",
		"/api/v1/activities?course=CS1",
		"/api/v1/facets",
		"/",
		"/activities/findsmallestcard/",
	}
	checkProbes := func(when string) {
		t.Helper()
		wantGen := leader.eng.Current().ID
		for _, p := range probes {
			code, gen, want := leader.get(t, p)
			if code != http.StatusOK {
				t.Fatalf("%s: leader %s = %d, want 200", when, p, code)
			}
			if gen != wantGen {
				t.Fatalf("%s: leader %s tagged %q, want %q", when, p, gen, wantGen)
			}
			for name, node := range map[string]*replicaNode{"f1": f1, "f2": f2} {
				code, gen, got := node.get(t, p)
				if code != http.StatusOK {
					t.Fatalf("%s: %s %s = %d, want 200", when, name, p, code)
				}
				if gen != wantGen {
					t.Errorf("%s: %s %s tagged %q, want %q", when, name, p, gen, wantGen)
				}
				if !bytes.Equal(want, got) {
					t.Errorf("%s: %s %s body differs from leader (%d vs %d bytes)", when, name, p, len(got), len(want))
				}
			}
		}
	}
	checkProbes("gen1")
	parseBefore, buildBefore := activity.ParseCalls(), search.BuildCalls()

	// Mid-test corpus edit: touch one activity, rebuild on the leader,
	// and the whole tree converges to the new generation.
	victim := filepath.Join(dir, "findsmallestcard.md")
	content, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(content, []byte("## Details"),
		[]byte("## Details\n\nReplication smoke edit."), 1)
	if bytes.Equal(edited, content) {
		t.Fatalf("corpus edit did not change %s", victim)
	}
	if err := os.WriteFile(victim, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	gen1 := leader.eng.Current().ID
	if _, err := leader.eng.Rebuild(ctx); err != nil {
		t.Fatal(err)
	}
	if leader.eng.Current().ID == gen1 {
		t.Fatal("corpus edit did not change the generation")
	}
	waitConverged(t, leader.eng, f1.eng, f2.eng)
	checkProbes("gen2")

	// Only the leader's rebuild pays pipeline cost: its corpus reload
	// parses the one edited .md file (every other file is carried over
	// from the previous generation), its index builds once. The two
	// followers adopted the same generation twice without either.
	if n := activity.ParseCalls() - parseBefore; n != 1 {
		t.Errorf("activity.Parse ran %d times; only the leader's reload may parse, and only the edited file (want 1)", n)
	}
	if n := search.BuildCalls() - buildBefore; n != 1 {
		t.Errorf("search.Build ran %d times; only the leader's rebuild may build (want 1)", n)
	}

	// The leader's fleet knows f1; f1's fleet knows f2.
	code, _, body := leader.get(t, "/replica/v1/fleet")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"f1"`)) {
		t.Errorf("leader fleet = %d %s, want f1 listed", code, body)
	}
	code, _, body = f1.get(t, "/replica/v1/fleet")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"f2"`)) {
		t.Errorf("f1 fleet = %d %s, want f2 listed", code, body)
	}
}

// TestColdStartFromSnapshotDir pins the cold-start acceptance bar: with
// a warm -snapshot-dir, a fresh process reaches /readyz 200 without
// invoking the Markdown parser or the index builder.
func TestColdStartFromSnapshotDir(t *testing.T) {
	snapDir := t.TempDir()
	gen := func() *engine.Generation {
		eng := builtEngine(t, func(c *engine.Config) { c.Srcs = engine.DirSources(writeCorpus(t)) })
		g := eng.Current()
		data, err := replica.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.Save(snapDir, data); err != nil {
			t.Fatal(err)
		}
		return g
	}()

	// "Restart": a brand-new engine, no corpus configured, booted only
	// from the snapshot directory — the cmdServe cold-start path.
	parseBefore, buildBefore := activity.ParseCalls(), search.BuildCalls()
	eng := testEngine(t, nil)
	loaded, _, err := replica.Load(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil || !eng.Adopt(loaded) {
		t.Fatal("cold start did not adopt the cached snapshot")
	}
	if n := activity.ParseCalls() - parseBefore; n != 0 {
		t.Errorf("cold start invoked activity.Parse %d times", n)
	}
	if n := search.BuildCalls() - buildBefore; n != 0 {
		t.Errorf("cold start invoked search.Build %d times", n)
	}

	srv := httptest.NewServer(eng.Mux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after cold start = %d (%s), want 200", resp.StatusCode, body)
	}
	if want := fmt.Sprintf("%q", gen.ID); !bytes.Contains(body, []byte(want)) {
		t.Errorf("/readyz = %s, want generation %s", body, want)
	}
}

// TestGenerationHeaderOnAllSurfaces pins the Pdcu-Generation response
// header across both serving surfaces and both status codes: the query
// API and the static site each tag 200s AND 304s, so a conditional
// revalidation is attributable to a generation without refetching.
func TestGenerationHeaderOnAllSurfaces(t *testing.T) {
	eng := builtEngine(t, nil)
	srv := httptest.NewServer(eng.Mux())
	defer srv.Close()
	want := eng.Current().ID

	for _, path := range []string{"/api/v1/search?q=parallel", "/api/v1/facets", "/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Pdcu-Generation"); got != want {
			t.Errorf("%s 200 Pdcu-Generation = %q, want %q", path, got, want)
		}
		etag := resp.Header.Get("ETag")
		if etag == "" {
			t.Fatalf("%s carried no ETag", path)
		}

		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		req.Header.Set("If-None-Match", etag)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("%s conditional = %d, want 304", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Pdcu-Generation"); got != want {
			t.Errorf("%s 304 Pdcu-Generation = %q, want %q", path, got, want)
		}
	}
}
