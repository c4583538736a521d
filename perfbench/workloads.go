package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/loadgen"
	"pdcunplugged/internal/query"
)

// The read workloads replay the traffic `pdcu loadtest` sends by default
// (and BENCH_loadtest.json records): loadgen.DefaultMix as an open loop
// at this arrival rate, with this many requests in flight at most.
const (
	qps         = 200
	concurrency = 16
)

// warmup is the untimed lead-in before a window: connections open, the
// result cache fills and lazy set-up finishes. Its answers are checked
// like the timed ones.
const warmup = time.Second

// bench is one run: the deployment and the inputs a workload draws from.
type bench struct {
	d      *deployment
	seed   int64
	window time.Duration
	dir    string               // where the generated corpus is written
	acts   []*activity.Activity // the generated corpus, as last written
	words  []string             // vocabulary queries are made of
}

// outcome is what a workload produced.
type outcome struct {
	latencies []time.Duration // successful timed operations, in completion order
	attempted int
	failed    int
	problems  []string // the first few failures, for the log
}

func (o *outcome) fail(err error) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, err.Error())
	}
}

// absorb adds another outcome's operations; its latencies are not timed.
func (o *outcome) absorb(other *outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	for _, p := range other.problems {
		if len(o.problems) < 10 {
			o.problems = append(o.problems, p)
		}
	}
}

// runMix: the load test's own traffic against the curated corpus
// federated with the CSinParallel catalog. Its query pools are small, so
// after the first pass the replica's result cache answers nearly every
// search, listing and facet count.
func runMix(b *bench) (*outcome, error) {
	return b.read(nil)
}

// runCatalog: the same mix over the curation plus a seeded 300-activity
// corpus, with the search pool replaced by fresh combinations of corpus
// words, so nearly every search misses the result cache and ranks,
// encodes and gzips over the larger index, and each submission is
// compared against every activity. The corpus is sized so that a review
// (about 2 ms) stays well inside the scheduler's 10 ms time slice: a
// longer one holds up every request queued behind it on the one
// processor, and the tail then swings with where the reviews land.
func runCatalog(b *bench) (*outcome, error) {
	rng := rand.New(rand.NewSource(b.seed))
	queries := make([]string, 1<<14)
	for i := range queries {
		queries[i] = phrase(rng, b.words, 2+rng.Intn(2))
	}
	return b.read(queries)
}

// read runs loadgen over the replica: an untimed warm-up, then the
// window. queries replaces loadgen's search pool when not nil.
func (b *bench) read(queries []string) (*outcome, error) {
	// The generator and the replica share this process. On a small shared
	// host a request handed between two OS threads waits for a wake-up
	// whose cost swings with the host's other load by more than the code
	// under test changes; on one processor the hand-off stays inside the
	// Go scheduler.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opts := loadgen.Options{
		Seed:      b.seed + 1<<32,
		Duration:  warmup,
		Queries:   queries,
		SitePaths: sitePaths(b.d.follower.Current(), 32),
	}
	warm, err := b.load(opts)
	if err != nil {
		return nil, err
	}
	opts.Seed, opts.Duration, opts.SkipPrime = b.seed, b.window, true
	out, err := b.load(opts)
	if err != nil {
		return nil, err
	}
	out.absorb(warm)
	return out, nil
}

// sitePaths turns the first max page keys of a generation into request
// paths, the way `pdcu loadtest` picks its site traffic.
func sitePaths(g *engine.Generation, max int) []string {
	var out []string
	for _, p := range g.Site.Paths() {
		if strings.HasSuffix(p, "index.html") && len(out) < max {
			out = append(out, "/"+strings.TrimSuffix(p, "index.html"))
		}
	}
	return out
}

// load drives one loadgen run through a recorder and checks the answers
// it kept.
func (b *bench) load(opts loadgen.Options) (*outcome, error) {
	rec := &recorder{d: b.d, next: b.d.client.Transport}
	opts.BaseURL = b.d.base
	opts.Mix = loadgen.DefaultMix()
	opts.QPS = qps
	opts.Concurrency = concurrency
	opts.Client = &http.Client{Transport: rec, Timeout: time.Minute}
	rep, err := loadgen.Run(context.Background(), opts)
	if err != nil {
		return nil, err
	}
	out := &rec.out
	// An arrival the generator dropped because every worker was busy is
	// a request the replica did not keep up with.
	out.attempted += int(rep.Dropped)
	out.failed += int(rep.Dropped)
	g := b.d.follower.Current()
	for _, ex := range rec.kept {
		if err := ex.check(g); err != nil {
			out.fail(fmt.Errorf("%s %s: %w", ex.method, ex.target, err))
		}
	}
	return out, nil
}

// recorder is the load generator's transport. It times each request from
// the send to the moment the generator has read the whole answer, checks
// the status and generation of every answer as it arrives, and keeps
// every 16th answer to check in full after the window, so the checking
// does not load the replica while it is timed.
type recorder struct {
	d    *deployment
	next http.RoundTripper
	mu   sync.Mutex
	out  outcome
	kept []exchange
}

// exchange is one request and the answer it got.
type exchange struct {
	method, target string
	sent           string // the submission, for contrib requests
	body           []byte
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	ex := exchange{method: req.Method, target: req.URL.RequestURI()}
	start := time.Now()
	resp, err := r.next.RoundTrip(req)
	r.mu.Lock()
	r.out.attempted++
	keep := r.out.attempted%16 == 1
	r.mu.Unlock()
	if err == nil {
		err = r.d.check(resp)
	}
	if err == nil && keep && req.GetBody != nil {
		var sent io.ReadCloser
		if sent, err = req.GetBody(); err == nil {
			var data []byte
			data, err = io.ReadAll(sent)
			ex.sent = string(data)
		}
	}
	if err != nil {
		if resp != nil {
			resp.Body.Close()
		}
		r.fail(ex, err)
		return nil, err
	}
	resp.Body = &recorded{ReadCloser: resp.Body, r: r, ex: ex, start: start, keep: keep}
	return resp, nil
}

func (r *recorder) fail(ex exchange, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.out.fail(fmt.Errorf("%s %s: %w", ex.method, ex.target, err))
}

// recorded is an answer body on its way to the load generator.
type recorded struct {
	io.ReadCloser
	r     *recorder
	ex    exchange
	start time.Time
	keep  bool
}

func (b *recorded) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.keep {
		b.ex.body = append(b.ex.body, p[:n]...)
	}
	return n, err
}

func (b *recorded) Close() error {
	rt := time.Since(b.start)
	if err := b.ReadCloser.Close(); err != nil {
		b.r.fail(b.ex, err)
		return err
	}
	b.r.mu.Lock()
	defer b.r.mu.Unlock()
	b.r.out.latencies = append(b.r.out.latencies, rt)
	if b.keep {
		b.r.kept = append(b.r.kept, b.ex)
	}
	return nil
}

// check compares an answer with what the generation it was served from
// gives: the published page bytes, or the value query.SearchWith,
// query.Activities, query.Facets or query.ValidateContribution return.
func (ex exchange) check(g *engine.Generation) error {
	u, err := url.ParseRequestURI(ex.target)
	if err != nil {
		return err
	}
	v := u.Query()
	snap := g.Snapshot()
	switch u.Path {
	case "/api/v1/search":
		limit := 10 // the API's default; loadgen sends none
		if raw := v.Get("limit"); raw != "" {
			if limit, err = strconv.Atoi(raw); err != nil {
				return err
			}
		}
		fuzzy := false
		if raw := v.Get("fuzzy"); raw != "" {
			if fuzzy, err = strconv.ParseBool(raw); err != nil {
				return err
			}
		}
		return sameAnswer(ex.body, query.SearchWith(snap, v.Get("q"), limit, fuzzy))
	case "/api/v1/activities":
		filters := map[string]string{}
		for param := range v {
			filters[param] = v.Get(param)
		}
		return sameAnswer(ex.body, query.Activities(snap, filters))
	case "/api/v1/facets":
		return sameAnswer(ex.body, query.Facets(snap))
	case "/api/v1/contrib/validate":
		return sameAnswer(ex.body, query.ValidateContribution(snap, v.Get("slug"), ex.sent))
	default:
		page := strings.TrimPrefix(u.Path, "/") + "index.html"
		if !bytes.Equal(ex.body, g.Site.Pages[page]) {
			return fmt.Errorf("differs from the published page %s", page)
		}
		return nil
	}
}

// sameAnswer reports whether body decodes to the value want encodes to,
// so the check holds whatever the JSON formatting.
func sameAnswer[T any](body []byte, want *T) error {
	enc, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var got, exp T
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding the answer: %w", err)
	}
	if err := json.Unmarshal(enc, &exp); err != nil {
		return err
	}
	if !reflect.DeepEqual(got, exp) {
		return fmt.Errorf("answer differs from the expected one")
	}
	return nil
}

// runPublish: a curator edits one activity file of the seeded corpus at
// a time. Each edit is rebuilt on the leader, shipped to the replica as a
// snapshot, and read back from the replica's page and search API before
// the next edit starts; an operation's latency runs from the file write
// to the checked read-back.
func runPublish(b *bench) (*outcome, error) {
	rng := rand.New(rand.NewSource(b.seed))
	orig := make([]string, len(b.acts))
	for i, a := range b.acts {
		orig[i] = a.Accessibility
	}
	edit := func(o *outcome) {
		i := rng.Intn(len(b.acts))
		marker := word(rng)
		start := time.Now()
		o.attempted++
		if err := b.publishEdit(b.acts[i], strings.TrimSpace(orig[i]+" Rehearsed as "+marker+"."), marker); err != nil {
			o.fail(err)
			return
		}
		o.latencies = append(o.latencies, time.Since(start))
	}
	warm := &outcome{}
	for n := 0; n < 3; n++ {
		edit(warm)
	}
	out := &outcome{}
	for deadline := time.Now().Add(b.window); time.Now().Before(deadline); {
		edit(out)
	}
	out.absorb(warm)
	return out, nil
}

// publishEdit writes one edit of a to its file, publishes it, and checks
// that the replica serves it: the activity page shows the marker, and a
// search for the marker finds that activity alone.
func (b *bench) publishEdit(a *activity.Activity, accessibility, marker string) error {
	a.Accessibility = accessibility
	if err := os.WriteFile(filepath.Join(b.dir, a.Slug+".md"), []byte(a.Render()), 0o644); err != nil {
		return err
	}
	if _, err := b.d.publish(); err != nil {
		return err
	}
	page, err := b.d.get("/activities/" + a.Slug + "/")
	if err != nil {
		return err
	}
	if !bytes.Contains(page, []byte(marker)) {
		return fmt.Errorf("replica page of %s lacks edit %s", a.Slug, marker)
	}
	body, err := b.d.get("/api/v1/search?q=" + marker)
	if err != nil {
		return err
	}
	var res query.SearchResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	if res.Count != 1 || res.Results[0].Slug != a.Slug {
		return fmt.Errorf("search for edit %s found %d activities, want %s alone", marker, res.Count, a.Slug)
	}
	return nil
}
