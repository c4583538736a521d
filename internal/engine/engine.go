// Package engine unifies the repository lifecycle — load → site build →
// index build → publish — behind one pipeline producing immutable
// Generations. Every serving surface (static site, /api/v1 query
// service, /readyz readiness, access-log tagging, dashboard metrics)
// reads the single published *Generation through one atomic pointer, so
// a live-reload swap is structurally race-free: there is exactly one
// publication point, and everything downstream is either a reader of
// that pointer or a subscriber notified after the swap.
//
// Lifecycle:
//
//	load (corpus)  →  site build (page graph)  →  index build (TF-IDF)
//	      └──────────────── publish ────────────────┘
//	                         │
//	          subscribers: query cache purge,
//	          access-log generation tag, metrics
//
// The pipeline is driven by Rebuild (first build, `-watch` rebuilds,
// `pdcu build`); Load alone serves the read-only commands that need the
// corpus but no site.
package engine

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pdcunplugged/internal/core"
	"pdcunplugged/internal/corpus"
	"pdcunplugged/internal/curation"
	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/obs/dash"
	"pdcunplugged/internal/obs/slo"
	"pdcunplugged/internal/obs/trace"
	"pdcunplugged/internal/query"
	"pdcunplugged/internal/search"
	"pdcunplugged/internal/site"
	"pdcunplugged/internal/watch"
)

var (
	engineGeneration = obs.Default().Gauge("pdcu_engine_generation",
		"Monotonic sequence number of the currently-published generation.")
	enginePublish = obs.Default().Histogram("pdcu_engine_publish_duration_seconds",
		"Wall time of a generation publish: the pointer swap plus every subscriber hook.",
		obs.DefBuckets())
	engineRebuilds = obs.Default().Counter("pdcu_engine_rebuilds_total",
		"Pipeline runs, by outcome (published or failed).", "outcome")
	// buildInfo attributes every scrape (and every BENCH_*.json baseline
	// stamped from it) to a concrete binary: the labels carry the build
	// identity and the value carries the published generation sequence,
	// so one series answers "which build served which generation".
	buildInfo = obs.Default().Gauge("pdcu_build_info",
		"Build identity (labels) and currently-published generation seq (value).",
		"version", "go_version", "revision")
)

// genLen truncates the corpus fingerprint to the generation tag every
// surface reports (matches the query API's generation field).
const genLen = 16

// Generation is one immutable published build of the whole system: the
// validated repository, the rendered site, the search index, and the
// identity under which every cache entry and response derived from them
// is keyed. Generations are never mutated after Publish; readers hold
// whichever one they loaded for as long as they need it.
type Generation struct {
	// Seq is the engine-local monotonic publish counter (1 = first).
	Seq uint64
	// Repo is the validated, taxonomy-indexed corpus.
	Repo *core.Repository
	// Site is the rendered static site.
	Site *site.Site
	// Index is the TF-IDF search index over Repo.
	Index *search.Index
	// Fingerprint is the full content hash of the corpus.
	Fingerprint string
	// ID is the short generation tag (the fingerprint's first 16 hex
	// characters) reported by /readyz, the query API, and the
	// Pdcu-Generation response header.
	ID string
	// BuiltAt is when the pipeline produced this generation.
	BuiltAt time.Time
	// TraceID links to the rebuild trace at /debug/obs/traces/<id>.
	TraceID string
	// Stats summarizes the site build (jobs, cache hits, duration).
	Stats site.BuildStats
	// IndexStats summarizes the search index build (docs, vocabulary,
	// postings and bitset footprints, build duration).
	IndexStats search.IndexStats

	handler http.Handler
	snap    *query.Snapshot
}

// Handler returns the static-site handler for this generation.
func (g *Generation) Handler() http.Handler { return g.handler }

// Snapshot returns the query-service view of this generation.
func (g *Generation) Snapshot() *query.Snapshot { return g.snap }

// NewGeneration wires the serving surfaces — site handler and query
// snapshot — for a generation assembled outside the pipeline (a decoded
// replication snapshot). The exported fields of g must already be
// populated; the result is servable through Adopt exactly like a
// pipeline-built generation.
func NewGeneration(g Generation) *Generation {
	g.handler = g.Site.Handler()
	g.snap = &query.Snapshot{Repo: g.Repo, Index: g.Index, Generation: g.ID}
	return &g
}

// Outcome records one pipeline run for /readyz: operators see whether
// the corpus they just edited actually went live, and which trace to
// open when it did not.
type Outcome struct {
	Time     time.Time `json:"time"`
	OK       bool      `json:"ok"`
	Error    string    `json:"error,omitempty"`
	Duration string    `json:"duration"`
	TraceID  string    `json:"trace_id,omitempty"`
}

// Engine owns the load→build→index→publish pipeline and the single
// atomic pointer its Generations are published through. All rebuilds
// are serialized; readers never block.
type Engine struct {
	cfg     Config
	memo    *corpus.Memo
	builder *site.Builder
	indexer *search.Builder
	tracer  *trace.Tracer
	started time.Time

	cur atomic.Pointer[Generation]
	seq atomic.Uint64

	// mu serializes the pipeline and guards subs; publish runs under it
	// so subscribers observe generations in publish order.
	mu   sync.Mutex
	subs []func(*Generation)

	outcome atomic.Pointer[Outcome]
	genTag  atomic.Value // string: current generation ID for access logs

	queryOnce sync.Once
	query     *query.Service

	rollupOnce sync.Once
	rollup     *obs.Rollup

	sloOnce sync.Once
	slo     *slo.Engine

	// peerSource supplies the fleet roster (func() []dash.Peer); set by
	// the serve command once the replication role is known, read lazily
	// at request time so wiring order does not matter.
	peerSource atomic.Value

	// readyExtra contributes role/lag fields to /readyz
	// (func() map[string]any).
	readyExtra atomic.Value
}

// New validates cfg and returns an engine with no generation published
// yet. The engine's tracer is built from the config's sampling knobs;
// the first Rebuild publishes generation 1.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		memo:    new(corpus.Memo),
		builder: site.NewBuilder(site.Options{Workers: cfg.Jobs}),
		indexer: search.NewBuilder(),
		tracer: trace.New(trace.Options{
			SampleRate:    cfg.TraceSample,
			SlowThreshold: cfg.TraceSlow,
		}),
		started: time.Now(),
	}
	e.genTag.Store("")
	// The access-log generation tag is the first subscriber: every
	// request logged after a swap carries the generation that served it.
	e.Subscribe(func(g *Generation) { e.genTag.Store(g.ID) })
	bi := ReadBuildInfo()
	info := buildInfo.With(bi.Version, bi.GoVersion, bi.Revision)
	info.Set(0)
	e.Subscribe(func(g *Generation) { info.Set(float64(g.Seq)) })
	return e, nil
}

// Config returns the engine's resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// Tracer returns the engine's tracer: the one its HTTP middleware,
// rebuild traces and replication follower record into.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// StartedAt is when the engine was constructed (process uptime anchor).
func (e *Engine) StartedAt() time.Time { return e.started }

// Current returns the published generation, or nil before the first
// successful Rebuild. This pointer load is the only way any serving
// surface observes state, which is what makes swaps race-free.
func (e *Engine) Current() *Generation { return e.cur.Load() }

// LastOutcome returns the most recent pipeline outcome (nil before the
// first Rebuild attempt).
func (e *Engine) LastOutcome() *Outcome { return e.outcome.Load() }

// Subscribe registers fn to run after every publish, in registration
// order, under the publish lock. A subscriber registered after a
// generation is already live is called immediately with it, so late
// wiring cannot miss the current state.
func (e *Engine) Subscribe(fn func(*Generation)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.subs = append(e.subs, fn)
	if g := e.cur.Load(); g != nil {
		fn(g)
	}
}

// Load runs the load stage only: the federated corpus from the
// configured adapters (catalogs + -src directories), or the embedded
// curation when none are configured. It is the single repository entry
// point shared by `pdcu build`, `pdcu serve`, and `pdcu search`. The
// engine's corpus memo carries every unchanged -src file over from the
// previous successful load, so a reload parses and fingerprints only the
// edited files.
func (e *Engine) Load(ctx context.Context) (*core.Repository, error) {
	_, span := obs.StartSpan(ctx, "engine.load")
	var repo *core.Repository
	sources, err := e.cfg.CorpusSources()
	if err == nil {
		if len(sources) == 0 {
			// Unattributed single-corpus load: keeps the embedded
			// curation's fingerprints (and the statistics tests that pin
			// them) identical to the pre-federation era.
			repo, err = curation.Repository()
		} else {
			repo, err = e.memo.LoadAll(sources...)
		}
	}
	if err != nil {
		span.FailErr(err)
		span.End()
		return nil, err
	}
	span.SetAttr("activities", strconv.Itoa(repo.Len()))
	span.End()
	return repo, nil
}

// Rebuild runs the full pipeline — load, site build, index build — and
// publishes the result. On any error the previously-published
// generation stays live and the failure is recorded for /readyz. The
// whole run is one forced trace root (engine.rebuild), so its waterfall
// is always retrievable regardless of the sample rate.
func (e *Engine) Rebuild(ctx context.Context) (*Generation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rebuildLocked(ctx)
}

func (e *Engine) rebuildLocked(ctx context.Context) (gen *Generation, err error) {
	ctx, root := e.tracer.StartForced(ctx, "engine.rebuild")
	start := time.Now()
	defer func() {
		o := &Outcome{
			Time:     start,
			OK:       err == nil,
			Duration: time.Since(start).Round(time.Millisecond).String(),
		}
		if err != nil {
			o.Error = err.Error()
			root.FailErr(err)
			engineRebuilds.With("failed").Inc()
		} else {
			engineRebuilds.With("published").Inc()
		}
		o.TraceID = root.TraceID().String()
		root.End()
		e.outcome.Store(o)
	}()

	root.SetAttr("src", e.cfg.SourcesSummary())
	repo, err := e.Load(ctx)
	if err != nil {
		return nil, err
	}
	s, err := e.builder.BuildContext(ctx, repo)
	if err != nil {
		return nil, err
	}
	snap := query.NewSnapshotContext(ctx, repo, e.indexer)
	gen = &Generation{
		Seq:         e.seq.Add(1),
		Repo:        repo,
		Site:        s,
		Index:       snap.Index,
		Fingerprint: repo.Fingerprint(),
		ID:          snap.Generation,
		BuiltAt:     time.Now(),
		TraceID:     root.TraceID().String(),
		Stats:       e.builder.LastStats(),
		IndexStats:  snap.Index.Stats(),
		handler:     s.Handler(),
		snap:        snap,
	}
	root.SetAttr("generation", gen.ID)
	e.publishLocked(gen)
	return gen, nil
}

// Adopt publishes an externally-built generation — one decoded from a
// replication snapshot rather than produced by the local pipeline. The
// adopted Seq must advance past the published one (a follower never
// moves backwards; a replayed or stale snapshot returns false and
// leaves the current generation live). The local rebuild counter is
// pulled forward so a later pipeline run cannot mint a Seq the fleet
// has already seen from this process.
func (e *Engine) Adopt(g *Generation) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur := e.cur.Load(); cur != nil && g.Seq <= cur.Seq {
		return false
	}
	for {
		cur := e.seq.Load()
		if cur >= g.Seq || e.seq.CompareAndSwap(cur, g.Seq) {
			break
		}
	}
	e.publishLocked(g)
	return true
}

// publishLocked swaps the current generation and notifies subscribers.
// Callers hold e.mu, so publishes (and the subscriber notifications
// inside them) are totally ordered.
func (e *Engine) publishLocked(g *Generation) {
	done := enginePublish.With().Timer()
	e.cur.Store(g)
	for _, fn := range e.subs {
		fn(g)
	}
	engineGeneration.Set(float64(g.Seq))
	// Refresh per-source corpus gauges here rather than in the pipeline:
	// adopted replica snapshots publish too, so followers report the
	// leader's source mix.
	corpus.ObserveRepository(g.Repo)
	done()
	obs.Logger().Info("generation published",
		"seq", g.Seq, "generation", g.ID,
		"pages", g.Site.Len(), "activities", g.Repo.Len(),
		"index_vocab", g.IndexStats.Vocabulary,
		"index_postings", g.IndexStats.Postings,
		"index_bytes", g.IndexStats.PostingsBytes+g.IndexStats.BitsetBytes)
}

// Query returns the engine's query service. It reads snapshots straight
// through the engine's generation pointer — the service holds no state
// of its own to fall out of sync — and its result cache is purged by a
// publish subscriber.
func (e *Engine) Query() *query.Service {
	e.queryOnce.Do(func() {
		e.query = query.New(func() *query.Snapshot {
			if g := e.cur.Load(); g != nil {
				return g.snap
			}
			return nil
		}, query.Options{
			RateLimit:   e.cfg.Rate,
			Burst:       e.cfg.Burst,
			ContribRate: e.cfg.ContribRate,
		})
		e.Subscribe(func(*Generation) { e.query.Purge() })
	})
	return e.query
}

// Rollup returns the rolling time-series aggregator behind /debug/obs,
// created on first use with the runtime collector attached. Start it
// with Rollup().Run(ctx).
func (e *Engine) Rollup() *obs.Rollup {
	e.rollupOnce.Do(func() {
		e.rollup = obs.NewRollup(obs.Default(), 5*time.Second, 120)
		e.rollup.AddHook(obs.NewRuntimeCollector(obs.Default()).Collect)
	})
	return e.rollup
}

// SLO returns the engine's objective evaluator, created on first use
// over the engine's rollup with the default serving objectives. It
// backs the /slo endpoint, the dashboard SLO panel, and the pdcu_slo_*
// gauges; the load-test gate consumes its verdicts.
func (e *Engine) SLO() *slo.Engine {
	e.sloOnce.Do(func() {
		e.slo = slo.New(obs.Default(), e.Rollup(), slo.DefaultObjectives(), slo.Options{})
	})
	return e.slo
}

// SetPeerSource supplies the current fleet roster: the leader derives
// it from follower heartbeats, a follower points it at its leader. The
// dashboard's Fleet panel and trace-stitching view both read it at
// request time.
func (e *Engine) SetPeerSource(fn func() []dash.Peer) {
	e.peerSource.Store(fn)
}

// Peers resolves the current fleet roster (empty before SetPeerSource).
func (e *Engine) Peers() []dash.Peer {
	if fn, _ := e.peerSource.Load().(func() []dash.Peer); fn != nil {
		return fn()
	}
	return nil
}

// SetReadyExtra registers a hook whose fields are merged into the
// /readyz body — the serve command uses it to report the replication
// role, sequence position, and fleet lag without the engine knowing
// about replication.
func (e *Engine) SetReadyExtra(fn func() map[string]any) {
	e.readyExtra.Store(fn)
}

func (e *Engine) readyExtras() map[string]any {
	if fn, _ := e.readyExtra.Load().(func() map[string]any); fn != nil {
		return fn()
	}
	return nil
}

// Watch drives the live-reload loop: poll every -src directory, run the
// pipeline on any change, keep the previous generation on failure. One
// watcher goroutine per source; a change in any directory rebuilds the
// whole federated generation. Blocks until ctx is done.
func (e *Engine) Watch(ctx context.Context) error {
	log := obs.Logger()
	onChange := func() {
		gen, err := e.Rebuild(ctx)
		if err != nil {
			log.Warn("rebuild failed; keeping previous generation", "err", err)
			return
		}
		st := gen.Stats
		log.Info("site rebuilt",
			"seq", gen.Seq, "generation", gen.ID,
			"pages", gen.Site.Len(), "jobs", st.Jobs,
			"cache_hits", st.CacheHits, "cache_misses", st.CacheMisses,
			"duration", st.Duration.Round(time.Millisecond).String(),
			"trace_id", gen.TraceID)
	}
	if len(e.cfg.Srcs) == 1 {
		return watch.Watch(ctx, e.cfg.Srcs[0].Path, e.cfg.Poll, onChange)
	}
	errs := make(chan error, len(e.cfg.Srcs))
	for _, spec := range e.cfg.Srcs {
		go func(dir string) {
			errs <- watch.Watch(ctx, dir, e.cfg.Poll, onChange)
		}(spec.Path)
	}
	var first error
	for range e.cfg.Srcs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// logGeneration is the access-log hook: the generation tag the engine's
// subscriber keeps current.
func (e *Engine) logGeneration() []any {
	if tag, _ := e.genTag.Load().(string); tag != "" {
		return []any{"generation", tag}
	}
	return nil
}
