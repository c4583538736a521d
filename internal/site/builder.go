package site

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pdcunplugged/internal/core"
	"pdcunplugged/internal/obs"
)

var (
	pageCacheTotal = obs.Default().Counter("pdcu_site_page_cache_total",
		"Page-graph job cache lookups during site builds, by result (hit or miss).",
		"result")
	workersBusy = obs.Default().Gauge("pdcu_build_workers_busy",
		"Render workers currently executing a job, by pipeline stage.",
		"stage")
)

// Options configures a Builder.
type Options struct {
	// Workers bounds the render pool; zero or negative selects one
	// worker per CPU.
	Workers int
}

// BuildStats summarizes one Build call.
type BuildStats struct {
	Jobs        int // nodes in the page graph
	CacheHits   int // jobs whose cached pages were reused
	CacheMisses int // jobs that re-rendered
	Workers     int // pool size actually used
	Duration    time.Duration
}

// cacheEntry is one cached job result. Page byte slices are shared with
// the Sites produced from them and are immutable by convention.
type cacheEntry struct {
	fp    string
	pages map[string][]byte
}

// Builder schedules the page graph onto a bounded worker pool and keeps
// a fingerprint-keyed cache of rendered pages across builds, so a
// long-lived Builder (the `serve -watch` loop) rebuilds incrementally:
// only jobs whose inputs changed re-render. A Builder is safe for
// sequential reuse; a single Build call fans out internally.
type Builder struct {
	opts Options

	mu      sync.Mutex
	cache   map[string]cacheEntry
	listing *listingKeys // the latest plan's listing page keys
	last    BuildStats
}

// NewBuilder returns a builder with an empty page cache.
func NewBuilder(opts Options) *Builder {
	return &Builder{opts: opts, cache: map[string]cacheEntry{}}
}

// Build renders every page of the site with a fresh builder: one worker
// per CPU, no cache reuse. Kept as the simple entry point for one-shot
// builds.
func Build(repo *core.Repository) (*Site, error) {
	return NewBuilder(Options{}).Build(repo)
}

// LastStats reports the most recent Build's job and cache counts.
func (b *Builder) LastStats() BuildStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.last
}

type jobResult struct {
	pages map[string][]byte
	err   error
	hit   bool
}

// Build schedules the page graph for repo. Jobs run concurrently on the
// worker pool, each rendering into a job-local page map; results are
// merged after the pool drains, so the output is byte-identical to a
// serial build regardless of worker count.
func (b *Builder) Build(repo *core.Repository) (*Site, error) {
	return b.BuildContext(context.Background(), repo)
}

// BuildContext is Build with trace propagation: the build is timed once,
// as the "site.build" span (its "kind" attribute says whether the cache
// was empty), with one "site.job.<stage>" span per re-rendered job.
// BuildStats.Duration is read from the same span. When ctx carries a
// recording trace (a rebuild trace), the spans appear in its waterfall,
// which shows which pages a rebuild actually spent its time on.
func (b *Builder) BuildContext(ctx context.Context, repo *core.Repository) (*Site, error) {
	ctx, span := obs.StartSpan(ctx, "site.build")
	defer span.End()

	kind := "full"
	b.mu.Lock()
	if len(b.cache) > 0 {
		kind = "incremental"
	}
	prevKeys := b.listing
	b.mu.Unlock()
	span.SetAttr("kind", kind)

	jobs, keys := planJobs(repo, prevKeys)
	b.mu.Lock()
	b.listing = keys
	b.mu.Unlock()
	workers := b.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	results := make([]jobResult, len(jobs))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idxCh {
				results[i] = b.runJob(ctx, repo, jobs[i])
			}
		}()
	}
	for i := range jobs {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	pageCount := 0
	for i := range results {
		if results[i].err != nil {
			return nil, results[i].err
		}
		pageCount += len(results[i].pages)
	}

	span.SetAttr("jobs", strconv.Itoa(len(jobs)))
	stats := BuildStats{Jobs: len(jobs), Workers: workers}
	pages := make(map[string][]byte, pageCount)
	b.mu.Lock()
	live := make(map[string]bool, len(jobs))
	for i, j := range jobs {
		live[j.id] = true
		r := results[i]
		if r.hit {
			stats.CacheHits++
		} else {
			stats.CacheMisses++
			b.cache[j.id] = cacheEntry{fp: j.fp, pages: r.pages}
		}
		for p, data := range r.pages {
			pages[p] = data
		}
	}
	// Drop cache entries whose jobs vanished (e.g. a deleted activity),
	// so the cache tracks the current page graph.
	for id := range b.cache {
		if !live[id] {
			delete(b.cache, id)
		}
	}
	stats.Duration = span.Elapsed()
	b.last = stats
	b.mu.Unlock()

	obs.Logger().Debug("site built",
		"pages", len(pages), "jobs", stats.Jobs, "workers", workers,
		"cache_hits", stats.CacheHits, "cache_misses", stats.CacheMisses)
	return newSite(pages), nil
}

// runJob serves one job from the cache when its fingerprint is
// unchanged, and renders it otherwise. Cache hits stay span-free (a
// rebuild touching nothing would otherwise drown the waterfall in
// zero-length bars); re-rendered jobs each get a span named by stage,
// so the phase label stays bounded and the job id is an attribute.
func (b *Builder) runJob(ctx context.Context, repo *core.Repository, j job) jobResult {
	b.mu.Lock()
	entry, ok := b.cache[j.id]
	b.mu.Unlock()
	if ok && entry.fp == j.fp {
		pageCacheTotal.With("hit").Inc()
		return jobResult{pages: entry.pages, hit: true}
	}
	pageCacheTotal.With("miss").Inc()

	busy := workersBusy.With(j.stage)
	busy.Inc()
	defer busy.Dec()
	_, jSpan := obs.StartSpan(ctx, "site.job."+j.stage)
	jSpan.SetAttr("job", j.id)
	rn := newRenderer(repo)
	err := j.render(rn)
	if err != nil {
		jSpan.FailErr(err)
		jSpan.End()
		return jobResult{err: err}
	}
	jSpan.SetAttr("pages", strconv.Itoa(len(rn.pages)))
	jSpan.End()
	return jobResult{pages: rn.pages}
}
