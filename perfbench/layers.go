package main

import (
	"math"
	"strings"
	"sync"
	"time"

	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/obs/trace"
)

// layers sums time per layer over a traced run.
//
// A request's layers come from the spans the replica records for it —
// the middleware's root span and the query.* stages — as self times
// (duration minus the part covered by child spans), plus the transport:
// the client's round trip minus the server's root span. They add up to
// the round trip.
//
// A publish's layers split the leader's rebuild by what the program
// reports — the engine.load span of the rebuild trace, the site build's
// own duration and the index's build time (a trace keeps at most 512
// spans, too few for the per-job spans of a large site build) — and add
// the benchmark's own timings of the snapshot encode, the decode and the
// replica's adopt. They add up to the publish.
type layers struct {
	mu        sync.Mutex
	time      map[string]time.Duration
	requests  int
	publishes int
	bytes     int
	rendered  int // site jobs re-rendered
	cached    int // site jobs served from the builder's cache
}

func newLayers() *layers { return &layers{time: map[string]time.Duration{}} }

// requestLayer names the layer a request span belongs to.
func requestLayer(span string) string {
	switch {
	case span == "query.ratelimit":
		return "admission"
	case span == "query.cache":
		return "cache_lookup"
	case span == "query.coalesce":
		return "coalesce"
	case strings.HasPrefix(span, "query."):
		return "render" // search, listing or facets, JSON encoding and gzip
	case span == "POST /api/v1/contrib/validate":
		return "contrib" // the root span of a submission: parse, review, encode
	default:
		return "serve" // the root span: middleware, routing, page lookup, write
	}
}

// request adds one traced request; rt is the round trip the client saw.
func (l *layers) request(rt time.Duration, t trace.Data) {
	covered := make(map[trace.SpanID]time.Duration, len(t.Spans))
	for _, s := range t.Spans {
		covered[s.Parent] += s.Duration
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.requests++
	l.time["request"] += rt
	l.time["transport"] += rt - t.Duration
	for _, s := range t.Spans {
		l.time[requestLayer(s.Name)] += s.Duration - covered[s.ID]
	}
}

// publish adds one leader-to-replica publish: the leader's generation and
// rebuild trace, the snapshot size, and the benchmark's timings.
func (l *layers) publish(g *engine.Generation, t trace.Data, bytes int, rebuild, encode, decode, adopt time.Duration) {
	var load time.Duration
	for _, s := range t.Spans {
		if s.Name == "engine.load" {
			load = s.Duration
		}
	}
	site := g.Stats.Duration
	index := time.Duration(g.IndexStats.BuildSeconds * float64(time.Second))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.publishes++
	l.bytes += bytes
	l.rendered += g.Stats.CacheMisses
	l.cached += g.Stats.CacheHits
	l.time["publish"] += rebuild + encode + decode + adopt
	l.time["load"] += load
	l.time["site_build"] += site
	l.time["index_build"] += index
	// The rest of the rebuild: fingerprinting, the publish swap and its
	// subscribers.
	l.time["swap"] += rebuild - load - site - index
	l.time["snapshot_encode"] += encode
	l.time["snapshot_decode"] += decode
	l.time["adopt"] += adopt
}

// lookups counts query result-cache lookups by result.
type lookups struct{ hit, miss float64 }

// cacheLookups reads the result-cache counters; only the replica serves
// queries, so they are the replica's. Coalesced lookups count as misses.
func cacheLookups() lookups {
	var l lookups
	for _, s := range obs.Default().Snapshot("pdcu_query_cache_total") {
		if s.Labels["result"] == "hit" {
			l.hit += s.Value
		} else {
			l.miss += s.Value
		}
	}
	return l
}

// report writes the per-layer metrics: times as the mean per request or
// per publish, counts as totals over the run.
func (l *layers) report(m map[string]metric, cache lookups) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, layer := range []string{"request", "transport", "serve", "admission", "cache_lookup", "coalesce", "render", "contrib"} {
		m[layer+"_ms"] = metric{ms(l.time[layer]) / float64(max(l.requests, 1)), "ms"}
	}
	for _, layer := range []string{"publish", "load", "site_build", "index_build", "swap", "snapshot_encode", "snapshot_decode", "adopt"} {
		m[layer+"_ms"] = metric{ms(l.time[layer]) / float64(max(l.publishes, 1)), "ms"}
	}
	m["traced_requests"] = metric{float64(l.requests), "count"}
	m["publishes"] = metric{float64(l.publishes), "count"}
	m["snapshot_bytes"] = metric{float64(l.bytes) / float64(max(l.publishes, 1)), "bytes"}
	m["site_jobs_rendered"] = metric{float64(l.rendered), "count"}
	m["site_jobs_cached"] = metric{float64(l.cached), "count"}
	m["query_cache_hits"] = metric{cache.hit, "count"}
	m["query_cache_misses"] = metric{cache.miss, "count"}
	m["query_cache_hit_ratio"] = metric{cache.hit / math.Max(cache.hit+cache.miss, 1), "ratio"}
}
