package engine

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"time"

	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/obs/dash"
)

// BuildInfo is the binary provenance block of /readyz, the
// pdcu_build_info gauge, and every BENCH_*.json baseline, read from the
// module metadata the Go linker embeds.
type BuildInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Module    string `json:"module"`
	Revision  string `json:"vcs_revision,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

// ReadBuildInfo extracts the provenance block for this binary.
func ReadBuildInfo() BuildInfo {
	out := BuildInfo{}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out.Version = bi.Main.Version
	if out.Version == "" {
		out.Version = "(devel)"
	}
	out.GoVersion = bi.GoVersion
	out.Module = bi.Main.Path
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out.Revision = s.Value
		case "vcs.modified":
			out.Modified = s.Value == "true"
		}
	}
	return out
}

// Middleware returns the request-metrics/tracing middleware built from
// the engine's config: it records RED metrics, continues inbound
// traceparent traces, and samples access logs. The serve command wraps
// the replication endpoints with it so a follower's traceparent-carrying
// snapshot fetch records a leader-side span in the same trace.
func (e *Engine) Middleware() *obs.HTTPMetrics {
	return obs.NewHTTPMetrics(obs.Default()).
		WithTracer(e.tracer).
		WithLogAttrs(e.logGeneration).
		WithLogSample(e.cfg.LogSample)
}

// Mux assembles the full serve handler tree. Every serving surface
// reads only through the engine's generation pointer: the static site
// and its Pdcu-Generation header, the /api/v1 query service, and
// /readyz all load the same *Generation, so no request can observe two
// generations at once and a publish is visible to all three surfaces at
// the same instant. Operational endpoints (/metrics, /healthz, /readyz,
// /debug/obs, optional /debug/pprof/) sit outside the request-metrics
// middleware so scrapes do not count as site traffic.
func (e *Engine) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mw := e.Middleware()
	mux.Handle("/metrics", obs.Default().Handler())
	// Liveness: the process is up and serving its mux. Deliberately
	// constant-cost — orchestrators hammer this.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","uptime_seconds":%.0f}`+"\n",
			time.Since(e.started).Seconds())
	})
	// Readiness: 503 until the first generation is published, then the
	// published generation's identity, counts, the last pipeline
	// outcome, and build info.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		g := e.Current()
		if g == nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			enc.Encode(map[string]any{
				"status": "starting",
				"reason": "first generation not yet published",
			})
			return
		}
		body := map[string]any{
			"status":         "ready",
			"generation":     g.ID,
			"seq":            g.Seq,
			"pages":          g.Site.Len(),
			"activities":     g.Repo.Len(),
			"built_at":       g.BuiltAt,
			"uptime_seconds": time.Since(e.started).Seconds(),
			"last_rebuild":   e.LastOutcome(),
			"build":          ReadBuildInfo(),
		}
		// Replication extras (role, position, fleet lag) merge in when
		// the serve command has registered them.
		for k, v := range e.readyExtras() {
			body[k] = v
		}
		enc.Encode(body)
	})
	mux.Handle("/api/v1/", mw.Wrap(e.Query().Handler()))
	// SLO verdict: /readyz answers "is the process serving", /slo
	// answers "is it serving WELL" — 503 while any declared objective
	// is breached, with the full burn-rate accounting in the body.
	mux.Handle("/slo", e.SLO().Handler())
	dashHandler := dash.Handler(dash.Config{
		Rollup: e.Rollup(),
		Tracer: e.tracer,
		SLO:    e.SLO(),
		Peers:  e.Peers,
	})
	mux.Handle("/debug/obs", dashHandler)
	mux.Handle("/debug/obs/", dashHandler)
	if e.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.Handle("/", mw.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g := e.Current()
		if g == nil {
			http.Error(w, "site warming up", http.StatusServiceUnavailable)
			return
		}
		// One pointer load serves both the header and the content, so
		// the advertised generation always matches the bytes served.
		w.Header().Set("Pdcu-Generation", g.ID)
		g.Handler().ServeHTTP(w, r)
	})))
	return mux
}
