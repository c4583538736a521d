package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/obs/dash"
	"pdcunplugged/internal/replica"
)

// cmdServe is a thin shell over the engine: resolve the layered config,
// publish the first generation, hand the engine's mux to an http.Server,
// and start the watch loop when asked. All serving state lives in the
// engine; this function only owns process concerns (signals, shutdown).
//
// Replication changes where the first generation comes from, not how it
// is served. A leader builds it locally (after cold-starting from
// -snapshot-dir when one is cached, with the real build proceeding in
// the background); a follower (-follow) never builds — it cold-starts
// from its snapshot cache and converges to the leader via the long-poll
// fetch loop. Either way every node serves /replica/v1/, so followers
// can fan out snapshots to further followers.
func cmdServe(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	cfg, err := engine.FromEnv()
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	cfg.BindServeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	obs.SetLevel(cfg.SlogLevel())
	log := obs.Logger()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Cold start: a cached snapshot makes the node ready in milliseconds,
	// before any build or fetch. A corrupt cache is logged and ignored —
	// the normal path below produces the first generation instead.
	var cold *engine.Generation
	if cfg.SnapshotDir != "" {
		g, _, err := replica.Load(cfg.SnapshotDir)
		if err != nil {
			log.Warn("snapshot cache unusable; starting cold", "dir", cfg.SnapshotDir, "err", err)
		} else if g != nil && eng.Adopt(g) {
			cold = g
		}
	}

	if cfg.Follow == "" {
		replica.SetRole("leader")
		if cold != nil {
			go func() {
				if _, err := eng.Rebuild(ctx); err != nil && ctx.Err() == nil {
					log.Warn("background rebuild failed; serving cold-started generation", "err", err)
				}
			}()
		} else if _, err := eng.Rebuild(ctx); err != nil {
			return err
		}
	} else {
		replica.SetRole("follower")
		host, _ := os.Hostname()
		fol := &replica.Follower{
			Eng:  eng,
			Base: strings.TrimRight(cfg.Follow, "/"),
			Node: fmt.Sprintf("%s-%d", host, os.Getpid()),
			Dir:  cfg.SnapshotDir,
			Self: cfg.Advertise,
		}
		// Fleet observability from the follower's seat: the leader is
		// the one peer, linked from the Fleet panel and asked for trace
		// halves, and /readyz reports the replication position.
		eng.SetPeerSource(func() []dash.Peer {
			return []dash.Peer{{Node: "leader", URL: fol.Base}}
		})
		eng.SetReadyExtra(func() map[string]any {
			return map[string]any{
				"role":        "follower",
				"leader":      fol.Base,
				"replica_lag": fol.Lag(),
			}
		})
		go func() {
			if err := fol.Run(ctx); err != nil && ctx.Err() == nil {
				log.Warn("follower loop stopped", "err", err)
			}
		}()
	}

	// Every node serves the replication endpoints: a leader feeds its
	// followers, and a follower can relay snapshots further down a tree.
	leader := replica.NewLeader(eng)
	if cfg.Follow == "" && cfg.SnapshotDir != "" {
		leader.AutoSave(cfg.SnapshotDir)
	}
	if cfg.Follow == "" {
		// The leader's fleet roster comes from follower heartbeats: it
		// fills the Fleet panel, and /readyz reports how far the worst
		// follower trails.
		eng.SetPeerSource(leader.Peers)
		eng.SetReadyExtra(func() map[string]any {
			st := leader.FleetStatus()
			var maxLag int64
			for _, f := range st.Followers {
				if f.Lag > maxLag {
					maxLag = f.Lag
				}
			}
			return map[string]any{
				"role":          "leader",
				"followers":     len(st.Followers),
				"fleet_max_lag": maxLag,
			}
		})
	}
	mux := eng.Mux()
	// The replication endpoints go through the request middleware so a
	// follower's traceparent-carrying snapshot fetch records the serve
	// side of the trace here — that is the leader half of a stitched
	// cross-node waterfall.
	mux.Handle("/replica/v1/", eng.Middleware().Wrap(leader.Handler()))

	srv := &http.Server{
		Addr:              cfg.Addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      3 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          slog.NewLogLogger(log.Handler(), slog.LevelWarn),
	}

	go eng.Rollup().Run(ctx)
	if cfg.Watch {
		go func() {
			if err := eng.Watch(ctx); err != nil && ctx.Err() == nil {
				log.Warn("watcher stopped", "err", err)
			}
		}()
	}

	pages, genID := 0, ""
	if g := eng.Current(); g != nil {
		pages, genID = g.Site.Len(), g.ID
	}
	fmt.Fprintf(w, "serving %d pages on %s (query API: /api/v1/, replication: /replica/v1/, metrics: /metrics, health: /healthz /readyz, dashboard: /debug/obs", pages, cfg.Addr)
	if cfg.Pprof {
		fmt.Fprint(w, ", pprof: /debug/pprof/")
	}
	if cfg.Watch {
		fmt.Fprintf(w, ", watching %s every %s", cfg.SourcesSummary(), cfg.Poll)
	}
	if cfg.Follow != "" {
		fmt.Fprintf(w, ", following %s", cfg.Follow)
	}
	fmt.Fprintln(w, ")")
	log.Info("server starting", "addr", cfg.Addr, "pages", pages,
		"generation", genID, "pprof", cfg.Pprof, "watch", cfg.Watch, "follow", cfg.Follow)

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Info("shutdown signal received, draining in-flight requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Warn("graceful shutdown incomplete, forcing close", "err", err)
		srv.Close()
		return err
	}
	log.Info("server stopped cleanly")
	fmt.Fprintln(w, "server stopped")
	return nil
}
