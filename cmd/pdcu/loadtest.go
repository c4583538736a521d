package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pdcunplugged/internal/bench"
	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/loadgen"
	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/obs/slo"
)

// cmdLoadtest drives the built-in load generator. Two modes:
//
//   - Self-serve (default): build the engine in-process, serve it on a
//     loopback port, and load-test that — one command measures the whole
//     stack with no setup, and the report carries the server's SLO
//     verdicts because the objectives are evaluated in the same process.
//   - Remote (-target URL): replay the mix against an already-running
//     server. Latency/error/shed stats work the same; SLO verdicts and
//     generation churn need the self-serve mode.
//
// -baseline FILE persists the report as the committed benchmark
// artifact; -gate FILE re-runs the mix and fails (nonzero exit) when the
// fresh run regresses past the noise-tolerant thresholds in
// internal/loadgen. `make slo-smoke` wires the gate into CI.
func cmdLoadtest(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	cfg, err := engine.FromEnv()
	if err != nil {
		return fmt.Errorf("loadtest: %w", err)
	}
	// Loadtest defaults differ from serve on purpose: admission control
	// off (a smoke run should not shed its own traffic) and warn-level
	// logging (per-request access logs would drown the report; the
	// numbers ARE the output).
	cfg.Rate = 0
	cfg.ContribRate = 0
	cfg.LogLevel = "warn"

	target := fs.String("target", "", "load already-running server(s): one base URL, or a comma-separated fleet to round-robin across (default: self-serve in-process)")
	mixStr := fs.String("mix", loadgen.DefaultMix().String(), "weighted traffic mix, kind=weight pairs (kinds: search, typo, activities, facets, site, contrib)")
	qps := fs.Float64("qps", 200, "open-loop arrival rate in requests/second")
	conc := fs.Int("c", 16, "concurrent in-flight requests")
	dur := fs.Duration("duration", 10*time.Second, "measured run length")
	seed := fs.Int64("seed", 1, "traffic sequence seed")
	churn := fs.Duration("churn", 0, "rebuild and republish the generation this often during the run (self-serve only; 0 = off)")
	baseline := fs.String("baseline", "", "write the report to this file as the new baseline")
	gatePath := fs.String("gate", "", "compare against this baseline; exit nonzero on regression")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of the summary table")
	cfg.BindCorpusFlags(fs)
	fs.Float64Var(&cfg.Rate, "rate", cfg.Rate, "self-served query API admission rate (0 disables; loadtest default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mix, err := loadgen.ParseMix(*mixStr)
	if err != nil {
		return fmt.Errorf("loadtest: %w", err)
	}
	if *target != "" && *churn > 0 {
		return fmt.Errorf("loadtest: -churn needs the self-serve mode (drop -target)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := loadgen.Options{
		Mix:         mix,
		QPS:         *qps,
		Concurrency: *conc,
		Duration:    *dur,
		Seed:        *seed,
	}

	var eng *engine.Engine
	var preRunWindows int
	if *target != "" {
		// A comma-separated -target is a fleet (leader plus followers):
		// workers rotate across the nodes request by request.
		for _, u := range strings.Split(*target, ",") {
			if u = strings.TrimSpace(u); u != "" {
				opts.Targets = append(opts.Targets, strings.TrimRight(u, "/"))
			}
		}
		if len(opts.Targets) == 0 {
			return fmt.Errorf("loadtest: -target %q names no servers", *target)
		}
		opts.BaseURL = opts.Targets[0]
	} else {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("loadtest: %w", err)
		}
		eng, err = engine.New(cfg)
		if err != nil {
			return fmt.Errorf("loadtest: %w", err)
		}
		obs.SetLevel(cfg.SlogLevel())
		gen, err := eng.Rebuild(ctx)
		if err != nil {
			return err
		}
		// Site traffic hits real generated pages, not guessed paths.
		opts.SitePaths = sitePaths(gen, 32)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: eng.Mux()}
		go srv.Serve(ln)
		defer srv.Close()
		opts.BaseURL = "http://" + ln.Addr().String()

		// Warm each endpoint once (index build, first page render),
		// then absorb everything observed so far — including traffic
		// from earlier runs in this process, since the metrics registry
		// is global — into a pre-run window. The SLO verdicts below are
		// evaluated over only the windows collected after this point,
		// so they judge this run, not process history.
		for _, p := range []string{"/api/v1/search?q=parallel", "/api/v1/activities", "/api/v1/facets", "/"} {
			if resp, err := http.Get(opts.BaseURL + p); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		opts.SkipPrime = true
		eng.Rollup().Collect()
		preRunWindows = eng.Rollup().Windows()

		// The rollup's serve-time cadence (5s) would leave a short run
		// with zero complete windows; tick it fast enough that the SLO
		// engine has data the moment the run ends.
		tick := 500 * time.Millisecond
		if *dur < 2*time.Second {
			tick = *dur / 4
		}
		tickCtx, stopTick := context.WithCancel(ctx)
		defer stopTick()
		go func() {
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-tickCtx.Done():
					return
				case <-t.C:
					eng.Rollup().Collect()
				}
			}
		}()

		if *churn > 0 {
			opts.Churn = func() error { _, err := eng.Rebuild(ctx); return err }
			opts.ChurnEvery = *churn
		}
	}

	rep, err := loadgen.Run(ctx, opts)
	if err != nil {
		return fmt.Errorf("loadtest: %w", err)
	}
	bi := engine.ReadBuildInfo()
	rep.Build = bench.Stamp{
		Version:   bi.Version,
		GoVersion: bi.GoVersion,
		Revision:  bi.Revision,
		Modified:  bi.Modified,
	}
	if eng != nil {
		// Final collect, then evaluate over only this run's windows
		// (everything after the pre-run absorb) so the verdicts judge
		// the run, not whatever this process did before it.
		eng.Rollup().Collect()
		runWindows := eng.Rollup().Windows() - preRunWindows
		if runWindows < 1 {
			runWindows = 1
		}
		fastWindows := 12
		if runWindows < fastWindows {
			fastWindows = runWindows
		}
		rep.SLO = slo.New(obs.Default(), eng.Rollup(), slo.DefaultObjectives(), slo.Options{
			SlowWindows: runWindows,
			FastWindows: fastWindows,
		}).Evaluate()
	}

	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Fprint(w, rep.Text())
	}

	if *baseline != "" {
		if err := bench.Write(*baseline, rep); err != nil {
			return fmt.Errorf("loadtest: write baseline: %w", err)
		}
		fmt.Fprintf(w, "baseline written to %s\n", *baseline)
	}
	if *gatePath != "" {
		base := &loadgen.Report{}
		if err := bench.Read(*gatePath, loadgen.ReportSchema, base); err != nil {
			return fmt.Errorf("loadtest: baseline %w", err)
		}
		if base.Config.Mix != rep.Config.Mix || base.Config.QPS != rep.Config.QPS {
			fmt.Fprintf(w, "note: run config differs from baseline (%s @ %g qps vs %s @ %g qps); thresholds still apply\n",
				rep.Config.Mix, rep.Config.QPS, base.Config.Mix, base.Config.QPS)
		}
		violations := loadgen.Gate(base, rep)
		if len(violations) == 0 {
			fmt.Fprintf(w, "gate PASS against %s\n", *gatePath)
			return nil
		}
		for _, v := range violations {
			fmt.Fprintln(w, v)
		}
		return fmt.Errorf("gate FAIL: %d objective(s) violated against %s", len(violations), *gatePath)
	}
	return nil
}

// sitePaths converts up to max generated page keys ("index.html",
// "activities/slug/index.html") into request paths ("/",
// "/activities/slug/") for the site traffic class.
func sitePaths(gen *engine.Generation, max int) []string {
	var out []string
	for _, p := range gen.Site.Paths() {
		if !strings.HasSuffix(p, "index.html") {
			continue
		}
		out = append(out, "/"+strings.TrimSuffix(p, "index.html"))
		if len(out) == max {
			break
		}
	}
	return out
}
