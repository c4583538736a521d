package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sort"
	"time"

	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/report"
)

// cmdBuild runs the engine pipeline once and writes the generation's
// site to disk. Build and serve share the same load→build→index path,
// so the generation tag printed here matches what serve would publish
// for the same corpus.
func cmdBuild(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	cfg, err := engine.FromEnv()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	cfg.BindBuildFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	obs.SetLevel(cfg.SlogLevel())
	gen, err := eng.Rebuild(context.Background())
	if err != nil {
		return err
	}
	if err := gen.Site.WriteTo(cfg.Out); err != nil {
		return err
	}
	st := gen.Stats
	fmt.Fprintf(w, "built %d pages from %d activities into %s (%d jobs, %d workers, generation %s)\n",
		gen.Site.Len(), gen.Repo.Len(), cfg.Out, st.Jobs, st.Workers, gen.ID)
	if cfg.Verbose {
		printPhaseTable(w, obs.Default().Snapshot("pdcu_phase_seconds"))
	}
	return nil
}

// printPhaseTable renders the pdcu_phase_seconds series as the `build
// -verbose` phase breakdown, by total time descending. Totals come from
// the histogram's float-seconds sum and are rounded to whole
// microseconds, which absorbs the sum's float error.
func printPhaseTable(w io.Writer, phases []obs.SeriesSnapshot) {
	if len(phases) == 0 {
		return
	}
	sort.Slice(phases, func(i, j int) bool {
		if phases[i].Sum != phases[j].Sum {
			return phases[i].Sum > phases[j].Sum
		}
		return phases[i].Labels["phase"] < phases[j].Labels["phase"]
	})
	tb := report.New("PHASE TIMINGS", "Phase", "Calls", "Total", "Mean")
	for _, p := range phases {
		total := time.Duration(p.Sum * float64(time.Second))
		tb.AddRow(p.Labels["phase"], p.Count,
			total.Round(time.Microsecond).String(),
			(total / time.Duration(p.Count)).Round(time.Microsecond).String())
	}
	fmt.Fprint(w, tb.String())
}
