package pdcunplugged_test

// The benchmark harness regenerates every table, figure and in-text
// statistic of the paper's evaluation (see DESIGN.md's per-experiment
// index and EXPERIMENTS.md for paper-vs-measured). Each benchmark prints
// its paper-shaped rows exactly once and then measures the computation.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"pdcunplugged"
	"pdcunplugged/internal/coverage"
	"pdcunplugged/internal/curation"
	"pdcunplugged/internal/report"
	"pdcunplugged/internal/sim"
)

var printOnce sync.Map

// printHeadline prints s once per benchmark name across all iterations.
func printHeadline(key, s string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", s)
	}
}

func mustRepo(b *testing.B) *pdcunplugged.Repository {
	b.Helper()
	repo, err := pdcunplugged.Open()
	if err != nil {
		b.Fatal(err)
	}
	return repo
}

// BenchmarkTableI_CS2013Coverage regenerates Table I: per knowledge unit,
// the number of learning outcomes, covered outcomes, percent coverage and
// total activities.
func BenchmarkTableI_CS2013Coverage(b *testing.B) {
	repo := mustRepo(b)
	rows := pdcunplugged.TableI(repo)
	tb := report.New("TABLE I: CS2013 COVERAGE",
		"Knowledge Unit", "Num LOs", "Covered", "Percent", "Activities")
	for _, r := range rows {
		name := r.Unit.Name
		if r.Unit.Elective {
			name += " (E)"
		}
		tb.AddRow(name, r.NumOutcomes, r.CoveredOutcomes, r.PercentCoverage(), r.TotalActivities)
	}
	printHeadline("tableI", tb.String())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = pdcunplugged.TableI(repo)
	}
	_ = rows
}

// BenchmarkTableII_TCPPCoverage regenerates Table II: per TCPP topic area,
// core topics, covered topics, percent coverage and total activities.
func BenchmarkTableII_TCPPCoverage(b *testing.B) {
	repo := mustRepo(b)
	rows := pdcunplugged.TableII(repo)
	tb := report.New("TABLE II: TCPP COVERAGE",
		"Topic Area", "Num Topics", "Covered", "Percent", "Activities")
	for _, r := range rows {
		tb.AddRow(r.Area.Name, r.NumTopics, r.CoveredTopics, r.PercentCoverage(), r.TotalActivities)
	}
	printHeadline("tableII", tb.String())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = pdcunplugged.TableII(repo)
	}
	_ = rows
}

// BenchmarkFig1_ActivityTemplate regenerates Fig. 1: the activity Markdown
// template a contributor scaffolds.
func BenchmarkFig1_ActivityTemplate(b *testing.B) {
	tmpl := pdcunplugged.ActivityTemplate("example")
	printHeadline("fig1", "FIG. 1: ACTIVITY MARKDOWN TEMPLATE\n"+tmpl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmpl = pdcunplugged.ActivityTemplate("example")
	}
	_ = tmpl
}

// BenchmarkFig2_HeaderParse regenerates Fig. 2: parsing the
// FindSmallestCard front-matter header.
func BenchmarkFig2_HeaderParse(b *testing.B) {
	content := pdcunplugged.CorpusFiles()["findsmallestcard"]
	header := content[:strings.Index(content[4:], "---")+7]
	printHeadline("fig2", "FIG. 2: FINDSMALLESTCARD HEADER\n"+header)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdcunplugged.ParseActivity("findsmallestcard", content); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_HeaderRender regenerates Fig. 3: the rendered taxonomy
// header of the FindSmallestCard page, by building the site page.
func BenchmarkFig3_HeaderRender(b *testing.B) {
	repo := mustRepo(b)
	s, err := pdcunplugged.BuildSite(repo)
	if err != nil {
		b.Fatal(err)
	}
	page := string(s.Pages["activities/findsmallestcard/index.html"])
	start := strings.Index(page, `<p class="badges">`)
	end := strings.Index(page[start:], "</p>") + start + 4
	printHeadline("fig3", "FIG. 3: RENDERED HEADER (findsmallestcard)\n"+page[start:end])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdcunplugged.BuildSite(repo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStats_CorpusSize regenerates the Section III-A corpus headline:
// "nearly forty unique activities".
func BenchmarkStats_CorpusSize(b *testing.B) {
	repo := mustRepo(b)
	printHeadline("corpus", fmt.Sprintf("III-A: corpus holds %d unique activities (paper: 'nearly forty')", repo.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdcunplugged.Load(pdcunplugged.CorpusFiles()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStats_CourseCounts regenerates the Section III-A course counts.
func BenchmarkStats_CourseCounts(b *testing.B) {
	repo := mustRepo(b)
	counts := pdcunplugged.CourseCounts(repo)
	tb := report.New("III-A: ACTIVITIES PER RECOMMENDED COURSE", "Course", "Activities")
	for _, c := range counts {
		tb.AddRow(c.Term, c.Count)
	}
	printHeadline("courses", tb.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts = pdcunplugged.CourseCounts(repo)
	}
	_ = counts
}

// BenchmarkStats_ExternalResources regenerates the Section III-A
// external-resource share ("less than half (41%)").
func BenchmarkStats_ExternalResources(b *testing.B) {
	repo := mustRepo(b)
	s := coverage.Resources(repo)
	printHeadline("resources", fmt.Sprintf("III-A: %d/%d activities (%.1f%%) have external resources (paper prints 41%%)",
		s.WithResources, s.Total, s.Percent()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = coverage.Resources(repo)
	}
	_ = s
}

// BenchmarkStats_SparseKUs regenerates the Section III-B sparse-unit
// narrative: cloud 3 activities / 1 outcome, distributed 2 / 1, formal
// models 1 / 1, and the Parallel Fundamentals anomaly.
func BenchmarkStats_SparseKUs(b *testing.B) {
	repo := mustRepo(b)
	rows := pdcunplugged.TableI(repo)
	var lines []string
	for _, r := range rows {
		switch r.Unit.Abbrev {
		case "CC", "DS", "FMS", "PF":
			lines = append(lines, fmt.Sprintf("  %-40s %d activities covering %d outcome(s)",
				r.Unit.Name, r.TotalActivities, r.CoveredOutcomes))
		}
	}
	printHeadline("sparse", "III-B: SPARSE KNOWLEDGE UNITS\n"+strings.Join(lines, "\n"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = pdcunplugged.TableI(repo)
	}
	_ = rows
}

// BenchmarkStats_TCPPSubcategories regenerates the Section III-C
// sub-category coverage analysis.
func BenchmarkStats_TCPPSubcategories(b *testing.B) {
	repo := mustRepo(b)
	rows := pdcunplugged.Subcategories(repo)
	tb := report.New("III-C: TCPP SUB-CATEGORY COVERAGE",
		"Area", "Sub-category", "Topics", "Covered", "Percent")
	for _, r := range rows {
		tb.AddRow(r.Area, r.Subcategory, r.NumTopics, r.CoveredTopics, r.PercentCoverage())
	}
	printHeadline("subcats", tb.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = pdcunplugged.Subcategories(repo)
	}
	_ = rows
}

// BenchmarkStats_Mediums regenerates the Section III-D medium counts.
func BenchmarkStats_Mediums(b *testing.B) {
	repo := mustRepo(b)
	counts := pdcunplugged.MediumCounts(repo)
	tb := report.New("III-D: ACTIVITIES PER MEDIUM", "Medium", "Activities")
	for _, c := range counts {
		tb.AddRow(c.Term, c.Count)
	}
	printHeadline("mediums", tb.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts = pdcunplugged.MediumCounts(repo)
	}
	_ = counts
}

// BenchmarkStats_Senses regenerates the Section III-D sense percentages.
func BenchmarkStats_Senses(b *testing.B) {
	repo := mustRepo(b)
	stats := pdcunplugged.SenseStats(repo)
	tb := report.New("III-D: SENSES ENGAGED", "Sense", "Activities", "Percent")
	for _, s := range stats {
		tb.AddRow(s.Sense, s.Count, s.Percent)
	}
	printHeadline("senses", tb.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats = pdcunplugged.SenseStats(repo)
	}
	_ = stats
}

// runSim is a helper: run a dramatization inside a benchmark and fail on
// invariant violations.
func runSim(b *testing.B, name string, cfg sim.Config) *sim.Report {
	b.Helper()
	rep, err := pdcunplugged.Simulate(name, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if !rep.OK {
		b.Fatalf("%s invariant violated: %s", name, rep.Summary())
	}
	return rep
}

// BenchmarkSim_FindSmallestCard sweeps class sizes: ceil(log2 n) rounds vs
// n-1 serial comparisons (sim-1 in DESIGN.md).
func BenchmarkSim_FindSmallestCard(b *testing.B) {
	tb := report.New("SIM-1: FINDSMALLESTCARD ROUNDS VS COMPARISONS",
		"Students", "Serial cmps", "Rounds", "Cmps/round speedup")
	for _, n := range []int{8, 32, 128, 512, 1024} {
		rep := runSim(b, "findsmallestcard", sim.Config{Participants: n, Seed: 1})
		sp, _ := rep.Metrics.Gauge("speedup_comparisons_per_round")
		tb.AddRow(n, rep.Metrics.Count("serial_comparisons"), rep.Metrics.Count("rounds"), sp)
	}
	printHeadline("sim1", tb.String())
	for _, n := range []int{8, 128, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runSim(b, "findsmallestcard", sim.Config{Participants: n, Seed: int64(i)})
			}
		})
	}
}

// BenchmarkSim_OddEvenSort sweeps line lengths: n parallel rounds vs
// O(n^2) serial comparisons (sim-2).
func BenchmarkSim_OddEvenSort(b *testing.B) {
	tb := report.New("SIM-2: ODD-EVEN TRANSPOSITION",
		"Students", "Rounds", "Bound n+2", "Bubble cmps", "Speedup vs bubble")
	for _, n := range []int{8, 16, 32, 64, 128} {
		rep := runSim(b, "oddeven", sim.Config{Participants: n, Seed: 1})
		sp, _ := rep.Metrics.Gauge("speedup_vs_bubble")
		tb.AddRow(n, rep.Metrics.Count("rounds"), n+2, rep.Metrics.Count("serial_comparisons"), sp)
	}
	printHeadline("sim2", tb.String())
	for _, n := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runSim(b, "oddeven", sim.Config{Participants: n, Seed: int64(i)})
			}
		})
	}
}

// BenchmarkSim_RadixSort sweeps worker counts per digit pass (sim-3).
func BenchmarkSim_RadixSort(b *testing.B) {
	tb := report.New("SIM-3: PARALLEL RADIX SORT", "Cards", "Workers", "Passes", "Span/pass")
	for _, w := range []int{1, 2, 4, 8} {
		rep := runSim(b, "radixsort", sim.Config{Participants: 512, Workers: w, Seed: 1})
		span, _ := rep.Metrics.Gauge("parallel_span_per_pass")
		tb.AddRow(512, w, rep.Metrics.Count("passes"), span)
	}
	printHeadline("sim3", tb.String())
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runSim(b, "radixsort", sim.Config{Participants: 512, Workers: w, Seed: int64(i)})
			}
		})
	}
}

// BenchmarkSim_JuiceRace: lost updates without mutual exclusion vs with
// (sim-4).
func BenchmarkSim_JuiceRace(b *testing.B) {
	tb := report.New("SIM-4: JUICE-SWEETENING RACE",
		"Robots", "Expected", "Unsync lost", "Mutex lost")
	for _, robots := range []int{2, 4, 8, 16} {
		rep := runSim(b, "juicerace", sim.Config{Participants: robots, Seed: 1})
		exp, _ := rep.Metrics.Gauge("expected_sweetness")
		tb.AddRow(robots, exp, rep.Metrics.Count("lost_updates_unsync"), rep.Metrics.Count("lost_updates_mutex"))
	}
	printHeadline("sim4", tb.String())
	b.Run("robots=8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runSim(b, "juicerace", sim.Config{Participants: 8, Seed: int64(i)})
		}
	})
}

// BenchmarkSim_ConcertTickets: oversell anomaly vs locked protocol (sim-5).
func BenchmarkSim_ConcertTickets(b *testing.B) {
	tb := report.New("SIM-5: CONCERT TICKETS",
		"Booths", "House", "Naive oversold", "Locked sold")
	for _, booths := range []int{2, 4, 8, 16} {
		rep := runSim(b, "concerttickets", sim.Config{Participants: booths, Seed: 1})
		tb.AddRow(booths, 100, rep.Metrics.Count("oversold_naive"), rep.Metrics.Count("sold_locked"))
	}
	printHeadline("sim5", tb.String())
	b.Run("booths=8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runSim(b, "concerttickets", sim.Config{Participants: 8, Seed: int64(i)})
		}
	})
}

// BenchmarkSim_TokenRing: stabilization cost across ring sizes (sim-6).
func BenchmarkSim_TokenRing(b *testing.B) {
	tb := report.New("SIM-6: SELF-STABILIZING TOKEN RING",
		"Machines", "Initial tokens", "Moves to stabilize", "Bound 4n^2")
	for _, n := range []int{4, 8, 16, 32} {
		rep := runSim(b, "tokenring", sim.Config{Participants: n, Seed: 1})
		tb.AddRow(n, rep.Metrics.Count("initial_tokens"), rep.Metrics.Count("stabilization_steps"), 4*n*n)
	}
	printHeadline("sim6", tb.String())
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runSim(b, "tokenring", sim.Config{Participants: n, Seed: int64(i)})
			}
		})
	}
}

// BenchmarkSim_Analogies regenerates the analogy curves (sim-7): Amdahl
// speedups, load-balance makespans, communication-overhead turnaround and
// the alpha-beta fit.
func BenchmarkSim_Analogies(b *testing.B) {
	amdahl := runSim(b, "amdahl", sim.Config{Workers: 16, Seed: 1})
	tb := report.New("SIM-7a: AMDAHL'S CHOCOLATE BAR (serial fraction 0.1)",
		"Helpers", "Measured speedup", "Amdahl prediction")
	for _, p := range []int{1, 2, 4, 8, 16} {
		m, _ := amdahl.Metrics.Gauge(fmt.Sprintf("speedup_p%d", p))
		a, _ := amdahl.Metrics.Gauge(fmt.Sprintf("amdahl_p%d", p))
		tb.AddRow(p, m, a)
	}
	printHeadline("sim7a", tb.String())

	lb := runSim(b, "loadbalance", sim.Config{Seed: 1})
	tb2 := report.New("SIM-7b: CHORE-CHART LOAD BALANCING", "Strategy", "Makespan")
	tb2.AddRow("equal chore counts", lb.Metrics.Count("equal_count_makespan"))
	tb2.AddRow("equal time (LPT)", lb.Metrics.Count("equal_time_makespan"))
	tb2.AddRow("dynamic pulling", lb.Metrics.Count("dynamic_makespan"))
	tb2.AddRow("lower bound", lb.Metrics.Count("lower_bound"))
	printHeadline("sim7b", tb2.String())

	co := runSim(b, "commoverhead", sim.Config{Workers: 64, Seed: 1})
	best, _ := co.Metrics.Gauge("best_workers")
	turn, _ := co.Metrics.Gauge("turnaround_workers")
	sp, _ := co.Metrics.Gauge("speedup_at_best")
	printHeadline("sim7c", fmt.Sprintf(
		"SIM-7c: COMMUNICATION OVERHEAD: best at %.0f workers (speedup %.2f); slower past %.0f workers",
		best, sp, turn))

	pc := runSim(b, "phonecall", sim.Config{Seed: 1})
	aHat, _ := pc.Metrics.Gauge("alpha_fitted")
	bHat, _ := pc.Metrics.Gauge("beta_fitted")
	printHeadline("sim7d", fmt.Sprintf(
		"SIM-7d: PHONE-CALL ALPHA-BETA FIT: alpha %.1f, beta %.3f (true 120, 0.75)", aHat, bHat))

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSim(b, "amdahl", sim.Config{Workers: 16, Seed: int64(i)})
	}
}

// BenchmarkSim_Remaining exercises every other registered dramatization so
// the bench run covers the full inventory.
func BenchmarkSim_Remaining(b *testing.B) {
	names := []string{"cardsort", "gardeners", "leaderelection", "gcmark",
		"nondetsort", "byzantine", "pipeline", "barrier", "sharedmem",
		"collectives", "scan", "recursiontree", "websearch", "simdgame"}
	var lines []string
	for _, name := range names {
		rep := runSim(b, name, sim.Config{Seed: 1})
		lines = append(lines, "  "+rep.Summary())
	}
	printHeadline("simrest", "SIM INVENTORY (remaining dramatizations)\n"+strings.Join(lines, "\n"))
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runSim(b, name, sim.Config{Seed: int64(i)})
			}
		})
	}
}

// BenchmarkSiteBuild measures rendering the full static site.
func BenchmarkSiteBuild(b *testing.B) {
	repo := mustRepo(b)
	s, err := pdcunplugged.BuildSite(repo)
	if err != nil {
		b.Fatal(err)
	}
	printHeadline("site", fmt.Sprintf("SITE: %d pages generated from %d activities", s.Len(), repo.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdcunplugged.BuildSite(repo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSiteBuildParallel measures the page-graph pipeline at fixed
// pool sizes. Every iteration uses a fresh builder, so the page cache
// never helps: this isolates the worker-pool speedup.
func BenchmarkSiteBuildParallel(b *testing.B) {
	repo := mustRepo(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pdcunplugged.BuildSiteParallel(repo, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSiteRebuild contrasts a cold build with the incremental paths
// of a long-lived builder: a no-op rebuild (every job a cache hit), a
// body-only edit to one activity (a citation: 2 of 204 jobs re-render,
// its page and assessment sheet) and a tag edit to it (one more course:
// 28 jobs, its two pages, the 19 term pages listing it before or after,
// and 7 whole-collection jobs).
func BenchmarkSiteRebuild(b *testing.B) {
	files := curation.Files()
	touched := curation.Files()
	touched["findsmallestcard"] += "\n- Rebuild benchmark citation.\n"
	tagged := curation.Files()
	for _, a := range curation.Activities() {
		if a.Slug == "findsmallestcard" {
			a.Courses = append(a.Courses, "Systems")
			tagged[a.Slug] = a.Render()
		}
	}
	repoFrom := func(fs map[string]string) *pdcunplugged.Repository {
		repo, err := pdcunplugged.Load(fs)
		if err != nil {
			b.Fatal(err)
		}
		return repo
	}
	// warm alternates between the two corpora, so every iteration sees
	// exactly one changed activity relative to the cached build.
	warm := func(edited map[string]string) func(b *testing.B) {
		return func(b *testing.B) {
			builder := pdcunplugged.NewSiteBuilder(pdcunplugged.SiteBuildOptions{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := files
				if i%2 == 0 {
					src = edited
				}
				if _, err := builder.Build(repoFrom(src)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pdcunplugged.NewSiteBuilder(pdcunplugged.SiteBuildOptions{}).Build(repoFrom(files)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-unchanged", func(b *testing.B) {
		builder := pdcunplugged.NewSiteBuilder(pdcunplugged.SiteBuildOptions{})
		if _, err := builder.Build(repoFrom(files)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := builder.Build(repoFrom(files)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-touch-one", warm(touched))
	b.Run("warm-touch-one-tag", warm(tagged))
}

// BenchmarkCorpusLoad measures the full Markdown pipeline: render all 38
// activities and parse them back into an indexed repository.
func BenchmarkCorpusLoad(b *testing.B) {
	files := curation.Files()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdcunplugged.Load(files); err != nil {
			b.Fatal(err)
		}
	}
}
