// Command perfbench is the repository's benchmark. It deploys the system
// the way `pdcu serve` runs with one read replica — a leader engine that
// builds generations from the corpus, and a follower that adopts each
// generation from its snapshot bytes and serves readers over loopback
// HTTP — drives one workload against it for a fixed time, checks the
// answers, and prints one JSON line of metrics as the last line of its
// output. Run it from the repository root:
//
//	bash perfbench/run.sh --workload mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 every
// request carries a traceparent header and the run reports time per layer
// instead (see layers.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"pdcunplugged/internal/activity"
	"pdcunplugged/internal/obs"
)

// workload fixes the shape of one workload's inputs; the seed fills them in.
type workload struct {
	// catalogs are the built-in catalogs the leader federates.
	catalogs []string
	// generated is the size of the seeded Markdown corpus the leader
	// loads from disk as a directory source (0: none).
	generated int
	run       func(b *bench) (*outcome, error)
}

var workloads = map[string]workload{
	"mix":     {catalogs: []string{"builtin", "csinparallel"}, run: runMix},
	"catalog": {catalogs: []string{"builtin"}, generated: 300, run: runCatalog},
	"publish": {catalogs: []string{"builtin"}, generated: 50, run: runPublish},
}

// setupProbes is how many more set-ups, each in a fresh process so that
// process-wide caches start empty as they do when `pdcu serve` starts,
// join the run's own set-up in the setup_s median.
const setupProbes = 8

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: mix, catalog or publish")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from traced requests instead of end-to-end metrics")
	probe := flag.Bool("setup-probe", false, "set up once, print the seconds it took, and exit")
	corpusDir := flag.String("corpus", "", "generated corpus directory for -setup-probe")
	flag.Parse()
	// Info-level access logs would write a line per request.
	obs.SetLevel(slog.LevelWarn)

	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want mix, catalog or publish)", *name))
	}
	if *probe {
		s, err := setupOnce(w, *corpusDir)
		if err != nil {
			fail(err)
		}
		fmt.Println(strconv.FormatFloat(s, 'g', -1, 64))
		return
	}
	if *seconds < 1 {
		fail(fmt.Errorf("-seconds must be at least 1, got %d", *seconds))
	}
	res, err := run(*name, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run makes the workload's inputs from the seed, sets the deployment up,
// measures the workload for window, and reports.
func run(name string, w workload, seed int64, window time.Duration, traced bool) (*result, error) {
	words := vocabulary()
	var dir string
	var acts []*activity.Activity
	if w.generated > 0 {
		var err error
		if dir, err = os.MkdirTemp(".bench_build", "corpus-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if acts, err = writeCorpus(dir, w.generated, seed, words); err != nil {
			return nil, err
		}
	}
	var setups []float64
	var lay *layers
	if traced {
		lay = newLayers()
	} else {
		for i := 0; i < setupProbes; i++ {
			s, err := probeSetup(name, dir)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
	}
	start := time.Now()
	d, err := setUp(w, dir, lay)
	if err != nil {
		return nil, err
	}
	setups = append(setups, time.Since(start).Seconds())
	before := cacheLookups()
	out, err := w.run(&bench{d: d, seed: seed, window: window, dir: dir, acts: acts, words: words})
	after := cacheLookups()
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, p)
	}
	res := &result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		lay.report(res.Metrics, lookups{hit: after.hit - before.hit, miss: after.miss - before.miss})
		return res, nil
	}
	res.Metrics["latency_p50_ms"] = metric{steady(out.latencies, 0.50), "ms"}
	res.Metrics["latency_p90_ms"] = metric{steady(out.latencies, 0.90), "ms"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	return res, nil
}

// probeSetup times one set-up in a fresh process.
func probeSetup(name, dir string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-probe", "-workload", name, "-corpus", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// setupOnce sets the deployment up, times it, and takes it down again.
func setupOnce(w workload, dir string) (float64, error) {
	start := time.Now()
	d, err := setUp(w, dir, nil)
	if err != nil {
		return 0, err
	}
	s := time.Since(start).Seconds()
	return s, d.close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// parts is how many consecutive parts of a window steady splits the
// operations into.
const parts = 5

// steady returns, in milliseconds, the median over the window's parts of
// each part's q-quantile latency: a burst of outside load on the host
// during one part moves that part's figure, not the run's.
func steady(latencies []time.Duration, q float64) float64 {
	var per []float64
	for i := 0; i < parts; i++ {
		part := append([]time.Duration(nil), latencies[i*len(latencies)/parts:(i+1)*len(latencies)/parts]...)
		if len(part) == 0 {
			continue
		}
		sort.Slice(part, func(i, j int) bool { return part[i] < part[j] })
		per = append(per, ms(part[max(int(math.Ceil(q*float64(len(part))))-1, 0)]))
	}
	return median(per)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
