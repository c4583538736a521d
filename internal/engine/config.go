package engine

import (
	"flag"
	"fmt"
	"log/slog"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pdcunplugged/internal/corpus"
	"pdcunplugged/internal/obs"
)

// Config is the layered configuration of the generation pipeline and the
// commands built on it. Values resolve defaults ← PDCU_* environment ←
// command-line flags: Defaults() seeds every field, ApplyEnv overlays
// the environment, and the Bind*Flags helpers register flags whose
// defaults are the already-layered values, so an unset flag keeps the
// env (or default) value and a set flag wins.
type Config struct {
	// Srcs are directory corpus sources (activity .md trees), each one
	// corpus adapter. The -src flag is repeatable and accepts either a
	// bare path (name derived from the base name) or name=path. Together
	// with Catalogs an empty set selects the embedded curated corpus.
	Srcs SourceList
	// Catalogs are built-in named catalogs to federate ("builtin",
	// "csinparallel"); the -catalog flag is repeatable.
	Catalogs CatalogList
	// Out is the build output directory.
	Out string
	// Addr is the serve listen address.
	Addr string
	// Jobs bounds the site-render worker pool; must be >= 1.
	Jobs int
	// Watch polls Src for changes and rebuilds incrementally.
	Watch bool
	// Poll is the watch poll interval; must be > 0.
	Poll time.Duration
	// Rate admits this many query-API requests per second; 0 disables
	// admission control. Negative is rejected.
	Rate float64
	// Burst is the admission token-bucket capacity; 0 selects 2*Rate.
	// Negative is rejected.
	Burst int
	// ContribRate admits this many /api/v1/contrib/validate requests per
	// second through a bucket separate from Rate, so a burst of
	// submissions cannot crowd out read traffic (or vice versa). 0
	// disables contrib admission control; negative is rejected.
	ContribRate float64
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// LogLevel is the slog threshold: debug, info, warn, or error.
	LogLevel string
	// Verbose forces debug logging regardless of LogLevel.
	Verbose bool
	// TraceSample is the probability of retaining an ordinary trace;
	// must be in [0,1]. Error/slow/traceparent traces are always kept.
	TraceSample float64
	// TraceSlow pins any trace at least this long.
	TraceSlow time.Duration
	// LogSample is the access-log sample rate in [0,1]: 1 logs every
	// request, 0.01 every hundredth, 0 none. Errors and pinned-trace
	// requests always log.
	LogSample float64
	// Follow makes `pdcu serve` a read replica: instead of building
	// generations locally it pulls snapshots from the leader at this
	// base URL (long-poll on /replica/v1/snapshot). Empty = leader.
	Follow string
	// SnapshotDir persists the latest generation snapshot on every
	// publish and cold-starts from it on boot, so a restarted node is
	// ready in milliseconds while the first fetch/build proceeds in the
	// background. Empty disables persistence.
	SnapshotDir string
	// Advertise is the base URL other fleet nodes can reach this node
	// at. A follower sends it on heartbeats so the leader's Fleet panel
	// links its dashboard and can fetch its trace halves. Empty means
	// "do not advertise".
	Advertise string
}

// SourceSpec names one directory corpus source. An empty Name derives
// one from the directory's base name at adapter-construction time.
type SourceSpec struct {
	Name string
	Path string
}

// SourceList is the repeatable -src flag value: each occurrence is a
// bare path or name=path.
type SourceList []SourceSpec

// String renders the list back to flag syntax.
func (l SourceList) String() string {
	parts := make([]string, len(l))
	for i, s := range l {
		if s.Name == "" {
			parts[i] = s.Path
		} else {
			parts[i] = s.Name + "=" + s.Path
		}
	}
	return strings.Join(parts, ",")
}

// Add parses one -src occurrence ("path" or "name=path") and appends it.
func (l *SourceList) Add(v string) error {
	spec := SourceSpec{Path: v}
	if i := strings.IndexByte(v, '='); i >= 0 {
		spec = SourceSpec{Name: v[:i], Path: v[i+1:]}
		if spec.Name == "" {
			return fmt.Errorf("-src %q: empty source name", v)
		}
	}
	if spec.Path == "" {
		return fmt.Errorf("-src %q: empty path", v)
	}
	*l = append(*l, spec)
	return nil
}

// DirSources is a test/embedding convenience: one unnamed source per path.
func DirSources(paths ...string) SourceList {
	l := make(SourceList, len(paths))
	for i, p := range paths {
		l[i] = SourceSpec{Path: p}
	}
	return l
}

// CatalogList is the repeatable -catalog flag value.
type CatalogList []string

// String renders the list back to flag syntax.
func (l CatalogList) String() string { return strings.Join(l, ",") }

// Add appends one catalog name.
func (l *CatalogList) Add(v string) error {
	if v == "" {
		return fmt.Errorf("-catalog: empty catalog name")
	}
	*l = append(*l, v)
	return nil
}

// srcFlag adapts SourceList to flag.Value with replace-on-first-set
// semantics: the first CLI occurrence clears the env/default layer, so a
// set flag wins wholesale instead of appending to the environment.
type srcFlag struct {
	list *SourceList
	set  bool
}

func (f *srcFlag) String() string {
	if f.list == nil {
		return ""
	}
	return f.list.String()
}

func (f *srcFlag) Set(v string) error {
	if !f.set {
		*f.list = nil
		f.set = true
	}
	return f.list.Add(v)
}

// catalogFlag mirrors srcFlag for CatalogList.
type catalogFlag struct {
	list *CatalogList
	set  bool
}

func (f *catalogFlag) String() string {
	if f.list == nil {
		return ""
	}
	return f.list.String()
}

func (f *catalogFlag) Set(v string) error {
	if !f.set {
		*f.list = nil
		f.set = true
	}
	return f.list.Add(v)
}

// Defaults returns the base configuration layer.
func Defaults() Config {
	return Config{
		Out:         "public",
		Addr:        ":8080",
		Jobs:        runtime.GOMAXPROCS(0),
		Poll:        500 * time.Millisecond,
		Rate:        100,
		ContribRate: 5,
		LogLevel:    "info",
		TraceSample: 0.1,
		TraceSlow:   250 * time.Millisecond,
		LogSample:   1,
	}
}

// FromEnv layers the process environment over Defaults.
func FromEnv() (Config, error) {
	c := Defaults()
	err := c.ApplyEnv(nil)
	return c, err
}

// ApplyEnv overlays PDCU_* environment variables onto c. lookup is the
// variable source (nil selects os.LookupEnv; tests inject a map). A
// malformed value is an error naming the variable, not a silent skip.
func (c *Config) ApplyEnv(lookup func(string) (string, bool)) error {
	if lookup == nil {
		lookup = os.LookupEnv
	}
	var firstErr error
	fail := func(key, v, want string) {
		if firstErr == nil {
			firstErr = fmt.Errorf("%s=%q: not a valid %s", key, v, want)
		}
	}
	str := func(key string, dst *string) {
		if v, ok := lookup(key); ok {
			*dst = v
		}
	}
	integer := func(key string, dst *int) {
		if v, ok := lookup(key); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				fail(key, v, "integer")
				return
			}
			*dst = n
		}
	}
	boolean := func(key string, dst *bool) {
		if v, ok := lookup(key); ok {
			b, err := strconv.ParseBool(v)
			if err != nil {
				fail(key, v, "boolean")
				return
			}
			*dst = b
		}
	}
	float := func(key string, dst *float64) {
		if v, ok := lookup(key); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				fail(key, v, "number")
				return
			}
			*dst = f
		}
	}
	duration := func(key string, dst *time.Duration) {
		if v, ok := lookup(key); ok {
			d, err := time.ParseDuration(v)
			if err != nil {
				fail(key, v, "duration")
				return
			}
			*dst = d
		}
	}
	if v, ok := lookup("PDCU_SRC"); ok {
		c.Srcs = nil
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			if err := c.Srcs.Add(part); err != nil {
				fail("PDCU_SRC", v, "source list (path or name=path, comma-separated)")
			}
		}
	}
	if v, ok := lookup("PDCU_CATALOG"); ok {
		c.Catalogs = nil
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			c.Catalogs = append(c.Catalogs, part)
		}
	}
	str("PDCU_OUT", &c.Out)
	str("PDCU_ADDR", &c.Addr)
	integer("PDCU_JOBS", &c.Jobs)
	boolean("PDCU_WATCH", &c.Watch)
	duration("PDCU_POLL", &c.Poll)
	float("PDCU_RATE", &c.Rate)
	integer("PDCU_BURST", &c.Burst)
	float("PDCU_CONTRIB_RATE", &c.ContribRate)
	boolean("PDCU_PPROF", &c.Pprof)
	str("PDCU_LOG_LEVEL", &c.LogLevel)
	float("PDCU_TRACE_SAMPLE", &c.TraceSample)
	duration("PDCU_TRACE_SLOW", &c.TraceSlow)
	float("PDCU_LOG_SAMPLE", &c.LogSample)
	str("PDCU_FOLLOW", &c.Follow)
	str("PDCU_SNAPSHOT_DIR", &c.SnapshotDir)
	str("PDCU_ADVERTISE", &c.Advertise)
	return firstErr
}

// BindBuildFlags registers the `pdcu build` flags, defaulting to c's
// current (env-layered) values.
func (c *Config) BindBuildFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Out, "out", c.Out, "output directory")
	c.BindCorpusFlags(fs)
	fs.IntVar(&c.Jobs, "j", c.Jobs, "render workers (must be >= 1)")
	fs.BoolVar(&c.Verbose, "verbose", c.Verbose, "print per-phase span timings and debug logs")
}

// BindSearchFlags registers the `pdcu search` engine flags.
func (c *Config) BindSearchFlags(fs *flag.FlagSet) {
	c.BindCorpusFlags(fs)
}

// BindCorpusFlags registers the repeatable corpus-source flags shared by
// every command that loads a corpus.
func (c *Config) BindCorpusFlags(fs *flag.FlagSet) {
	fs.Var(&srcFlag{list: &c.Srcs}, "src", "directory of activity .md files as one corpus source; repeatable, accepts name=path (default: the embedded corpus)")
	fs.Var(&catalogFlag{list: &c.Catalogs}, "catalog", "built-in catalog to federate ("+strings.Join(corpus.CatalogNames(), ", ")+"); repeatable")
}

// BindServeFlags registers the `pdcu serve` flags, defaulting to c's
// current (env-layered) values.
func (c *Config) BindServeFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Addr, "addr", c.Addr, "listen address")
	c.BindCorpusFlags(fs)
	fs.IntVar(&c.Jobs, "j", c.Jobs, "render workers (must be >= 1)")
	fs.BoolVar(&c.Watch, "watch", c.Watch, "poll every -src directory for changes and rebuild incrementally (requires -src)")
	fs.DurationVar(&c.Poll, "poll", c.Poll, "poll interval for -watch")
	fs.Float64Var(&c.Rate, "rate", c.Rate, "query API admission rate in requests/second (0 disables)")
	fs.IntVar(&c.Burst, "burst", c.Burst, "query API token-bucket burst (0 = 2x rate)")
	fs.Float64Var(&c.ContribRate, "contrib-rate", c.ContribRate, "contribution-validation admission rate in requests/second, its own bucket (0 disables)")
	fs.BoolVar(&c.Pprof, "pprof", c.Pprof, "mount net/http/pprof under /debug/pprof/")
	fs.BoolVar(&c.Verbose, "verbose", c.Verbose, "debug logging (shorthand for -log-level debug)")
	fs.StringVar(&c.LogLevel, "log-level", c.LogLevel, "log threshold: debug, info, warn, or error")
	fs.Float64Var(&c.TraceSample, "trace-sample", c.TraceSample, "probability of retaining an ordinary trace (error/slow/traceparent traces are always kept)")
	fs.DurationVar(&c.TraceSlow, "trace-slow", c.TraceSlow, "pin any trace at least this long")
	fs.Float64Var(&c.LogSample, "log-sample", c.LogSample, "access-log sample rate in [0,1]; errors and pinned-trace requests always log")
	fs.StringVar(&c.Follow, "follow", c.Follow, "run as a read replica pulling generation snapshots from the leader at this base URL")
	fs.StringVar(&c.SnapshotDir, "snapshot-dir", c.SnapshotDir, "persist the latest generation snapshot here and cold-start from it on boot")
	fs.StringVar(&c.Advertise, "advertise", c.Advertise, "base URL peers can reach this node at (followers send it on heartbeats for the leader's Fleet panel and trace stitching)")
}

// Validate rejects configurations that previously misbehaved silently.
// Every rule here is enforced for all commands, so `-j 0` fails the
// same way under build and serve.
func (c Config) Validate() error {
	if c.Jobs < 1 {
		return fmt.Errorf("-j must be >= 1, got %d", c.Jobs)
	}
	if c.Rate < 0 {
		return fmt.Errorf("-rate must be >= 0, got %v", c.Rate)
	}
	if c.Burst < 0 {
		return fmt.Errorf("-burst must be >= 0, got %d", c.Burst)
	}
	if c.ContribRate < 0 {
		return fmt.Errorf("-contrib-rate must be >= 0, got %v", c.ContribRate)
	}
	if c.TraceSample < 0 || c.TraceSample > 1 {
		return fmt.Errorf("-trace-sample must be in [0,1], got %v", c.TraceSample)
	}
	if c.LogSample < 0 || c.LogSample > 1 {
		return fmt.Errorf("-log-sample must be in [0,1], got %v", c.LogSample)
	}
	if c.Poll <= 0 {
		return fmt.Errorf("-poll must be > 0, got %v", c.Poll)
	}
	if c.Watch && len(c.Srcs) == 0 {
		return fmt.Errorf("-watch requires -src (the embedded corpus cannot change)")
	}
	for _, name := range c.Catalogs {
		if _, err := corpus.Catalog(name); err != nil {
			return err
		}
	}
	seen := map[string]bool{}
	for _, name := range c.Catalogs {
		if seen[name] {
			return fmt.Errorf("duplicate corpus source name %q", name)
		}
		seen[name] = true
	}
	for _, s := range c.Srcs {
		name := s.Name
		if name == "" {
			name = corpus.DeriveName(s.Path)
		}
		if seen[name] {
			return fmt.Errorf("duplicate corpus source name %q", name)
		}
		seen[name] = true
	}
	if c.Follow != "" {
		u, err := url.Parse(c.Follow)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("-follow must be an http(s) base URL, got %q", c.Follow)
		}
		if c.Watch {
			return fmt.Errorf("-follow and -watch are exclusive (a follower never builds; the leader watches the corpus)")
		}
	}
	if c.Advertise != "" {
		u, err := url.Parse(c.Advertise)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("-advertise must be an http(s) base URL, got %q", c.Advertise)
		}
	}
	if _, err := obs.ParseLevel(c.LogLevel); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	return nil
}

// CorpusSources resolves the configured adapters: named catalogs first,
// then directory sources, in flag order. An empty result makes the
// corpus loader fall back to the builtin curation.
func (c Config) CorpusSources() ([]corpus.Source, error) {
	var out []corpus.Source
	for _, name := range c.Catalogs {
		s, err := corpus.Catalog(name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	for _, spec := range c.Srcs {
		out = append(out, corpus.Dir(spec.Name, spec.Path))
	}
	return out, nil
}

// SourcesSummary describes the configured corpus for logs and spans.
func (c Config) SourcesSummary() string {
	var parts []string
	parts = append(parts, c.Catalogs...)
	for _, s := range c.Srcs {
		name := s.Name
		if name == "" {
			name = corpus.DeriveName(s.Path)
		}
		parts = append(parts, name+"="+s.Path)
	}
	if len(parts) == 0 {
		return "builtin"
	}
	return strings.Join(parts, ",")
}

// SlogLevel resolves the effective log threshold (Verbose wins).
// Validate has already established that LogLevel parses.
func (c Config) SlogLevel() slog.Level {
	if c.Verbose {
		return slog.LevelDebug
	}
	lvl, err := obs.ParseLevel(c.LogLevel)
	if err != nil {
		return slog.LevelInfo
	}
	return lvl
}
