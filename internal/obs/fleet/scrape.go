// Package fleet is the cross-node observability layer: a metrics
// federator that scrapes every heartbeating replica's /metrics and
// re-serves the union under node labels (/metrics/fleet), per-node RED
// summaries for the dashboard's Fleet panel. Every node's metrics are
// held as obs.FamilySnapshot: self is read in-process with
// Registry.Gather, a peer is just a base URL whose /metrics body
// obs.ParseExposition turns into the same type.
package fleet

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"pdcunplugged/internal/obs"
)

var (
	scrapeTotal = obs.Default().Counter("pdcu_obs_fleet_scrapes_total",
		"Fleet metric scrapes by node and outcome (ok, error).", "node", "result")
	scrapeDuration = obs.Default().Histogram("pdcu_obs_fleet_scrape_duration_seconds",
		"Wall time of one full fleet scrape pass (self + every peer).", obs.DefBuckets())
	fleetNodes = obs.Default().Gauge("pdcu_obs_fleet_nodes",
		"Nodes in the latest fleet scrape (including self).")
	fleetSeries = obs.Default().Gauge("pdcu_obs_fleet_series",
		"Series federated in the last pass across all nodes.")
)

// Peer is one remote node the scraper federates: its fleet-roster name
// and the base URL its /metrics (and /debug/obs) are reachable at.
type Peer struct {
	Node string
	URL  string
}

// Options configures a Scraper.
type Options struct {
	// Interval is the background scrape cadence for Run (default 5s).
	Interval time.Duration
	// SelfNode labels this process's own series (default "self").
	SelfNode string
	// Peers supplies the current remote roster; called once per scrape
	// pass so a follower joining the fleet is picked up automatically.
	// Nil means self-only.
	Peers func() []Peer
}

// peerClient fetches peer /metrics; its timeout also bounds each peer's
// share of a scrape pass.
var peerClient = &http.Client{Timeout: 5 * time.Second}

// nodeScrape is the latest snapshot of one node's metrics, plus the
// previous pass's totals so Status can report rates as deltas.
type nodeScrape struct {
	node     string
	url      string // empty for self
	at       time.Time
	families []obs.FamilySnapshot
	err      error

	prevAt     time.Time
	prev, curr redTotals
}

// redTotals are the cumulative counters a RED row derives from.
type redTotals struct {
	requests, errors5xx float64
	durSum, durCount    float64
	valid               bool
}

// NodeStatus is one node's row in the dashboard Fleet panel: request
// and error rates over the last scrape interval, mean latency, replica
// lag, and the tightest SLO budget — side by side for every node.
type NodeStatus struct {
	Node    string  `json:"node"`
	URL     string  `json:"url,omitempty"`
	Self    bool    `json:"self"`
	AgeSecs float64 `json:"age_seconds"`
	Err     string  `json:"err,omitempty"`
	Series  int     `json:"series"`
	// ReqRate/ErrRate are requests and 5xx per second between the two
	// most recent scrapes; MeanLatency is seconds per request over the
	// same window. Zero until a node has been scraped twice.
	ReqRate     float64 `json:"req_rate"`
	ErrRate     float64 `json:"err_rate"`
	MeanLatency float64 `json:"mean_latency_seconds"`
	// Lag is the node's pdcu_replica_lag (generations behind).
	Lag float64 `json:"lag"`
	// SLOBudget is the minimum pdcu_slo_budget_remaining_ratio across
	// the node's objectives (-1 when the node exports none yet).
	SLOBudget float64 `json:"slo_budget"`
	// Breached reports any pdcu_slo_breached series at 1.
	Breached bool `json:"breached"`
}

// Scraper federates metrics across the fleet. Construct with New, then
// either Run it on its interval or call ScrapeOnce on demand.
type Scraper struct {
	self *obs.Registry
	opts Options

	mu    sync.Mutex
	nodes map[string]*nodeScrape
}

// New builds a scraper over the local registry (scraped in-process, no
// HTTP round trip for self).
func New(self *obs.Registry, opts Options) *Scraper {
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Second
	}
	if opts.SelfNode == "" {
		opts.SelfNode = "self"
	}
	return &Scraper{self: self, opts: opts, nodes: map[string]*nodeScrape{}}
}

// Run scrapes on the configured interval until ctx is done.
func (s *Scraper) Run(ctx context.Context) {
	t := time.NewTicker(s.opts.Interval)
	defer t.Stop()
	for {
		s.ScrapeOnce(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// ScrapeOnce performs one full pass: the local registry gathered
// in-process, then every peer's /metrics over HTTP. Peers are scraped
// sequentially — fleet sizes here are classroom-scale, and one slow peer
// delaying the pass is more observable than interleaved partial state.
func (s *Scraper) ScrapeOnce(ctx context.Context) {
	done := scrapeDuration.With().Timer()
	defer done()

	type result struct {
		node, url string
		fams      []obs.FamilySnapshot
		err       error
	}
	results := []result{{node: s.opts.SelfNode, fams: s.self.Gather()}}

	var peers []Peer
	if s.opts.Peers != nil {
		peers = s.opts.Peers()
	}
	for _, p := range peers {
		if p.Node == "" || p.URL == "" || p.Node == s.opts.SelfNode {
			continue
		}
		fams, err := s.scrapePeer(ctx, p.URL)
		results = append(results, result{node: p.Node, url: p.URL, fams: fams, err: err})
	}

	now := time.Now()
	live := make(map[string]bool, len(results))
	series := 0
	s.mu.Lock()
	for _, r := range results {
		live[r.node] = true
		ns := s.nodes[r.node]
		if ns == nil {
			ns = &nodeScrape{node: r.node}
			s.nodes[r.node] = ns
		}
		ns.url = r.url
		if r.err != nil {
			// Keep the last good parse for display; the error rides along.
			ns.err = r.err
			scrapeTotal.With(r.node, "error").Inc()
			continue
		}
		ns.err = nil
		ns.prev, ns.prevAt = ns.curr, ns.at
		ns.families, ns.at = r.fams, now
		ns.curr = sumRED(r.fams)
		scrapeTotal.With(r.node, "ok").Inc()
	}
	// Nodes that left the roster stop being served rather than going
	// stale forever.
	for node := range s.nodes {
		if !live[node] {
			delete(s.nodes, node)
		}
	}
	for _, ns := range s.nodes {
		series += countSeries(ns.families)
	}
	n := len(s.nodes)
	s.mu.Unlock()
	fleetNodes.Set(float64(n))
	fleetSeries.Set(float64(series))
}

func (s *Scraper) scrapePeer(ctx context.Context, base string) ([]obs.FamilySnapshot, error) {
	ctx, cancel := context.WithTimeout(ctx, peerClient.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := peerClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: %s/metrics returned %s", base, resp.Status)
	}
	return obs.ParseExposition(resp.Body)
}

// sumRED folds one node's families into the cumulative RED totals.
func sumRED(fams []obs.FamilySnapshot) redTotals {
	t := redTotals{valid: true}
	for _, smp := range seriesOf(fams, "pdcu_http_requests_total") {
		t.requests += smp.Value
		if strings.HasPrefix(smp.Labels["code"], "5") {
			t.errors5xx += smp.Value
		}
	}
	for _, smp := range seriesOf(fams, "pdcu_http_request_duration_seconds") {
		t.durSum += smp.Sum
		t.durCount += float64(smp.Count)
	}
	return t
}

// seriesOf returns the named family's series in one node's snapshot.
func seriesOf(fams []obs.FamilySnapshot, name string) []obs.SeriesSnapshot {
	for _, f := range fams {
		if f.Name == name {
			return f.Series
		}
	}
	return nil
}

// countSeries counts the series one node's snapshot holds.
func countSeries(fams []obs.FamilySnapshot) int {
	n := 0
	for _, f := range fams {
		n += len(f.Series)
	}
	return n
}

// Status summarizes every scraped node for the Fleet panel, self first
// then peers sorted by node name.
func (s *Scraper) Status() []NodeStatus {
	now := time.Now()
	s.mu.Lock()
	out := make([]NodeStatus, 0, len(s.nodes))
	for _, ns := range s.nodes {
		st := NodeStatus{
			Node: ns.node,
			URL:  ns.url,
			Self: ns.url == "",
		}
		if ns.err != nil {
			st.Err = ns.err.Error()
		}
		if !ns.at.IsZero() {
			st.AgeSecs = now.Sub(ns.at).Seconds()
		}
		st.Series = countSeries(ns.families)
		if ns.prev.valid && ns.curr.valid && ns.at.After(ns.prevAt) {
			secs := ns.at.Sub(ns.prevAt).Seconds()
			st.ReqRate = obs.CounterDelta(ns.prev.requests, ns.curr.requests) / secs
			st.ErrRate = obs.CounterDelta(ns.prev.errors5xx, ns.curr.errors5xx) / secs
			if dCnt := obs.CounterDelta(ns.prev.durCount, ns.curr.durCount); dCnt > 0 {
				st.MeanLatency = obs.CounterDelta(ns.prev.durSum, ns.curr.durSum) / dCnt
			}
		}
		if lag := seriesOf(ns.families, "pdcu_replica_lag"); len(lag) > 0 {
			st.Lag = lag[0].Value
		}
		st.SLOBudget = -1
		for _, smp := range seriesOf(ns.families, "pdcu_slo_budget_remaining_ratio") {
			if st.SLOBudget < 0 || smp.Value < st.SLOBudget {
				st.SLOBudget = smp.Value
			}
		}
		for _, smp := range seriesOf(ns.families, "pdcu_slo_breached") {
			if smp.Value >= 1 {
				st.Breached = true
			}
		}
		out = append(out, st)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// WriteFleet renders the federated exposition: every node's families
// merged by name, each series labeled with node= first, through the same
// writer as /metrics. The output is itself valid exposition format
// (ParseExposition reads it back), so a real Prometheus can scrape the
// whole fleet off one endpoint.
func (s *Scraper) WriteFleet(b *strings.Builder) {
	type nodeFams struct {
		node string
		fams []obs.FamilySnapshot
	}
	s.mu.Lock()
	snap := make([]nodeFams, 0, len(s.nodes))
	for _, ns := range s.nodes {
		snap = append(snap, nodeFams{ns.node, ns.families})
	}
	s.mu.Unlock()
	sort.Slice(snap, func(i, j int) bool { return snap[i].node < snap[j].node })

	merged := map[string]*obs.FamilySnapshot{}
	var names []string
	for _, nf := range snap {
		for _, f := range nf.fams {
			m := merged[f.Name]
			if m == nil {
				m = &obs.FamilySnapshot{Name: f.Name, Help: f.Help, Kind: f.Kind, LabelNames: []string{"node"}}
				merged[f.Name] = m
				names = append(names, f.Name)
			}
			for _, l := range f.LabelNames {
				if !slices.Contains(m.LabelNames, l) {
					m.LabelNames = append(m.LabelNames, l)
				}
			}
			for _, smp := range f.Series {
				labels := make(map[string]string, len(smp.Labels)+1)
				maps.Copy(labels, smp.Labels)
				labels["node"] = nf.node
				smp.Labels = labels
				m.Series = append(m.Series, smp)
			}
		}
	}
	sort.Strings(names)
	fams := make([]obs.FamilySnapshot, len(names))
	for i, name := range names {
		fams[i] = *merged[name]
	}
	obs.WriteText(b, fams)
}

// Handler serves /metrics/fleet. A cold cache (no scrape yet) performs
// one synchronous pass first, so the endpoint is useful even without
// the background loop running.
func (s *Scraper) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		cold := len(s.nodes) == 0
		s.mu.Unlock()
		if cold {
			ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
			s.ScrapeOnce(ctx)
			cancel()
		}
		var b strings.Builder
		s.WriteFleet(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, b.String())
	})
}
