package replica

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/obs/dash"
	"pdcunplugged/internal/site"
)

var (
	replicaRole = obs.Default().Gauge("pdcu_replica_role",
		"Replication role of this process (1 for the active role).", "role")
	snapshotBytes = obs.Default().Gauge("pdcu_replica_snapshot_bytes",
		"Encoded size of the currently-published generation snapshot.")
	snapshotServed = obs.Default().Counter("pdcu_replica_snapshot_served_total",
		"Snapshot endpoint responses by outcome (ok, not_modified, unavailable).", "result")
	fleetFollowers = obs.Default().Gauge("pdcu_replica_fleet_followers",
		"Followers that have heartbeated within the liveness window.")
	fleetLag = obs.Default().Gauge("pdcu_replica_fleet_lag",
		"Generations behind the leader, per follower node.", "node")
)

// fleetWindow is how long a follower stays in fleet status after its
// last heartbeat; beyond it the node is dropped from the roster (and
// its lag series goes quiet) rather than reported forever.
const fleetWindow = 5 * time.Minute

// SetRole records this process's replication role on the
// pdcu_replica_role gauge: exactly one of the two series is 1.
func SetRole(role string) {
	for _, r := range []string{"leader", "follower"} {
		v := 0.0
		if r == role {
			v = 1
		}
		replicaRole.With(r).Set(v)
	}
}

// encodedSnapshot is one generation serialized once and served many
// times: the Leader re-encodes only when the published Seq moves.
type encodedSnapshot struct {
	seq  uint64
	id   string
	etag string
	data []byte
}

// followerState is one row of the fleet roster, keyed by node name: the
// latest heartbeat and when it arrived, plus the counters and arrival
// time of the one before it, from which the row's rates derive.
type followerState struct {
	hb       heartbeat
	seen     time.Time
	prev     redTotals
	prevSeen time.Time
}

// Leader serves the current generation to followers under /replica/v1/
// and coordinates the fleet: /snapshot streams the encoded generation
// (strong ETag, If-None-Match, long-poll via ?wait_seq=N&timeout=30s;
// a HEAD answers the cheap "what would I get" probe through its
// Pdcu-Seq header), and /fleet tracks follower heartbeats so one
// endpoint answers how far behind every replica is.
type Leader struct {
	mu     sync.Mutex
	gen    *engine.Generation
	enc    *encodedSnapshot
	notify chan struct{}
	fleet  map[string]followerState
}

// NewLeader subscribes to the engine's publishes. Each publish
// invalidates the encoded-snapshot cache and wakes every long-poller;
// encoding happens lazily on the first snapshot request, so publishes
// never pay serialization cost while holding the engine lock.
func NewLeader(eng *engine.Engine) *Leader {
	l := &Leader{notify: make(chan struct{}), fleet: map[string]followerState{}}
	eng.Subscribe(func(g *engine.Generation) {
		l.mu.Lock()
		l.gen = g
		l.enc = nil
		close(l.notify)
		l.notify = make(chan struct{})
		l.mu.Unlock()
	})
	return l
}

// snapshot returns the encoded form of the current generation, encoding
// at most once per publish. Concurrent first requests may both encode;
// the deterministic codec makes the race harmless (identical bytes).
func (l *Leader) snapshot() (*encodedSnapshot, error) {
	l.mu.Lock()
	g, enc := l.gen, l.enc
	l.mu.Unlock()
	if g == nil {
		return nil, fmt.Errorf("no generation published yet")
	}
	if enc != nil && enc.seq == g.Seq {
		return enc, nil
	}
	data, err := Encode(g)
	if err != nil {
		return nil, err
	}
	e := &encodedSnapshot{
		seq:  g.Seq,
		id:   g.ID,
		etag: `"` + g.ID + "-" + strconv.FormatUint(g.Seq, 10) + `"`,
		data: data,
	}
	l.mu.Lock()
	if l.gen == g {
		l.enc = e
	}
	l.mu.Unlock()
	snapshotBytes.Set(float64(len(data)))
	return e, nil
}

// wait blocks until the published Seq exceeds after, the timeout
// elapses, or the request is cancelled. A zero timeout returns at once.
func (l *Leader) wait(r *http.Request, after uint64, timeout time.Duration) {
	if timeout <= 0 {
		return
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		l.mu.Lock()
		g, ch := l.gen, l.notify
		l.mu.Unlock()
		if g != nil && g.Seq > after {
			return
		}
		select {
		case <-ch:
		case <-deadline.C:
			return
		case <-r.Context().Done():
			return
		}
	}
}

// longPollParams reads the ?wait_seq=N&timeout=D pair. wait_seq absent
// means "answer immediately"; timeout defaults to 30s and is capped at
// 2 minutes so a stuck client cannot pin a handler goroutine for long.
func longPollParams(r *http.Request) (after uint64, timeout time.Duration, ok bool) {
	q := r.URL.Query()
	ws := q.Get("wait_seq")
	if ws == "" {
		return 0, 0, true
	}
	after, err := strconv.ParseUint(ws, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	timeout = 30 * time.Second
	if ts := q.Get("timeout"); ts != "" {
		d, err := time.ParseDuration(ts)
		if err != nil || d < 0 {
			return 0, 0, false
		}
		timeout = d
	}
	if timeout > 2*time.Minute {
		timeout = 2 * time.Minute
	}
	return after, timeout, true
}

// Handler returns the /replica/v1/ endpoint tree, mounted by the serve
// command onto the engine's mux.
func (l *Leader) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/replica/v1/snapshot", l.handleSnapshot)
	mux.HandleFunc("/replica/v1/fleet", l.handleFleet)
	return mux
}

func (l *Leader) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	after, timeout, ok := longPollParams(r)
	if !ok {
		http.Error(w, "bad wait_seq/timeout", http.StatusBadRequest)
		return
	}
	l.wait(r, after, timeout)
	enc, err := l.snapshot()
	if err != nil {
		snapshotServed.With("unavailable").Inc()
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("ETag", enc.etag)
	w.Header().Set("Pdcu-Generation", enc.id)
	w.Header().Set("Pdcu-Seq", strconv.FormatUint(enc.seq, 10))
	// A long-poll that timed out at the same Seq, or a conditional fetch
	// with the current tag, both resolve to "you already have it".
	if site.ETagMatch(r.Header.Get("If-None-Match"), enc.etag) || (r.URL.Query().Get("wait_seq") != "" && enc.seq <= after) {
		snapshotServed.With("not_modified").Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	snapshotServed.With("ok").Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(enc.data)))
	if r.Method == http.MethodHead {
		return
	}
	w.Write(enc.data)
}

// heartbeat is the body a follower POSTs to /replica/v1/fleet. URL is
// the follower's advertised base URL, when it has one: the Fleet panel
// links its dashboard and trace stitching asks it for trace halves. A
// follower that predates the counters sends none of them; its rates
// then read 0 and its budget -1.
type heartbeat struct {
	Node       string `json:"node"`
	URL        string `json:"url,omitempty"`
	Seq        uint64 `json:"seq"`
	Generation string `json:"generation"`
	redTotals
	// SLOBudget is the minimum error budget remaining across the
	// follower's objectives (-1 with none) and Breached whether any is
	// in breach: the verdict the follower's own /slo serves.
	SLOBudget float64 `json:"slo_budget"`
	Breached  bool    `json:"breached"`
}

// redTotals are the cumulative counters behind a Fleet row's rates, as
// the follower's own /metrics reports them.
type redTotals struct {
	Requests      float64 `json:"requests"`
	Errors5xx     float64 `json:"errors_5xx"`
	DurationSum   float64 `json:"duration_sum"`
	DurationCount float64 `json:"duration_count"`
}

func (t redTotals) negative() bool {
	return t.Requests < 0 || t.Errors5xx < 0 || t.DurationSum < 0 || t.DurationCount < 0
}

// FleetFollower is one follower's row in the fleet status response.
// ReqRate and ErrRate are requests and 5xx per second, and MeanLatency
// seconds per request, between its last two heartbeats (0 until it has
// sent two); a counter that went backwards reads as a restart.
type FleetFollower struct {
	Node        string  `json:"node"`
	URL         string  `json:"url,omitempty"`
	Seq         uint64  `json:"seq"`
	Generation  string  `json:"generation"`
	Lag         int64   `json:"lag"`
	StaleSecs   float64 `json:"staleSeconds"`
	ReqRate     float64 `json:"req_rate"`
	ErrRate     float64 `json:"err_rate"`
	MeanLatency float64 `json:"mean_latency_seconds"`
	SLOBudget   float64 `json:"slo_budget"`
	Breached    bool    `json:"breached"`
}

// FleetStatus is the /replica/v1/fleet GET response: the leader's
// published position plus every live follower's.
type FleetStatus struct {
	LeaderSeq        uint64          `json:"leaderSeq"`
	LeaderGeneration string          `json:"leaderGeneration"`
	Followers        []FleetFollower `json:"followers"`
}

func (l *Leader) handleFleet(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		hb := heartbeat{SLOBudget: -1}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&hb); err != nil || hb.Node == "" || hb.negative() {
			http.Error(w, "bad heartbeat", http.StatusBadRequest)
			return
		}
		l.mu.Lock()
		fs := followerState{hb: hb, seen: time.Now()}
		if old, ok := l.fleet[hb.Node]; ok {
			fs.prev, fs.prevSeen = old.hb.redTotals, old.seen
		}
		l.fleet[hb.Node] = fs
		l.mu.Unlock()
		// Refresh the fleet gauges on every heartbeat so /metrics stays
		// current without anyone polling /fleet.
		l.FleetStatus()
		w.WriteHeader(http.StatusNoContent)
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(l.FleetStatus())
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// FleetStatus snapshots the roster, pruning followers silent past the
// liveness window and refreshing the pdcu_replica_fleet_* gauges.
func (l *Leader) FleetStatus() FleetStatus {
	now := time.Now()
	l.mu.Lock()
	g := l.gen
	var st FleetStatus
	if g != nil {
		st.LeaderSeq, st.LeaderGeneration = g.Seq, g.ID
	}
	for node, fs := range l.fleet {
		if now.Sub(fs.seen) > fleetWindow {
			delete(l.fleet, node)
			fleetLag.With(node).Set(0)
			continue
		}
		ff := FleetFollower{
			Node:       node,
			URL:        fs.hb.URL,
			Seq:        fs.hb.Seq,
			Generation: fs.hb.Generation,
			Lag:        int64(st.LeaderSeq) - int64(fs.hb.Seq),
			StaleSecs:  now.Sub(fs.seen).Seconds(),
			SLOBudget:  fs.hb.SLOBudget,
			Breached:   fs.hb.Breached,
		}
		if !fs.prevSeen.IsZero() && fs.seen.After(fs.prevSeen) {
			secs := fs.seen.Sub(fs.prevSeen).Seconds()
			cur := fs.hb.redTotals
			ff.ReqRate = obs.CounterDelta(fs.prev.Requests, cur.Requests) / secs
			ff.ErrRate = obs.CounterDelta(fs.prev.Errors5xx, cur.Errors5xx) / secs
			if n := obs.CounterDelta(fs.prev.DurationCount, cur.DurationCount); n > 0 {
				ff.MeanLatency = obs.CounterDelta(fs.prev.DurationSum, cur.DurationSum) / n
			}
		}
		st.Followers = append(st.Followers, ff)
		fleetLag.With(node).Set(float64(ff.Lag))
	}
	l.mu.Unlock()
	sort.Slice(st.Followers, func(i, j int) bool { return st.Followers[i].Node < st.Followers[j].Node })
	fleetFollowers.Set(float64(len(st.Followers)))
	return st
}

// Peers is the roster as the dashboard reads it: one tracked peer per
// live follower, for the Fleet panel and for trace stitching.
func (l *Leader) Peers() []dash.Peer {
	st := l.FleetStatus()
	peers := make([]dash.Peer, len(st.Followers))
	for i, f := range st.Followers {
		peers[i] = dash.Peer{
			Node:        f.Node,
			URL:         f.URL,
			Tracked:     true,
			Age:         time.Duration(f.StaleSecs * float64(time.Second)),
			Lag:         f.Lag,
			ReqRate:     f.ReqRate,
			ErrRate:     f.ErrRate,
			MeanLatency: f.MeanLatency,
			SLOBudget:   f.SLOBudget,
			Breached:    f.Breached,
		}
	}
	return peers
}

// AutoSave persists every published generation's snapshot under dir in
// the background, sharing the leader's encode cache. It returns
// immediately; the goroutine exits when the engine stops publishing and
// the process ends (it holds no resources worth reclaiming sooner).
func (l *Leader) AutoSave(dir string) {
	go func() {
		var saved uint64
		for {
			l.mu.Lock()
			g, ch := l.gen, l.notify
			l.mu.Unlock()
			if g != nil && g.Seq > saved {
				if enc, err := l.snapshot(); err == nil {
					if err := Save(dir, enc.data); err != nil {
						obs.Logger().Warn("snapshot save failed", "dir", dir, "err", err)
					} else {
						obs.Logger().Debug("snapshot saved", "dir", dir, "seq", enc.seq, "bytes", len(enc.data))
					}
					saved = g.Seq
				}
			}
			<-ch
		}
	}()
}
