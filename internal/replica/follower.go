package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/obs/trace"
)

var (
	replicaLag = obs.Default().Gauge("pdcu_replica_lag",
		"Generations this follower is behind the leader (0 = converged).")
	fetchTotal = obs.Default().Counter("pdcu_replica_fetch_total",
		"Snapshot fetch attempts by outcome (adopted, unchanged, stale, error).", "result")
	fetchDuration = obs.Default().Histogram("pdcu_replica_fetch_duration_seconds",
		"Wall time of one snapshot fetch + decode + adopt cycle.", obs.DefBuckets())
	fetchBytes = obs.Default().Counter("pdcu_replica_fetch_bytes_total",
		"Snapshot payload bytes fetched from the leader.")
)

// Follower keeps an engine converged to a leader: a long-poll loop on
// the leader's /replica/v1/snapshot endpoint fetches each new
// generation, verifies and decodes it, adopts it into the engine, and
// reports position back to the fleet coordinator. Transport and decode
// failures back off exponentially with jitter; a corrupt or stale
// snapshot is dropped and the currently-served generation stays live.
type Follower struct {
	// Eng is the engine whose publish pointer the follower drives. Its
	// tracer records one trace per fetch cycle; the trace's traceparent
	// travels on the snapshot request, so the leader's serve-side span
	// lands in the same trace, the cross-node half the dashboard
	// stitches back together.
	Eng *engine.Engine
	// Base is the leader's base URL (scheme://host[:port]).
	Base string
	// Node identifies this follower in fleet status and metrics.
	Node string
	// Self, when set, is the base URL this follower's own HTTP server is
	// reachable at. It rides along on heartbeats so the leader's Fleet
	// panel links this node's dashboard and can stitch its trace halves.
	Self string
	// Dir, when set, persists every adopted snapshot's raw bytes for
	// cold starts.
	Dir string
	// Client is the HTTP client; nil selects a client whose timeout
	// accommodates the long poll.
	Client *http.Client

	etag string
	lag  atomic.Int64
}

// Lag reports the last observed generation lag behind the leader.
func (f *Follower) Lag() int64 { return f.lag.Load() }

func (f *Follower) setLag(v int64) {
	f.lag.Store(v)
	replicaLag.Set(float64(v))
}

// pollTimeout is the long-poll window the follower requests; the HTTP
// client timeout leaves headroom over it for the transfer itself.
const pollTimeout = 30 * time.Second

// Run drives the fetch loop until ctx is cancelled. It always returns
// ctx.Err(); transient failures are retried internally with backoff.
func (f *Follower) Run(ctx context.Context) error {
	client := f.Client
	if client == nil {
		client = &http.Client{Timeout: pollTimeout + 15*time.Second}
	}
	backoff := 500 * time.Millisecond
	for {
		if err := f.fetchOnce(ctx, client); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fetchTotal.With("error").Inc()
			obs.Logger().Warn("replica fetch failed", "leader", f.Base, "err", err,
				"retry_in", backoff.Round(time.Millisecond).String())
			// Jittered exponential backoff: ±20% keeps a restarted fleet
			// from long-polling the leader in lockstep.
			sleep := backoff + time.Duration((rand.Float64()-0.5)*0.4*float64(backoff))
			backoff *= 2
			if backoff > 15*time.Second {
				backoff = 15 * time.Second
			}
			select {
			case <-time.After(sleep):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		backoff = 500 * time.Millisecond
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

// fetchOnce performs one long-poll cycle: at most one snapshot transfer,
// ending in adoption, a no-change verdict, or an error. Every cycle
// roots a recorded trace; the HTTP child span's traceparent goes out on
// the snapshot request, so the leader's serve span joins the same trace
// and the two halves stitch into one waterfall on either dashboard.
func (f *Follower) fetchOnce(ctx context.Context, client *http.Client) (err error) {
	done := fetchDuration.With().Timer()
	defer done()

	ctx, root := f.Eng.Tracer().StartRecorded(ctx, "replica.fetch")
	root.SetAttr("leader", f.Base)
	defer func() {
		root.FailErr(err)
		root.End()
	}()

	var cur uint64
	if g := f.Eng.Current(); g != nil {
		cur = g.Seq
	}
	url := fmt.Sprintf("%s/replica/v1/snapshot?wait_seq=%d&timeout=%s", f.Base, cur, pollTimeout)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if f.etag != "" {
		req.Header.Set("If-None-Match", f.etag)
	}
	hctx, hs := obs.StartSpan(ctx, "replica.fetch.http")
	if tp := trace.FromContext(hctx).Traceparent(); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	resp, err := client.Do(req)
	hs.FailErr(err)
	hs.End()
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	if seq := resp.Header.Get("Pdcu-Seq"); seq != "" {
		if leaderSeq, err := strconv.ParseUint(seq, 10, 64); err == nil && leaderSeq >= cur {
			f.setLag(int64(leaderSeq - cur))
		}
	}
	switch resp.StatusCode {
	case http.StatusNotModified:
		root.SetAttr("result", "unchanged")
		fetchTotal.With("unchanged").Inc()
		f.heartbeat(ctx, client)
		return nil
	case http.StatusOK:
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("leader returned %s", resp.Status)
	}

	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fetchBytes.Add(float64(len(data)))
	_, ds := obs.StartSpan(ctx, "replica.decode")
	gen, err := Decode(data)
	ds.FailErr(err)
	ds.End()
	if err != nil {
		return fmt.Errorf("snapshot rejected: %w", err)
	}
	_, as := obs.StartSpan(ctx, "replica.adopt")
	adopted := f.Eng.Adopt(gen)
	as.End()
	if !adopted {
		root.SetAttr("result", "stale")
		fetchTotal.With("stale").Inc()
		f.heartbeat(ctx, client)
		return nil
	}
	f.etag = resp.Header.Get("ETag")
	f.setLag(0)
	root.SetAttr("result", "adopted")
	fetchTotal.With("adopted").Inc()
	obs.Logger().Info("snapshot adopted",
		"seq", gen.Seq, "generation", gen.ID, "bytes", len(data), "leader", f.Base)
	if f.Dir != "" {
		if err := Save(f.Dir, data); err != nil {
			obs.Logger().Warn("snapshot save failed", "dir", f.Dir, "err", err)
		}
	}
	f.heartbeat(ctx, client)
	return nil
}

// heartbeat reports this follower's position, and the counters and SLO
// verdict behind its Fleet row, to the fleet coordinator. Best-effort:
// a missed heartbeat only ages this node in fleet status.
func (f *Follower) heartbeat(ctx context.Context, client *http.Client) {
	g := f.Eng.Current()
	if g == nil || f.Node == "" {
		return
	}
	hb := heartbeat{Node: f.Node, URL: f.Self, Seq: g.Seq, Generation: g.ID,
		redTotals: readRED(obs.Default()), SLOBudget: -1}
	for _, st := range f.Eng.SLO().Evaluate() {
		if hb.SLOBudget < 0 || st.BudgetRemaining < hb.SLOBudget {
			hb.SLOBudget = st.BudgetRemaining
		}
		hb.Breached = hb.Breached || st.Breached
	}
	body, _ := json.Marshal(hb)
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.Base+"/replica/v1/fleet", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		obs.Logger().Debug("fleet heartbeat failed", "err", err)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
}

// readRED sums the HTTP counters of the registry this node's /metrics
// serves: every request, the 5xx ones (a code starting with 5), and the
// latency histogram's sum and count.
func readRED(reg *obs.Registry) redTotals {
	var t redTotals
	for _, s := range reg.Snapshot("pdcu_http_requests_total") {
		t.Requests += s.Value
		if strings.HasPrefix(s.Labels["code"], "5") {
			t.Errors5xx += s.Value
		}
	}
	for _, s := range reg.Snapshot("pdcu_http_request_duration_seconds") {
		t.DurationSum += s.Sum
		t.DurationCount += float64(s.Count)
	}
	return t
}
