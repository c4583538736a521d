package main

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"pdcunplugged/internal/engine"
	"pdcunplugged/internal/obs/trace"
	"pdcunplugged/internal/replica"
)

// deployment is the system under test: a leader engine that builds
// generations from the corpus, and a read replica that adopts each one
// from its snapshot bytes, as `pdcu serve -follow` does, and serves every
// reader request over loopback HTTP.
type deployment struct {
	leader   *engine.Engine
	follower *engine.Engine
	srv      *http.Server
	served   chan error
	base     string
	client   *http.Client
	lay      *layers // nil unless tracing
}

// config is the engine configuration both nodes run with: the serve
// defaults and the given corpus, with both admission buckets set to a
// ceiling no workload reaches (the token buckets run but never shed) and
// trace sampling off, so only requests that carry a traceparent record
// spans.
func config(catalogs []string, dir string) engine.Config {
	cfg := engine.Defaults()
	cfg.Catalogs = catalogs
	if dir != "" {
		cfg.Srcs = engine.SourceList{{Name: "generated", Path: dir}}
	}
	cfg.Rate = 1e6
	cfg.ContribRate = 1e6
	cfg.TraceSample = 0
	return cfg
}

// setUp brings the deployment up: the leader builds and publishes the
// first generation, the replica adopts it, and the replica's server
// answers /readyz.
func setUp(w workload, dir string, lay *layers) (*deployment, error) {
	leader, err := engine.New(config(w.catalogs, dir))
	if err != nil {
		return nil, err
	}
	follower, err := engine.New(config(nil, ""))
	if err != nil {
		return nil, err
	}
	d := &deployment{leader: leader, follower: follower, lay: lay}
	if _, err := d.publish(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.srv = &http.Server{Handler: follower.Mux(), ReadHeaderTimeout: 5 * time.Second}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	conns := &http.Transport{MaxIdleConnsPerHost: 2 * concurrency}
	d.client = &http.Client{Transport: conns, Timeout: time.Minute}
	// /readyz is served outside the tracing middleware, so it is asked
	// before the client starts sending traceparents.
	resp, err := d.client.Get(d.base + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		err = resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("replica not ready: %s", resp.Status)
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	d.client.Transport = &tracing{d: d, next: conns}
	return d, nil
}

// close stops the replica's server and waits for it to exit.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	return err
}

// publish carries the leader's corpus to the replica: rebuild on the
// leader, encode the generation as a snapshot, decode it, and adopt it.
func (d *deployment) publish() (*engine.Generation, error) {
	start := time.Now()
	gen, err := d.leader.Rebuild(context.Background())
	if err != nil {
		return nil, err
	}
	built := time.Now()
	data, err := replica.Encode(gen)
	if err != nil {
		return nil, err
	}
	encoded := time.Now()
	g, err := replica.Decode(data)
	if err != nil {
		return nil, err
	}
	decoded := time.Now()
	if !d.follower.Adopt(g) {
		return nil, fmt.Errorf("replica refused generation %d", g.Seq)
	}
	adopted := time.Now()
	if d.lay != nil {
		id, err := trace.ParseTraceID(gen.TraceID)
		if err != nil {
			return nil, err
		}
		t, ok := d.leader.Tracer().Store().Get(id)
		if !ok {
			return nil, fmt.Errorf("rebuild trace %s not recorded", gen.TraceID)
		}
		d.lay.publish(gen, t, len(data), built.Sub(start),
			encoded.Sub(built), decoded.Sub(encoded), adopted.Sub(decoded))
	}
	return g, nil
}

// check reports whether a response is a 200 carrying the replica's
// current generation.
func (d *deployment) check(resp *http.Response) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s", resp.Status)
	}
	if got, want := resp.Header.Get("Pdcu-Generation"), d.follower.Current().ID; got != want {
		return fmt.Errorf("generation %q, want %q", got, want)
	}
	return nil
}

// get sends one GET to the replica and returns the body of a response
// that passes check.
func (d *deployment) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = d.check(resp)
	}
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	return body, nil
}

// tracing is the client transport to the replica. When the run is
// traced, every request carries a traceparent, and once its body is
// closed the trace the replica recorded for it joins the layer totals;
// a trace that never arrives makes Close fail.
type tracing struct {
	d    *deployment
	next http.RoundTripper
}

func (t *tracing) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.d.lay == nil {
		return t.next.RoundTrip(req)
	}
	var tid trace.TraceID
	var sid trace.SpanID
	// The low bits are set so that no ID is the invalid all-zero one.
	binary.BigEndian.PutUint64(tid[:8], rand.Uint64())
	binary.BigEndian.PutUint64(tid[8:], rand.Uint64()|1)
	binary.BigEndian.PutUint64(sid[:], rand.Uint64()|1)
	req = req.Clone(req.Context())
	req.Header.Set("Traceparent", "00-"+hex.EncodeToString(tid[:])+"-"+hex.EncodeToString(sid[:])+"-01")
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, d: t.d, id: tid, start: start}
	return resp, nil
}

// tracedBody ends one traced round trip when the client closes it.
type tracedBody struct {
	io.ReadCloser
	d     *deployment
	id    trace.TraceID
	start time.Time
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	rt := time.Since(b.start)
	t, terr := b.d.awaitTrace(b.id)
	if terr != nil {
		return terr
	}
	b.d.lay.request(rt, t)
	return err
}

// awaitTrace waits for the replica to file a request's trace: the
// middleware stores it as the handler returns, which can be just after
// the client has read the response.
func (d *deployment) awaitTrace(id trace.TraceID) (trace.Data, error) {
	store := d.follower.Tracer().Store()
	for deadline := time.Now().Add(time.Second); ; {
		if t, ok := store.Get(id); ok {
			return t, nil
		}
		if time.Now().After(deadline) {
			return trace.Data{}, fmt.Errorf("trace %s not recorded", id)
		}
		time.Sleep(50 * time.Microsecond)
	}
}
