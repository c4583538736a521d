// Package trace is the request-scoped tracing layer of the obs
// subsystem: context-propagated hierarchical spans (one trace ID, a tree
// of parent/child span IDs), W3C traceparent ingestion and emission for
// the HTTP edge, and a bounded in-process trace store with tail-based
// retention — error and slow traces are always kept, the rest are
// sampled probabilistically and evicted first when the ring fills.
//
// The package is deliberately free of dependencies (including the rest
// of internal/obs): spans carry their Tracer, so instrumented code needs
// only a context.Context. Instrumented code starts child spans through
// obs.StartSpan, which wraps StartSpan here and also records the layer's
// duration metric. Code paths without an active span pay almost
// nothing — StartSpan returns a nil *Span whose methods are all nil-safe
// no-ops, which is what keeps the sampled-off overhead on the cached
// query path inside its benchmark budget.
package trace

import (
	"context"
	"encoding/hex"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// TraceID identifies one trace: every span of one request or rebuild
// shares it. The all-zero value is invalid, matching W3C semantics.
type TraceID [16]byte

// SpanID identifies one span within a trace. All-zero is invalid.
type SpanID [8]byte

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// ParseTraceID decodes a 32-char lowercase-hex trace ID.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 {
		return id, errors.New("trace: trace ID must be 32 hex characters")
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, err
	}
	if id.IsZero() {
		return TraceID{}, errors.New("trace: all-zero trace ID")
	}
	return id, nil
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed region of a recorded trace. Roots are created
// through the Tracer's Start* methods, children through the package
// StartSpan helper, and all are finished with End; all methods are safe
// on a nil receiver, so un-traced code paths cost nothing.
type Span struct {
	tracer *Tracer
	buf    *traceBuf

	traceID TraceID
	id      SpanID
	parent  SpanID
	name    string
	start   time.Time
	isRoot  bool

	mu    sync.Mutex
	attrs []Attr
	err   string
	done  bool
}

// TraceID returns the trace this span belongs to (zero for nil spans).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.traceID
}

// ID returns the span's own ID (zero for nil spans).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// SetAttr annotates the span. No-op on nil or ended spans.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// Fail marks the span (and therefore its trace) as errored. A trace with
// any failed span is pinned by tail-based retention.
func (s *Span) Fail(msg string) {
	if s == nil || msg == "" {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.err = msg
	}
	s.mu.Unlock()
}

// FailErr is Fail for error values; a nil error is a no-op.
func (s *Span) FailErr(err error) {
	if err != nil {
		s.Fail(err.Error())
	}
}

// End finishes the span, recording it into its trace. Ending the root
// span finalizes the trace: the tracer classifies it for retention and
// stores it. Repeated calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	attrs := s.attrs
	errMsg := s.err
	s.mu.Unlock()

	s.buf.add(SpanData{
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: s.tracer.now().Sub(s.start),
		Err:      errMsg,
		Attrs:    attrs,
	})
	if s.isRoot {
		s.tracer.finish(s)
	}
}

// Traceparent renders the span as a W3C traceparent header value
// (version 00, sampled flag set), for emission on responses and
// propagation to downstream services.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	var b [55]byte
	copy(b[:3], "00-")
	hex.Encode(b[3:35], s.traceID[:])
	b[35] = '-'
	hex.Encode(b[36:52], s.id[:])
	copy(b[52:], "-01")
	return string(b[:])
}

// ctxKey carries the active *Span through a context.Context.
type ctxKey struct{}

// ContextWith returns ctx with sp as the active span.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the active span, or nil when ctx carries none.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartSpan begins a child of the span active in ctx and returns a
// derived context carrying it. When ctx has no active span — the request
// was not traced — it returns (ctx, nil) and the nil span's methods all
// no-op, so call sites never need to branch.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := &Span{
		tracer:  parent.tracer,
		buf:     parent.buf,
		traceID: parent.traceID,
		id:      parent.tracer.newSpanID(),
		parent:  parent.id,
		name:    name,
		start:   parent.tracer.now(),
	}
	return ContextWith(ctx, child), child
}

// Options configures a Tracer: a 256-trace ring and a 250ms slow
// threshold by default. Note that a zero SampleRate means pins-only
// retention — ordinary traces are dropped at completion and only
// pinned (error/slow/forced) traces are kept; pass 1 to record and
// keep everything.
type Options struct {
	// Capacity bounds the trace store (default 256 traces).
	Capacity int
	// SlowThreshold pins any trace at least this long (default 250ms).
	SlowThreshold time.Duration
	// SampleRate is the probability in [0,1] that Sampled admits a
	// request to a fully recorded trace. Sampled-out requests are pinned
	// after the fact when they error or run slow (RecordIfPinned);
	// recorded traces are always stored, unpinned unless they error, run
	// slow, or were forced. Negative means the default of 1 (record
	// everything); 0 records only forced traces.
	SampleRate float64
	// MaxSpans caps the spans recorded per trace so a runaway loop
	// cannot grow one trace without bound (default 512).
	MaxSpans int

	// Now and Rand are injectable for tests; defaults are time.Now and
	// a seeded math/rand source.
	Now  func() time.Time
	Rand func() float64
}

// Tracer creates spans and owns the bounded trace store. A nil *Tracer
// is valid and traces nothing.
type Tracer struct {
	store    *Store
	slow     time.Duration
	sample   float64
	maxSpans int
	now      func() time.Time
	randf    func() float64

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a Tracer with its own Store.
func New(opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	if opts.SlowThreshold <= 0 {
		opts.SlowThreshold = 250 * time.Millisecond
	}
	if opts.SampleRate < 0 || opts.SampleRate > 1 {
		opts.SampleRate = 1
	}
	if opts.MaxSpans <= 0 {
		opts.MaxSpans = 512
	}
	t := &Tracer{
		store:    NewStore(opts.Capacity),
		slow:     opts.SlowThreshold,
		sample:   opts.SampleRate,
		maxSpans: opts.MaxSpans,
		now:      opts.Now,
		randf:    opts.Rand,
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if t.now == nil {
		t.now = time.Now
	}
	if t.randf == nil {
		t.randf = func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return t.rng.Float64()
		}
	}
	return t
}

// Store returns the tracer's trace store (nil for a nil tracer).
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

// SlowThreshold returns the duration at which a trace is pinned.
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.slow
}

func (t *Tracer) newID() (tid TraceID, sid SpanID) {
	t.mu.Lock()
	t.rng.Read(tid[:])
	t.rng.Read(sid[:])
	t.mu.Unlock()
	if tid.IsZero() {
		tid[15] = 1
	}
	if sid.IsZero() {
		sid[7] = 1
	}
	return tid, sid
}

func (t *Tracer) newSpanID() (sid SpanID) {
	t.mu.Lock()
	t.rng.Read(sid[:])
	t.mu.Unlock()
	if sid.IsZero() {
		sid[7] = 1
	}
	return sid
}

// startRoot begins the recorded root span of a trace; forced, when
// non-empty, pins the trace with that retention reason.
func (t *Tracer) startRoot(ctx context.Context, name string, tid TraceID, sid, parent SpanID, forced string) (context.Context, *Span) {
	buf := newTraceBuf(t.maxSpans)
	buf.forced = forced
	sp := &Span{
		tracer:  t,
		buf:     buf,
		traceID: tid,
		id:      sid,
		parent:  parent,
		name:    name,
		start:   t.now(),
		isRoot:  true,
	}
	return ContextWith(ctx, sp), sp
}

// Sampled reports one draw of the tracer's sample rate: true with
// probability SampleRate. The HTTP middleware uses it to decide whether
// a request records a full trace (StartRecorded) or runs span-free with
// post-hoc pinning (RecordIfPinned) — the combination that keeps
// sampled-out requests at zero tracing allocations.
func (t *Tracer) Sampled() bool {
	if t == nil || t.sample <= 0 {
		return false
	}
	if t.sample >= 1 {
		return true
	}
	return t.randf() < t.sample
}

// StartRecorded begins a fully recorded trace unconditionally — no
// sampling draw. Retention still classifies it at completion (pinned on
// error/slow, otherwise kept unpinned as "sampled"). Callers that have
// already drawn Sampled use this to avoid a second draw.
func (t *Tracer) StartRecorded(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	tid, sid := t.newID()
	return t.startRoot(ctx, name, tid, sid, SpanID{}, "")
}

// RecordIfPinned applies tail retention to a request that ran without a
// span: when it errored (errMsg non-empty) or met the slow threshold, a
// root-only pinned trace is stored after the fact and its ID returned;
// otherwise nothing is recorded. This keeps "always keep error/slow
// traces" true even for traffic the sampler skipped, at zero cost to
// the healthy fast path.
func (t *Tracer) RecordIfPinned(name string, start time.Time, d time.Duration, errMsg string) (TraceID, bool) {
	if t == nil || (errMsg == "" && d < t.slow) {
		return TraceID{}, false
	}
	tid, sid := t.newID()
	data := Data{
		ID:       tid,
		Root:     name,
		Start:    start,
		Duration: d,
		Err:      errMsg != "",
		Pinned:   true,
		Reason:   "slow",
		Spans: []SpanData{{
			ID:       sid,
			Name:     name,
			Start:    start,
			Duration: d,
			Err:      errMsg,
		}},
	}
	if data.Err {
		data.Reason = "error"
	}
	t.store.add(data)
	return tid, true
}

// StartForced begins a fully recorded trace that retention always
// keeps, regardless of sample rate. Use it for rare, operator-visible
// work — a -watch rebuild — where the waterfall is the whole point.
func (t *Tracer) StartForced(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	tid, sid := t.newID()
	return t.startRoot(ctx, name, tid, sid, SpanID{}, "forced")
}

// StartRemote begins a trace continuing a W3C traceparent carried by an
// incoming request: the trace ID is the remote one and the remote span
// becomes the root's parent, so a distributed collector can join the
// halves. A trace that arrived with an explicit traceparent is always
// retained — the caller asked for it by name, so sampling it out would
// be hostile. An empty or malformed header continues nothing: it returns
// (ctx, nil), and the caller treats the request like one without a
// header.
func (t *Tracer) StartRemote(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	tid, parent, err := ParseTraceparent(traceparent)
	if err != nil {
		return ctx, nil
	}
	return t.startRoot(ctx, name, tid, t.newSpanID(), parent, "traceparent")
}

// finish applies retention to a completed recorded trace: pinned when
// any span failed, the root ran at least the slow threshold, or the
// caller forced it (traceparent / StartForced); otherwise kept unpinned
// as "sampled" — the sampling draw already happened before the trace
// started, so every recorded trace is stored and unpinned ones are
// evicted first.
func (t *Tracer) finish(root *Span) {
	data := root.buf.snapshot()
	d := Data{
		ID:    root.traceID,
		Root:  root.name,
		Start: root.start,
		Spans: data,
	}
	for i := range data {
		if data[i].ID == root.id {
			d.Duration = data[i].Duration
		}
		if data[i].Err != "" {
			d.Err = true
		}
	}
	switch {
	case d.Err:
		d.Pinned, d.Reason = true, "error"
	case d.Duration >= t.slow:
		d.Pinned, d.Reason = true, "slow"
	case root.buf.forced != "":
		d.Pinned, d.Reason = true, root.buf.forced
	default:
		d.Reason = "sampled"
	}
	t.store.add(d)
}

// traceBuf accumulates the completed spans of one in-flight trace.
// Workers end spans concurrently (the site build pool), so appends are
// mutex-guarded.
type traceBuf struct {
	mu     sync.Mutex
	spans  []SpanData
	max    int
	forced string // non-empty: always pin, with this retention reason
}

func newTraceBuf(max int) *traceBuf { return &traceBuf{max: max} }

func (b *traceBuf) add(sd SpanData) {
	b.mu.Lock()
	if len(b.spans) < b.max {
		b.spans = append(b.spans, sd)
	}
	b.mu.Unlock()
}

func (b *traceBuf) snapshot() []SpanData {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]SpanData, len(b.spans))
	copy(out, b.spans)
	return out
}

// ParseTraceparent decodes a W3C trace-context traceparent header
// (version 00: "00-<32 hex trace id>-<16 hex span id>-<2 hex flags>").
// Unknown future versions are accepted when they carry the same prefix
// layout, per the spec's forward-compatibility rule.
func ParseTraceparent(h string) (TraceID, SpanID, error) {
	var tid TraceID
	var sid SpanID
	if len(h) < 55 {
		return tid, sid, errors.New("trace: traceparent too short")
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, sid, errors.New("trace: traceparent delimiters malformed")
	}
	version := h[:2]
	if !isHex(version) || version == "ff" {
		return tid, sid, errors.New("trace: bad traceparent version")
	}
	if version == "00" && len(h) != 55 {
		return tid, sid, errors.New("trace: version 00 traceparent must be 55 characters")
	}
	// The spec requires lowercase hex; hex.Decode alone would also
	// accept uppercase.
	if !isHex(h[3:35]) {
		return tid, sid, errors.New("trace: bad trace ID hex")
	}
	if !isHex(h[36:52]) {
		return tid, sid, errors.New("trace: bad span ID hex")
	}
	hex.Decode(tid[:], []byte(h[3:35]))
	hex.Decode(sid[:], []byte(h[36:52]))
	if !isHex(h[53:55]) {
		return TraceID{}, SpanID{}, errors.New("trace: bad flags hex")
	}
	if tid.IsZero() {
		return TraceID{}, SpanID{}, errors.New("trace: all-zero trace ID")
	}
	if sid.IsZero() {
		return TraceID{}, SpanID{}, errors.New("trace: all-zero span ID")
	}
	return tid, sid, nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
