package trace

import (
	"context"
	"strings"
	"testing"
	"time"
)

// fakeClock hands out monotonically increasing instants with a
// controllable step, so span durations are deterministic.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func newTestTracer(opts Options) (*Tracer, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1700000000, 0), step: time.Millisecond}
	if opts.Now == nil {
		opts.Now = clk.now
	}
	return New(opts), clk
}

func TestSpanHierarchyAndAttrs(t *testing.T) {
	tr, _ := newTestTracer(Options{SampleRate: 1})
	ctx, root := tr.StartRecorded(context.Background(), "request")
	if root == nil {
		t.Fatal("root span is nil")
	}
	ctx2, child := StartSpan(ctx, "stage.one")
	child.SetAttr("result", "hit")
	_, grand := StartSpan(ctx2, "stage.one.inner")
	grand.End()
	child.End()
	root.End()

	data, ok := tr.Store().Get(root.TraceID())
	if !ok {
		t.Fatal("trace not retained at SampleRate=1")
	}
	if len(data.Spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(data.Spans), data.Spans)
	}
	byName := map[string]SpanData{}
	for _, sd := range data.Spans {
		byName[sd.Name] = sd
	}
	if byName["stage.one"].Parent != root.ID() {
		t.Error("child span does not point at the root")
	}
	if byName["stage.one.inner"].Parent != byName["stage.one"].ID {
		t.Error("grandchild span does not point at the child")
	}
	if len(byName["stage.one"].Attrs) != 1 || byName["stage.one"].Attrs[0].Value != "hit" {
		t.Errorf("attrs = %+v", byName["stage.one"].Attrs)
	}
	if data.Root != "request" {
		t.Errorf("root name = %q", data.Root)
	}
}

func TestNilSpanSafety(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "untraced") // no active span in ctx
	if sp != nil {
		t.Fatal("StartSpan without a parent must return nil")
	}
	if ctx2 != ctx {
		t.Error("untraced StartSpan must not derive a new context")
	}
	// Every method must be a no-op on nil.
	sp.SetAttr("k", "v")
	sp.Fail("boom")
	sp.FailErr(nil)
	sp.End()
	if got := sp.Traceparent(); got != "" {
		t.Errorf("nil Traceparent = %q", got)
	}
	var tr *Tracer
	if _, sp := tr.StartRecorded(ctx, "x"); sp != nil {
		t.Error("nil tracer must return nil spans")
	}
	if tr.Store() != nil {
		t.Error("nil tracer store must be nil")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr, _ := newTestTracer(Options{})
	_, root := tr.StartRecorded(context.Background(), "req")
	h := root.Traceparent()
	tid, sid, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if tid != root.TraceID() || sid != root.ID() {
		t.Errorf("round trip mismatch: %v/%v vs %v/%v", tid, sid, root.TraceID(), root.ID())
	}
	root.End()
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad version
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",  // bad flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-012", // wrong length for v00
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad delimiter
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
	}
	for _, h := range bad {
		if _, _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", h)
		}
	}
}

func TestStartRemoteContinuesTrace(t *testing.T) {
	tr, _ := newTestTracer(Options{SampleRate: 0}) // sampling off: only pins survive
	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	_, root := tr.StartRemote(context.Background(), "req", parent)
	if got := root.TraceID().String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace ID = %s, want the remote one", got)
	}
	root.End()
	data, ok := tr.Store().Get(root.TraceID())
	if !ok {
		t.Fatal("traceparent-initiated trace must be retained even with sampling off")
	}
	if data.Reason != "traceparent" {
		t.Errorf("reason = %q", data.Reason)
	}
	wantParent, _ := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	_ = wantParent
	if data.Spans[0].Parent.String() != "00f067aa0ba902b7" {
		t.Errorf("root parent = %s, want the remote span ID", data.Spans[0].Parent)
	}

	// A malformed header continues nothing: no span, and the context is
	// left as it was, so the caller handles the request like one that
	// carried no header.
	ctx := context.Background()
	if ctx2, sp := tr.StartRemote(ctx, "req", "garbage"); sp != nil || ctx2 != ctx {
		t.Errorf("malformed traceparent started span %v", sp)
	}
}

func TestTailRetention(t *testing.T) {
	slow := 50 * time.Millisecond
	tr, clk := newTestTracer(Options{SampleRate: 0, SlowThreshold: slow})
	start := time.Unix(1700000000, 0)

	// Ordinary fast request with sampling off: nothing is stored.
	if id, ok := tr.RecordIfPinned("fast", start, time.Millisecond, ""); ok || !id.IsZero() {
		t.Errorf("fast request pinned as %s", id)
	}
	if n := tr.Store().Len(); n != 0 {
		t.Errorf("store holds %d traces after a fast request, want 0", n)
	}

	// Errored request: pinned, with the error on its root span.
	id, ok := tr.RecordIfPinned("bad", start, time.Millisecond, "exploded")
	if d, found := tr.Store().Get(id); !ok || !found || !d.Pinned || d.Reason != "error" ||
		len(d.Spans) != 1 || d.Spans[0].Err != "exploded" {
		t.Errorf("error trace: ok=%v found=%v data=%+v", ok, found, d)
	}

	// Slow request: pinned.
	id, ok = tr.RecordIfPinned("sluggish", start, slow, "")
	if d, found := tr.Store().Get(id); !ok || !found || !d.Pinned || d.Reason != "slow" || d.Duration != slow {
		t.Errorf("slow trace: ok=%v found=%v data=%+v", ok, found, d)
	}

	// A recorded trace that runs slow is pinned too. The fake clock
	// advances one step per now() call; stretch the step so the root
	// span meets the threshold.
	clk.step = slow
	_, sluggish := tr.StartRecorded(context.Background(), "recorded")
	sluggish.End()
	if d, ok := tr.Store().Get(sluggish.TraceID()); !ok || !d.Pinned || d.Reason != "slow" {
		t.Errorf("slow recorded trace: ok=%v data=%+v", ok, d)
	}

	// With SampleRate=1 an ordinary trace is kept but unpinned.
	tr2, _ := newTestTracer(Options{SampleRate: 1})
	_, ok2 := tr2.StartRecorded(context.Background(), "ordinary")
	ok2.End()
	if d, ok := tr2.Store().Get(ok2.TraceID()); !ok || d.Pinned || d.Reason != "sampled" {
		t.Errorf("sampled trace: ok=%v data=%+v", ok, d)
	}
}

// TestEvictionSparesPinned fills a small store far past capacity with
// sampled traffic and checks the pinned traces are the survivors — the
// property the ISSUE acceptance pins.
func TestEvictionSparesPinned(t *testing.T) {
	tr, _ := newTestTracer(Options{SampleRate: 1, Capacity: 8})

	var pinnedIDs []TraceID
	for i := 0; i < 3; i++ {
		_, sp := tr.StartRecorded(context.Background(), "err")
		sp.Fail("boom")
		sp.End()
		pinnedIDs = append(pinnedIDs, sp.TraceID())
	}
	for i := 0; i < 50; i++ {
		_, sp := tr.StartRecorded(context.Background(), "ok")
		sp.End()
	}
	if got := tr.Store().Len(); got != 8 {
		t.Fatalf("store len = %d, want capacity 8", got)
	}
	for _, id := range pinnedIDs {
		if _, ok := tr.Store().Get(id); !ok {
			t.Errorf("pinned trace %s evicted by sampled traffic", id)
		}
	}
	// List puts pinned traces first.
	list := tr.Store().List()
	for i, d := range list[:3] {
		if !d.Pinned {
			t.Errorf("List()[%d] unpinned; pinned traces must sort first", i)
		}
	}
	// When the store holds only pinned traces, the oldest pinned one
	// finally falls off rather than growing without bound.
	small := NewStore(2)
	for i := uint64(1); i <= 3; i++ {
		var id TraceID
		id[15] = byte(i)
		small.add(Data{ID: id, Pinned: true, Start: time.Unix(int64(i), 0)})
	}
	if small.Len() != 2 {
		t.Errorf("all-pinned store len = %d, want 2", small.Len())
	}
	var first TraceID
	first[15] = 1
	if _, ok := small.Get(first); ok {
		t.Error("oldest pinned trace should be evicted when everything is pinned")
	}
}

func TestMaxSpansCap(t *testing.T) {
	tr, _ := newTestTracer(Options{SampleRate: 1, MaxSpans: 4})
	ctx, root := tr.StartRecorded(context.Background(), "req")
	for i := 0; i < 10; i++ {
		_, sp := StartSpan(ctx, "child")
		sp.End()
	}
	root.End()
	d, ok := tr.Store().Get(root.TraceID())
	if !ok {
		t.Fatal("trace missing")
	}
	if len(d.Spans) != 4 {
		t.Errorf("got %d spans, want the MaxSpans cap of 4", len(d.Spans))
	}
}

func TestDoubleEndAndLateAttrs(t *testing.T) {
	tr, _ := newTestTracer(Options{SampleRate: 1})
	ctx, root := tr.StartRecorded(context.Background(), "req")
	_, sp := StartSpan(ctx, "child")
	sp.End()
	sp.End() // second End must not double-record
	sp.SetAttr("late", "ignored")
	root.End()
	d, _ := tr.Store().Get(root.TraceID())
	if len(d.Spans) != 2 {
		t.Errorf("double End recorded twice: %d spans", len(d.Spans))
	}
	for _, s := range d.Spans {
		if s.Name == "child" && len(s.Attrs) != 0 {
			t.Errorf("attr set after End leaked: %+v", s.Attrs)
		}
	}
}

func TestTraceparentFormat(t *testing.T) {
	tr, _ := newTestTracer(Options{})
	_, root := tr.StartRecorded(context.Background(), "req")
	defer root.End()
	h := root.Traceparent()
	parts := strings.Split(h, "-")
	if len(parts) != 4 || parts[0] != "00" || len(parts[1]) != 32 || len(parts[2]) != 16 || parts[3] != "01" {
		t.Errorf("traceparent %q is not a well-formed version-00 header", h)
	}
}
