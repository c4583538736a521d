package obs

import (
	"context"
	"time"

	"pdcunplugged/internal/obs/trace"
)

// phaseSeconds is the duration histogram every span feeds, one series
// per layer name; /metrics and `pdcu build -verbose` both read it.
var phaseSeconds = Default().Histogram("pdcu_phase_seconds",
	"Duration of instrumented pipeline, request and replication layers.", PhaseBuckets(), "phase")

// Span is one timed region of the pipeline under its layer name. End
// always records the duration in pdcu_phase_seconds{phase=name}; when
// the context the span started from carried a recording trace, the span
// is also a child span of that trace, so a layer has one name in the
// metric and in the waterfall.
type Span struct {
	name  string
	start time.Time
	child *trace.Span // nil unless the parent context was recording
}

// StartSpan begins timing the layer name ("engine.load", "query.cache",
// "site.job.activity"). The returned context carries the trace child
// when there is one, so nested spans parent under it; otherwise it is
// ctx itself. Pass context.Background() for metric-only spans on hot
// paths that must not add spans to a trace.
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
	ctx, child := trace.StartSpan(ctx, name)
	return ctx, Span{name: name, start: time.Now(), child: child}
}

// SetAttr annotates the trace child; a no-op when nothing records.
func (s Span) SetAttr(key, value string) { s.child.SetAttr(key, value) }

// FailErr marks the trace child failed (a nil error is a no-op), which
// pins its trace.
func (s Span) FailErr(err error) { s.child.FailErr(err) }

// Elapsed is the time since the span started: what End would record now.
func (s Span) Elapsed() time.Duration { return time.Since(s.start) }

// End records the span's duration and ends its trace child. Call it
// once: each call is one observation.
func (s Span) End() {
	phaseSeconds.With(s.name).Observe(time.Since(s.start).Seconds())
	s.child.End()
}
