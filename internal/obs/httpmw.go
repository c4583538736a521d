package obs

import (
	"bufio"
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"pdcunplugged/internal/obs/trace"
)

// HTTPMetrics instruments an http.Handler with request counts, latency
// histograms, in-flight and response-size tracking, an access log, and
// request-scoped tracing: an incoming W3C traceparent header continues
// the caller's trace, anything else starts a fresh root span, and the
// response carries a traceparent header so clients can fetch the
// waterfall from /debug/obs/traces/<id>.
type HTTPMetrics struct {
	requests *Counter
	duration *Histogram
	inflight *Gauge
	bytes    *Counter
	log      func() *slog.Logger
	tracer   *trace.Tracer // nil: untraced
	logAttrs func() []any

	// logEvery samples the access log: 1 logs every request, N logs
	// every Nth, 0 logs none. Error responses (>= 400) and requests
	// whose trace was pinned always log regardless — at thousands of
	// QPS an unsampled access log floods stdout and distorts the very
	// latency a load test is measuring, but the interesting requests
	// must never be sampled away.
	logEvery  uint64
	logCursor atomic.Uint64
	logged    *Counter
}

// NewHTTPMetrics registers the HTTP metric families on reg. The
// middleware traces nothing until WithTracer gives it a tracer.
func NewHTTPMetrics(reg *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		requests: reg.Counter("pdcu_http_requests_total",
			"HTTP requests served, by route prefix and status code.", "path", "code"),
		duration: reg.Histogram("pdcu_http_request_duration_seconds",
			"HTTP request latency, by route prefix.", DefBuckets(), "path"),
		inflight: reg.Gauge("pdcu_http_in_flight_requests",
			"Requests currently being served."),
		bytes: reg.Counter("pdcu_http_response_bytes_total",
			"Response body bytes written, by route prefix.", "path"),
		logged: reg.Counter("pdcu_http_access_log_total",
			"Access-log lines, by decision (logged, sampled_out).", "decision"),
		log:      Logger,
		logEvery: 1,
	}
}

// WithTracer records the middleware's request traces in t; nil
// disables tracing.
func (m *HTTPMetrics) WithTracer(t *trace.Tracer) *HTTPMetrics {
	m.tracer = t
	return m
}

// WithLogAttrs appends fn's attributes to every access-log line. The
// engine uses this to tag each logged request with the generation that
// served it; fn runs once per logged request and may return nil.
func (m *HTTPMetrics) WithLogAttrs(fn func() []any) *HTTPMetrics {
	m.logAttrs = fn
	return m
}

// WithLogSample sets the access-log sample rate in (0,1]: 1 logs every
// request, 0.01 logs every hundredth (deterministically, via a counter —
// no per-request RNG), and 0 disables routine logging entirely. Error
// responses (status >= 400) and pinned-trace requests always log.
func (m *HTTPMetrics) WithLogSample(rate float64) *HTTPMetrics {
	switch {
	case rate <= 0:
		m.logEvery = 0
	case rate >= 1:
		m.logEvery = 1
	default:
		m.logEvery = uint64(1 / rate)
	}
	return m
}

// shouldLog decides one access-log line: errors and pinned traces are
// unconditional, everything else passes through the every-Nth sampler.
func (m *HTTPMetrics) shouldLog(code int, pinned bool) bool {
	if code >= 400 || pinned {
		return true
	}
	if m.logEvery == 0 {
		return false
	}
	if m.logEvery == 1 {
		return true
	}
	return m.logCursor.Add(1)%m.logEvery == 1
}

// Wrap returns next instrumented with m's metrics, tracing, panic
// recovery, and access logging.
func (m *HTTPMetrics) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.inflight.With().Inc()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}

		// Sampled-out requests run span-free: the deferred block below
		// already measures duration and status, so tail retention for
		// them is applied after the fact (RecordIfPinned) and the
		// healthy fast path pays no tracing allocations at all. Only a
		// valid traceparent (the caller explicitly asked for a
		// waterfall) or a winning sample draw records spans; a
		// malformed one is treated as absent. Direct map indexing with
		// the pre-canonicalized "Traceparent" key skips the per-request
		// canonicalization alloc of Header.Get.
		var sp *trace.Span
		tr := m.tracer
		if tr != nil {
			var sctx context.Context
			if v := r.Header["Traceparent"]; len(v) > 0 {
				sctx, sp = tr.StartRemote(r.Context(), r.Method+" "+r.URL.Path, v[0])
			}
			if sp == nil && tr.Sampled() {
				sctx, sp = tr.StartRecorded(r.Context(), r.Method+" "+r.URL.Path)
			}
			if sp != nil {
				sp.SetAttr("method", r.Method)
				sp.SetAttr("remote", r.RemoteAddr)
				// The response advertises the trace so the caller can
				// fetch the waterfall from /debug/obs/traces/<id> or
				// propagate the context further. Span-free requests get
				// no header: advertising a trace that was never
				// recorded would hand the client a dangling link.
				w.Header()["Traceparent"] = []string{sp.Traceparent()}
				r = r.WithContext(sctx)
			}
		}

		defer func() {
			// Panic recovery: a crashing handler must not take the
			// server down, must record a 500, and must still yield a
			// pinned error trace — via the span when one is recording,
			// via the post-hoc path otherwise.
			var failMsg string
			var panicked any
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					if sp != nil {
						sp.Fail("aborted")
						sp.End()
					} else if tr != nil {
						tr.RecordIfPinned(r.Method+" "+r.URL.Path,
							start, time.Since(start), "aborted")
					}
					m.inflight.With().Dec()
					panic(p) // the server handles this sentinel itself
				}
				rec.code = http.StatusInternalServerError
				if !rec.wrote && !rec.hijacked {
					http.Error(rec.ResponseWriter, "internal server error",
						http.StatusInternalServerError)
					rec.wrote = true
				}
				failMsg = fmt.Sprintf("panic: %v", p)
				panicked = p
				sp.Fail(failMsg)
			}
			m.inflight.With().Dec()
			d := time.Since(start)
			route := NotFoundRoute
			if rec.code != http.StatusNotFound {
				route = RouteLabel(r.URL.Path)
			}
			var tid trace.TraceID
			if sp != nil {
				sp.SetAttr("code", strconv3(rec.code))
				if rec.code >= 500 {
					sp.Fail("HTTP " + strconv3(rec.code))
				}
				sp.End()
				tid = sp.TraceID()
			} else if tr != nil && (failMsg != "" || rec.code >= 500 || d >= tr.SlowThreshold()) {
				// The guard repeats RecordIfPinned's own retention test
				// so the name concat is only paid when a trace will
				// actually be stored.
				if failMsg == "" && rec.code >= 500 {
					failMsg = "HTTP " + strconv3(rec.code)
				}
				tid, _ = tr.RecordIfPinned(r.Method+" "+r.URL.Path, start, d, failMsg)
			}
			if panicked != nil {
				m.log().Error("handler panic",
					"path", r.URL.Path,
					"panic", fmt.Sprint(panicked),
					"trace_id", tid.String(),
					"stack", string(debug.Stack()),
				)
			}
			m.requests.With(route, strconv3(rec.code)).Inc()
			m.duration.With(route).Observe(d.Seconds())
			m.bytes.With(route).Add(float64(rec.bytes))
			if !m.shouldLog(rec.code, !tid.IsZero()) {
				m.logged.With("sampled_out").Inc()
			} else if lg := m.log(); lg.Enabled(context.Background(), slog.LevelInfo) {
				m.logged.With("logged").Inc()
				attrs := []any{
					"method", r.Method,
					"path", r.URL.Path,
					"code", rec.code,
					"bytes", rec.bytes,
					"duration", d,
					"remote", r.RemoteAddr,
				}
				if !tid.IsZero() {
					attrs = append(attrs, "trace_id", tid.String())
				}
				if m.logAttrs != nil {
					attrs = append(attrs, m.logAttrs()...)
				}
				lg.Info("request", attrs...)
			}
		}()
		next.ServeHTTP(rec, r)
	})
}

// NotFoundRoute is the path label of every 404 response. Unknown URLs
// are unbounded, so labelling them by their first segment would let any
// client mint new series; all of them share this one label instead.
const NotFoundRoute = "(not found)"

// RouteLabel collapses a request path to its first segment ("/",
// "/activities", "/views", ...) so per-activity pages do not explode
// label cardinality on the requests metric. The label is a substring of
// p, so computing it allocates nothing.
func RouteLabel(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	if i := strings.IndexByte(p[1:], '/'); i >= 0 {
		p = p[:i+1]
	}
	return p
}

// strconv3 formats the common three-digit HTTP codes without an
// allocation-heavy fmt call.
func strconv3(code int) string {
	if code >= 100 && code < 1000 {
		return string([]byte{byte('0' + code/100), byte('0' + code/10%10), byte('0' + code%10)})
	}
	return "unknown"
}

// statusRecorder captures the status code and body size a handler
// wrote, including through the Flusher and Hijacker escape hatches.
type statusRecorder struct {
	http.ResponseWriter
	code     int
	bytes    int
	wrote    bool
	hijacked bool
}

func (s *statusRecorder) WriteHeader(code int) {
	if !s.wrote {
		s.code = code
		s.wrote = true
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(p []byte) (int, error) {
	s.wrote = true // implicit 200 if WriteHeader was never called
	n, err := s.ResponseWriter.Write(p)
	s.bytes += n
	return n, err
}

// Flush forwards to the underlying writer when it supports streaming.
// Flushing commits the implicit 200 header, so the recorded code is
// frozen from here on.
func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		s.wrote = true
		f.Flush()
	}
}

// Hijack hands the connection to the handler (websockets et al.); the
// recorded status stays at whatever was committed before the hijack.
func (s *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := s.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, fmt.Errorf("obs: underlying ResponseWriter does not support hijacking")
	}
	s.hijacked = true
	return hj.Hijack()
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (s *statusRecorder) Unwrap() http.ResponseWriter { return s.ResponseWriter }
