package obs

import (
	"bufio"
	"bytes"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pdcunplugged/internal/obs/trace"
)

// newEdgeTracer builds a tracer with sampling off, so anything it keeps
// was retained by the tail rules (error / slow / traceparent), not luck.
func newEdgeTracer() *trace.Tracer {
	return trace.New(trace.Options{SampleRate: 0, SlowThreshold: time.Hour})
}

// TestMiddlewarePanicRecovery pins the crash contract: a panicking
// handler yields a 500 response and metric, does not kill the server,
// leaks no in-flight count, and its trace is pinned as an error even
// with sampling off.
func TestMiddlewarePanicRecovery(t *testing.T) {
	reg := NewRegistry()
	tracer := newEdgeTracer()
	var buf bytes.Buffer
	m := NewHTTPMetrics(reg).WithTracer(tracer)
	lg := NewLogger(&buf)
	m.log = func() *slog.Logger { return lg }

	h := m.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/explode", nil)) // must not propagate the panic

	if rr.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler returned %d, want 500", rr.Code)
	}
	var counted bool
	for _, s := range reg.Snapshot("pdcu_http_requests_total") {
		if s.Labels["path"] == "/explode" && s.Labels["code"] == "500" && s.Value == 1 {
			counted = true
		}
	}
	if !counted {
		t.Errorf("panic not counted as 500: %+v", reg.Snapshot("pdcu_http_requests_total"))
	}
	if infl := reg.Snapshot("pdcu_http_in_flight_requests"); len(infl) != 1 || infl[0].Value != 0 {
		t.Errorf("in-flight after panic = %+v, want 0", infl)
	}

	traces := tracer.Store().List()
	if len(traces) != 1 {
		t.Fatalf("panic trace not retained: %d traces", len(traces))
	}
	d := traces[0]
	if !d.Pinned || d.Reason != "error" || !d.Err {
		t.Errorf("panic trace = pinned=%v reason=%q err=%v, want pinned error", d.Pinned, d.Reason, d.Err)
	}
	if !strings.Contains(buf.String(), "handler panic") || !strings.Contains(buf.String(), "trace_id="+d.ID.String()) {
		t.Errorf("panic log missing marker or trace_id: %q", buf.String())
	}
}

// TestMiddlewareAbortHandler pins that the http.ErrAbortHandler sentinel
// is re-panicked (the net/http server handles it itself) while the
// in-flight gauge still drains and the span completes.
func TestMiddlewareAbortHandler(t *testing.T) {
	reg := NewRegistry()
	tracer := newEdgeTracer()
	h := NewHTTPMetrics(reg).WithTracer(tracer).Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))

	func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Errorf("recovered %v, want http.ErrAbortHandler", p)
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/abort", nil))
		t.Error("ErrAbortHandler was swallowed")
	}()

	if infl := reg.Snapshot("pdcu_http_in_flight_requests"); len(infl) != 1 || infl[0].Value != 0 {
		t.Errorf("in-flight after abort = %+v, want 0", infl)
	}
	traces := tracer.Store().List()
	if len(traces) != 1 || !traces[0].Err {
		t.Errorf("aborted trace = %+v, want one error trace", traces)
	}
}

// TestMiddlewareTraceparent pins W3C propagation end to end: an incoming
// traceparent continues that trace ID, the response echoes a traceparent
// for the same trace, and the trace is retained despite sampling off.
func TestMiddlewareTraceparent(t *testing.T) {
	reg := NewRegistry()
	tracer := newEdgeTracer()
	h := NewHTTPMetrics(reg).WithTracer(tracer).Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))

	const remoteTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req := httptest.NewRequest("GET", "/api/v1/search", nil)
	req.Header.Set("traceparent", "00-"+remoteTrace+"-00f067aa0ba902b7-01")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)

	echo := rr.Header().Get("traceparent")
	if !strings.Contains(echo, remoteTrace) {
		t.Errorf("response traceparent %q does not continue trace %s", echo, remoteTrace)
	}
	tid, err := trace.ParseTraceID(remoteTrace)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := tracer.Store().Get(tid)
	if !ok {
		t.Fatal("forced trace not retained with sampling off")
	}
	if !d.Pinned || d.Reason != "traceparent" {
		t.Errorf("forced trace = pinned=%v reason=%q, want pinned traceparent", d.Pinned, d.Reason)
	}

	// A plain 200 request with no traceparent must NOT be retained at
	// sample rate zero — that is the other half of the retention story.
	rr2 := httptest.NewRecorder()
	h.ServeHTTP(rr2, httptest.NewRequest("GET", "/plain", nil))
	if got := tracer.Store().Len(); got != 1 {
		t.Errorf("store holds %d traces after unsampled request, want 1", got)
	}
	// And its response advertises no traceparent: the trace was
	// dropped, so a header would be a dangling link.
	if got := rr2.Header().Get("traceparent"); got != "" {
		t.Errorf("unsampled response carries traceparent %q, want none", got)
	}
}

// TestMiddlewareMalformedTraceparent pins that a traceparent the parser
// rejects is treated as absent. With sampling off the request is not
// traced: no response header, no trace_id in the access log, and it
// passes through log sampling like any healthy request. With sampling
// on, the trace the response advertises can be fetched.
func TestMiddlewareMalformedTraceparent(t *testing.T) {
	serve := func(tracer *trace.Tracer, logRate float64) (*httptest.ResponseRecorder, string, *Registry) {
		reg := NewRegistry()
		var buf bytes.Buffer
		lg := NewLogger(&buf)
		m := NewHTTPMetrics(reg).WithTracer(tracer).WithLogSample(logRate)
		m.log = func() *slog.Logger { return lg }
		h := m.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("ok"))
		}))
		req := httptest.NewRequest("GET", "/api/v1/search", nil)
		req.Header.Set("traceparent", "garbage")
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr, buf.String(), reg
	}

	off := newEdgeTracer()
	rr, log, _ := serve(off, 1)
	if got := rr.Header().Get("traceparent"); got != "" {
		t.Errorf("sampling off: response advertises trace %q that was never recorded", got)
	}
	if !strings.Contains(log, "msg=request") || strings.Contains(log, "trace_id=") {
		t.Errorf("sampling off: access log = %q, want a line without trace_id", log)
	}
	if n := off.Store().Len(); n != 0 {
		t.Errorf("sampling off: store holds %d traces, want 0", n)
	}
	_, log, reg := serve(newEdgeTracer(), 0)
	if log != "" {
		t.Errorf("sampling off: request skipped log sampling: %q", log)
	}
	if s := reg.Snapshot("pdcu_http_access_log_total"); len(s) != 1 || s[0].Labels["decision"] != "sampled_out" {
		t.Errorf("access-log decisions = %+v, want one sampled_out", s)
	}

	on := trace.New(trace.Options{SampleRate: 1})
	rr, _, _ = serve(on, 1)
	tid, _, err := trace.ParseTraceparent(rr.Header().Get("traceparent"))
	if err != nil {
		t.Fatalf("sampling on: response traceparent: %v", err)
	}
	if d, ok := on.Store().Get(tid); !ok || d.Reason != "sampled" {
		t.Errorf("sampling on: advertised trace ok=%v data=%+v, want a stored sampled trace", ok, d)
	}
}

// TestMiddlewareAccessLogTraceID pins that every request-scoped access
// log line carries the trace_id attr.
func TestMiddlewareAccessLogTraceID(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	lg := NewLogger(&buf)
	m := NewHTTPMetrics(reg).WithTracer(trace.New(trace.Options{SampleRate: 1}))
	m.log = func() *slog.Logger { return lg }
	h := m.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))

	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/logged", nil))
	out := buf.String()
	if !strings.Contains(out, "msg=request") || !strings.Contains(out, "trace_id=") {
		t.Errorf("access log missing trace_id: %q", out)
	}
}

// TestStatusRecorderFlush pins that streaming handlers freeze the
// implicit 200: a WriteHeader after Flush cannot rewrite the recorded
// code.
func TestStatusRecorderFlush(t *testing.T) {
	reg := NewRegistry()
	h := NewHTTPMetrics(reg).WithTracer(nil).Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.(http.Flusher).Flush() // commits the implicit 200
		w.WriteHeader(http.StatusServiceUnavailable)
	}))

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/stream", nil))
	var got string
	for _, s := range reg.Snapshot("pdcu_http_requests_total") {
		if s.Labels["path"] == "/stream" {
			got = s.Labels["code"]
		}
	}
	if got != "200" {
		t.Errorf("flushed stream recorded code %q, want 200", got)
	}
}

// hijackableRecorder wraps the httptest recorder with a working Hijack.
type hijackableRecorder struct {
	*httptest.ResponseRecorder
	conn net.Conn
}

func (h *hijackableRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	return h.conn, bufio.NewReadWriter(bufio.NewReader(h.conn), bufio.NewWriter(h.conn)), nil
}

// TestStatusRecorderHijack pins both hijack paths: a plain writer
// reports a clear error, and a successful hijack freezes the recorded
// status at whatever was committed before the takeover.
func TestStatusRecorderHijack(t *testing.T) {
	// Non-hijackable underlying writer: error, not a panic.
	rec := &statusRecorder{ResponseWriter: httptest.NewRecorder(), code: http.StatusOK}
	if _, _, err := rec.Hijack(); err == nil {
		t.Error("Hijack on plain recorder should error")
	}

	// Hijackable: handler takes the connection, middleware still records.
	reg := NewRegistry()
	h := NewHTTPMetrics(reg).WithTracer(nil).Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusSwitchingProtocols)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack failed: %v", err)
			return
		}
		conn.Close()
	}))

	client, server := net.Pipe()
	defer client.Close()
	hr := &hijackableRecorder{ResponseRecorder: httptest.NewRecorder(), conn: server}
	h.ServeHTTP(hr, httptest.NewRequest("GET", "/ws", nil))

	var got string
	for _, s := range reg.Snapshot("pdcu_http_requests_total") {
		if s.Labels["path"] == "/ws" {
			got = s.Labels["code"]
		}
	}
	if got != "101" {
		t.Errorf("hijacked request recorded code %q, want 101", got)
	}
}
