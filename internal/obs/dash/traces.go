package dash

import (
	"encoding/json"
	"html/template"
	"net/http"
	"sort"
	"strings"
	"time"

	"pdcunplugged/internal/obs"
	"pdcunplugged/internal/obs/trace"
)

// traceSummary is the JSON shape of one trace in the list endpoint —
// everything but the spans, plus the hex ID the dashboard links by.
type traceSummary struct {
	ID       string    `json:"id"`
	Root     string    `json:"root"`
	Start    time.Time `json:"start"`
	Duration int64     `json:"duration_ns"`
	Err      bool      `json:"err"`
	Pinned   bool      `json:"pinned"`
	Reason   string    `json:"reason"`
	Spans    int       `json:"spans"`
}

// traceList serves /debug/obs/traces: every retained trace as JSON,
// pinned (error/slow) traces first, newest first within each group.
func (h *handler) traceList(w http.ResponseWriter, r *http.Request) {
	var out []traceSummary
	if t := h.cfg.Tracer; t != nil {
		for _, d := range t.Store().List() {
			out = append(out, traceSummary{
				ID:       d.ID.String(),
				Root:     d.Root,
				Start:    d.Start,
				Duration: int64(d.Duration),
				Err:      d.Err,
				Pinned:   d.Pinned,
				Reason:   d.Reason,
				Spans:    len(d.Spans),
			})
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if out == nil {
		out = []traceSummary{}
	}
	if err := enc.Encode(out); err != nil {
		obs.Logger().Warn("trace list encode failed", "err", err)
	}
}

// spanRow is one waterfall bar.
type spanRow struct {
	Indent   int // depth in the span tree
	Name     string
	Duration string
	Left     float64 // bar offset, percent of the trace duration
	Width    float64 // bar width, percent
	Err      string
	Attrs    string
}

type waterfallData struct {
	ID       string
	Root     string
	Start    string
	Duration string
	Reason   string
	Err      bool
	// Stitched counts the spans pulled in from peer nodes (?remote=1);
	// zero on a purely local view.
	Stitched int
	// Peers lists the nodes whose halves were merged or consulted.
	Peers string
	Spans []spanRow
}

// traceView serves /debug/obs/traces/<id>: an HTML waterfall by
// default, the trace's wire form with ?format=json. ?remote=1 federates
// the view — the handler asks every fleet peer for its half of the same
// trace ID and stitches the spans into one waterfall, which is how a
// follower's fetch cycle and the leader's snapshot serve render as one
// cross-node timeline.
func (h *handler) traceView(w http.ResponseWriter, r *http.Request) {
	idHex := strings.TrimPrefix(r.URL.Path, "/debug/obs/traces/")
	id, err := trace.ParseTraceID(idHex)
	if err != nil {
		http.Error(w, "bad trace ID: "+err.Error(), http.StatusBadRequest)
		return
	}
	t := h.cfg.Tracer
	if t == nil {
		http.Error(w, "tracing disabled", http.StatusNotFound)
		return
	}
	d, ok := t.Store().Get(id)
	if !ok {
		http.Error(w, "trace not retained (evicted or sampled out)", http.StatusNotFound)
		return
	}

	var stitched int
	var peersAsked []string
	if r.URL.Query().Get("remote") == "1" && h.cfg.Peers != nil {
		for _, p := range h.cfg.Peers() {
			if p.URL == "" {
				continue
			}
			peersAsked = append(peersAsked, p.Node)
			remote, ok, err := trace.FetchRemote(r.Context(), nil, p.URL, id)
			if err != nil {
				obs.Logger().Warn("remote trace fetch failed", "peer", p.Node, "err", err)
				continue
			}
			if !ok {
				continue
			}
			before := len(d.Spans)
			d = trace.Merge(d, remote)
			stitched += len(d.Spans) - before
		}
	}

	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d.Wire()); err != nil {
			obs.Logger().Warn("trace encode failed", "err", err)
		}
		return
	}

	wf := waterfall(d)
	wf.Stitched = stitched
	wf.Peers = strings.Join(peersAsked, ", ")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := waterfallTmpl.Execute(w, wf); err != nil {
		obs.Logger().Warn("waterfall render failed", "err", err)
	}
}

// waterfall lays spans out as horizontal bars on the trace's timeline,
// sorted by start time and indented by tree depth.
func waterfall(d Trace) waterfallData {
	out := waterfallData{
		ID:       d.ID.String(),
		Root:     d.Root,
		Start:    d.Start.Format("15:04:05.000000"),
		Duration: d.Duration.Round(time.Microsecond).String(),
		Reason:   d.Reason,
		Err:      d.Err,
	}
	depth := spanDepths(d.Spans)
	spans := append([]trace.SpanData(nil), d.Spans...)
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return depth[spans[i].ID] < depth[spans[j].ID]
	})
	total := float64(d.Duration)
	if total <= 0 {
		total = 1
	}
	for _, sp := range spans {
		left := float64(sp.Start.Sub(d.Start)) / total * 100
		width := float64(sp.Duration) / total * 100
		if width < 0.5 {
			width = 0.5 // keep instant spans visible
		}
		if left > 99.5 {
			left = 99.5
		}
		var attrs []string
		for _, a := range sp.Attrs {
			attrs = append(attrs, a.Key+"="+a.Value)
		}
		out.Spans = append(out.Spans, spanRow{
			Indent:   depth[sp.ID],
			Name:     sp.Name,
			Duration: sp.Duration.Round(time.Microsecond).String(),
			Left:     left,
			Width:    width,
			Err:      sp.Err,
			Attrs:    strings.Join(attrs, " "),
		})
	}
	return out
}

// Trace aliases the store's record type so waterfall stays testable
// without importing trace in the test file twice.
type Trace = trace.Data

// spanDepths computes each span's depth in the parent tree; spans whose
// parent is unknown (the root, or a remote parent) sit at depth zero.
func spanDepths(spans []trace.SpanData) map[trace.SpanID]int {
	parent := make(map[trace.SpanID]trace.SpanID, len(spans))
	local := make(map[trace.SpanID]bool, len(spans))
	for _, sp := range spans {
		parent[sp.ID] = sp.Parent
		local[sp.ID] = true
	}
	depth := make(map[trace.SpanID]int, len(spans))
	for _, sp := range spans {
		d, cur := 0, sp.ID
		for !parent[cur].IsZero() && local[parent[cur]] && d < len(spans) {
			d++
			cur = parent[cur]
		}
		depth[sp.ID] = d
	}
	return depth
}

var waterfallTmpl = template.Must(template.New("waterfall").Parse(`<!doctype html>
<html><head><meta charset="utf-8"><title>trace {{.ID}}</title>
<style>
body{font:13px/1.6 ui-monospace,Menlo,monospace;background:#11151a;color:#cdd6e0;margin:1.5em}
h1{font-size:1.1em}a{color:#6cb6ff;text-decoration:none}
.meta{color:#7d8b99;margin-bottom:1em}.bad{color:#ff7b72}
.row{display:flex;align-items:center;margin:2px 0}
.label{width:34%;overflow:hidden;text-overflow:ellipsis;white-space:nowrap}
.lane{position:relative;flex:1;height:14px;background:#1a2026;border-radius:2px}
.bar{position:absolute;top:2px;height:10px;background:#2f6feb;border-radius:2px;min-width:2px}
.bar.err{background:#da3633}
.dur{width:7em;text-align:right;color:#e3b341;padding-left:.8em}
.attrs{color:#7d8b99;padding-left:.6em;font-size:11px}
</style></head><body>
<h1>trace {{.ID}}</h1>
<p class="meta">{{.Root}} · started {{.Start}} · {{.Duration}} · kept: <span{{if .Err}} class="bad"{{end}}>{{.Reason}}</span>{{if .Stitched}} · stitched {{.Stitched}} remote span{{if ne .Stitched 1}}s{{end}} from {{.Peers}}{{else if .Peers}} · no remote half on {{.Peers}}{{end}} · <a href="/debug/obs">← dashboard</a> · <a href="?format=json">json</a> · <a href="?remote=1">stitch fleet</a></p>
{{range .Spans}}<div class="row">
<div class="label" style="padding-left:{{.Indent}}em">{{.Name}}{{if .Err}} <span class="bad">✗ {{.Err}}</span>{{end}}{{if .Attrs}}<span class="attrs">{{.Attrs}}</span>{{end}}</div>
<div class="lane"><div class="bar{{if .Err}} err{{end}}" style="left:{{printf "%.2f" .Left}}%;width:{{printf "%.2f" .Width}}%"></div></div>
<div class="dur">{{.Duration}}</div>
</div>
{{end}}
</body></html>
`))
