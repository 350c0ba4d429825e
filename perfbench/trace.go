package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
)

// spanHeader carries "<parent span>-<request id>" from the load generator to
// the handler wrappers, and from the router to its shards.
const spanHeader = "X-Bench-Span"

// span is one timed call into a layer, recorded from the benchmark's side.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no checks.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	tr  *tracer
	s   span
	set bool
}

func (t *tracer) begin(parent uint64, name string, req uint64) *openSpan {
	if t == nil {
		return &openSpan{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &openSpan{tr: t, set: true, s: span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.origin)),
	}}
}

// beginCtx starts a span under the span carried by ctx and returns the
// context carrying the new one.
func (t *tracer) beginCtx(ctx context.Context, name string) (context.Context, *openSpan) {
	if t == nil {
		return ctx, &openSpan{}
	}
	parent, req := spanFrom(ctx)
	sp := t.begin(parent, name, req)
	return withSpan(ctx, sp.s.ID, req), sp
}

func (o *openSpan) id() uint64 { return o.s.ID }

func (o *openSpan) end() {
	if !o.set {
		return
	}
	o.s.End = int64(time.Since(o.tr.origin))
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.s)
	o.tr.mu.Unlock()
}

// recorded returns a copy of every finished span.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.origin)) }

type spanKey struct{}

type spanRef struct{ id, req uint64 }

func withSpan(ctx context.Context, id, req uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, req})
}

func spanFrom(ctx context.Context) (id, req uint64) {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r.id, r.req
}

func formatSpanHeader(id, req uint64) string {
	return strconv.FormatUint(id, 10) + "-" + strconv.FormatUint(req, 10)
}

func parseSpanHeader(h string) (id, req uint64) {
	a, b, ok := strings.Cut(h, "-")
	if !ok {
		return 0, 0
	}
	id, _ = strconv.ParseUint(a, 10, 64)
	req, _ = strconv.ParseUint(b, 10, 64)
	return id, req
}

// selfTimes returns each span's duration minus the part of its interval
// that the union of its children covers (children may overlap each other
// when a layer fans out, and may spill past the parent when a reply races
// the parent's end; both are clipped).
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - time.Duration(unionWithin(kids[s.ID], s.Start, s.End))
	}
	return out
}

// unionWithin is the length of the union of the spans' intervals clipped to
// [lo, hi].
func unionWithin(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// layerOf maps a span name to the module it times: the name's prefix up to
// the first dot ("server.batch" → "server").
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// layerRow is one line of the per-workload layer table.
type layerRow struct {
	Layer string
	Spans int
	Total time.Duration
	Self  time.Duration
}

// layerTable sums span and self time per layer over spans that start inside
// [lo, hi], largest self time first.
func layerTable(spans []span, lo, hi int64) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		if s.Start < lo || s.Start > hi {
			continue
		}
		l := layerOf(s.Name)
		r := rows[l]
		if r == nil {
			r = &layerRow{Layer: l}
			rows[l] = r
		}
		r.Spans++
		r.Total += s.dur()
		r.Self += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// unattributed is the share of [lo, hi] that no root span covers, in
// percent. The generator records its idle waits as spans too, so this is
// time the benchmark cannot account for at all.
func unattributed(spans []span, lo, hi int64) float64 {
	if hi <= lo {
		return 0
	}
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	var roots []span
	for _, s := range spans {
		if s.Parent == 0 || !ids[s.Parent] {
			roots = append(roots, s)
		}
	}
	return 100 * float64(hi-lo-unionWithin(roots, lo, hi)) / float64(hi-lo)
}

// spanCost measures what recording one span costs, so the traced run can
// state its own overhead: spans recorded × cost per span, over wall time.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.begin(0, "calibrate", 0).end()
	}
	return time.Since(start) / n
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// assignCall is one batch the traced assigner saw.
type assignCall struct {
	dur                   time.Duration
	tasks, workers, pairs int
}

// tracedAssigner times every call into the assignment layer. It forwards
// Assign to Assign and AssignContext through assign.Do, so the wrapped
// assigner runs exactly the path it runs unwrapped.
type tracedAssigner struct {
	inner assign.Assigner
	tr    *tracer

	mu    sync.Mutex
	calls []assignCall
}

func (a *tracedAssigner) Name() string { return a.inner.Name() }

func (a *tracedAssigner) Assign(tasks []assign.Task, workers []assign.Worker, tick int) []assign.Pair {
	sp := a.tr.begin(0, "assign.batch", 0)
	start := time.Now()
	pairs := a.inner.Assign(tasks, workers, tick)
	a.note(time.Since(start), len(tasks), len(workers), len(pairs))
	sp.end()
	return pairs
}

func (a *tracedAssigner) AssignContext(ctx context.Context, tasks []assign.Task, workers []assign.Worker, tick int) []assign.Pair {
	ctx, sp := a.tr.beginCtx(ctx, "assign.batch")
	start := time.Now()
	pairs := assign.Do(ctx, a.inner, tasks, workers, tick)
	a.note(time.Since(start), len(tasks), len(workers), len(pairs))
	sp.end()
	return pairs
}

func (a *tracedAssigner) note(d time.Duration, tasks, workers, pairs int) {
	a.mu.Lock()
	a.calls = append(a.calls, assignCall{d, tasks, workers, pairs})
	a.mu.Unlock()
}

func (a *tracedAssigner) snapshot() []assignCall {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]assignCall(nil), a.calls...)
}

// route names the protocol operation of a request, as the load generator
// and the layer tables call it.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/api/tasks" && r.Method == http.MethodPost:
		return "submit"
	case strings.HasSuffix(p, "/location"):
		return "report"
	case strings.HasSuffix(p, "/offers") && r.Method == http.MethodGet:
		return "poll"
	case strings.HasPrefix(p, "/api/offers/") && (strings.HasSuffix(p, "/accept") || strings.HasSuffix(p, "/reject")):
		return "decide"
	case p == "/api/tick":
		return "tick"
	case p == "/api/batch":
		return "batch"
	case p == "/api/workers" && r.Method == http.MethodPost:
		return "register"
	case strings.HasPrefix(p, "/api/tasks/") && r.Method == http.MethodDelete:
		return "retract"
	}
	return "other"
}

// tracedHandler times every request a layer's handler serves, parented to
// the caller's span named in the request header, and hands the span down
// through the request context so the assigner wrapper nests under it.
type tracedHandler struct {
	next  http.Handler
	tr    *tracer
	layer string // "server" or "tier"
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, req := parseSpanHeader(r.Header.Get(spanHeader))
	sp := h.tr.begin(parent, h.layer+"."+route(r), req)
	h.next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp.id(), req)))
	sp.end()
}

// tracedTransport stamps the span carried by an outgoing request's context
// into its header, linking the router's calls to the shards' handler spans.
type tracedTransport struct{ next http.RoundTripper }

func (t tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, req := spanFrom(r.Context()); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, formatSpanHeader(id, req))
	}
	return t.next.RoundTrip(r)
}
