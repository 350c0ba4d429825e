package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the open loop's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(ctx context.Context, t time.Time) error
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-tm.C:
		return nil
	}
}

// timedOp is one scheduled unit of client work: a request, or a short
// sequence that must run in order (the decisions on one border task).
type timedOp struct {
	due time.Time
	do  func(ctx context.Context, due time.Time)
}

// openLoop sends ops when they are due, whether or not earlier ones have
// finished, with at most slots in flight (a client process with one
// connection per core). An op that finds every slot busy starts late; that
// lateness and the number of due-but-unsent ops are what the generator
// reports about itself.
type openLoop struct {
	clk   clock
	slots int
	tr    *tracer

	mu         sync.Mutex
	lagMS      []float64 // start − due, per op
	backlogMax int       // most ops due but not yet sent, seen at any send
}

// run dispatches ops, which must be sorted by due time, and returns once all
// of them have finished.
func (l *openLoop) run(ctx context.Context, ops []timedOp) error {
	sem := make(chan struct{}, l.slots)
	var wg sync.WaitGroup
	defer wg.Wait()
	for i, op := range ops {
		if err := l.waitUntil(ctx, op.due); err != nil {
			return err
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		l.account(ops[i:], l.clk.Now())
		wg.Add(1)
		go func(op timedOp) {
			defer wg.Done()
			defer func() { <-sem }()
			op.do(ctx, op.due)
		}(op)
	}
	return nil
}

// waitUntil sleeps until t, recording the idle time as a generator span so
// the traced run can tell waiting from unattributed time.
func (l *openLoop) waitUntil(ctx context.Context, t time.Time) error {
	if !t.After(l.clk.Now()) {
		return ctx.Err()
	}
	sp := l.tr.begin(0, "gen.wait", 0)
	err := l.clk.SleepUntil(ctx, t)
	sp.end()
	return err
}

// account records the lateness of pending[0], sent at start, and the
// backlog: every op of pending already due by start, itself included.
func (l *openLoop) account(pending []timedOp, start time.Time) {
	late := start.Sub(pending[0].due)
	if late < 0 {
		late = 0
	}
	backlog := sort.Search(len(pending), func(j int) bool { return pending[j].due.After(start) })
	l.mu.Lock()
	l.lagMS = append(l.lagMS, ms(late))
	if backlog > l.backlogMax {
		l.backlogMax = backlog
	}
	l.mu.Unlock()
}

// spread gives n ops evenly spaced due times over the first 80% of the
// interval [start, start+interval), leaving the rest for the ops to finish
// before the tick's boundary is due.
func spread(start time.Time, interval time.Duration, n int) []time.Time {
	out := make([]time.Time, n)
	step := interval * 4 / 5 / time.Duration(max(n, 1))
	for i := range out {
		out[i] = start.Add(time.Duration(i) * step)
	}
	return out
}

// reqLog accumulates client-observed outcomes of the measured requests.
type reqLog struct {
	mu         sync.Mutex
	lat        map[string][]float64 // op → ms from due to response
	svc        map[string][]float64 // op → ms from send to response
	attempted  int
	sheds      int // 503: load deliberately refused
	errs       int // transport failures and other 5xx
	unexpected int // statuses the protocol does not allow at that point
	firstErr   string
}

func newReqLog() *reqLog {
	return &reqLog{lat: map[string][]float64{}, svc: map[string][]float64{}}
}

func (r *reqLog) note(op string, latMS, svcMS float64, status int, err error, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.lat[op] = append(r.lat[op], latMS)
	r.svc[op] = append(r.svc[op], svcMS)
	switch {
	case err != nil:
		r.errs++
		r.remember(fmt.Sprintf("%s: %v", op, err))
	case status == http.StatusServiceUnavailable:
		r.sheds++
	case status >= 500:
		r.errs++
		r.remember(fmt.Sprintf("%s: status %d", op, status))
	case !ok:
		r.unexpected++
		r.remember(fmt.Sprintf("%s: unexpected status %d", op, status))
	}
}

// merge adds src's outcomes into r.
func (r *reqLog) merge(src *reqLog) {
	src.mu.Lock()
	defer src.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for op, v := range src.lat {
		r.lat[op] = append(r.lat[op], v...)
	}
	for op, v := range src.svc {
		r.svc[op] = append(r.svc[op], v...)
	}
	r.attempted += src.attempted
	r.sheds += src.sheds
	r.errs += src.errs
	r.unexpected += src.unexpected
	if r.firstErr == "" {
		r.firstErr = src.firstErr
	}
}

func (r *reqLog) remember(s string) {
	if r.firstErr == "" {
		r.firstErr = s
	}
}

// failed counts requests that were not served: transport errors, 5xx and
// sheds. Each misses every latency limit.
func (r *reqLog) failed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errs + r.sheds
}

// samples returns the latencies from due time of the given ops.
func (r *reqLog) samples(ops ...string) []float64 { return r.collect(r.lat, ops) }

// service returns the latencies from send time of the given ops: what the
// platform took, without the time a request waited for a free slot.
func (r *reqLog) service(ops ...string) []float64 { return r.collect(r.svc, ops) }

func (r *reqLog) collect(by map[string][]float64, ops []string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, op := range ops {
		out = append(out, by[op]...)
	}
	return out
}

// client speaks the platform's JSON API to one base URL.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
	log  *reqLog // nil: set-up traffic, not measured
	req  atomic.Uint64
}

func newClient(base string, slots int, tr *tracer, log *reqLog) *client {
	return &client{
		base: base, tr: tr, log: log,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: slots,
				MaxConnsPerHost:     slots,
			},
		},
	}
}

// call sends one request and decodes a 2xx JSON reply into out. due is when
// the open loop meant to send it: latency runs from there, so a stall that
// delays later requests counts against them. The time from send to reply
// is kept beside it. okStatus lists the statuses the protocol allows;
// anything else is logged as unexpected.
func (c *client) call(ctx context.Context, op string, due time.Time, method, path string, in, out any, okStatus ...int) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", op, err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", op, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id := c.req.Add(1)
	sp := c.tr.begin(0, "http."+op, id)
	if c.tr != nil {
		req.Header.Set(spanHeader, formatSpanHeader(sp.id(), id))
	}
	sent := time.Now()
	status, err := c.do(req, out)
	sp.end()
	if c.log != nil && ctx.Err() == nil {
		ok := false
		for _, s := range okStatus {
			ok = ok || s == status
		}
		c.log.note(op, ms(time.Since(due)), ms(time.Since(sent)), status, err, ok)
	}
	return status, err
}

func (c *client) do(req *http.Request, out any) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s: %w", req.URL.Path, err)
		}
	}
	return resp.StatusCode, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }
