package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/platform"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/server"
)

func TestPercentileTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	p50, ok := percentile(xs, 50)
	if !ok || p50.Value != 50 || p50.N != 100 {
		t.Fatalf("p50 = %+v, %v; want 50 of 100 samples", p50, ok)
	}
	// The nearest-rank p99 of 100 samples has one sample beyond it; the
	// rule lowers it to the highest rank with 10 beyond: the 90th value.
	p99, ok := percentile(xs, 99)
	if !ok || p99.Value != 90 || p99.At != 90 || p99.N != 100 {
		t.Fatalf("p99 = %+v, %v; want value 90 at p90 of 100", p99, ok)
	}
	big := make([]float64, 2000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if p, _ := percentile(big, 99); p.Value != 1980 || p.At != 99 {
		t.Fatalf("p99 of 2000 = %+v; want the untouched nearest rank 1980", p)
	}
	if _, ok := percentile(xs[:10], 50); ok {
		t.Fatal("10 samples cannot leave 10 beyond any rank")
	}
	if p, ok := percentile(xs[:11], 99); !ok || p.Value != 1 {
		t.Fatalf("11 samples: p99 = %+v, %v; want the lowest value", p, ok)
	}
	if xs[0] != 1 || xs[99] != 100 {
		t.Fatal("percentile reordered its input")
	}
}

// fakeClock only moves when told to; SleepUntil jumps straight to the
// deadline. advanceTo never moves it backwards.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(_ context.Context, t time.Time) error {
	c.advanceTo(t)
	return nil
}

func (c *fakeClock) advanceTo(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopLatenessAndBacklog(t *testing.T) {
	t0 := time.Unix(0, 0)
	ctx := context.Background()

	// A burst of four ops all due at t0, each taking 5 ms, one slot: each
	// waits for the one before it, and at the first send all four are due.
	clk := &fakeClock{now: t0}
	loop := &openLoop{clk: clk, slots: 1}
	var ops []timedOp
	for i := 0; i < 4; i++ {
		ops = append(ops, timedOp{due: t0, do: func(context.Context, time.Time) {
			clk.advanceTo(clk.Now().Add(5 * time.Millisecond))
		}})
	}
	if err := loop.run(ctx, ops); err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 5, 10, 15}; !equalFloats(loop.lagMS, want) {
		t.Fatalf("burst lateness %v, want %v", loop.lagMS, want)
	}
	if loop.backlogMax != 4 {
		t.Fatalf("burst backlog %d, want 4", loop.backlogMax)
	}

	// The generator itself starts 15 ms late: ops due at 0 and 10 ms go out
	// late and together; the op due at 20 ms is waited for and goes on time.
	clk = &fakeClock{now: t0.Add(15 * time.Millisecond)}
	loop = &openLoop{clk: clk, slots: 1}
	ops = nil
	for _, d := range []time.Duration{0, 10, 20} {
		ops = append(ops, timedOp{due: t0.Add(d * time.Millisecond), do: func(context.Context, time.Time) {}})
	}
	if err := loop.run(ctx, ops); err != nil {
		t.Fatal(err)
	}
	if want := []float64{15, 5, 0}; !equalFloats(loop.lagMS, want) {
		t.Fatalf("late-start lateness %v, want %v", loop.lagMS, want)
	}
	if loop.backlogMax != 2 {
		t.Fatalf("late-start backlog %d, want 2", loop.backlogMax)
	}
	if clk.Now() != t0.Add(20*time.Millisecond) {
		t.Fatalf("clock at %v, want the last due time", clk.Now().Sub(t0))
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "server.batch", Start: 0, End: 100 * ms},
		// Two children overlapping on [20, 30), one spilling past the
		// parent's end: the union inside the parent is [10, 40) ∪ [90, 100).
		{ID: 2, Parent: 1, Name: "assign.batch", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "assign.batch", Start: 20 * ms, End: 40 * ms},
		{ID: 4, Parent: 1, Name: "assign.batch", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Name: "gen.wait", Start: 150 * ms, End: 200 * ms},
	}
	self := selfTimes(spans)
	if got := self[1]; got != 60*time.Millisecond {
		t.Fatalf("parent self time %v, want 60ms", got)
	}
	if got := self[4]; got != 30*time.Millisecond {
		t.Fatalf("leaf self time %v, want its duration", got)
	}
	// Leaves keep all their time: the assigner's 70ms outranks the server.
	rows := layerTable(spans, 0, 200*ms)
	if rows[0].Layer != "assign" || rows[0].Self != 70*time.Millisecond || rows[0].Total != 70*time.Millisecond {
		t.Fatalf("top layer %+v, want assign with 70ms self", rows[0])
	}
	if rows[1].Layer != "server" || rows[1].Self != 60*time.Millisecond || rows[1].Total != 100*time.Millisecond {
		t.Fatalf("second layer %+v, want server with 60ms of 100ms self", rows[1])
	}
	// Roots cover [0, 100) and [150, 200) of [0, 200).
	if got := unattributed(spans, 0, 200*ms); got != 25 {
		t.Fatalf("unattributed %.2f%%, want 25%%", got)
	}
}

// smallWorkload is a fleet small enough for unit tests; no predictors.
func smallWorkload() *dataset.Workload {
	p := dataset.Defaults(dataset.Workload1)
	p.NumWorkers, p.NewWorkers = 12, 0
	p.TrainDays, p.TestDays = 1, 1
	p.NumTestTasks = 300
	return dataset.Generate(p)
}

func TestWrappersChangeNothingInSimulation(t *testing.T) {
	w := smallWorkload()
	run := func(a assign.Assigner) (platform.Metrics, [][]byte) {
		var log [][]byte
		r := platform.Run{Workload: w, Assigner: a, EventSink: func(ev core.Event) error {
			b, err := core.EncodeEvent(ev)
			log = append(log, b)
			return err
		}}
		m, err := r.Simulate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return m, log
	}
	plain := assign.PPI{A: predict.DefaultMatchRadius}
	traced := &tracedAssigner{inner: plain, tr: newTracer()}
	m1, log1 := run(plain)
	m2, log2 := run(traced)
	m1.AssignTime, m2.AssignTime = 0, 0
	if m1 != m2 {
		t.Fatalf("metrics differ with the wrapper: %+v vs %+v", m1, m2)
	}
	if len(log1) != len(log2) {
		t.Fatalf("event logs differ in length: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if !bytes.Equal(log1[i], log2[i]) {
			t.Fatalf("event %d differs: %s vs %s", i, log1[i], log2[i])
		}
	}
	if len(traced.snapshot()) == 0 || len(traced.tr.recorded()) == 0 {
		t.Fatal("the wrapper recorded nothing")
	}
}

func TestWrappersChangeNothingInServing(t *testing.T) {
	w := smallWorkload()
	serve := func(tr *tracer) (string, quality) {
		sh, err := startShard(server.Config{WALDir: filepath.Join(t.TempDir(), "wal")}, tr)
		if err != nil {
			t.Fatal(err)
		}
		loop := &openLoop{clk: wallClock{}, slots: slots, tr: tr}
		rp := newReplay(w, protocol{reportEvery: 2, pollEvery: 2}, newClient(sh.url(), slots, tr, nil), loop)
		ctx := context.Background()
		if err := rp.register(ctx); err != nil {
			t.Fatal(err)
		}
		reqs := newReqLog()
		rp.cl = newClient(sh.url(), slots, tr, reqs)
		start := time.Now()
		for tick := 0; tick < 40; tick++ {
			if err := rp.tick(ctx, tick, start, 0); err != nil {
				t.Fatal(err)
			}
		}
		if reqs.errs+reqs.unexpected+reqs.sheds > 0 {
			t.Fatalf("requests failed: %s", reqs.firstErr)
		}
		digest := sh.srv.StateDigest()
		if err := sh.stop(); err != nil {
			t.Fatal(err)
		}
		lr, err := replayLog(sh.walDir)
		if err != nil {
			t.Fatal(err)
		}
		if lr.st.Digest() != digest {
			t.Fatal("replayed log does not rebuild the live state")
		}
		if tr != nil && (len(sh.asg.snapshot()) == 0 || len(tr.recorded()) == 0) {
			t.Fatal("the wrappers recorded nothing")
		}
		return digest, rp.quality()
	}
	d1, q1 := serve(nil)
	d2, q2 := serve(newTracer())
	if d1 != d2 || q1 != q2 {
		t.Fatalf("serving differs with the wrappers: %s %+v vs %s %+v", d1[:12], q1, d2[:12], q2)
	}
	if q1.CompletionRate == 0 {
		t.Fatal("nothing was completed; the test exercises no decisions")
	}
}

// A 503 passes the checks only as a shed the router counted: without a
// router, or beyond the router's count, it is the server refusing work.
func TestUncountedShedsFail(t *testing.T) {
	rp := newReplay(smallWorkload(), protocol{reportEvery: 2, pollEvery: 2}, nil, nil)
	reqs := newReqLog()
	reqs.note("submit", 1, 1, http.StatusServiceUnavailable, nil, false)
	for _, tc := range []struct {
		routerSheds int
		pass        bool
	}{{0, false}, {1, true}, {2, false}} {
		res := newResult(runOpts{})
		checkServed(res, rp, reqs, []*core.State{core.NewState()}, tc.routerSheds)
		if pass := len(res.problems) == 0; pass != tc.pass {
			t.Errorf("router counted %d sheds: pass = %v, want %v (%v)", tc.routerSheds, pass, tc.pass, res.problems)
		}
		if res.failedN != 1 {
			t.Errorf("failed = %d, want the shed counted as 1", res.failedN)
		}
	}
}

// The fleet's city and workers are the same for every seed; the seed draws
// only the task stream, ordered by arrival.
func TestFleetWorkloadFixesTheCity(t *testing.T) {
	a, b := fleetWorkload(1), fleetWorkload(2)
	if len(a.Workers) != fleetWorkers || len(a.TestTasks) != len(b.TestTasks) {
		t.Fatalf("fleet sizes: %d workers, %d and %d tasks", len(a.Workers), len(a.TestTasks), len(b.TestTasks))
	}
	if a.Hotspots[0] != b.Hotspots[0] || a.Workers[7].TestDays[0].At(3) != b.Workers[7].TestDays[0].At(3) {
		t.Fatal("the city or the workers changed with the seed")
	}
	if a.TestTasks[0].Loc == b.TestTasks[0].Loc && a.TestTasks[100].Loc == b.TestTasks[100].Loc {
		t.Fatal("the task stream did not change with the seed")
	}
	again := fleetWorkload(1)
	for i, task := range a.TestTasks {
		got := again.TestTasks[i]
		if got.ID != task.ID || got.Loc != task.Loc || got.Arrival != task.Arrival || got.Deadline != task.Deadline {
			t.Fatalf("task %d differs between two draws of seed 1", i)
		}
		if i > 0 && task.Arrival < a.TestTasks[i-1].Arrival {
			t.Fatalf("task %d arrives before its predecessor", i)
		}
	}
}

func TestRouteNames(t *testing.T) {
	for _, c := range []struct{ method, path, want string }{
		{http.MethodPost, "/api/tasks", "submit"},
		{http.MethodPost, "/api/workers/7/location", "report"},
		{http.MethodGet, "/api/workers/7/offers", "poll"},
		{http.MethodPost, "/api/offers/9/accept", "decide"},
		{http.MethodPost, "/api/offers/9/reject", "decide"},
		{http.MethodPost, "/api/tick", "tick"},
		{http.MethodPost, "/api/batch", "batch"},
		{http.MethodGet, "/api/offers/9", "other"},
	} {
		r, _ := http.NewRequest(c.method, c.path, nil)
		if got := route(r); got != c.want {
			t.Errorf("%s %s → %q, want %q", c.method, c.path, got, c.want)
		}
	}
}

func TestBenchmarkJSONRoundTrips(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	again, err := specJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, again) {
		t.Fatal("BENCHMARK.json does not survive decode + encode unchanged")
	}
	want, err := specJSON(spec())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with --write-spec BENCHMARK.json")
	}
}

func TestSpecWithinLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", n, better)
		}
	}
	s := spec()
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 || s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Fatalf("workloads %d, run_seconds %d", len(s.Workloads), s.RunSeconds)
	}
	for _, w := range s.Workloads {
		check(w.Name, "count", "lower")
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	var setupBound float64
	for _, m := range s.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s: bound %v above setup_s's %v", m.Name, m.Bound, setupBound)
		}
	}
	for _, m := range s.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if len(s.EndToEnd) > 16 || len(s.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics", len(s.EndToEnd), len(s.PerLayer))
	}
}

func TestExpectedLoads(t *testing.T) {
	e, err := loadExpected(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	if e.HeldOutSeed == 0 {
		t.Fatal("no held-out seed")
	}
	if _, ok := e.quality("train-sim", e.HeldOutSeed); !ok {
		t.Fatal("no stored outcome for the held-out seed")
	}
}
