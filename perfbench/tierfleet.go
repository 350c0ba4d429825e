package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/server"
	"github.com/spatialcrowd/tamp/internal/tier"
	"github.com/spatialcrowd/tamp/internal/traj"
)

// The tier-fleet shape: a fleet-scale city behind the sharded tier.
const (
	fleetWorkers  = 3000
	fleetPerTick  = 200  // tasks arriving per tick, on average
	fleetShards   = 3    // vertical stripes of the grid
	fleetBorderKM = 1    // a task this close to a stripe cut is offered on both sides
	fleetOpsTick  = 1150 // ops per steady-state tick, sizes the steps
	fleetWarm     = 12   // ticks replayed before the measured phase
)

// fleetProto keeps serve-paper's op mix — each worker polls twice per
// report — at three times its periods: every 6th tick a worker polls, every
// 12th it reports, staggered. A poll period of 6 is well inside an offer's
// life (the 15 ticks of the shortest validity), so a poll sees most offers
// before they expire, and a worker holding one is out of the batch for
// about 4 ticks. At serve-paper's own periods 3,000 workers make ~2,700 ops
// a tick, and a run could replay only ~15 ticks below the tier's capacity.
// A tick carries ~200 submissions, ~250 reports, ~500 polls and the
// decisions on the previous tick's offers.
var fleetProto = protocol{reportEvery: 12, pollEvery: 6}

// fleetRates are the fixed op rates (requests per second) the run steps
// through, lowest first; each holds for a third of the run. The top step
// stays below the tier's capacity on the 2-vCPU machine the benchmark was
// sized on (about 1,800/s in a quiet hour, less when the shared disk is
// busy), so no step builds a backlog that would swamp the latency figures.
var fleetRates = []float64{600, 900, 1200}

// fleetSteps returns how many ticks each rate step replays at the given run
// length: a third of the run each, at fleetOpsTick ops per tick.
func fleetSteps(seconds int) []int {
	out := make([]int, len(fleetRates))
	for i, r := range fleetRates {
		out[i] = max(4, int(math.Round(float64(seconds)/float64(len(fleetRates))*r/fleetOpsTick)))
	}
	return out
}

// fleetWorkload is the fleet-scale city. The city and its 3,000 workers are
// fixed (fleetSeed), like the paper fleet of the other workloads: a city
// drawn from the seed moves the hotspots against the workers' districts,
// and with them the candidate pairs each batch weighs, which moved the
// median tick by a third between seeds. The seed draws the task stream.
func fleetWorkload(seed int64) *dataset.Workload {
	p := dataset.Defaults(dataset.Workload1)
	p.Seed = fleetSeed
	p.NumWorkers, p.NewWorkers = fleetWorkers, 0
	p.TrainDays = 1 // no predictors are trained; the train horizon is unused
	p.NumTestTasks = 0
	w := dataset.Generate(p)
	w.TestTasks = fleetTasks(w, seed, fleetPerTick*p.TestDays*p.TicksPerDay)
	return w
}

// fleetTasks draws n tasks over the test horizon the way dataset.Generate
// draws its test tasks: uniform arrival tick, validity ValidMin..ValidMax
// units, and a location near one of the city's hotspots (80%) or anywhere
// in the city (20%).
func fleetTasks(w *dataset.Workload, seed int64, n int) []assign.Task {
	p := w.Params
	rng := rand.New(rand.NewSource(seed))
	bounds := p.Grid.Bounds()
	horizon := p.TestDays * p.TicksPerDay
	tasks := make([]assign.Task, n)
	for i := range tasks {
		arrival := rng.Intn(horizon)
		valid := (p.ValidMin + rng.Intn(p.ValidMax-p.ValidMin+1)) * traj.TicksPerTimeUnit
		loc := geo.Pt(bounds.Min.X+rng.Float64()*bounds.Width(), bounds.Min.Y+rng.Float64()*bounds.Height())
		if rng.Float64() < 0.8 {
			h := w.Hotspots[rng.Intn(len(w.Hotspots))]
			loc = bounds.Clamp(h.Add(geo.Pt(rng.NormFloat64()*3, rng.NormFloat64()*3)))
		}
		tasks[i] = assign.Task{ID: i, Loc: loc, Arrival: arrival, Deadline: arrival + valid}
	}
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Arrival < tasks[j].Arrival })
	return tasks
}

// fleet is the tier under test: three durable shards and a router, each
// on its own loopback listener.
type fleet struct {
	shards []*shard
	router *tier.Router
	reg    *obs.Registry
	front  *http.Server
	ln     net.Listener
}

func startFleet(ctx context.Context, dir string, tr *tracer) (*fleet, error) {
	f := &fleet{reg: obs.NewRegistry()}
	defs := stripeDefs()
	for i := range defs {
		sh, err := startShard(server.Config{
			WALDir:    filepath.Join(dir, defs[i].Name),
			OfferBase: tier.OfferBase(i),
		}, tr)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shards = append(f.shards, sh)
		defs[i].URL = sh.url()
	}
	m, err := tier.NewMap(tier.MapConfig{Grid: geo.DefaultGrid, BorderKM: fleetBorderKM, Shards: defs})
	if err != nil {
		f.stop()
		return nil, err
	}
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: slots}
	if tr != nil {
		rt = tracedTransport{next: rt}
	}
	if f.router, err = tier.NewRouter(tier.Config{Map: m, Registry: f.reg, HTTPClient: &http.Client{Transport: rt}}); err != nil {
		f.stop()
		return nil, err
	}
	f.router.ProbeOnce(ctx)
	if f.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		f.stop()
		return nil, err
	}
	var h http.Handler = f.router
	if tr != nil {
		h = tracedHandler{next: f.router, tr: tr, layer: "tier"}
	}
	f.front = &http.Server{Handler: h}
	go f.front.Serve(f.ln)
	return f, nil
}

func (f *fleet) url() string { return "http://" + f.ln.Addr().String() }

// stopFront drains the router's listener; the shards keep running.
func (f *fleet) stopFront() error {
	if f.front == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.front.Shutdown(ctx)
	f.front = nil
	return err
}

func (f *fleet) stop() error {
	err := f.stopFront()
	for _, sh := range f.shards {
		err = errors.Join(err, sh.stop())
	}
	return err
}

func runTierFleet(ctx context.Context, o runOpts) (*result, error) {
	res := newResult(o)
	dir := filepath.Join(o.workDir, "tier-fleet")
	loop := &openLoop{clk: wallClock{}, slots: slots, tr: o.tr}
	var (
		w  *dataset.Workload
		f  *fleet
		rp *replay
	)
	err := res.setup(o.setupReps(), func() (func(), error) {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		sp := o.tr.begin(0, "dataset.generate", 0)
		t0 := time.Now()
		w = fleetWorkload(o.seed)
		res.generateS = time.Since(t0).Seconds()
		sp.end()
		var err error
		if f, err = startFleet(ctx, dir, o.tr); err != nil {
			return nil, err
		}
		return func() { f.stop() }, nil
	})
	if err != nil {
		return nil, err
	}
	// Signing the workers up is traffic, not set-up: it is not timed. Its
	// 3,000 fsynced writes made set-up swing threefold with the shared disk.
	rp = newReplay(w, fleetProto, newClient(f.url(), slots, o.tr, nil), loop)
	if err := rp.register(ctx); err != nil {
		f.stop()
		return nil, err
	}

	// Warm-up: every worker reports once and open tasks build up, so the
	// measured ticks start from a steady state instead of a ramp. Its ops
	// go out as fast as the slots allow and are not measured, but they must
	// all succeed.
	warm := newReqLog()
	rp.cl, rp.loop = newClient(f.url(), slots, o.tr, warm), &openLoop{clk: wallClock{}, slots: slots}
	for t := 0; t < fleetWarm; t++ {
		if err := rp.tick(ctx, t, time.Now(), 0); err != nil {
			f.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	rp.cl.close()
	if warm.failed() > 0 || warm.unexpected > 0 {
		f.stop()
		return nil, fmt.Errorf("warm-up: %d failed and %d unexpected responses, first: %s", warm.failed(), warm.unexpected, warm.firstErr)
	}
	rp.loop, rp.tickLatMS, rp.tickEnd = loop, nil, nil

	total := newReqLog()
	steps := fleetSteps(o.seconds)
	type stepOut struct {
		reqs     *reqLog
		lateEndS float64 // how late the step's last tick closed
		interval time.Duration
	}
	var outs []stepOut
	res.markStart()
	cpu0 := cpuTime()
	next := res.start
	t := fleetWarm
	for si, n := range steps {
		so := stepOut{reqs: newReqLog()}
		rp.cl = newClient(f.url(), slots, o.tr, so.reqs)
		for i := 0; i < n; i++ {
			rp.mu.Lock()
			ops := rp.opsAt(t) + len(rp.polledNow) + 2
			rp.mu.Unlock()
			so.interval = time.Duration(float64(ops) / fleetRates[si] * float64(time.Second))
			if err := rp.tick(ctx, t, next, so.interval); err != nil {
				f.stop()
				return nil, err
			}
			next = next.Add(so.interval)
			t++
		}
		so.lateEndS = rp.tickEnd[len(rp.tickEnd)-1].Sub(next).Seconds()
		rp.cl.close()
		outs = append(outs, so)
		total.merge(so.reqs)
	}
	cpu := cpuTime() - cpu0
	res.markEnd()
	if err := f.stopFront(); err != nil {
		return nil, err
	}

	series := promSeries(f.reg)
	var states []*core.State
	var logs []*logReplay
	for i, sh := range f.shards {
		mergeSeries(series, promSeries(sh.reg))
		lr, err := checkShard(res, sh, "shard"+strconv.Itoa(i))
		if err != nil {
			return nil, err
		}
		states = append(states, lr.st)
		logs = append(logs, lr)
	}
	checkServed(res, rp, total, states, int(series["tamp_router_sheds_total"]))
	q := rp.quality()
	res.checkQuality(q)

	res.tickMetrics(rp.tickLatMS)
	res.e2e["cpu_ms_per_tick"] = ms(cpu) / float64(t-fleetWarm)
	res.setQuality(q)
	res.generatorLayers(total, loop)
	maxOps := 0.0
	for si, so := range outs {
		p99 := pctValue(so.reqs.samples("submit", "report", "poll", "decide"), 99)
		keptUp := so.lateEndS <= so.interval.Seconds()
		pass := p99 <= o.exp.ReqP99LimitMS && keptUp && so.reqs.failed() == 0
		if pass {
			maxOps = fleetRates[si]
		}
		res.lines = append(res.lines, fmt.Sprintf("step %4.0f ops/s: %3d ticks, req p99 %8.3f ms, closed %+.3f s vs schedule, pass %v",
			fleetRates[si], steps[si], p99, so.lateEndS, pass))
	}
	res.layer["tier.max_ops_per_s"] = maxOps
	res.human("max_ops_per_s", maxOps, "1/s")
	res.layer["tier.retries"] = series["tamp_router_retries_total"]
	res.layer["tier.sheds"] = series["tamp_router_sheds_total"]
	res.layer["tier.failovers"] = series["tamp_router_failovers_total"]
	border := series["tamp_router_border_tasks_total"]
	res.layer["tier.border_tasks"] = border
	if border > 0 {
		res.layer["tier.border_waste_ratio"] = 1 - float64(ghostWins(rp))/border
	}
	if o.tr == nil {
		return res, nil
	}
	res.registryLayers(series)
	res.assignLayers(fleetAssignCalls(f), rp.accepted, rp.accepted+rp.rejected+rp.stale)
	res.spanLayers(o.tr.recorded())
	res.coreLayers(logs)
	return res, nil
}

func fleetAssignCalls(f *fleet) []assignCall {
	var calls []assignCall
	for _, sh := range f.shards {
		calls = append(calls, sh.asg.snapshot()...)
	}
	return calls
}

// ghostWins counts accepted border tasks whose winning offer came from the
// neighbour's copy rather than the home shard's: the duplicates that did
// useful work.
func ghostWins(rp *replay) int {
	m, err := tier.NewMap(tier.MapConfig{Grid: geo.DefaultGrid, BorderKM: fleetBorderKM, Shards: stripeDefs()})
	if err != nil {
		return 0
	}
	n := 0
	for _, p := range rp.won {
		if tier.ShardOfOffer(p.offer.OfferID, fleetShards) != m.Home(geo.Pt(p.offer.X, p.offer.Y)) {
			n++
		}
	}
	return n
}

// stripeDefs is the fleet's stripe geometry without URLs, for offline
// routing questions.
func stripeDefs() []tier.ShardDef {
	width := float64(geo.DefaultGrid.Cols)
	var defs []tier.ShardDef
	for i := 0; i < fleetShards; i++ {
		defs = append(defs, tier.ShardDef{
			Name: "shard" + strconv.Itoa(i), URL: "-",
			XMin: width * float64(i) / fleetShards, XMax: width * float64(i+1) / fleetShards,
		})
	}
	return defs
}
