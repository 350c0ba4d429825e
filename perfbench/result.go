package main

import (
	"bufio"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"github.com/spatialcrowd/tamp/internal/obs"
)

// runOpts is one invocation of one workload.
type runOpts struct {
	workload string
	seed     int64
	seconds  int
	tr       *tracer // nil: the untraced run that measures end-to-end metrics
	workDir  string  // scratch for write-ahead logs, removed at exit
	exp      *expected
}

func (o runOpts) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

// setupReps is how many times a run sets its workload up; setup_s is the
// median. Set-up that trains models is repeated less, since training
// dominates it and is the same computation every time.
func (o runOpts) setupReps() int {
	if o.workload == "serve-paper" {
		return 2
	}
	return 3
}

// result is what one run measured and concluded.
type result struct {
	o         runOpts
	problems  []string
	attempted int
	failedN   int
	e2e       map[string]float64
	layer     map[string]float64
	lines     []string // human-readable metric lines, printed before the JSON

	generateS  float64
	start, end time.Time
}

func newResult(o runOpts) *result {
	return &result{o: o, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// setup runs the workload's set-up reps times, keeping the last one, and
// records the median time as setup_s. fn returns how to tear its set-up
// down.
func (r *result) setup(reps int, fn func() (func(), error)) error {
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		teardown, err := fn()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			teardown()
		}
	}
	r.e2e["setup_s"] = median(times)
	r.layer["dataset.generate_s"] = r.generateS
	return nil
}

// markStart opens the measured phase. Set-up garbage (generation, and the
// training runs of a repeated set-up) is collected first, so the phase does
// not pay for set-up's heap.
func (r *result) markStart() {
	runtime.GC()
	debug.FreeOSMemory()
	r.start = time.Now()
}

func (r *result) markEnd() { r.end = time.Now() }

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) human(name string, v float64, unit string) {
	r.lines = append(r.lines, fmt.Sprintf("%-22s %14.4f %s", name, v, unit))
}

// tickMetrics sets the tick latency median and p90. It is p90, not p99:
// serve-paper closes 240 ticks a run, where a p99 would rest on the dozen
// ticks that share a WAL snapshot or a neighbour's stall. Too few ticks for
// the tail rule fails the run.
func (r *result) tickMetrics(tickMS []float64) {
	p50, ok50 := percentile(tickMS, 50)
	p90, ok90 := percentile(tickMS, 90)
	if !ok50 || !ok90 {
		r.fail("only %d ticks: too few for a tail with %d samples beyond it", len(tickMS), tailMin)
	}
	r.layer["tick.p50_ms"] = p50.Value
	r.layer["tick.p90_ms"] = p90.Value
	r.layer["tick.samples"] = float64(len(tickMS))
	r.human("tick_p50_ms", p50.Value, "ms")
	r.human("tick_p90_ms", p90.Value, "ms")
	r.lines = append(r.lines, fmt.Sprintf("tick p90 sits at p%.1f of %d ticks", p90.At, p90.N))
}

func (r *result) setQuality(q quality) {
	r.layer["quality.completion_rate"] = q.CompletionRate
	r.layer["quality.rejection_rate"] = q.RejectionRate
	r.layer["quality.avg_cost_km"] = q.AvgCostKM
	r.human("completion_rate", q.CompletionRate, "ratio")
	r.human("rejection_rate", q.RejectionRate, "ratio")
	r.human("avg_cost_km", q.AvgCostKM, "km")
}

// checkQuality compares the run's outcome with the value stored for this
// seed, when one is stored; outcomes are exact, so any difference fails.
func (r *result) checkQuality(q quality) {
	want, ok := r.o.exp.quality(r.o.workload, r.o.seed)
	if ok && r.o.workload == "tier-fleet" && r.o.seconds != runSeconds {
		// tier-fleet's horizon follows the run length; outcomes are stored
		// for run_seconds only.
		ok = false
	}
	if !ok {
		r.lines = append(r.lines, fmt.Sprintf("no stored quality for seed %d: outcome checked for determinism only", r.o.seed))
		return
	}
	if !sameQuality(q, want) {
		r.fail("quality %+v differs from the stored %+v for seed %d", q, want, r.o.seed)
	}
}

func sameQuality(a, b quality) bool {
	const eps = 1e-9
	near := func(x, y float64) bool { return x-y < eps && y-x < eps }
	return near(a.CompletionRate, b.CompletionRate) && near(a.RejectionRate, b.RejectionRate) && near(a.AvgCostKM, b.AvgCostKM)
}

func (r *result) checkMR(mr float64) {
	if r.o.exp.PredMR != 0 && mr != r.o.exp.PredMR {
		r.fail("predictor matching rate %v differs from the stored %v", mr, r.o.exp.PredMR)
	}
	r.human("pred_mr", mr, "ratio")
}

// promSeries parses a registry's Prometheus exposition into series → value.
func promSeries(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(reg.Dump()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return out
}

func mergeSeries(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// phaseSum totals the recorded seconds of every span whose path ends in
// suffix ("assign.ppi/stage1" matches "sim/assign.ppi/stage1" too).
func phaseSum(series map[string]float64, suffix string) float64 {
	var s float64
	for k, v := range series {
		path, ok := strings.CutPrefix(k, obs.PhaseMetric+`_sum{phase="`)
		path = strings.TrimSuffix(path, `"}`)
		if ok && (path == suffix || strings.HasSuffix(path, "/"+suffix)) {
			s += v
		}
	}
	return s
}

// registryLayers fills the per-layer figures the program records itself:
// training and PPI phase spans, candidate edges, and the write-ahead log.
func (r *result) registryLayers(series map[string]float64) {
	for name, phase := range map[string]string{
		"predict.tasks_s":     "predict.tasks",
		"predict.meta_s":      "predict.meta",
		"meta.train_s":        "meta.train",
		"predict.adapt_s":     "predict.adapt",
		"predict.eval_s":      "predict.eval",
		"assign.ppi.index_s":  "assign.ppi/index",
		"assign.ppi.stage1_s": "assign.ppi/stage1",
		"assign.ppi.stage2_s": "assign.ppi/stage2",
		"assign.ppi.stage3_s": "assign.ppi/stage3",
	} {
		r.layer[name] = phaseSum(series, phase)
	}
	var edges float64
	for _, stage := range []string{"confident", "pending", "fallback"} {
		edges += series[`tamp_assign_edges_total{alg="PPI",stage="`+stage+`"}`]
	}
	r.layer["assign.edges"] = edges
	r.layer["wal.appends"] = series["tamp_wal_appends_total"]
	r.layer["wal.fsyncs"] = series["tamp_wal_fsync_seconds_count"]
	r.layer["wal.fsync_s"] = series["tamp_wal_fsync_seconds_sum"]
	if n := series["tamp_wal_fsync_seconds_count"]; n > 0 {
		r.layer["wal.fsync_mean_ms"] = 1000 * series["tamp_wal_fsync_seconds_sum"] / n
	}
	r.layer["wal.snapshot_bytes"] = series["tamp_wal_snapshot_bytes"]
}

// assignLayers summarises the traced assigner's calls. accepted/offered is
// the share of the assignment layer's output workers took up.
func (r *result) assignLayers(calls []assignCall, accepted, offered int) {
	var busy time.Duration
	var durMS, tasks, workers []float64
	var pairs int
	for _, c := range calls {
		busy += c.dur
		durMS = append(durMS, ms(c.dur))
		tasks = append(tasks, float64(c.tasks))
		workers = append(workers, float64(c.workers))
		pairs += c.pairs
	}
	r.layer["assign.calls"] = float64(len(calls))
	r.layer["assign.busy_s"] = busy.Seconds()
	r.layer["assign.p99_ms"] = pctValue(durMS, 99)
	r.layer["assign.tasks_mean"] = mean(tasks)
	r.layer["assign.workers_mean"] = mean(workers)
	r.layer["assign.pairs"] = float64(pairs)
	r.layer["assign.accept_ratio"] = ratio(int64(accepted), int64(offered))
}
