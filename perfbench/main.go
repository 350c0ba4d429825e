// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload — train-sim, serve-paper or tier-fleet — through the public
// functions of the platform's modules, checks the outputs, and prints every
// metric by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload serve-paper --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that times each call into a layer and reports the
// per-layer metrics, writing its spans and layer table under
// .bench_build/out. --workload all runs every workload both ways, each in
// its own process. See README.md for the workloads, metrics and sizing.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// runDeadline keeps a run inside the three minutes a benchmark run may take.
const runDeadline = 170 * time.Second

type output struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]metricOutcome `json:"metrics"`
}

type metricOutcome struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "train-sim, serve-paper, tier-fleet, or all")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", runSeconds, "how long the run measures")
		trace    = flag.Int("trace", 0, "1: the traced run, reporting per-layer metrics")
		record   = flag.String("record-expected", "", "store this run's outcome for its seed in the given expected.json")
		writeSp  = flag.String("write-spec", "", "write the benchmark spec (BENCHMARK.json) to this path and exit")
	)
	flag.Parse()
	if *writeSp != "" {
		b, err := specJSON(spec())
		if err == nil {
			err = os.WriteFile(*writeSp, b, 0o644)
		}
		exitOn(err)
		return
	}
	if *workload == "all" {
		exitOn(runAll(*seed, *seconds))
		return
	}
	var ws *workloadSpec
	for i := range workloads {
		if workloads[i].Name == *workload {
			ws = &workloads[i]
		}
	}
	if ws == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (train-sim|serve-paper|tier-fleet|all), --seconds ≥ 1, --trace 0|1\n")
		os.Exit(2)
	}
	exp, err := loadExpected(expectedJSON)
	exitOn(err)
	o := runOpts{
		workload: ws.Name, seed: *seed, seconds: *seconds, exp: exp,
		workDir: filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d", ws.Name, os.Getpid())),
	}
	if *trace == 1 {
		o.tr = newTracer()
	}
	ok, err := runOne(*ws, o, *record)
	exitOn(err)
	if !ok {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload, prints its metrics and the result line, and
// reports whether every check passed.
func runOne(ws workloadSpec, o runOpts, record string) (bool, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(o.workDir)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := ws.run(ctx, o)
	if err != nil {
		return false, fmt.Errorf("%s: %w", ws.Name, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return false, err
	}
	res.e2e["peak_rss_mb"] = rss
	if o.tr != nil {
		if err := res.traceLayers(filepath.Join(".bench_build", "out")); err != nil {
			return false, err
		}
	}
	out := output{Attempted: res.attempted, Failed: res.failedN, Metrics: map[string]metricOutcome{}}
	unit := units()
	// The untraced run reports the end-to-end metrics, which are never 0;
	// the traced run reports the per-layer ones, 0 where a layer is idle.
	var names []string
	values := res.e2e
	if o.tr == nil {
		for _, m := range endToEnd {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range perLayer {
			names = append(names, m.Name)
		}
		values = res.layer
	}
	for _, name := range names {
		v, ok := values[name]
		if o.tr != nil {
			ok = true
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (o.tr == nil && v <= 0) {
			res.fail("metric %s not measured (%v)", name, v)
			v = 0
		}
		out.Metrics[name] = metricOutcome{Value: v, Unit: unit[name]}
	}
	if out.Attempted < 1 {
		res.fail("no operation attempted")
		out.Attempted = 1
	}
	fmt.Printf("== %s seed %d, %d s, trace %v\n", ws.Name, o.seed, o.seconds, o.tr != nil)
	for _, l := range res.lines {
		fmt.Println(l)
	}
	for _, name := range names {
		fmt.Printf("%-34s %16.6f %s\n", name, out.Metrics[name].Value, unit[name])
	}
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	out.Correct = len(res.problems) == 0
	if record != "" && out.Correct {
		q := quality{res.layer["quality.completion_rate"], res.layer["quality.rejection_rate"], res.layer["quality.avg_cost_km"]}
		if err := recordExpected(record, ws.Name, o.seed, q, res.layer["predict.mr"]); err != nil {
			return false, err
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return out.Correct, nil
}

// runAll runs every workload untraced and traced, each in a process of its
// own so peak memory and CPU time stay per workload, and fails if any run
// fails a check.
func runAll(seed int64, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", trace)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s trace %s: %v", w.Name, trace, err))
			}
		}
	}
	if len(failed) > 0 {
		return errors.New(fmt.Sprint("failed runs: ", failed))
	}
	return nil
}
