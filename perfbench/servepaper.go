package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/server"
)

// servePaper's op mix: workers report every 4th tick and poll every 2nd,
// staggered by worker, so most batches see an unchanged trace per worker.
var servePaperProto = protocol{reportEvery: 4, pollEvery: 2}

func runServePaper(ctx context.Context, o runOpts) (*result, error) {
	res := newResult(o)
	var reg *obs.Registry // training phases of the last set-up
	walDir := filepath.Join(o.workDir, "serve-paper-wal")
	loop := &openLoop{clk: wallClock{}, slots: slots, tr: o.tr}
	var (
		fleet  *dataset.Workload
		sh     *shard
		rp     *replay
		pred   *predict.Result
		trainS float64
	)
	err := res.setup(o.setupReps(), func() (func(), error) {
		if err := os.RemoveAll(walDir); err != nil {
			return nil, err
		}
		sp := o.tr.begin(0, "dataset.generate", 0)
		t0 := time.Now()
		fleet = withTasks(paperFleet(), taskStream(o.seed, 0))
		res.generateS = time.Since(t0).Seconds()
		sp.end()

		reg = obs.NewRegistry()
		tctx, sp := o.tr.beginCtx(obs.WithRegistry(ctx, reg), "predict.train")
		t0 = time.Now()
		var err error
		if pred, err = predict.Train(tctx, fleet, paperTrainOptions()); err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
		trainS = time.Since(t0).Seconds()
		sp.end()

		// The platform knows workers by workload ID + 1 (IDs must be positive).
		models := make(map[int]*predict.WorkerModel, len(pred.Models))
		for id, m := range pred.Models {
			models[id+1] = m
		}
		if sh, err = startShard(server.Config{WALDir: walDir, Models: models}, o.tr); err != nil {
			return nil, err
		}
		return func() { sh.stop() }, nil
	})
	if err != nil {
		return nil, err
	}
	// Signing the workers up is traffic, not set-up: it is not timed.
	rp = newReplay(fleet, servePaperProto, newClient(sh.url(), slots, o.tr, nil), loop)
	if err := rp.register(ctx); err != nil {
		sh.stop()
		return nil, err
	}

	reqs := newReqLog()
	rp.cl = newClient(sh.url(), slots, o.tr, reqs)
	defer rp.cl.close()
	ticks := fleet.Params.TestDays * fleet.Params.TicksPerDay
	interval := o.duration() / time.Duration(ticks)
	res.markStart()
	cpu0 := cpuTime()
	for t := 0; t < ticks; t++ {
		if err := rp.tick(ctx, t, res.start.Add(time.Duration(t)*interval), interval); err != nil {
			sh.stop()
			return nil, err
		}
	}
	cpu := cpuTime() - cpu0
	res.markEnd()

	series := promSeries(sh.reg)
	logged, err := checkShard(res, sh, "server")
	if err != nil {
		return nil, err
	}
	checkServed(res, rp, reqs, []*core.State{logged.st}, 0)
	q := rp.quality()
	res.checkQuality(q)
	res.checkMR(pred.Eval.MR)

	res.tickMetrics(rp.tickLatMS)
	res.e2e["cpu_ms_per_tick"] = ms(cpu) / float64(ticks)
	res.human("train_s", trainS, "s")
	res.setQuality(q)
	res.generatorLayers(reqs, loop)
	res.layer["predict.mr"] = pred.Eval.MR
	res.layer["predict.train_s"] = trainS
	hits, miss := series["predict_cache_hits"], series["predict_cache_misses"]
	res.layer["predict.forecasts"] = hits + miss
	res.layer["predict.cache_hit_ratio"] = ratio(int64(hits), int64(hits+miss))
	res.layer["predict.cache_evictions"] = series["predict_cache_evictions"]
	res.human("cache_hit_ratio", res.layer["predict.cache_hit_ratio"], "ratio")
	if o.tr == nil {
		return res, nil
	}
	mergeSeries(series, promSeries(reg))
	res.registryLayers(series)
	rollout := rolloutUS(fleet, pred.Models)
	res.layer["predict.rollout_us"] = rollout
	res.layer["predict.forecast_s_est"] = miss * rollout / 1e6
	res.assignLayers(sh.asg.snapshot(), rp.accepted, rp.accepted+rp.rejected+rp.stale)
	res.spanLayers(o.tr.recorded())
	res.coreLayers([]*logReplay{logged})
	return res, nil
}
