package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/server"
	"github.com/spatialcrowd/tamp/internal/wal"
)

// eventKinds are the core event kinds whose apply cost the replay reports.
var eventKinds = []string{
	core.KindTaskSubmitted, core.KindTaskCancelled, core.KindWorkerRegistered,
	core.KindWorkerReported, core.KindTickAdvanced, core.KindBatchAssigned,
	core.KindOfferAccepted, core.KindOfferRejected, core.KindOfferRetracted,
}

// logReplay is a write-ahead log re-read from genesis and re-applied
// through core.State.Apply: the state a restarted server would rebuild.
type logReplay struct {
	st      *core.State
	events  int
	applyUS map[string][]float64 // per event kind
}

func replayLog(dir string) (*logReplay, error) {
	rec, err := wal.ReadLog(dir)
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", dir, err)
	}
	if rec.Torn != nil {
		return nil, fmt.Errorf("replay %s: log ends torn: %v", dir, rec.Torn)
	}
	st := core.NewState()
	if rec.Snapshot != nil {
		if st, err = core.DecodeSnapshot(rec.Snapshot); err != nil {
			return nil, fmt.Errorf("replay %s: snapshot: %w", dir, err)
		}
	}
	out := &logReplay{st: st, applyUS: map[string][]float64{}}
	for i, b := range rec.Records {
		ev, err := core.DecodeEvent(b)
		if err != nil {
			return nil, fmt.Errorf("replay %s: record %d: %w", dir, rec.StartSeq+uint64(i), err)
		}
		t0 := time.Now()
		err = st.Apply(ev)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("replay %s: record %d: %w", dir, rec.StartSeq+uint64(i), err)
		}
		out.applyUS[ev.Kind()] = append(out.applyUS[ev.Kind()], float64(d.Nanoseconds())/1e3)
		out.events++
	}
	return out, nil
}

// checkShard stops a shard and verifies its log: re-applying every logged
// event must rebuild the live state bit for bit, and a fresh server must
// recover from the directory. It returns the rebuilt state.
func checkShard(res *result, sh *shard, name string) (*logReplay, error) {
	live := sh.srv.StateDigest()
	if err := sh.stop(); err != nil {
		return nil, fmt.Errorf("stop %s: %w", name, err)
	}
	rp, err := replayLog(sh.walDir)
	if err != nil {
		return nil, err
	}
	if got := rp.st.Digest(); got != live {
		res.fail("%s: replayed log digest %s, live state %s", name, got[:12], live[:12])
	}
	t0 := time.Now()
	srv, err := server.New(server.Config{WALDir: sh.walDir})
	if err != nil {
		return nil, fmt.Errorf("recover %s: %w", name, err)
	}
	res.layer["wal.recover_s"] += time.Since(t0).Seconds()
	if got := srv.StateDigest(); got != live {
		res.fail("%s: recovered digest %s, live state %s", name, got[:12], live[:12])
	}
	if err := srv.Close(); err != nil {
		return nil, fmt.Errorf("recover %s: %w", name, err)
	}
	res.layer["wal.log_bytes"] += dirBytes(sh.walDir, ".wal")
	return rp, nil
}

func dirBytes(dir, suffix string) float64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), suffix) {
			n += info.Size()
		}
	}
	return float64(n)
}

// checkServed applies the serving checks common to both serve workloads:
// every acknowledged submission is in the final state, decisions match the
// state's tallies, and nothing failed except the sheds the router counted
// (routerSheds; 0 without a router, where any 503 is the server refusing
// work it should have taken). It also reports the share of issued offers a
// poll saw before they were decided or expired.
func checkServed(res *result, rp *replay, reqs *reqLog, states []*core.State, routerSheds int) {
	for _, id := range rp.acked {
		found := false
		for _, st := range states {
			_, ok := st.Tasks[id]
			found = found || ok
		}
		if !found {
			res.fail("acknowledged task %d is missing from the final state", id)
			break
		}
	}
	var accepts, rejects, offers int64
	for _, st := range states {
		accepts += st.Counts.Accepts
		rejects += st.Counts.Rejects
		offers += st.Counts.Offers
	}
	if accepts != int64(rp.accepted) || rejects != int64(rp.rejected) {
		res.fail("state counts %d accepts / %d rejects, generator saw %d / %d", accepts, rejects, rp.accepted, rp.rejected)
	}
	if reqs.errs > 0 || reqs.unexpected > 0 {
		res.fail("%d failed and %d unexpected responses, first: %s", reqs.errs, reqs.unexpected, reqs.firstErr)
	}
	if reqs.sheds != routerSheds {
		res.fail("%d responses were 503, the router counted %d sheds", reqs.sheds, routerSheds)
	}
	res.attempted, res.failedN = reqs.attempted, reqs.failed()
	res.layer["gen.offers_seen_ratio"] = ratio(int64(len(rp.seen)), offers)
	res.human("offers_seen_ratio", res.layer["gen.offers_seen_ratio"], "ratio")
}

// coreLayers reports apply cost by event kind from the replays, and the
// clock-advance cost at the start and end of the horizon: the state never
// drops tasks, so each advance scans more.
func (r *result) coreLayers(rps []*logReplay) {
	byKind := map[string][]float64{}
	events := 0
	var firstTick, lastTick []float64
	for _, rp := range rps {
		events += rp.events
		for k, v := range rp.applyUS {
			byKind[k] = append(byKind[k], v...)
		}
		ticks := rp.applyUS[core.KindTickAdvanced]
		if n := len(ticks); n > 0 {
			w := min(10, n)
			firstTick = append(firstTick, ticks[:w]...)
			lastTick = append(lastTick, ticks[n-w:]...)
		}
	}
	r.layer["core.events"] = float64(events)
	for _, k := range eventKinds {
		r.layer["core.apply_us."+k] = mean(byKind[k])
	}
	r.layer["core.tick_apply_us_first"] = mean(firstTick)
	r.layer["core.tick_apply_us_last"] = mean(lastTick)
}

// spanLayers derives the serving figures from the traced spans: handler
// latency per route, batch time outside the assigner, the client-side
// overhead of each request beyond its handler, and the router's own time
// beyond its shard calls.
func (r *result) spanLayers(spans []span) {
	self := selfTimes(spans)
	handled := map[uint64]bool{}
	for _, s := range spans {
		handled[s.Parent] = true
	}
	byRoute := map[string][]float64{}
	var batchS, batchOther float64
	var overhead, tierOverhead []float64
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "server."):
			route := strings.TrimPrefix(s.Name, "server.")
			byRoute[route] = append(byRoute[route], ms(s.dur()))
			if route == "batch" {
				batchS += s.dur().Seconds()
				batchOther += self[s.ID].Seconds()
			}
		case strings.HasPrefix(s.Name, "http.") && handled[s.ID]:
			overhead = append(overhead, ms(self[s.ID]))
		case strings.HasPrefix(s.Name, "tier."):
			tierOverhead = append(tierOverhead, ms(self[s.ID]))
		}
	}
	for _, route := range []string{"submit", "report", "poll", "decide", "tick", "batch"} {
		r.layer["server.handler_"+route+"_p50_ms"] = pctValue(byRoute[route], 50)
		r.layer["server.handler_"+route+"_p99_ms"] = pctValue(byRoute[route], 99)
	}
	r.layer["server.batch_s"] = batchS
	r.layer["server.batch_other_s"] = batchOther
	r.layer["http.overhead_p50_ms"] = pctValue(overhead, 50)
	r.layer["tier.overhead_p50_ms"] = pctValue(tierOverhead, 50)
}

// generatorLayers reports the request latencies, from due and from send,
// and the open loop's view of itself: how late it sent, and the most ops
// it ever had waiting.
func (r *result) generatorLayers(reqs *reqLog, loop *openLoop) {
	lat := reqs.samples("submit", "report", "poll", "decide")
	p50, _ := percentile(lat, 50)
	p99, _ := percentile(lat, 99)
	r.layer["req.p50_ms"] = p50.Value
	r.layer["req.send_p50_ms"] = median(reqs.service("submit", "report", "poll", "decide"))
	r.layer["req.p99_ms"] = p99.Value
	r.layer["req.samples"] = float64(len(lat))
	r.layer["req.failed_frac"] = ratio(int64(reqs.failed()), int64(reqs.attempted))
	r.human("req_p50_ms", p50.Value, "ms")
	r.human("req_p99_ms", p99.Value, "ms")
	r.lines = append(r.lines, fmt.Sprintf("req p99 sits at p%.1f of %d requests", p99.At, p99.N))
	batch := reqs.samples("batch")
	r.human("batch_p50_ms", pctValue(batch, 50), "ms")
	r.human("batch_p99_ms", pctValue(batch, 99), "ms")
	r.human("failed_frac", r.layer["req.failed_frac"], "ratio")
	loop.mu.Lock()
	r.layer["gen.lag_p99_ms"] = pctValue(loop.lagMS, 99)
	r.layer["gen.backlog_max"] = float64(loop.backlogMax)
	loop.mu.Unlock()
}

// traceLayers closes a traced run: harness figures from the spans, the
// spans file, and the layer table naming the layer with most self time.
func (r *result) traceLayers(outDir string) error {
	spans := r.o.tr.recorded()
	lo, hi := r.o.tr.at(r.start), r.o.tr.at(r.end)
	r.layer["unattributed_pct"] = unattributed(spans, lo, hi)
	var inWindow int
	for _, s := range spans {
		if s.Start >= lo && s.Start <= hi {
			inWindow++
		}
	}
	r.layer["obs.trace_overhead_pct"] = 100 * float64(inWindow) * spanCost().Seconds() / r.end.Sub(r.start).Seconds()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", r.o.workload, r.o.seed))
	if err := writeSpans(base+".spans.jsonl", spans); err != nil {
		return err
	}
	table := formatLayerTable(r.o.workload, layerTable(spans, lo, hi), r.end.Sub(r.start),
		r.layer["unattributed_pct"], r.layer["obs.trace_overhead_pct"])
	r.lines = append(r.lines, strings.Split(strings.TrimRight(table, "\n"), "\n")...)
	if err := os.WriteFile(base+".layers.md", []byte(table), 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}

func formatLayerTable(workload string, rows []layerRow, wall time.Duration, unattr, overhead float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| %s layer | spans | total s | self s | self %% of wall |\n|---|---:|---:|---:|---:|\n", workload)
	top := ""
	for _, row := range rows {
		fmt.Fprintf(&b, "| %s | %d | %.3f | %.3f | %.1f |\n", row.Layer, row.Spans,
			row.Total.Seconds(), row.Self.Seconds(), 100*row.Self.Seconds()/wall.Seconds())
		if top == "" && row.Layer != "gen" {
			top = row.Layer
		}
	}
	fmt.Fprintf(&b, "\nMeasured wall %.3f s; unattributed %.2f%%; tracing overhead %.2f%%. Most self time: **%s**.\n",
		wall.Seconds(), unattr, overhead, top)
	return b.String()
}
