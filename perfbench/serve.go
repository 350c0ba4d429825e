package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/server"
	"github.com/spatialcrowd/tamp/internal/traj"
)

// slots is the most requests a load generator keeps in flight: one per
// core of the machine the benchmark was sized on.
const slots = 2

// shard is one durable server.Server on a loopback listener.
type shard struct {
	srv    *server.Server
	hs     *http.Server
	ln     net.Listener
	walDir string
	reg    *obs.Registry
	asg    *tracedAssigner // nil in the untraced run
}

// startShard builds a durable server (WAL fsynced on every append) with the
// default PPI assigner, wrapped for timing when tr is set, and serves it.
func startShard(cfg server.Config, tr *tracer) (*shard, error) {
	sh := &shard{walDir: cfg.WALDir, reg: obs.NewRegistry()}
	cfg.Registry = sh.reg
	cfg.WALSyncEvery = 1
	cfg.Assigner = assign.PPI{A: predict.DefaultMatchRadius, Parallelism: cfg.Parallelism}
	if tr != nil {
		sh.asg = &tracedAssigner{inner: cfg.Assigner, tr: tr}
		cfg.Assigner = sh.asg
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	var h http.Handler = srv
	if tr != nil {
		h = tracedHandler{next: srv, tr: tr, layer: "server"}
	}
	sh.srv, sh.ln = srv, ln
	sh.hs = &http.Server{Handler: h}
	go sh.hs.Serve(ln)
	return sh, nil
}

func (s *shard) url() string { return "http://" + s.ln.Addr().String() }

// stop drains the listener, then closes the server and its log.
func (s *shard) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	return errors.Join(err, s.srv.Close())
}

// Wire shapes of the platform API (the server keeps its own unexported
// copies; this is the protocol as a client sees it).
type workerReg struct {
	ID       int     `json:"id"`
	DetourKM float64 `json:"detourKm"`
	Speed    float64 `json:"speed"`
}

type taskReq struct {
	ID       int     `json:"id"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Deadline int     `json:"deadline"`
}

type location struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type offer struct {
	OfferID  int     `json:"offerId"`
	TaskID   int     `json:"taskId"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Deadline int     `json:"deadline"`
}

// polled is an offer a worker saw at a poll; the worker decides on it in
// the next tick.
type polled struct {
	worker int // index into the workload's workers
	offer  offer
}

// protocol is the op mix of one tick, replayed from the workload:
//   - each task is submitted at its arrival tick, with its workload ID + 1;
//   - worker i reports its true location when (tick + i) % reportEvery == 0;
//   - worker i polls its offers when (tick + i) % pollEvery == 0;
//   - every offer seen at a poll is decided in the next tick, accepted iff
//     the worker's true route passes within its detour budget before the
//     deadline (the simulator's acceptance test, assign.ServeDist).
//
// Decisions on one task run in offer order inside one op, so when a border
// task was offered by two shards the same copy always wins.
type protocol struct {
	reportEvery, pollEvery int
}

// replay drives one platform endpoint through the workload's test horizon
// in an open loop and keeps the outcome the checks and metrics need.
type replay struct {
	w     *dataset.Workload
	proto protocol
	cl    *client
	loop  *openLoop
	look  int // ticks of true route the acceptance test may see

	nextTask int // index of the next task to submit

	mu        sync.Mutex
	polledNow []polled     // seen this tick, decided next tick
	seen      map[int]bool // every offer ID a poll returned
	accepted  int
	rejected  int
	stale     int // decision answered 404/409: the offer expired or was withdrawn first
	costCells float64
	acked     []int    // task IDs whose submission was acknowledged
	won       []polled // offers accepted with 200

	tickLatMS []float64 // boundary due → tick response, per tick
	tickEnd   []time.Time
}

func newReplay(w *dataset.Workload, proto protocol, cl *client, loop *openLoop) *replay {
	return &replay{
		w: w, proto: proto, cl: cl, loop: loop,
		look: w.Params.ValidMax*traj.TicksPerTimeUnit + 5,
		seen: map[int]bool{},
	}
}

// register signs every worker up; set-up traffic, sent slots at a time.
func (r *replay) register(ctx context.Context) error {
	defer r.cl.close()
	loop := &openLoop{clk: wallClock{}, slots: slots}
	var mu sync.Mutex
	var firstErr error
	ops := make([]timedOp, len(r.w.Workers))
	for i := range r.w.Workers {
		wk := &r.w.Workers[i]
		ops[i] = timedOp{do: func(ctx context.Context, _ time.Time) {
			reg := workerReg{ID: wk.ID + 1, DetourKM: geo.CellsToKM(wk.Detour), Speed: wk.Speed}
			status, err := r.cl.call(ctx, "register", time.Time{}, http.MethodPost, "/api/workers", reg, nil)
			if err == nil && status != http.StatusCreated {
				err = fmt.Errorf("register worker %d: status %d", reg.ID, status)
			}
			if err != nil {
				mu.Lock()
				firstErr = errors.Join(firstErr, err)
				mu.Unlock()
			}
		}}
	}
	if err := loop.run(ctx, ops); err != nil {
		return err
	}
	return firstErr
}

// truth is worker i's assignment-time view with its real future route.
func (r *replay) truth(i, tick int) (assign.Worker, bool) {
	wk := &r.w.Workers[i]
	day, inDay := tick/r.w.Params.TicksPerDay, tick%r.w.Params.TicksPerDay
	if day >= len(wk.TestDays) {
		return assign.Worker{}, false
	}
	route := wk.TestDays[day]
	aw := assign.Worker{ID: wk.ID + 1, Loc: route.At(inDay), Detour: wk.Detour, Speed: wk.Speed}
	for dt := 1; dt <= r.look; dt++ {
		aw.Actual = append(aw.Actual, route.At(inDay+dt))
	}
	return aw, true
}

// tick replays one tick: its ops spread over the first 80% of the
// interval, then — once every op is acknowledged and the boundary is due —
// the batch and the clock advance. The tick's latency is the batch's, from
// send to reply; how late the boundary went out is the loop's lateness.
func (r *replay) tick(ctx context.Context, t int, start time.Time, interval time.Duration) error {
	ops := r.decideOps(t)
	ops = append(ops, r.submitOps(t)...)
	ops = append(ops, r.reportOps(t)...)
	ops = append(ops, r.pollOps(t)...)
	for i, due := range spread(start, interval, len(ops)) {
		ops[i].due = due
	}
	if err := r.loop.run(ctx, ops); err != nil {
		return err
	}
	boundary := start.Add(interval)
	if err := r.loop.waitUntil(ctx, boundary); err != nil {
		return err
	}
	sent := time.Now()
	r.loop.account([]timedOp{{due: boundary}}, sent)
	if _, err := r.cl.call(ctx, "batch", boundary, http.MethodPost, "/api/batch", nil, nil, http.StatusOK); err != nil {
		return fmt.Errorf("tick %d batch: %w", t, err)
	}
	r.tickLatMS = append(r.tickLatMS, ms(time.Since(sent)))
	if _, err := r.cl.call(ctx, "tick", boundary, http.MethodPost, "/api/tick", nil, nil, http.StatusOK); err != nil {
		return fmt.Errorf("tick %d advance: %w", t, err)
	}
	r.tickEnd = append(r.tickEnd, time.Now())
	return nil
}

// opsAt counts the ops tick t will send (decisions excluded: they depend on
// the previous tick's polls), so a rate can be turned into an interval.
func (r *replay) opsAt(t int) int {
	n := 0
	for i := r.nextTask; i < len(r.w.TestTasks) && r.w.TestTasks[i].Arrival <= t; i++ {
		n++
	}
	for i := range r.w.Workers {
		if (t+i)%r.proto.reportEvery == 0 {
			n++
		}
		if (t+i)%r.proto.pollEvery == 0 {
			n++
		}
	}
	return n
}

func (r *replay) submitOps(t int) []timedOp {
	var ops []timedOp
	for r.nextTask < len(r.w.TestTasks) && r.w.TestTasks[r.nextTask].Arrival <= t {
		task := r.w.TestTasks[r.nextTask]
		r.nextTask++
		req := taskReq{ID: task.ID + 1, X: task.Loc.X, Y: task.Loc.Y, Deadline: task.Deadline}
		ops = append(ops, timedOp{do: func(ctx context.Context, due time.Time) {
			status, err := r.cl.call(ctx, "submit", due, http.MethodPost, "/api/tasks", req, nil, http.StatusCreated)
			if err == nil && status == http.StatusCreated {
				r.mu.Lock()
				r.acked = append(r.acked, req.ID)
				r.mu.Unlock()
			}
		}})
	}
	return ops
}

func (r *replay) reportOps(t int) []timedOp {
	var ops []timedOp
	for i := range r.w.Workers {
		if (t+i)%r.proto.reportEvery != 0 {
			continue
		}
		aw, ok := r.truth(i, t)
		if !ok {
			continue
		}
		path := "/api/workers/" + strconv.Itoa(aw.ID) + "/location"
		loc := location{X: aw.Loc.X, Y: aw.Loc.Y}
		ops = append(ops, timedOp{do: func(ctx context.Context, due time.Time) {
			r.cl.call(ctx, "report", due, http.MethodPost, path, loc, nil, http.StatusOK)
		}})
	}
	return ops
}

func (r *replay) pollOps(t int) []timedOp {
	var ops []timedOp
	for i := range r.w.Workers {
		if (t+i)%r.proto.pollEvery != 0 {
			continue
		}
		path := "/api/workers/" + strconv.Itoa(r.w.Workers[i].ID+1) + "/offers"
		ops = append(ops, timedOp{do: func(ctx context.Context, due time.Time) {
			var got []offer
			status, err := r.cl.call(ctx, "poll", due, http.MethodGet, path, nil, &got, http.StatusOK)
			if err != nil || status != http.StatusOK {
				return
			}
			r.mu.Lock()
			for _, o := range got {
				r.polledNow = append(r.polledNow, polled{worker: i, offer: o})
				r.seen[o.OfferID] = true
			}
			r.mu.Unlock()
		}})
	}
	return ops
}

// decideOps turns the previous tick's polled offers into decision ops, one
// per task, in task order.
func (r *replay) decideOps(t int) []timedOp {
	r.mu.Lock()
	seen := r.polledNow
	r.polledNow = nil
	r.mu.Unlock()
	sort.Slice(seen, func(i, j int) bool {
		if seen[i].offer.TaskID != seen[j].offer.TaskID {
			return seen[i].offer.TaskID < seen[j].offer.TaskID
		}
		return seen[i].offer.OfferID < seen[j].offer.OfferID
	})
	var ops []timedOp
	for lo := 0; lo < len(seen); {
		hi := lo + 1
		for hi < len(seen) && seen[hi].offer.TaskID == seen[lo].offer.TaskID {
			hi++
		}
		group := seen[lo:hi]
		lo = hi
		ops = append(ops, timedOp{do: func(ctx context.Context, due time.Time) {
			for _, p := range group {
				r.decide(ctx, t, due, p)
			}
		}})
	}
	return ops
}

func (r *replay) decide(ctx context.Context, t int, due time.Time, p polled) {
	d := -1.0
	if aw, ok := r.truth(p.worker, t); ok {
		task := assign.Task{ID: p.offer.TaskID, Loc: geo.Pt(p.offer.X, p.offer.Y), Deadline: p.offer.Deadline}
		d = assign.ServeDist(&aw, &task, t)
	}
	action := "reject"
	if d >= 0 {
		action = "accept"
	}
	path := "/api/offers/" + strconv.Itoa(p.offer.OfferID) + "/" + action
	status, err := r.cl.call(ctx, "decide", due, http.MethodPost, path, nil, nil,
		http.StatusOK, http.StatusNotFound, http.StatusConflict)
	if err != nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case status == http.StatusNotFound || status == http.StatusConflict:
		r.stale++
	case status != http.StatusOK:
	case d >= 0:
		r.accepted++
		r.won = append(r.won, p)
		r.costCells += 2 * d
	default:
		r.rejected++
	}
}

// quality is the paper's outcome triple for the replayed horizon.
func (r *replay) quality() quality {
	r.mu.Lock()
	defer r.mu.Unlock()
	return newQuality(len(r.acked), r.accepted, r.rejected, r.costCells)
}

// quality holds the §IV outcome metrics of one run; they are exact for a
// seed, so the checks compare them for equality.
type quality struct {
	CompletionRate float64 `json:"completion_rate"`
	RejectionRate  float64 `json:"rejection_rate"`
	AvgCostKM      float64 `json:"avg_cost_km"`
}

func newQuality(tasks, accepted, rejected int, costCells float64) quality {
	var q quality
	if tasks > 0 {
		q.CompletionRate = float64(accepted) / float64(tasks)
	}
	if accepted+rejected > 0 {
		q.RejectionRate = float64(rejected) / float64(accepted+rejected)
	}
	if accepted > 0 {
		q.AvgCostKM = geo.CellsToKM(costCells) / float64(accepted)
	}
	return q
}
