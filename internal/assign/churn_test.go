package assign

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/spatialcrowd/tamp/internal/geo"
)

// churnWorld evolves one task/worker population through randomized churn
// while keeping enough regularity (positive speeds, finite detours in the
// calm mode) that consecutive batches share most of their candidate edges —
// the regime a long-lived workspace's warm-started KM is built for.
// Removals swap the tail into the hole and edits rewrite in place, so a
// batch's task and worker order drifts the way a live pool's does.
type churnWorld struct {
	rng      *rand.Rand
	hostile  bool
	tasks    []Task
	workers  []Worker
	nextTask int
	nextWork int
}

func (cw *churnWorld) newWorker(id int) Worker {
	rng := cw.rng
	x, y := rng.Float64()*100, rng.Float64()*60
	steps := 2 + rng.Intn(8)
	pred := make([]geo.Point, 0, steps)
	act := make([]geo.Point, 0, steps)
	px, py := x, y
	for j := 0; j < steps; j++ {
		px += rng.NormFloat64() * 1.5
		py += rng.NormFloat64() * 1.5
		p := geo.Pt(px, py)
		if cw.hostile && rng.Float64() < 0.02 {
			p = geo.Pt(math.NaN(), py)
		}
		pred = append(pred, p)
		act = append(act, geo.Pt(px+rng.NormFloat64()*0.5, py))
	}
	detour := 2 + rng.Float64()*8
	speed := 0.5 + rng.Float64()*1.5
	if cw.hostile {
		switch rng.Intn(10) {
		case 0:
			detour = math.Inf(1) // flips the whole batch into scan mode
		case 1:
			detour = 0
		case 2:
			speed = 0
		}
	}
	return Worker{
		ID: id, Loc: geo.Pt(x, y), Detour: detour, Speed: speed,
		Predicted: pred, Actual: act, MR: rng.Float64() * 1.2,
	}
}

func (cw *churnWorld) newTask(id, tick int) Task {
	rng := cw.rng
	t := Task{
		ID:       id,
		Loc:      geo.Pt(rng.Float64()*100, rng.Float64()*60),
		Deadline: tick + 10 + rng.Intn(30),
	}
	if cw.hostile && rng.Intn(12) == 0 {
		t.Deadline = tick - 1 - rng.Intn(3)
	}
	if cw.hostile && rng.Intn(15) == 0 {
		t.Loc = geo.Pt(math.NaN(), t.Loc.Y)
	}
	for i := range cw.workers {
		if rng.Float64() < 0.03 {
			t.Excluded = append(t.Excluded, cw.workers[i].ID)
		}
	}
	return t
}

// seed populates the world with an initial batch.
func (cw *churnWorld) seed(nT, nW int) {
	for i := 0; i < nW; i++ {
		cw.workers = append(cw.workers, cw.newWorker(cw.nextWork))
		cw.nextWork++
	}
	for i := 0; i < nT; i++ {
		cw.tasks = append(cw.tasks, cw.newTask(cw.nextTask, 0))
		cw.nextTask++
	}
}

// swapRemove deletes s[i] by moving the tail element into its slot.
func swapRemove[T any](s []T, i int) []T {
	s[i] = s[len(s)-1]
	return s[:len(s)-1]
}

// churn applies one tick's worth of random mutations: worker moves, worker
// arrivals/departures, task arrivals/completions/edits.
func (cw *churnWorld) churn(tick int, ops int) {
	rng := cw.rng
	for k := 0; k < ops; k++ {
		switch rng.Intn(10) {
		case 0: // worker arrives
			cw.workers = append(cw.workers, cw.newWorker(cw.nextWork))
			cw.nextWork++
		case 1: // worker departs
			if len(cw.workers) > 1 {
				cw.workers = swapRemove(cw.workers, rng.Intn(len(cw.workers)))
			}
		case 2, 3, 4: // worker moves (fresh trajectories, same id)
			if len(cw.workers) > 0 {
				i := rng.Intn(len(cw.workers))
				cw.workers[i] = cw.newWorker(cw.workers[i].ID)
			}
		case 5: // task arrives
			cw.tasks = append(cw.tasks, cw.newTask(cw.nextTask, tick))
			cw.nextTask++
		case 6: // task completes or expires
			if len(cw.tasks) > 1 {
				cw.tasks = swapRemove(cw.tasks, rng.Intn(len(cw.tasks)))
			}
		case 7: // task edited in place
			if len(cw.tasks) > 0 {
				i := rng.Intn(len(cw.tasks))
				cw.tasks[i] = cw.newTask(cw.tasks[i].ID, tick)
			}
		default: // quiet op — most of the fleet holds still
		}
	}
}

// TestWarmWorkspaceMatchesFreshPPIUnderChurn is the cross-batch contract of
// the live assignment path: PPI run tick after tick through one long-lived
// workspace (reused index buffers, warm-started stage-1 KM) must return
// exactly the plan PPI returns on a fresh workspace (cold index Build, cold
// KM) over the same task/worker slices — after every tick of randomized
// churn, at parallelism 1 and 8, in calm and hostile (NaN, infinite-detour,
// expired, tiny-fleet) regimes. In the calm regime the warm prefix-resume
// must actually run on some of those batches, or the equality would prove
// nothing about it.
func TestWarmWorkspaceMatchesFreshPPIUnderChurn(t *testing.T) {
	for _, mode := range []struct {
		name    string
		hostile bool
		a       float64
		nT, nW  int
	}{
		{"calm", false, 0.5, 60, 90},
		{"negA", false, -1, 40, 70},
		{"hostile", true, 0.5, 30, 20}, // straddles indexMinWorkers under churn
	} {
		var warmBatches uint64
		for seed := int64(0); seed < 6; seed++ {
			for _, parallelism := range []int{1, 8} {
				cw := &churnWorld{rng: rand.New(rand.NewSource(seed*31 + 7)), hostile: mode.hostile}
				cfg := PPI{A: mode.a, Parallelism: parallelism}
				cw.seed(mode.nT, mode.nW)
				ws := NewWorkspace()
				ctx := WithWorkspace(context.Background(), ws)
				for tick := 0; tick < 14; tick++ {
					if tick > 0 {
						cw.churn(tick, 1+cw.rng.Intn(8))
					}
					got := cfg.AssignContext(ctx, cw.tasks, cw.workers, tick)
					want := cfg.AssignContext(context.Background(), cw.tasks, cw.workers, tick)
					if !plansEqual(got, want) {
						t.Fatalf("%s seed %d par %d tick %d: warm-workspace plan differs from fresh-workspace PPI\nwarm:  %v\nfresh: %v",
							mode.name, seed, parallelism, tick, got, want)
					}
				}
				_, warm, _ := ws.WarmStats()
				warmBatches += warm
			}
		}
		if mode.name == "calm" && warmBatches == 0 {
			t.Fatalf("%s: no batch warm-started the stage-1 KM", mode.name)
		}
	}
}

// TestWarmWorkspaceQuiescentTick: with zero churn between ticks (and
// deadlines far enough out that no reach cap moves), a long-lived workspace
// replays the stage-1 solve instead of re-running it, and the plan stays
// identical to both a fresh-workspace PPI and the first tick's plan.
func TestWarmWorkspaceQuiescentTick(t *testing.T) {
	cw := &churnWorld{rng: rand.New(rand.NewSource(42))}
	cfg := PPI{A: 0.5, Parallelism: 4}
	cw.seed(80, 120)
	ws := NewWorkspace()
	ctx := WithWorkspace(context.Background(), ws)
	first := cfg.AssignContext(ctx, cw.tasks, cw.workers, 1)
	for tick := 2; tick <= 4; tick++ {
		got := cfg.AssignContext(ctx, cw.tasks, cw.workers, tick)
		want := cfg.AssignContext(context.Background(), cw.tasks, cw.workers, tick)
		if !plansEqual(got, want) {
			t.Fatalf("tick %d: quiescent plan diverged from fresh-workspace PPI", tick)
		}
		if !plansEqual(got, first) {
			t.Fatalf("tick %d: quiescent plan drifted from tick 1", tick)
		}
	}
	if _, warm, cold := ws.WarmStats(); warm == 0 || cold > 1 {
		t.Fatalf("quiescent ticks should warm-start the KM: warm=%d cold=%d", warm, cold)
	}
}
