package assign

import (
	"math/rand"
	"testing"
)

// warmStream generates a task-grouped edge stream like PPI stage 1 emits:
// tasks in ascending index order, each with a few worker edges. The first
// edge pins the weight ceiling so churned ticks keep maxW stable (the warm
// gate requires it; PPI's stage-1 stream across ticks gets the same
// stability from pairWeight's bounded range only when the heaviest pair
// survives).
func warmStream(rng *rand.Rand, nTasks, nWorkers int) []Edge {
	edges := []Edge{{Task: 0, Worker: 0, Weight: 2}}
	for t := 0; t < nTasks; t++ {
		k := 1 + rng.Intn(4)
		for e := 0; e < k; e++ {
			edges = append(edges, Edge{
				Task:   t,
				Worker: rng.Intn(nWorkers),
				Weight: 0.1 + rng.Float64(),
			})
		}
	}
	return edges
}

// churnStream rewrites a fraction of the TRAILING task rows in place,
// keeping the task-grouped order; leading rows stay byte-identical. Churn
// confined to the trailing rows (clean rows first, dirty rows last) is the
// stream shape that makes prefix-resume effective.
func churnStream(rng *rand.Rand, edges []Edge, nWorkers int, frac float64) []Edge {
	rows := 0
	for i := range edges {
		if i == 0 || edges[i].Task != edges[i-1].Task {
			rows++
		}
	}
	cleanRows := rows - int(float64(rows)*frac) - 1
	out := edges[:0:0]
	cur, row := 0, 0
	for cur < len(edges) {
		t := edges[cur].Task
		end := cur + 1
		for end < len(edges) && edges[end].Task == t {
			end++
		}
		row++
		if row > cleanRows && rng.Float64() < 0.5 {
			if rng.Float64() < 0.2 {
				cur = end // task gone
				continue
			}
			k := 1 + rng.Intn(4)
			for e := 0; e < k; e++ {
				out = append(out, Edge{Task: t, Worker: rng.Intn(nWorkers), Weight: 0.1 + rng.Float64()})
			}
		} else {
			out = append(out, edges[cur:end]...)
		}
		cur = end
	}
	return out
}

// MatchWarm must return the exact matching a cold Match produces, across
// randomized tick sequences of partially churned streams, while actually
// resuming from checkpoints on low-churn ticks.
func TestMatchWarmMatchesColdAcrossTicks(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var warm, cold Matcher
		var slot WarmSlot
		// More workers than tasks keeps tasks as rows (the warm
		// orientation), matching the PPI stage-1 shape.
		nT := 30 + rng.Intn(120)
		nW := nT + 50 + rng.Intn(100)
		edges := warmStream(rng, nT, nW)
		totalWarm := 0
		for tick := 0; tick < 12; tick++ {
			got, warmRows := warm.MatchWarm(&slot, edges, nil)
			want := cold.Match(edges, nil)
			if len(got) != len(want) {
				t.Fatalf("seed %d tick %d: %d pairs warm vs %d cold", seed, tick, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d tick %d pair %d: warm %+v cold %+v", seed, tick, i, got[i], want[i])
				}
			}
			totalWarm += warmRows
			edges = churnStream(rng, edges, nW, 0.15)
		}
		if totalWarm == 0 {
			t.Errorf("seed %d: no rows ever resumed warm across 12 low-churn ticks", seed)
		}
	}
}

// An unchanged batch must resume past every row (full prefix skip).
func TestMatchWarmFullSkipOnIdenticalBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := warmStream(rng, 200, 300)
	var m Matcher
	var slot WarmSlot
	m.MatchWarm(&slot, edges, nil)
	got, warmRows := m.MatchWarm(&slot, edges, nil)
	want := new(Matcher).Match(edges, nil)
	if len(got) != len(want) {
		t.Fatalf("%d pairs warm vs %d cold", len(got), len(want))
	}
	rows := 0
	seen := map[int]bool{}
	for _, e := range edges {
		if !seen[e.Task] {
			seen[e.Task] = true
			rows++
		}
	}
	if warmRows != rows {
		t.Fatalf("identical batch resumed only %d of %d rows", warmRows, rows)
	}
}

// Warm equivalence under hostile inputs: invalid edges, duplicate (task,
// worker) pairs, weight ties, and ungrouped streams (which must fall back
// to a cold — still correct — solve).
func TestMatchWarmHostileInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var warm Matcher
	var slot WarmSlot
	for tick := 0; tick < 40; tick++ {
		n := 1 + rng.Intn(60)
		edges := make([]Edge, 0, n)
		for i := 0; i < n; i++ {
			e := Edge{Task: rng.Intn(20) - 1, Worker: rng.Intn(30) - 1, Weight: float64(rng.Intn(6)) / 2}
			if rng.Float64() < 0.1 {
				e.Weight = -e.Weight
			}
			edges = append(edges, e)
		}
		got, _ := warm.MatchWarm(&slot, edges, nil)
		want := new(Matcher).Match(edges, nil)
		if len(got) != len(want) {
			t.Fatalf("tick %d: %d pairs warm vs %d cold", tick, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tick %d pair %d: warm %+v cold %+v", tick, i, got[i], want[i])
			}
		}
	}
}

// The warmed matcher must not allocate once its buffers reach the working
// set — the same steady-state gate the cold Matcher holds.
func TestMatchWarmSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := warmStream(rng, 150, 200)
	var m Matcher
	var slot WarmSlot
	out := make([]Pair, 0, 256)
	for i := 0; i < 3; i++ { // warm the buffers and the checkpoint ladder
		out, _ = m.MatchWarm(&slot, edges, out[:0])
	}
	avg := testing.AllocsPerRun(100, func() {
		out, _ = m.MatchWarm(&slot, edges, out[:0])
	})
	if avg != 0 {
		t.Fatalf("warmed MatchWarm allocates %.1f/op, want 0", avg)
	}
}

// Cold re-solves through MatchWarm (changed maxW every tick) must also stay
// allocation-free once warmed: the slot machinery itself cannot allocate.
func TestMatchWarmColdPathAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := warmStream(rng, 100, 150)
	b := churnStream(rng, append([]Edge(nil), a...), 150, 1.0)
	var m Matcher
	var slot WarmSlot
	out := make([]Pair, 0, 256)
	for i := 0; i < 4; i++ {
		out, _ = m.MatchWarm(&slot, a, out[:0])
		out, _ = m.MatchWarm(&slot, b, out[:0])
	}
	avg := testing.AllocsPerRun(50, func() {
		out, _ = m.MatchWarm(&slot, a, out[:0])
		out, _ = m.MatchWarm(&slot, b, out[:0])
	})
	if avg != 0 {
		t.Fatalf("alternating MatchWarm allocates %.1f/op, want 0", avg)
	}
}
