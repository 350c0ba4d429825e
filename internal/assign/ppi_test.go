package assign

import (
	"math/rand"
	"testing"
)

// TestSortPendingAllocFree is the stage-2 satellite gate: the typed sort
// must not allocate once the buffer exists (sort.Slice's closure and
// interface header used to).
func TestSortPendingAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pending := make([]candidate, 512)
	fill := func() {
		for i := range pending {
			pending[i] = candidate{task: rng.Intn(64), worker: rng.Intn(64), conf: rng.Float64()}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		fill()
		sortPending(pending)
	})
	if allocs != 0 {
		t.Fatalf("sortPending allocates %.1f/op, want 0", allocs)
	}
}
