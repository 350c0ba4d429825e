package nn

import (
	"math"
	"math/rand"
	"testing"
)

// streamedBatchGrad is the pre-batching BatchGrad path: stream every sample
// through Grad, then average. The batched kernels must reproduce it to the
// bit.
func streamedBatchGrad(m *Seq2Seq, batch []Sample, loss Loss, grad Vector) float64 {
	grad.Zero()
	if len(batch) == 0 {
		return 0
	}
	var sum float64
	for i := range batch {
		sum += m.Grad(batch[i].In, batch[i].Out, loss, grad)
	}
	grad.Scale(1 / float64(len(batch)))
	return sum / float64(len(batch))
}

func streamedBatchLoss(m *Seq2Seq, batch []Sample, loss Loss) float64 {
	var sum float64
	for i := range batch {
		s := &batch[i]
		preds := m.forward(s.In, len(s.Out))
		ws := m.ws
		ws.dPreds = growRows(ws.dPreds, len(s.Out), m.OutDim)
		sum += loss.LossGrad(preds, s.Out, ws.dPreds[:len(s.Out)])
	}
	return sum / float64(len(batch))
}

func randUniformBatch(rng *rand.Rand, size, inDim, outDim, seqIn, seqOut int) []Sample {
	batch := make([]Sample, 0, size)
	for i := 0; i < size; i++ {
		batch = append(batch, randSample(rng, inDim, outDim, seqIn, seqOut))
	}
	return batch
}

// TestBatchGradMatchesStreamed property-tests the batched GEMM-shaped
// BatchGrad against the streamed per-sample path: identical loss and
// identical gradient, bit for bit, across random shapes, batch sizes, and
// losses. Floating-point addition is not associative, so bit equality here
// proves the batched kernels preserve the per-sample reduction order
// exactly — the contract everything downstream (meta-training determinism,
// checkpoint digests, replay equivalence) relies on.
func TestBatchGradMatchesStreamed(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	losses := []Loss{MSE{}, Scaled{Inner: MSE{}, Factor: 3.7}}
	for trial := 0; trial < 30; trial++ {
		inDim := 2 + rng.Intn(3)
		outDim := 2
		hidden := 3 + rng.Intn(6)
		seqIn := 1 + rng.Intn(6)
		seqOut := 1 + rng.Intn(4)
		size := 2 + rng.Intn(7)
		loss := losses[trial%len(losses)]

		m := NewSeq2Seq(inDim, outDim, hidden, rng)
		for i := m.outOff; i < len(m.w); i++ {
			m.w[i] = rng.NormFloat64() * 0.2
		}
		batch := randUniformBatch(rng, size, inDim, outDim, seqIn, seqOut)

		ref := m.Clone()
		wantGrad := NewVector(m.NumParams())
		wantLoss := streamedBatchGrad(ref, batch, loss, wantGrad)

		gotGrad := NewVector(m.NumParams())
		gotLoss := m.BatchGrad(batch, loss, gotGrad)

		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("trial %d: batched loss %v != streamed %v", trial, gotLoss, wantLoss)
		}
		for i := range gotGrad {
			if math.Float64bits(gotGrad[i]) != math.Float64bits(wantGrad[i]) {
				t.Fatalf("trial %d: grad[%d] = %v (bits %x) != streamed %v (bits %x)",
					trial, i, gotGrad[i], math.Float64bits(gotGrad[i]),
					wantGrad[i], math.Float64bits(wantGrad[i]))
			}
		}

		// Repeat on the same (now warm) workspace: reuse must not drift.
		gotLoss2 := m.BatchGrad(batch, loss, gotGrad)
		if math.Float64bits(gotLoss2) != math.Float64bits(wantLoss) {
			t.Fatalf("trial %d: warm batched loss %v != streamed %v", trial, gotLoss2, wantLoss)
		}
	}
}

// TestBatchGradMatchesReference pins the batched path to the naive
// pre-refactor reference kernels (the same oracle TestFusedLSTMMatchesReference
// uses for the per-sample path).
func TestBatchGradMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	for trial := 0; trial < 10; trial++ {
		inDim := 2 + rng.Intn(2)
		hidden := 3 + rng.Intn(4)
		seqIn := 1 + rng.Intn(5)
		seqOut := 1 + rng.Intn(3)
		size := 2 + rng.Intn(5)
		m := NewSeq2Seq(inDim, 2, hidden, rng)
		for i := m.outOff; i < len(m.w); i++ {
			m.w[i] = rng.NormFloat64() * 0.2
		}
		batch := randUniformBatch(rng, size, inDim, 2, seqIn, seqOut)
		loss := MSE{}

		refGrad := NewVector(m.NumParams())
		var refLoss float64
		for i := range batch {
			l, _ := refSeq2SeqGrad(m, batch[i].In, batch[i].Out, loss, refGrad)
			refLoss += l
		}
		refGrad.Scale(1 / float64(len(batch)))
		refLoss /= float64(len(batch))

		grad := NewVector(m.NumParams())
		gotLoss := m.BatchGrad(batch, loss, grad)
		if math.Abs(gotLoss-refLoss) > 1e-9 {
			t.Fatalf("trial %d: loss %v vs reference %v", trial, gotLoss, refLoss)
		}
		for i := range grad {
			if diff := math.Abs(grad[i] - refGrad[i]); diff > 1e-9 {
				t.Fatalf("trial %d: grad[%d] = %v vs reference %v (diff %g)",
					trial, i, grad[i], refGrad[i], diff)
			}
		}
	}
}

// TestBatchLossMatchesStreamed checks the batched forward + loss against the
// per-sample path, bit for bit.
func TestBatchLossMatchesStreamed(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 20; trial++ {
		inDim := 2 + rng.Intn(3)
		hidden := 3 + rng.Intn(6)
		seqIn := 1 + rng.Intn(6)
		seqOut := 1 + rng.Intn(4)
		size := 2 + rng.Intn(7)
		m := NewSeq2Seq(inDim, 2, hidden, rng)
		for i := m.outOff; i < len(m.w); i++ {
			m.w[i] = rng.NormFloat64() * 0.2
		}
		batch := randUniformBatch(rng, size, inDim, 2, seqIn, seqOut)
		loss := MSE{}

		want := streamedBatchLoss(m.Clone(), batch, loss)
		got := m.BatchLoss(batch, loss)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: batched loss %v != streamed %v", trial, got, want)
		}
	}
}

// TestBatchForwardMatchesPredict checks the step-synchronous batched forward
// produces every sample's prediction rows bit-identical to Predict run on
// that sample alone.
func TestBatchForwardMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := NewSeq2Seq(4, 2, 8, rng)
	for i := m.outOff; i < len(m.w); i++ {
		m.w[i] = rng.NormFloat64() * 0.2
	}
	// An odd batch size sends its last sample through the single-sample
	// gate kernel.
	for _, size := range []int{6, 5} {
		batch := randUniformBatch(rng, size, 4, 2, 5, 3)
		seqOut := len(batch[0].Out)

		m.batchForward(batch, len(batch[0].In), seqOut)
		bw := m.ws.bws
		single := m.Clone()
		for s := range batch {
			want := single.Predict(batch[s].In, seqOut)
			for t2 := 0; t2 < seqOut; t2++ {
				for d := 0; d < m.OutDim; d++ {
					if math.Float64bits(bw.preds[s][t2][d]) != math.Float64bits(want[t2][d]) {
						t.Fatalf("size %d sample %d pred[%d][%d]: batched %v != single %v",
							size, s, t2, d, bw.preds[s][t2][d], want[t2][d])
					}
				}
			}
		}
	}
}

// TestBatchGradMixedShapes checks the non-uniform fallback: a ragged batch
// takes the streamed path and still matches the manual stream exactly.
func TestBatchGradMixedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewSeq2Seq(3, 2, 5, rng)
	for i := m.outOff; i < len(m.w); i++ {
		m.w[i] = rng.NormFloat64() * 0.2
	}
	batch := []Sample{
		randSample(rng, 3, 2, 4, 2),
		randSample(rng, 3, 2, 2, 3),
		randSample(rng, 3, 2, 5, 1),
	}
	loss := MSE{}
	wantGrad := NewVector(m.NumParams())
	wantLoss := streamedBatchGrad(m.Clone(), batch, loss, wantGrad)
	grad := NewVector(m.NumParams())
	gotLoss := m.BatchGrad(batch, loss, grad)
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Fatalf("mixed-shape loss %v != streamed %v", gotLoss, wantLoss)
	}
	for i := range grad {
		if math.Float64bits(grad[i]) != math.Float64bits(wantGrad[i]) {
			t.Fatalf("mixed-shape grad[%d] differs", i)
		}
	}
}

// TestBatchedKernelsSteadyStateAllocFree gates the batched kernels at 0
// allocs/op once the arenas are warm — same contract as the per-sample path.
func TestBatchedKernelsSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	batch := randUniformBatch(rng, 6, 4, 2, 6, 3)
	loss := MSE{}

	m := NewSeq2Seq(4, 2, 16, rng)
	grad := NewVector(m.NumParams())
	requireZeroAllocs(t, "Seq2Seq.BatchGrad(batched)", func() { m.BatchGrad(batch, loss, grad) })
	requireZeroAllocs(t, "Seq2Seq.BatchLoss(batched)", func() { m.BatchLoss(batch, loss) })
}

// TestBatchUniform covers the shape guard directly.
func TestBatchUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randSample(rng, 2, 2, 3, 2)
	b := randSample(rng, 2, 2, 3, 2)
	c := randSample(rng, 2, 2, 4, 2)
	if !batchUniform([]Sample{a, b}) {
		t.Fatal("uniform batch reported non-uniform")
	}
	if batchUniform([]Sample{a, c}) {
		t.Fatal("ragged batch reported uniform")
	}
	if batchUniform(nil) {
		t.Fatal("empty batch reported uniform")
	}
	if batchUniform([]Sample{{In: nil, Out: a.Out}}) {
		t.Fatal("empty-input sample reported uniform")
	}
}
