package nn

// This file implements the per-model scratch arenas that make the train /
// predict hot path steady-state allocation-free. Every buffer the forward
// and backward passes need — gate activations, the BPTT step tape, loss
// gradients, packed input rows — is owned by a workspace that is grown once
// (to the longest sequence seen) and reused for every subsequent sample.
//
// Ownership rules (see DESIGN.md §9):
//
//   - A workspace belongs to exactly one model value and is reached only
//     through that model's methods. Models are not safe for concurrent use;
//     the concurrency layer (internal/par, internal/meta) clones one model
//     per shard, so each goroutine owns a private workspace and no locking
//     is needed.
//   - Clone/CloneModel never copies a workspace: clones start with a nil
//     workspace and lazily build their own on first use.
//   - Buffers returned to callers (Predict's prediction rows) remain owned
//     by the workspace: they are valid until the next Predict / Grad /
//     BatchLoss / BatchGrad call on the same model.

// zeroFloats sets every element of s to zero.
func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// growRows extends rows to at least n rows of the given width, reusing
// existing rows' backing arrays.
func growRows(rows [][]float64, n, width int) [][]float64 {
	for len(rows) < n {
		rows = append(rows, make([]float64, width))
	}
	return rows
}

// growLSTMTape extends the step tape to at least n steps with every step's
// buffers allocated for cell c. Existing steps keep their storage.
func growLSTMTape(tape []lstmStep, n int, c lstmCell) []lstmStep {
	for len(tape) < n {
		h := c.hidden
		tape = append(tape, lstmStep{
			xh:    make([]float64, c.in+h),
			i:     make([]float64, h),
			f:     make([]float64, h),
			g:     make([]float64, h),
			o:     make([]float64, h),
			cNew:  make([]float64, h),
			tanhC: make([]float64, h),
			h:     make([]float64, h),
		})
	}
	return tape
}

// lstmWS is the scratch arena of one Seq2Seq model: encoder/decoder step
// tapes, prediction and loss-gradient rows, and the backward-pass
// accumulators. Step tapes grow to the longest sequence seen and are reused
// across samples.
type lstmWS struct {
	encTape []lstmStep
	decTape []lstmStep
	preds   [][]float64 // decoder output rows, one per step
	dPreds  [][]float64 // dLoss/dPred rows

	h0, c0 []float64 // initial encoder state (zeroed per forward)
	dec0   []float64 // first decoder input

	dh, dc []float64 // gradients flowing into a step's h and c outputs
	dcPrev []float64 // double buffer swapped with dc each step
	dz     []float64 // gate pre-activation gradients, 4*hidden
	dy     []float64 // gradient of one prediction row
	dNext  []float64 // gradient of the next step's decoder input
	dhOut  []float64 // dL/dh from the output head
	dxhEnc []float64 // packed [dx; dhPrev] for the encoder cell
	dxhDec []float64 // packed [dx; dhPrev] for the decoder cell

	bws *lstmBatchWS // batched-kernel arena (batch.go), lazily built
}

func newLSTMWS(m *Seq2Seq) *lstmWS {
	h := m.Hidden
	return &lstmWS{
		h0:     make([]float64, h),
		c0:     make([]float64, h),
		dec0:   make([]float64, m.OutDim),
		dh:     make([]float64, h),
		dc:     make([]float64, h),
		dcPrev: make([]float64, h),
		dz:     make([]float64, 4*h),
		dy:     make([]float64, m.OutDim),
		dNext:  make([]float64, m.OutDim),
		dhOut:  make([]float64, h),
		dxhEnc: make([]float64, m.InDim+h),
		dxhDec: make([]float64, m.OutDim+h),
	}
}

// workspace returns the model's arena, building it on first use.
func (m *Seq2Seq) workspace() *lstmWS {
	if m.ws == nil {
		m.ws = newLSTMWS(m)
	}
	return m.ws
}
