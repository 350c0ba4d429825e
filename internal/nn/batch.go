package nn

import "math"

// Batch-of-samples kernels for the Seq2Seq LSTM. The streamed BatchGrad path
// runs every sample through the matrix–vector kernels independently,
// re-reading the full weight matrices once per sample per step. The batched
// path processes all samples of a uniform-shape batch step-synchronously, so
// each weight row is loaded once and swept across the whole batch — the
// GEMM-shaped blocking that training, daily adaptation, and meta-training
// batches want.
//
// The contract is bit-identical output. Floating-point addition is not
// associative, so the batched kernels preserve the exact reduction order of
// the per-sample path for every memory cell they write:
//
//   - Forward: each gate pre-activation z is an independent reduction
//     (bias, then the packed [x; hPrev] sweep in ascending j). Batching
//     across samples hoists the weight-row load but leaves each element's
//     reduction untouched, so the forward is trivially bit-identical.
//   - Backward, propagation: dxh[j] accumulates row contributions in
//     ascending row order within one (sample, step) — the same order the
//     fused per-sample kernel uses. Samples are independent, so running the
//     row sweep batched (row outer, sample inner) changes nothing per sample.
//   - Backward, weight gradients: the streamed path accumulates into each
//     gradient element in (sample ascending; step descending) order. The
//     batched path defers gradient accumulation to a second pass ordered
//     (row; sample ascending; step descending), which visits every gradient
//     element with exactly the same contribution sequence — while keeping
//     each gradient row register/L1-resident across the whole batch instead
//     of re-streaming the full gradient block per sample per step.
//
// TestBatchGradMatchesStreamed / TestBatchForwardMatchesPredict property-test
// the equivalence against the per-sample path (itself pinned to the naive
// reference kernels in reference_test.go).

// batchUniform reports whether every sample shares the first sample's
// sequence lengths — the shape the step-synchronous kernels require. The
// callers fall back to the streamed path otherwise.
func batchUniform(batch []Sample) bool {
	if len(batch) == 0 {
		return false
	}
	tin, tout := len(batch[0].In), len(batch[0].Out)
	if tin == 0 || tout == 0 {
		return false
	}
	for i := 1; i < len(batch); i++ {
		if len(batch[i].In) != tin || len(batch[i].Out) != tout {
			return false
		}
	}
	return true
}

// growBatchRows extends a [sample][step][dim] tape to S samples of n rows.
func growBatchRows(rows [][][]float64, S, n, width int) [][][]float64 {
	for len(rows) < S {
		rows = append(rows, nil)
	}
	for s := 0; s < S; s++ {
		rows[s] = growRows(rows[s], n, width)
	}
	return rows
}

// growBatchVecs extends a [sample][dim] buffer set to S vectors of width n.
func growBatchVecs(vecs [][]float64, S, n int) [][]float64 {
	for len(vecs) < S {
		vecs = append(vecs, nil)
	}
	for s := 0; s < S; s++ {
		if len(vecs[s]) < n {
			vecs[s] = make([]float64, n)
		}
	}
	return vecs
}

// lstmBatchWS is the batched-kernel arena of one Seq2Seq model: per-sample
// step tapes plus the per-sample backward state, grown once to the largest
// (batch, shape) seen and reused — the batched path is steady-state
// allocation-free just like the per-sample one.
type lstmBatchWS struct {
	encTapes [][]lstmStep // [sample][step]
	decTapes [][]lstmStep
	preds    [][][]float64 // [sample][step][OutDim]
	dPreds   [][][]float64
	h0s, c0s [][]float64
	dec0s    [][]float64

	dzEnc  [][][]float64 // [sample][step][4*hidden] gate pre-activation grads
	dzDec  [][][]float64
	dyTape [][][]float64 // [sample][step][OutDim] output-head row grads

	dh, dc, dcPrev [][]float64
	dNext, dhOut   [][]float64
	dxh            [][]float64 // packed [dx; dhPrev], max(in,out)+hidden

	hs, cs []([]float64) // current forward state per sample (tape aliases)
	prevs  [][]float64   // current decoder input per sample
}

func (bw *lstmBatchWS) grow(m *Seq2Seq, S, tin, tout int) {
	h := m.Hidden
	for len(bw.encTapes) < S {
		bw.encTapes = append(bw.encTapes, nil)
	}
	for len(bw.decTapes) < S {
		bw.decTapes = append(bw.decTapes, nil)
	}
	for s := 0; s < S; s++ {
		bw.encTapes[s] = growLSTMTape(bw.encTapes[s], tin, m.enc)
		bw.decTapes[s] = growLSTMTape(bw.decTapes[s], tout, m.dec)
	}
	bw.preds = growBatchRows(bw.preds, S, tout, m.OutDim)
	bw.dPreds = growBatchRows(bw.dPreds, S, tout, m.OutDim)
	bw.dzEnc = growBatchRows(bw.dzEnc, S, tin, 4*h)
	bw.dzDec = growBatchRows(bw.dzDec, S, tout, 4*h)
	bw.dyTape = growBatchRows(bw.dyTape, S, tout, m.OutDim)
	bw.h0s = growBatchVecs(bw.h0s, S, h)
	bw.c0s = growBatchVecs(bw.c0s, S, h)
	bw.dec0s = growBatchVecs(bw.dec0s, S, m.OutDim)
	bw.dh = growBatchVecs(bw.dh, S, h)
	bw.dc = growBatchVecs(bw.dc, S, h)
	bw.dcPrev = growBatchVecs(bw.dcPrev, S, h)
	bw.dNext = growBatchVecs(bw.dNext, S, m.OutDim)
	bw.dhOut = growBatchVecs(bw.dhOut, S, h)
	maxIn := m.InDim
	if m.OutDim > maxIn {
		maxIn = m.OutDim
	}
	bw.dxh = growBatchVecs(bw.dxh, S, maxIn+h)
	bw.hs = growBatchVecs(bw.hs, S, 0)
	bw.cs = growBatchVecs(bw.cs, S, 0)
	bw.prevs = growBatchVecs(bw.prevs, S, 0)
}

// batchWorkspace returns the model's batched arena, building it on first use.
func (m *Seq2Seq) batchWorkspace() *lstmBatchWS {
	ws := m.workspace()
	if ws.bws == nil {
		ws.bws = &lstmBatchWS{}
	}
	return ws.bws
}

// batchGates computes one step's gate activations for every sample: row
// outer, sample inner, so each weight row is loaded once per step instead of
// once per (sample, step). Samples are processed in pairs against two gate
// rows at a time, four independent accumulators — each z still reduces in
// the per-sample order (bias first, then the packed [x; hPrev] sweep in
// ascending j), but the four serial FP-add chains overlap instead of
// waiting on one another. This cross-sample ILP, not cache blocking, is
// where batching beats streaming at production model sizes (the whole
// weight matrix already fits in L1). An odd last sample goes through
// gateSums, the single-sample kernel.
func batchGates(c lstmCell, w Vector, tapes [][]lstmStep, t, S int) {
	h := c.hidden
	cols := c.cols()
	nin := c.in + h
	for k := 0; k < h; k++ {
		// Gate rows for this k share the same xh inputs. Two rows × two
		// samples = four independent reductions per pass — enough ILP to
		// hide the FP-add latency without spilling accumulators. Each z
		// still reduces in the per-sample order (bias, then ascending j).
		ri := w[k*cols : k*cols+cols]
		rf := w[(h+k)*cols : (h+k)*cols+cols]
		rg := w[(2*h+k)*cols : (2*h+k)*cols+cols]
		ro := w[(3*h+k)*cols : (3*h+k)*cols+cols]
		s := 0
		for ; s+1 < S; s += 2 {
			st0, st1 := &tapes[s][t], &tapes[s+1][t]
			xh0, xh1 := st0.xh[:nin], st1.xh[:nin]
			zi0, zi1, zf0, zf1 := rowPair2(ri, rf, xh0, xh1, nin)
			zg0, zg1, zo0, zo1 := rowPair2(rg, ro, xh0, xh1, nin)
			st0.i[k] = sigmoid(zi0)
			st1.i[k] = sigmoid(zi1)
			st0.f[k] = sigmoid(zf0)
			st1.f[k] = sigmoid(zf1)
			st0.g[k] = math.Tanh(zg0)
			st1.g[k] = math.Tanh(zg1)
			st0.o[k] = sigmoid(zo0)
			st1.o[k] = sigmoid(zo1)
		}
		for ; s < S; s++ {
			st := &tapes[s][t]
			zi, zf, zg, zo := gateSums(w, h, cols, k, st.xh[:nin])
			st.i[k] = sigmoid(zi)
			st.f[k] = sigmoid(zf)
			st.g[k] = math.Tanh(zg)
			st.o[k] = sigmoid(zo)
		}
	}
}

// rowPair2 reduces two weight rows (bias at index nin) against two inputs:
// four independent accumulator chains, each in bias-then-ascending-j order.
func rowPair2(ra, rb, x0, x1 []float64, nin int) (a0, a1, b0, b1 float64) {
	a0, a1 = ra[nin], ra[nin]
	b0, b1 = rb[nin], rb[nin]
	rav, rbv := ra[:nin], rb[:nin]
	for j, av := range rav {
		v0, v1 := x0[j], x1[j]
		bv := rbv[j]
		a0 += av * v0
		a1 += av * v1
		b0 += bv * v0
		b1 += bv * v1
	}
	return
}

// batchForward runs the encoder–decoder over a uniform batch
// step-synchronously, filling the per-sample tapes and prediction rows.
// Outputs are bit-identical to running forward on each sample alone.
func (m *Seq2Seq) batchForward(batch []Sample, tin, tout int) {
	bw := m.batchWorkspace()
	S := len(batch)
	bw.grow(m, S, tin, tout)
	h := m.Hidden
	encW, decW, outW := m.encW(), m.decW(), m.outW()

	// Encoder, step-synchronous.
	for s := 0; s < S; s++ {
		zeroFloats(bw.h0s[s])
		zeroFloats(bw.c0s[s])
		bw.hs[s] = bw.h0s[s]
		bw.cs[s] = bw.c0s[s]
	}
	encNin := m.enc.in + h
	for t := 0; t < tin; t++ {
		for s := 0; s < S; s++ {
			st := &bw.encTapes[s][t]
			xh := st.xh[:encNin]
			copy(xh, batch[s].In[t])
			copy(xh[m.enc.in:], bw.hs[s])
			st.cPrev = bw.cs[s]
		}
		batchGates(m.enc, encW, bw.encTapes, t, S)
		for s := 0; s < S; s++ {
			st := &bw.encTapes[s][t]
			cPrev := st.cPrev
			for k := 0; k < h; k++ {
				st.cNew[k] = st.f[k]*cPrev[k] + st.i[k]*st.g[k]
				st.tanhC[k] = math.Tanh(st.cNew[k])
				st.h[k] = st.o[k] * st.tanhC[k]
			}
			bw.hs[s] = st.h
			bw.cs[s] = st.cNew
		}
	}

	// Decoder: autoregressive per sample, still step-synchronous across the
	// batch. The first input is the last observed point projected to OutDim.
	for s := 0; s < S; s++ {
		prev := bw.dec0s[s]
		zeroFloats(prev)
		copy(prev, batch[s].In[tin-1])
		bw.prevs[s] = prev
	}
	decNin := m.dec.in + h
	outCols := m.out.in + 1
	for t := 0; t < tout; t++ {
		for s := 0; s < S; s++ {
			st := &bw.decTapes[s][t]
			xh := st.xh[:decNin]
			copy(xh, bw.prevs[s])
			copy(xh[m.dec.in:], bw.hs[s])
			st.cPrev = bw.cs[s]
		}
		batchGates(m.dec, decW, bw.decTapes, t, S)
		for s := 0; s < S; s++ {
			st := &bw.decTapes[s][t]
			cPrev := st.cPrev
			for k := 0; k < h; k++ {
				st.cNew[k] = st.f[k]*cPrev[k] + st.i[k]*st.g[k]
				st.tanhC[k] = math.Tanh(st.cNew[k])
				st.h[k] = st.o[k] * st.tanhC[k]
			}
			bw.hs[s] = st.h
			bw.cs[s] = st.cNew
		}
		// Output head, row outer so each head row is loaded once per step
		// (samples four at a time, same cross-sample ILP as batchGates),
		// then the residual add against the previous position.
		for r := 0; r < m.out.out; r++ {
			base := r * outCols
			row := outW[base : base+outCols]
			bias := row[m.out.in]
			rowv := row[:m.out.in]
			s := 0
			for ; s+3 < S; s += 4 {
				x0 := bw.decTapes[s][t].h[:m.out.in]
				x1 := bw.decTapes[s+1][t].h[:m.out.in]
				x2 := bw.decTapes[s+2][t].h[:m.out.in]
				x3 := bw.decTapes[s+3][t].h[:m.out.in]
				z0, z1, z2, z3 := bias, bias, bias, bias
				for j, rv := range rowv {
					z0 += rv * x0[j]
					z1 += rv * x1[j]
					z2 += rv * x2[j]
					z3 += rv * x3[j]
				}
				bw.preds[s][t][r] = z0
				bw.preds[s+1][t][r] = z1
				bw.preds[s+2][t][r] = z2
				bw.preds[s+3][t][r] = z3
			}
			for ; s < S; s++ {
				x := bw.decTapes[s][t].h[:m.out.in]
				z := bias
				for j, rv := range rowv {
					z += rv * x[j]
				}
				bw.preds[s][t][r] = z
			}
		}
		for s := 0; s < S; s++ {
			y := bw.preds[s][t]
			prev := bw.prevs[s]
			for d := range y {
				y[d] += prev[d]
			}
			bw.prevs[s] = y
		}
	}
}

// batchPropagate runs the backward propagation sweep for one step's cell
// over all samples: per-sample gate pre-activation gradients into the dz
// tape, then the weight-row sweep (row outer, sample inner) accumulating the
// packed [dx; dhPrev] — exactly the ascending-row order of the per-sample
// kernel, without touching the weight gradients (those are deferred).
func batchPropagate(c lstmCell, w Vector, tapes [][]lstmStep, dzTape [][][]float64, t, S int, bw *lstmBatchWS) {
	h := c.hidden
	cols := c.cols()
	nin := c.in + h
	for s := 0; s < S; s++ {
		st := &tapes[s][t]
		dh, dc := bw.dh[s], bw.dc[s]
		dcPrev := bw.dcPrev[s]
		dz := dzTape[s][t]
		for k := 0; k < h; k++ {
			do := dh[k] * st.tanhC[k]
			dcT := dh[k]*st.o[k]*(1-st.tanhC[k]*st.tanhC[k]) + dc[k]
			di := dcT * st.g[k]
			df := dcT * st.cPrev[k]
			dg := dcT * st.i[k]
			dcPrev[k] = dcT * st.f[k]
			dz[0*h+k] = di * st.i[k] * (1 - st.i[k])
			dz[1*h+k] = df * st.f[k] * (1 - st.f[k])
			dz[2*h+k] = dg * (1 - st.g[k]*st.g[k])
			dz[3*h+k] = do * st.o[k] * (1 - st.o[k])
		}
		zeroFloats(bw.dxh[s][:nin])
	}
	// Row pairs × sample pairs: each dxh element takes its row-(r) and
	// row-(r+1) contributions as two sequential adds — the ascending-row
	// per-element order of the per-sample kernel — while one pass serves
	// four (row, sample) combinations. The d == 0 skip stays per (row,
	// sample) — the streamed kernel skips zero rows, and += 0·w is not
	// always a bit-level no-op. 4h is even, so there is no remainder row.
	for r := 0; r < 4*h; r += 2 {
		rowA := w[r*cols : r*cols+nin]
		rowB := w[(r+1)*cols : (r+1)*cols+nin]
		s := 0
		for ; s+1 < S; s += 2 {
			dA0, dB0 := dzTape[s][t][r], dzTape[s][t][r+1]
			dA1, dB1 := dzTape[s+1][t][r], dzTape[s+1][t][r+1]
			if dA0 != 0 && dB0 != 0 && dA1 != 0 && dB1 != 0 {
				dxh0 := bw.dxh[s][:nin]
				dxh1 := bw.dxh[s+1][:nin]
				for j, ra := range rowA {
					rb := rowB[j]
					v0 := dxh0[j]
					v0 += dA0 * ra
					v0 += dB0 * rb
					dxh0[j] = v0
					v1 := dxh1[j]
					v1 += dA1 * ra
					v1 += dB1 * rb
					dxh1[j] = v1
				}
			} else {
				rowPairInto(rowA, rowB, dA0, dB0, bw.dxh[s][:nin])
				rowPairInto(rowA, rowB, dA1, dB1, bw.dxh[s+1][:nin])
			}
		}
		for ; s < S; s++ {
			rowPairInto(rowA, rowB, dzTape[s][t][r], dzTape[s][t][r+1], bw.dxh[s][:nin])
		}
	}
}

// rowPairInto accumulates one sample's contributions from two consecutive
// weight rows into dst, row A's before row B's per element, skipping a row
// whose gradient is exactly zero just as the streamed kernel does.
func rowPairInto(rowA, rowB []float64, dA, dB float64, dst []float64) {
	switch {
	case dA != 0 && dB != 0:
		for j, ra := range rowA {
			v := dst[j]
			v += dA * ra
			v += dB * rowB[j]
			dst[j] = v
		}
	case dA != 0:
		for j, ra := range rowA {
			dst[j] += dA * ra
		}
	case dB != 0:
		for j, rb := range rowB {
			dst[j] += dB * rb
		}
	}
}

// batchAccumulate is the deferred weight-gradient pass for one cell: each
// gradient row is swept once over the whole (sample, step) tape in (sample
// ascending; step descending) order — the exact per-element contribution
// sequence of the streamed path, with the gradient row kept hot instead of
// re-streamed per sample.
func batchAccumulate(c lstmCell, grad Vector, tapes [][]lstmStep, dzTape [][][]float64, T, S int) {
	h := c.hidden
	cols := c.cols()
	nin := c.in + h
	// Gradient rows in pairs: one sweep of the (sample, step) tape feeds two
	// rows, halving xh traffic. Each row's elements still see their
	// contributions in exactly (sample ascending; step descending) order, and
	// the streamed path's d == 0 row skip is preserved per row. 4h is even,
	// so there is no remainder row.
	for r := 0; r < 4*h; r += 2 {
		grow0 := grad[r*cols : r*cols+cols]
		grow1 := grad[(r+1)*cols : (r+1)*cols+cols]
		g0 := grow0[:nin]
		g1 := grow1[:nin]
		for s := 0; s < S; s++ {
			tape := tapes[s]
			dzs := dzTape[s]
			for t := T - 1; t >= 0; t-- {
				d0, d1 := dzs[t][r], dzs[t][r+1]
				if d0 == 0 && d1 == 0 {
					continue
				}
				xh := tape[t].xh[:nin]
				if d0 != 0 && d1 != 0 {
					for j, xv := range xh {
						g0[j] += d0 * xv
						g1[j] += d1 * xv
					}
					grow0[nin] += d0
					grow1[nin] += d1
				} else if d0 != 0 {
					for j, xv := range xh {
						g0[j] += d0 * xv
					}
					grow0[nin] += d0
				} else {
					for j, xv := range xh {
						g1[j] += d1 * xv
					}
					grow1[nin] += d1
				}
			}
		}
	}
}

// batchGrad is the batched BatchGrad engine: forward the whole batch
// step-synchronously, backpropagate with deferred weight-gradient
// accumulation, and add the summed gradient into grad. It returns the
// summed (not yet averaged) loss. Outputs are bit-identical to streaming
// the batch through Grad sample by sample.
func (m *Seq2Seq) batchGrad(batch []Sample, loss Loss, grad Vector) float64 {
	tin, tout := len(batch[0].In), len(batch[0].Out)
	m.batchForward(batch, tin, tout)
	bw := m.ws.bws
	S := len(batch)
	h := m.Hidden

	// Loss rows, in sample order (the streamed path computes them per
	// sample; values are independent, the sum order matches).
	var lossSum float64
	for s := 0; s < S; s++ {
		lossSum += loss.LossGrad(bw.preds[s][:tout], batch[s].Out, bw.dPreds[s][:tout])
	}

	encG := grad[m.encOff:m.decOff]
	decG := grad[m.decOff:m.outOff]
	outG := grad[m.outOff:]
	encW, decW, outW := m.encW(), m.decW(), m.outW()
	outCols := m.out.in + 1

	for s := 0; s < S; s++ {
		zeroFloats(bw.dh[s])
		zeroFloats(bw.dc[s])
	}
	// Decoder steps, newest first. The output-head gradient rows (dy) are
	// taped for the deferred outG pass; only the propagation (dhOut, dxh)
	// runs here.
	for t := tout - 1; t >= 0; t-- {
		for s := 0; s < S; s++ {
			dy := bw.dyTape[s][t]
			copy(dy, bw.dPreds[s][t])
			if t < tout-1 {
				dNext := bw.dNext[s]
				for i := range dy {
					dy[i] += dNext[i]
				}
			}
			dhOut := bw.dhOut[s]
			zeroFloats(dhOut)
			for r := 0; r < m.out.out; r++ {
				d := dy[r]
				if d == 0 {
					continue
				}
				row := outW[r*outCols : r*outCols+m.out.in]
				for j, rv := range row {
					dhOut[j] += d * rv
				}
			}
			dh := bw.dh[s]
			for i := range dh {
				dh[i] += dhOut[i]
			}
		}
		batchPropagate(m.dec, decW, bw.decTapes, bw.dzDec, t, S, bw)
		for s := 0; s < S; s++ {
			dxh := bw.dxh[s]
			dy := bw.dyTape[s][t]
			dNext := bw.dNext[s]
			// The previous prediction feeds step t twice: as the decoder
			// input and through the residual head.
			for i := range dNext {
				dNext[i] = dxh[i] + dy[i]
			}
			copy(bw.dh[s], dxh[m.dec.in:m.dec.in+h])
			bw.dc[s], bw.dcPrev[s] = bw.dcPrev[s], bw.dc[s]
		}
	}
	// Encoder BPTT.
	for t := tin - 1; t >= 0; t-- {
		batchPropagate(m.enc, encW, bw.encTapes, bw.dzEnc, t, S, bw)
		for s := 0; s < S; s++ {
			dxh := bw.dxh[s]
			copy(bw.dh[s], dxh[m.enc.in:m.enc.in+h])
			bw.dc[s], bw.dcPrev[s] = bw.dcPrev[s], bw.dc[s]
		}
	}

	// Deferred weight-gradient accumulation: decoder and encoder cells via
	// the taped dz, the output head via the taped dy rows against the taped
	// decoder hidden states.
	batchAccumulate(m.dec, decG, bw.decTapes, bw.dzDec, tout, S)
	batchAccumulate(m.enc, encG, bw.encTapes, bw.dzEnc, tin, S)
	for r := 0; r < m.out.out; r++ {
		base := r * outCols
		grow := outG[base : base+outCols]
		growv := grow[:m.out.in]
		for s := 0; s < S; s++ {
			for t := tout - 1; t >= 0; t-- {
				d := bw.dyTape[s][t][r]
				if d == 0 {
					continue
				}
				x := bw.decTapes[s][t].h[:m.out.in]
				for j, rv := range x {
					growv[j] += d * rv
				}
				grow[m.out.in] += d
			}
		}
	}
	return lossSum
}

// batchLoss is the batched BatchLoss engine: one step-synchronous forward,
// then the per-sample loss in sample order. Returns the summed loss.
func (m *Seq2Seq) batchLoss(batch []Sample, loss Loss) float64 {
	tin, tout := len(batch[0].In), len(batch[0].Out)
	m.batchForward(batch, tin, tout)
	bw := m.ws.bws
	var sum float64
	for s := range batch {
		sum += loss.LossGrad(bw.preds[s][:tout], batch[s].Out, bw.dPreds[s][:tout])
	}
	return sum
}
