package nn

// Model is the contract the meta-learning stack requires of a mobility
// prediction network: the paper's algorithms are model-agnostic and work
// with "any machine learning model that can be updated via gradient
// descent" (§III-B Discussion). All parameters live in one flat Vector.
//
// Models own a reusable scratch workspace, which makes the hot path
// steady-state allocation-free but also means a model value is NOT safe for
// concurrent use: share models across goroutines by cloning (CloneModel),
// as internal/par and internal/meta do.
type Model interface {
	// Predict runs the model on one input sequence, emitting seqOut steps.
	// The returned rows are workspace-owned: valid until the next
	// Predict/Grad/BatchLoss/BatchGrad call on the same model; copy to
	// retain.
	Predict(in [][]float64, seqOut int) [][]float64
	// Grad accumulates dLoss/dWeights for one sample into grad and returns
	// the loss.
	Grad(in, target [][]float64, loss Loss, grad Vector) float64
	// BatchLoss returns the mean loss over a batch.
	BatchLoss(batch []Sample, loss Loss) float64
	// BatchGrad zeroes grad, accumulates the mean gradient over the batch,
	// and returns the mean loss.
	BatchGrad(batch []Sample, loss Loss, grad Vector) float64
	// Weights returns the live flat parameter vector.
	Weights() Vector
	// SetWeights copies w into the model.
	SetWeights(w Vector)
	// NumParams returns the parameter count.
	NumParams() int
	// CloneModel returns an independent copy.
	CloneModel() Model
}

// CloneModel implements Model.
func (m *Seq2Seq) CloneModel() Model { return m.Clone() }
