package predict

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/traj"
)

// zeroRand seeds throwaway model construction; the random weights are
// immediately replaced by the loaded ones.
func zeroRand() *rand.Rand { return rand.New(rand.NewSource(0)) }

// bundleFile is the on-disk representation of a trained prediction stage:
// one entry per worker with its adapted weights and matching rate, plus the
// shared architecture and normalizer.
type bundleFile struct {
	Format string             `json:"format"`
	Arch   string             `json:"arch"`
	SeqIn  int                `json:"seqIn"`
	SeqOut int                `json:"seqOut"`
	Hidden int                `json:"hidden"`
	InDim  int                `json:"inDim"`
	OutDim int                `json:"outDim"`
	Norm   traj.Normalizer    `json:"norm"`
	Models map[int]modelEntry `json:"models"`
}

type modelEntry struct {
	MR      float64   `json:"mr"`
	Weights nn.Vector `json:"weights"`
}

const bundleFormat = "tamp-predictors-v1"

// bundleArch names the one network a bundle holds, nn.Seq2Seq. Bundles
// without the field load as that network too.
const bundleArch = "lstm"

// SaveModels serializes every worker model of the result so the offline
// stage can train once and the online platform can load predictors without
// retraining.
func (r *Result) SaveModels(w io.Writer) error {
	if len(r.Models) == 0 {
		return fmt.Errorf("predict: no models to save")
	}
	var proto *WorkerModel
	for _, m := range r.Models {
		proto = m
		break
	}
	net, ok := proto.Model.(*nn.Seq2Seq)
	if !ok {
		return fmt.Errorf("predict: cannot save model type %T", proto.Model)
	}
	f := bundleFile{
		Format: bundleFormat,
		Arch:   bundleArch,
		SeqIn:  proto.SeqIn,
		SeqOut: proto.SeqOut,
		Hidden: net.Hidden,
		InDim:  net.InDim,
		OutDim: net.OutDim,
		Norm:   r.Norm,
		Models: map[int]modelEntry{},
	}
	for id, m := range r.Models {
		f.Models[id] = modelEntry{MR: m.MR, Weights: m.Model.Weights()}
	}
	return json.NewEncoder(w).Encode(&f)
}

// LoadModels reads a bundle written by SaveModels and reconstructs the
// per-worker predictors.
func LoadModels(r io.Reader) (map[int]*WorkerModel, error) {
	var f bundleFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("predict: decode bundle: %w", err)
	}
	if f.Format != bundleFormat {
		return nil, fmt.Errorf("predict: unsupported bundle format %q", f.Format)
	}
	if f.Arch != "" && f.Arch != bundleArch {
		return nil, fmt.Errorf("predict: unsupported model arch %q", f.Arch)
	}
	if f.InDim <= 0 || f.OutDim <= 0 || f.Hidden <= 0 || f.SeqIn <= 0 || f.SeqOut <= 0 {
		return nil, fmt.Errorf("predict: invalid bundle dims inDim=%d outDim=%d hidden=%d seqIn=%d seqOut=%d",
			f.InDim, f.OutDim, f.Hidden, f.SeqIn, f.SeqOut)
	}
	out := map[int]*WorkerModel{}
	for id, e := range f.Models {
		m := nn.NewSeq2Seq(f.InDim, f.OutDim, f.Hidden, zeroRand())
		if len(e.Weights) != m.NumParams() {
			return nil, fmt.Errorf("predict: worker %d weight count %d, want %d", id, len(e.Weights), m.NumParams())
		}
		m.SetWeights(e.Weights)
		out[id] = &WorkerModel{
			WorkerID: id,
			Model:    m,
			Norm:     f.Norm,
			SeqIn:    f.SeqIn,
			SeqOut:   f.SeqOut,
			MR:       e.MR,
		}
	}
	return out, nil
}
