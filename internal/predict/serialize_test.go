package predict

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/nn"
)

func TestSaveLoadModelsRoundTrip(t *testing.T) {
	w := tinyWorkload(dataset.Workload1)
	res, err := Train(context.Background(), w, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	var head struct {
		Format string `json:"format"`
		Arch   string `json:"arch"`
	}
	if err := json.Unmarshal(buf.Bytes(), &head); err != nil {
		t.Fatal(err)
	}
	if head.Format != "tamp-predictors-v1" || head.Arch != "lstm" {
		t.Fatalf("bundle header format=%q arch=%q, want tamp-predictors-v1/lstm", head.Format, head.Arch)
	}
	loaded, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(res.Models) {
		t.Fatalf("loaded %d models, want %d", len(loaded), len(res.Models))
	}
	// Predictions from loaded models must match the originals exactly.
	wk := &w.Workers[0]
	recent := wk.TestDays[0].Points[:5]
	orig := res.Models[wk.ID].PredictFuture(recent, 6)
	rest := loaded[wk.ID].PredictFuture(recent, 6)
	for i := range orig {
		if orig[i] != rest[i] {
			t.Fatalf("prediction %d differs after round trip: %v vs %v", i, orig[i], rest[i])
		}
	}
	if loaded[wk.ID].MR != res.Models[wk.ID].MR {
		t.Error("MR lost in round trip")
	}
}

func TestLoadModelsRejectsGarbage(t *testing.T) {
	if _, err := LoadModels(strings.NewReader("not json")); err == nil {
		t.Error("expected decode error")
	}
	if _, err := LoadModels(strings.NewReader(`{"format":"wrong"}`)); err == nil {
		t.Error("expected format error")
	}
	bad := `{"format":"tamp-predictors-v1","seqIn":3,"seqOut":1,"hidden":4,"inDim":4,"outDim":2,` +
		`"models":{"0":{"mr":0.5,"weights":[1,2,3]}}}`
	if _, err := LoadModels(strings.NewReader(bad)); err == nil {
		t.Error("expected weight-count error")
	}

	// Each bundle carries exactly the weight count an LSTM of its dims
	// has (none for a negative dim), so only the field under test is
	// wrong.
	bundle := func(arch string, seqIn, seqOut, hidden, inDim, outDim int) string {
		w := nn.Vector{}
		if hidden >= 0 && inDim >= 0 && outDim >= 0 {
			w = nn.NewVector(nn.NewSeq2Seq(inDim, outDim, hidden, rand.New(rand.NewSource(1))).NumParams())
		}
		ws, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf(`{"format":"tamp-predictors-v1",%s"seqIn":%d,"seqOut":%d,"hidden":%d,"inDim":%d,"outDim":%d,`+
			`"models":{"0":{"mr":0.5,"weights":%s}}}`, arch, seqIn, seqOut, hidden, inDim, outDim, ws)
	}
	if _, err := LoadModels(strings.NewReader(bundle(`"arch":"lstm",`, 3, 1, 4, 4, 2))); err != nil {
		t.Fatalf("valid lstm bundle rejected: %v", err)
	}
	if _, err := LoadModels(strings.NewReader(bundle("", 3, 1, 4, 4, 2))); err != nil {
		t.Fatalf("bundle without arch rejected: %v", err)
	}
	for name, in := range map[string]string{
		"negative hidden": bundle("", 3, 1, -1, 4, 2),
		"zero dims":       bundle("", 0, 0, 0, 0, 0),
		"zero inDim":      bundle("", 3, 1, 4, 0, 2),
		"zero outDim":     bundle("", 3, 1, 4, 4, 0),
		"zero seqIn":      bundle("", 0, 1, 4, 4, 2),
		"zero seqOut":     bundle("", 3, 0, 4, 4, 2),
		"gru arch":        bundle(`"arch":"gru",`, 3, 1, 4, 4, 2),
		"unknown arch":    bundle(`"arch":"foo",`, 3, 1, 4, 4, 2),
	} {
		if _, err := LoadModels(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSaveModelsEmpty(t *testing.T) {
	r := &Result{Models: map[int]*WorkerModel{}}
	var buf bytes.Buffer
	if err := r.SaveModels(&buf); err == nil {
		t.Error("expected error for empty result")
	}
}
