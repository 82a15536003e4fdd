package learn

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	examples := axisExamples(150, 3, rng)
	f, err := Train(examples, TrainConfig{Trees: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g.Trees() != f.Trees() || g.TrainedOn() != f.TrainedOn() {
		t.Fatalf("metadata drift: %d/%d vs %d/%d", g.Trees(), g.TrainedOn(), f.Trees(), f.TrainedOn())
	}
	// The loaded model must predict identically on fresh points.
	for _, e := range axisExamples(80, 3, rng) {
		g1, c1, _ := SMSV.Predict(f, e.Point)
		g2, c2, _ := SMSV.Predict(g, e.Point)
		if g1 != g2 || c1 != c2 {
			t.Fatalf("round-trip changed prediction: (%v %g) vs (%v %g)", g1, c1, g2, c2)
		}
	}
}

func TestLoadCorruptModel(t *testing.T) {
	cases := []string{
		"",                       // empty file
		"not json at all",        // garbage
		`{"version":2,"dims":7}`, // no trees
		`{"version":2,"dims":3,"trees":[{"nodes":[{"feat":-1,"label":"CSR"}]}]}`,                                          // wrong dims
		`{"version":2,"dims":7,"trees":[{"nodes":[]}]}`,                                                                   // empty tree
		`{"version":2,"dims":7,"trees":[{"nodes":[{"feat":-1,"label":"XYZ"}]}]}`,                                          // unknown label
		`{"version":2,"dims":7,"trees":[{"nodes":[{"feat":-1,"label":"CSR","purity":1.5}]}]}`,                             // purity out of range
		`{"version":2,"dims":7,"trees":[{"nodes":[{"feat":9,"thresh":0,"left":1,"right":1},{"feat":-1,"label":"CSR"}]}]}`, // feature out of range
		`{"version":2,"dims":7,"trees":[{"nodes":[{"feat":0,"thresh":0,"left":0,"right":0}]}]}`,                           // self-referential children
	}
	for i, raw := range cases {
		if _, err := Load(strings.NewReader(raw)); err == nil {
			t.Errorf("case %d: Load accepted corrupt model %q", i, raw)
		}
	}
}

func TestLoadVersionMismatch(t *testing.T) {
	raw := fmt.Sprintf(`{"version":%d,"dims":7,"trees":[{"nodes":[{"feat":-1,"label":"CSR","purity":1}]}]}`, modelVersion+1)
	_, err := Load(strings.NewReader(raw))
	if !errors.Is(err, ErrModelVersion) {
		t.Fatalf("err = %v, want ErrModelVersion", err)
	}
	if !strings.Contains(err.Error(), "layoutsched train") {
		t.Fatalf("version error should tell the operator how to retrain: %v", err)
	}
	// A version-1 (format-only label space) model must be rejected, not
	// silently reinterpreted in the joint space.
	v1 := `{"version":1,"dims":7,"trees":[{"nodes":[{"feat":-1,"label":"CSR","purity":1}]}]}`
	if _, err := Load(strings.NewReader(v1)); !errors.Is(err, ErrModelVersion) {
		t.Fatalf("v1 model: err = %v, want ErrModelVersion", err)
	}
}

// TestLoadChecksKind: each loader requires its own workload's kind, so a
// model file never loads into the other workload's forest — not even at a
// version and width the other loader would accept.
func TestLoadChecksKind(t *testing.T) {
	f, err := TrainPair([]PairExample{FromPairFeatures(dataset.Features{M: 4, N: 4}, dataset.Features{M: 4, N: 4}, spgemm.BaseCandidate)}, TrainConfig{Trees: 1})
	if err != nil {
		t.Fatal(err)
	}
	var pair bytes.Buffer
	if err := f.Save(&pair); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&pair); err == nil || errors.Is(err, ErrModelVersion) || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("Load of a pair model: err = %v, want a kind mismatch", err)
	}
	disguised := fmt.Sprintf(`{"version":%d,"kind":%q,"dims":7,"trees":[{"nodes":[{"feat":-1,"label":"CSR","purity":1}]}]}`, modelVersion, kindPair)
	if _, err := Load(strings.NewReader(disguised)); err == nil {
		t.Fatal("Load accepted a model of the pair kind at the SMSV version and width")
	}
}

// TestSaveWritesCandidateLabels pins the v2 wire form: leaves serialize the
// full candidate string so chunk and variant survive the round trip.
func TestSaveWritesCandidateLabels(t *testing.T) {
	f, err := Train([]Example{{Candidate: sparse.Candidate{Format: sparse.CSR, Chunk: sparse.ChunkGuided, Variant: sparse.VariantFused}}}, TrainConfig{Trees: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"CSR/guided/fused"`) {
		t.Fatalf("saved model lacks candidate wire form: %s", buf.String())
	}
	g, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, _, ok := SMSV.Predict(g, [dataset.EmbedDims]float64{})
	if !ok || got != (sparse.Candidate{Format: sparse.CSR, Chunk: sparse.ChunkGuided, Variant: sparse.VariantFused}) {
		t.Fatalf("round-tripped candidate label %v ok=%v", got, ok)
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	rng := rand.New(rand.NewSource(4))
	f, err := Train(axisExamples(60, 5, rng), TrainConfig{Trees: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g, err := SMSV.LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Trees() != 5 {
		t.Fatalf("loaded %d trees, want 5", g.Trees())
	}
	// Errors must name the offending file so daemon startup logs are
	// actionable.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SMSV.LoadModelFile(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("LoadFile error should name the path: %v", err)
	}
	if _, err := SMSV.LoadModelFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("LoadFile on a missing file must error")
	}
}

// TestModelEmbeddingCompatibility guards serialization drift end to end: a
// model trained in this build, saved, and reloaded must agree with the
// live forest on the embedding of real dataset features.
func TestModelEmbeddingCompatibility(t *testing.T) {
	feats := []dataset.Features{
		{M: 2265, N: 119, NNZ: 31404, Ndig: 2347, Dnnz: 13.38, Mdim: 14, Adim: 13.87, Vdim: 0.059, Density: 0.119},
		{M: 2000, N: 2000, NNZ: 21953, Ndig: 12, Dnnz: 1829, Mdim: 12, Adim: 10.98, Vdim: 1.25, Density: 0.006},
	}
	rng := rand.New(rand.NewSource(17))
	f, err := Train(axisExamples(100, 6, rng), TrainConfig{Trees: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ft := range feats {
		g1, c1, _ := f.PredictCandidate(ft)
		g2, c2, _ := g.PredictCandidate(ft)
		if g1 != g2 || c1 != c2 {
			t.Fatalf("saved model diverged on %+v", ft)
		}
	}
}
