package learn

import (
	"bytes"
	"flag"
	"io"
	"os"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// The fixtures under testdata/ pin the on-disk bytes of both model files
// (SMSV model v2, pair model v1). They were generated from the twin
// implementations before the generic tree replaced them, so they also pin
// the training procedure itself: same examples + same seed must keep
// growing the same trees. Regenerate with `go test -run Golden -update`
// only for an intentional, versioned format change.
var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenShapes are hand-written features; labels cycle over a few
// candidates so the trees have real splits.
func goldenShapes() []dataset.Features {
	var out []dataset.Features
	for i := 0; i < 18; i++ {
		m := 32 << (i % 6)
		n := 48 << ((i / 2) % 5)
		mdim := 2 + 3*(i%7)
		nnz := int64(m) * int64(1+mdim/2)
		out = append(out, dataset.Features{
			M: m, N: n, NNZ: nnz, Ndig: 1 + (i*37)%(m+n-1), Dnnz: float64(nnz) / float64(1+(i*37)%(m+n-1)),
			Mdim: mdim, Adim: float64(nnz) / float64(m), Vdim: float64(i%4) * 1.5,
			Density: float64(nnz) / (float64(m) * float64(n)),
		})
	}
	return out
}

func assertGolden(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: saved bytes differ from the fixture\n got: %s\nwant: %s", path, got, want)
	}
	return want
}

func saved(t *testing.T, save func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenModelV2(t *testing.T) {
	labels := []sparse.Candidate{
		sparse.BaseCandidate(sparse.CSR),
		{Format: sparse.CSR, Chunk: sparse.ChunkGuided, Variant: sparse.VariantRowBlocked},
		sparse.BaseCandidate(sparse.ELL),
		sparse.BaseCandidate(sparse.DIA),
	}
	var exs []Example
	for i, f := range goldenShapes() {
		exs = append(exs, FromFeatures(f, labels[(i/3)%len(labels)]))
	}
	f, err := Train(exs, TrainConfig{Trees: 3, MaxDepth: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fixture := assertGolden(t, "testdata/model_v2.golden.json", saved(t, f.Save))

	loaded, err := Load(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if got := saved(t, loaded.Save); !bytes.Equal(got, fixture) {
		t.Fatalf("load→save of the fixture is not the identity:\n%s", got)
	}
	for _, e := range exs {
		wc, wconf, _ := SMSV.Predict(f, e.Point)
		gc, gconf, ok := SMSV.Predict(loaded, e.Point)
		if !ok || gc != wc || gconf != wconf {
			t.Fatalf("loaded fixture predicts %v/%v, trained forest %v/%v", gc, gconf, wc, wconf)
		}
	}
}

func TestGoldenPairModelV1(t *testing.T) {
	labels := spgemm.AppendCandidates(nil)
	shapes := goldenShapes()
	var exs []PairExample
	for i, f := range shapes {
		exs = append(exs, FromPairFeatures(f, shapes[(i+5)%len(shapes)], labels[(i/3)%len(labels)]))
	}
	f, err := TrainPair(exs, TrainConfig{Trees: 3, MaxDepth: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fixture := assertGolden(t, "testdata/pair_model_v1.golden.json", saved(t, f.Save))

	loaded, err := LoadPair(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if got := saved(t, loaded.Save); !bytes.Equal(got, fixture) {
		t.Fatalf("load→save of the fixture is not the identity:\n%s", got)
	}
	for _, e := range exs {
		wc, wconf, _ := SpGEMM.Predict(f, e.Point)
		gc, gconf, ok := SpGEMM.Predict(loaded, e.Point)
		if !ok || gc != wc || gconf != wconf {
			t.Fatalf("loaded fixture predicts %v/%v, trained forest %v/%v", gc, gconf, wc, wconf)
		}
	}
}
