package core

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

// The fixtures under testdata/ pin the on-disk bytes of both history wire
// forms. They were generated from the twin implementations before the
// generic store replaced them; regenerate with `go test -run Golden -update`
// only for an intentional, versioned format change.
var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenFeatures are hand-written shapes (no generator, no measurement) so
// the embedded points — and therefore the saved bytes — never drift.
var goldenFeatures = []dataset.Features{
	{M: 1000, N: 123, NNZ: 13860, Ndig: 1100, Dnnz: 12.6, Mdim: 14, Adim: 13.86, Vdim: 0.12, Density: 0.1127},
	{M: 512, N: 512, NNZ: 1534, Ndig: 3, Dnnz: 511.3, Mdim: 3, Adim: 2.996, Vdim: 0.004, Density: 0.00585},
	{M: 64, N: 4096, NNZ: 65536, Ndig: 4159, Dnnz: 15.76, Mdim: 2048, Adim: 1024, Vdim: 262144, Density: 0.25},
}

// assertGolden compares got against the fixture byte for byte, or rewrites
// the fixture under -update.
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
		t.Fatalf("%s: saved bytes differ from the fixture\n got: %q\nwant: %q", path, got, want)
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

func TestGoldenHistoryV2(t *testing.T) {
	h := &History{}
	h.RecordCandidate(goldenFeatures[0], sparse.Candidate{Format: sparse.CSR, Chunk: sparse.ChunkGuided, Variant: sparse.VariantRowBlocked})
	h.RecordCandidate(goldenFeatures[1], sparse.BaseCandidate(sparse.DIA))
	h.RecordCandidate(goldenFeatures[2], sparse.BaseCandidate(sparse.ELL))
	fixture := assertGolden(t, "testdata/history_v2.golden", saved(t, h.Save))

	loaded, err := loadHistory(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if got := saved(t, loaded.Save); !bytes.Equal(got, fixture) {
		t.Fatalf("load→save of the fixture is not the identity:\n%s", got)
	}
	if c, ok := loaded.Lookup(goldenFeatures[1], DefaultHistoryRadius); !ok || c != sparse.BaseCandidate(sparse.DIA) {
		t.Fatalf("lookup on loaded fixture: %v %v", c, ok)
	}
}

func TestGoldenPairHistoryV1(t *testing.T) {
	h := &PairHistory{}
	h.RecordCandidate(goldenFeatures[0], goldenFeatures[1], spgemm.BaseCandidate)
	h.RecordCandidate(goldenFeatures[1], goldenFeatures[1],
		spgemm.Candidate{Dataflow: spgemm.OuterProduct, AFormat: sparse.CSC, BFormat: sparse.ELL})
	h.RecordCandidate(goldenFeatures[2], goldenFeatures[0],
		spgemm.Candidate{Dataflow: spgemm.InnerProduct, AFormat: sparse.CSR, BFormat: sparse.CSC})
	fixture := assertGolden(t, "testdata/pair_history_v1.golden", saved(t, h.Save))

	loaded, err := loadPairHistory(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if got := saved(t, loaded.Save); !bytes.Equal(got, fixture) {
		t.Fatalf("load→save of the fixture is not the identity:\n%s", got)
	}
	if c, ok := loaded.Lookup(goldenFeatures[0], goldenFeatures[1], DefaultPairHistoryRadius); !ok || c != spgemm.BaseCandidate {
		t.Fatalf("lookup on loaded fixture: %v %v", c, ok)
	}
}
