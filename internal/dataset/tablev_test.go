package dataset

import (
	"testing"

	"repro/internal/sparse"
)

func TestTableVHasElevenDatasets(t *testing.T) {
	ds := TableV()
	if len(ds) != 11 {
		t.Fatalf("got %d datasets, want 11", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		if names[d.Name] {
			t.Fatalf("duplicate dataset %q", d.Name)
		}
		names[d.Name] = true
	}
	for _, want := range append(append([]string{}, Figure1Names...), Table6Names...) {
		if !names[want] {
			t.Fatalf("figure/table dataset %q missing from Table V", want)
		}
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("trefethen")
	if err != nil || d.Name != "trefethen" {
		t.Fatalf("ByName failed: %v %v", d, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestClonesMatchPaperSignature is the load-bearing test for the whole
// reproduction: every generated clone must land close to the paper's
// Table V statistics (or their scaled equivalents) on the parameters that
// drive format selection.
func TestClonesMatchPaperSignature(t *testing.T) {
	for _, d := range TableV() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			b := d.MustGenerate(1)
			f := Extract(b.MustBuild(sparse.CSR))
			if f.M != d.CloneM || f.N != d.CloneN {
				t.Fatalf("dims %dx%d, want %dx%d", f.M, f.N, d.CloneM, d.CloneN)
			}
			// Density must always match (it is scale-invariant).
			if RelErr(f.Density, d.Paper.Density) > 0.10 {
				t.Errorf("density %v, want %v", f.Density, d.Paper.Density)
			}
			// adim matches unless the dataset is dense-scaled (then it is
			// CloneN by construction).
			wantAdim := d.Paper.Adim
			if d.Scaled && d.Paper.Density == 1.0 {
				wantAdim = float64(d.CloneN)
			}
			if RelErr(f.Adim, wantAdim) > 0.10 {
				t.Errorf("adim %v, want %v", f.Adim, wantAdim)
			}
			// mdim: exact for unscaled, CloneN for dense-scaled clones.
			wantMdim := d.Paper.Mdim
			if d.Scaled && d.Paper.Density == 1.0 {
				wantMdim = d.CloneN
			}
			if wantMdim > d.CloneN {
				wantMdim = d.CloneN
			}
			if RelErr(float64(f.Mdim), float64(wantMdim)) > 0.05 {
				t.Errorf("mdim %v, want %v", f.Mdim, wantMdim)
			}
			// vdim zero stays zero; nonzero vdim within 2x (the dither
			// perturbs it slightly).
			if d.Paper.Vdim == 0 && f.Vdim > 1.0 {
				t.Errorf("vdim %v, want ~0", f.Vdim)
			}
			if d.Paper.Vdim > 1 && !d.Scaled {
				if f.Vdim < d.Paper.Vdim/3 || f.Vdim > d.Paper.Vdim*3 {
					t.Errorf("vdim %v, want within 3x of %v", f.Vdim, d.Paper.Vdim)
				}
			}
			// trefethen's banded structure is the whole point: exact ndig.
			if d.Name == "trefethen" && f.Ndig != d.Paper.Ndig {
				t.Errorf("ndig %d, want %d", f.Ndig, d.Paper.Ndig)
			}
		})
	}
}

func TestClonesBuildInAllBasicFormats(t *testing.T) {
	for _, d := range TableV() {
		b := d.MustGenerate(2)
		for _, f := range sparse.BasicFormats {
			if m, err := b.Build(f); err != nil || m == nil {
				t.Fatalf("%s: format %v not built: %v", d.Name, f, err)
			}
		}
	}
}
