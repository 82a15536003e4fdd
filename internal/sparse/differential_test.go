package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
)

// This file is the format-differential harness: every storage format's SMSV
// kernel is checked against an independent dense reference computed straight
// from the generator's triplets — no shared code with the formats under
// test. Generators sweep shape, density, and structure (banded, row-skewed,
// empty rows, single column, fully dense) because each format has a
// different degenerate case: ELL explodes on skewed rows, DIA on scattered
// diagonals, CSR/COO on empty rows, DEN on nothing.

// diffCase is one generated matrix plus its ground-truth dense image.
type diffCase struct {
	name       string
	rows, cols int
	b          *Builder
	dense      []float64 // row-major rows×cols, built alongside b
}

// genCase fills a builder and its dense mirror cell-by-cell so the reference
// never passes through any sparse format code.
func genCase(name string, rows, cols int, fill func(i, j int, rng *rand.Rand) float64, seed int64) diffCase {
	rng := rand.New(rand.NewSource(seed))
	c := diffCase{name: name, rows: rows, cols: cols, b: NewBuilder(rows, cols), dense: make([]float64, rows*cols)}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := fill(i, j, rng); v != 0 {
				c.b.Add(i, j, v)
				c.dense[i*cols+j] = v
			}
		}
	}
	return c
}

// diffCases is the generator sweep shared by the differential tests.
func diffCases() []diffCase {
	uniform := func(density float64) func(i, j int, rng *rand.Rand) float64 {
		return func(i, j int, rng *rand.Rand) float64 {
			if rng.Float64() < density {
				return rng.NormFloat64() + 0.1
			}
			return 0
		}
	}
	return []diffCase{
		genCase("tiny-1x1", 1, 1, func(i, j int, rng *rand.Rand) float64 { return 3.5 }, 1),
		genCase("single-column", 40, 1, uniform(0.6), 2),
		genCase("single-row", 1, 60, uniform(0.4), 3),
		genCase("uniform-sparse", 80, 50, uniform(0.05), 4),
		genCase("uniform-medium", 64, 64, uniform(0.2), 5),
		genCase("all-dense", 30, 20, uniform(1.1), 6),
		// Band of width 5 around the main diagonal: DIA's best case, ELL's
		// fine, and a stress on DEN's column indexing.
		genCase("banded", 70, 70, func(i, j int, rng *rand.Rand) float64 {
			if d := i - j; d >= -2 && d <= 2 {
				return float64(d) + 0.5
			}
			return 0
		}, 7),
		// One pathological heavy row in an otherwise near-empty matrix:
		// maximal ELL padding, and rows 0 and rows-1 stay entirely empty.
		genCase("row-skew-with-empty-rows", 50, 120, func(i, j int, rng *rand.Rand) float64 {
			switch {
			case i == 25:
				return 1.0 + float64(j)/100
			case i == 0 || i == 49:
				return 0
			default:
				if rng.Float64() < 0.01 {
					return rng.NormFloat64()
				}
				return 0
			}
		}, 8),
		// Empty columns on the right edge: x entries there must contribute
		// nothing and the kernels must not read past stored widths.
		genCase("empty-right-columns", 40, 60, func(i, j int, rng *rand.Rand) float64 {
			if j < 30 && rng.Float64() < 0.3 {
				return rng.NormFloat64() + 0.2
			}
			return 0
		}, 9),
		genCase("tall-thin", 300, 4, uniform(0.4), 10),
		genCase("short-wide", 4, 300, uniform(0.4), 11),
	}
}

// refSMSV is the reference dst = A·x from the dense mirror.
func refSMSV(c diffCase, x Vector) []float64 {
	xd := x.Dense()
	out := make([]float64, c.rows)
	for i := 0; i < c.rows; i++ {
		var sum float64
		for j := 0; j < c.cols; j++ {
			sum += c.dense[i*c.cols+j] * xd[j]
		}
		out[i] = sum
	}
	return out
}

// xVariants returns sparse test vectors of the matrix's column dimension:
// empty, a single entry, sparse, and fully dense.
func xVariants(cols int, rng *rand.Rand) []Vector {
	mk := func(density float64) Vector {
		d := make([]float64, cols)
		for j := range d {
			if rng.Float64() < density {
				d[j] = rng.NormFloat64() + 0.3
			}
		}
		return NewVectorDense(d)
	}
	one := Vector{Dim: cols}
	one = one.Append(int32(rng.Intn(cols)), 2.25)
	return []Vector{{Dim: cols}, one, mk(0.2), mk(1.1)}
}

// TestDifferentialSMSVAllFormats checks every (matrix shape, format, x
// density, execution mode) combination against the dense reference. Only DIA
// may decline to build (too many distinct diagonals); every format that
// builds must agree within floating-point reassociation tolerance.
func TestDifferentialSMSVAllFormats(t *testing.T) {
	ex := texec(t, 4, exec.Guided)
	rng := rand.New(rand.NewSource(99))
	for _, c := range diffCases() {
		for xi, x := range xVariants(c.cols, rng) {
			want := refSMSV(c, x)
			for _, f := range BasicFormats {
				m, err := c.b.Build(f)
				if err != nil {
					if f == DIA {
						continue // legitimately unbuildable: diagonals too scattered
					}
					t.Fatalf("%s: %v failed to build: %v", c.name, f, err)
				}
				for mode, e := range map[string]*exec.Exec{"serial": nil, "pooled": ex} {
					dst := make([]float64, c.rows)
					scratch := make([]float64, c.cols)
					m.MulVecSparse(dst, x, scratch, e)
					if !almostEqual(dst, want, 1e-9) {
						t.Fatalf("%s/%v/x%d/%s: SMSV diverges from dense reference\n got %v\nwant %v",
							c.name, f, xi, mode, dst, want)
					}
					for j, s := range scratch {
						if s != 0 {
							t.Fatalf("%s/%v/x%d/%s: scratch[%d]=%v not restored to zero", c.name, f, xi, mode, j, s)
						}
					}
				}
			}
		}
	}
}

// TestDifferentialSMSVWorkerCountInvariant is the DESIGN §6 contract: a
// format's SMSV result does not depend on how many workers ran it or how
// the rows were chunked. Bits are compared, not tolerances — the SMO
// trajectory amplifies a last-place difference into a different iteration
// count, which is how a worker-count-dependent COO kernel once made tier-1
// fail on multi-core hosts.
func TestDifferentialSMSVWorkerCountInvariant(t *testing.T) {
	var execs []*exec.Exec
	for _, workers := range []int{1, 2, 3, 4, 7} {
		execs = append(execs, texec(t, workers, exec.Static), texec(t, workers, exec.Guided))
	}
	rng := rand.New(rand.NewSource(23))
	for _, c := range diffCases() {
		for xi, x := range xVariants(c.cols, rng) {
			for _, f := range BasicFormats {
				m, err := c.b.Build(f)
				if err != nil {
					continue // DIA over its diagonal cap; the sweep above checks that
				}
				scratch := make([]float64, c.cols)
				serial := make([]float64, c.rows)
				m.MulVecSparse(serial, x, scratch, nil)
				for _, ex := range execs {
					got := make([]float64, c.rows)
					m.MulVecSparse(got, x, scratch, ex)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(serial[i]) {
							t.Fatalf("%s/%v/x%d: %d workers give dst[%d] = %v, serial kernel gives %v",
								c.name, f, xi, ex.Workers(), i, got[i], serial[i])
						}
					}
				}
			}
		}
	}
}

// TestDifferentialFormatsAgreePairwise cross-checks the formats against each
// other on larger random matrices: with the reference already validated
// above, pairwise agreement catches any format pair drifting together.
func TestDifferentialFormatsAgreePairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		rows, cols := 20+rng.Intn(150), 20+rng.Intn(150)
		c := genCase(fmt.Sprintf("trial-%d", trial), rows, cols, func(i, j int, r *rand.Rand) float64 {
			if r.Float64() < 0.1 {
				return r.NormFloat64()
			}
			return 0
		}, int64(trial)*31+5)
		x := xVariants(cols, rng)[2]
		scratch := make([]float64, cols)
		var baseline []float64
		var baseFmt Format
		for _, f := range BasicFormats {
			m, err := c.b.Build(f)
			if err != nil {
				if f == DIA {
					continue
				}
				t.Fatalf("trial %d: %v failed to build: %v", trial, f, err)
			}
			dst := make([]float64, rows)
			m.MulVecSparse(dst, x, scratch, nil)
			if baseline == nil {
				baseline, baseFmt = dst, f
				continue
			}
			if !almostEqual(dst, baseline, 1e-9) {
				t.Fatalf("trial %d: %v and %v disagree", trial, f, baseFmt)
			}
		}
	}
}
