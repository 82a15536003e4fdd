// Package repro's root benchmark suite regenerates every paper table and
// figure as a testing.B benchmark (one target per experiment, as indexed in
// DESIGN.md §4), plus the ablations of DESIGN.md §5. The printed rows for
// the same experiments come from cmd/benchtables; these benches provide the
// ns/op views and run under `go test -bench=.`.
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/exec"
	"repro/internal/hwmodel"
	"repro/internal/learn"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/svm"
	"repro/internal/svm/reference"
)

const benchSeed = 1

// smsvBench runs b.N SMSV products on the matrix built from bl in format f.
func smsvBench(b *testing.B, bl *sparse.Builder, f sparse.Format) {
	b.Helper()
	m, err := bl.Build(f)
	if err != nil {
		b.Skipf("format %v: %v", f, err)
	}
	rows, cols := m.Dims()
	xs := bench.SampleRows(m, 1, benchSeed)
	dst := make([]float64, rows)
	scratch := make([]float64, cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecSparse(dst, xs[0], scratch, nil)
	}
}

// BenchmarkFig1FormatComparison is the Figure 1 / Table III experiment:
// SMSV time per format on the five figure datasets.
func BenchmarkFig1FormatComparison(b *testing.B) {
	for _, name := range dataset.Figure1Names {
		d, err := dataset.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		bl := d.MustGenerate(benchSeed)
		for _, f := range sparse.BasicFormats {
			b.Run(fmt.Sprintf("%s/%v", name, f), func(b *testing.B) {
				smsvBench(b, bl, f)
			})
		}
	}
}

// BenchmarkFig2DIADiagonals is the Figure 2 sweep: DIA SMSV cost vs the
// number of occupied diagonals at fixed size and nnz.
func BenchmarkFig2DIADiagonals(b *testing.B) {
	const n = 2048
	for ndig := 2; ndig <= n; ndig *= 8 {
		rng := rand.New(rand.NewSource(benchSeed))
		bl, err := dataset.Banded(n, n, ndig, n, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ndig=%d", ndig), func(b *testing.B) {
			smsvBench(b, bl, sparse.DIA)
		})
	}
}

// BenchmarkFig3ELLMdim is the Figure 3 sweep: ELL SMSV cost vs mdim at
// fixed size and nnz.
func BenchmarkFig3ELLMdim(b *testing.B) {
	const n = 2048
	for mdim := 2; mdim <= n; mdim *= 8 {
		rng := rand.New(rand.NewSource(benchSeed))
		bl, err := dataset.SkewRows(n, n, 2*n, mdim, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("mdim=%d", mdim), func(b *testing.B) {
			smsvBench(b, bl, sparse.ELL)
		})
	}
}

// BenchmarkFig4COOvsCSR is the Figure 4 experiment: CSR vs COO SMSV cost
// as row-length variance grows (see also the simulated-parallel
// critical-path comparison in cmd/benchtables -exp fig4).
func BenchmarkFig4COOvsCSR(b *testing.B) {
	m, n, adim := 400, 16000, 160.0
	for _, vdim := range []float64{0, 16000, 256000} {
		rng := rand.New(rand.NewSource(benchSeed))
		bl, err := dataset.VdimFamily(m, n, adim, vdim, rng)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range []sparse.Format{sparse.CSR, sparse.COO} {
			b.Run(fmt.Sprintf("vdim=%.0f/%v", vdim, f), func(b *testing.B) {
				smsvBench(b, bl, f)
			})
		}
	}
}

// BenchmarkTable6Adaptive is the Table VI experiment: the full scheduling
// decision (feature extraction + hybrid measurement) per dataset.
func BenchmarkTable6Adaptive(b *testing.B) {
	for _, name := range dataset.Table6Names {
		d, err := dataset.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		bl := d.MustGenerate(benchSeed)
		b.Run(name, func(b *testing.B) {
			sched := core.New(core.Config{Policy: core.Hybrid, Exec: exec.Serial(), Seed: benchSeed})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sched.Choose(bl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictVsMeasure quantifies what the trained predictor buys on a
// cache miss: a full measurement-based Choose (hybrid policy) against the
// predict policy's model inference, plus the bare forest inference with no
// matrix handling at all. The predict-policy decision still reads the
// features off the builder and materializes the chosen format — only the
// timed kernel measurements disappear.
func BenchmarkPredictVsMeasure(b *testing.B) {
	ex := exec.Serial()
	labeled, err := learn.SMSV.MeasureAll(context.Background(), learn.SMSV.Synthetic(20, benchSeed), ex, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	forest, err := learn.Train(learn.Examples(labeled), learn.TrainConfig{Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	d, err := dataset.ByName("aloi")
	if err != nil {
		b.Fatal(err)
	}
	bl := d.MustGenerate(benchSeed)
	feats := dataset.Extract(bl.MustBuild(sparse.CSR))
	b.Run("measure-choose", func(b *testing.B) {
		sched := core.New(core.Config{Policy: core.Hybrid, Exec: ex, Seed: benchSeed})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dec, err := sched.Choose(bl)
			if err != nil {
				b.Fatal(err)
			}
			dec.Release()
		}
	})
	b.Run("predict-choose", func(b *testing.B) {
		// MinConfidence near zero keeps the benchmark on the prediction
		// path regardless of how the votes split on this dataset.
		sched := core.New(core.Config{
			Policy: core.PolicyPredict, Predictor: forest, MinConfidence: 0.01,
			Exec: ex, Seed: benchSeed,
		})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dec, err := sched.Choose(bl)
			if err != nil {
				b.Fatal(err)
			}
			if dec.Rung != core.RungPredictor {
				b.Fatal("decision fell back to measurement")
			}
			dec.Release()
		}
	})
	b.Run("predict-infer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, ok := forest.PredictCandidate(feats); !ok {
				b.Fatal("empty forest")
			}
		}
	})
}

// BenchmarkFig7VsReference is the Figure 7 experiment: SMO training time,
// LIBSVM-style fixed-CSR baseline vs the adaptive solver, capped at a
// fixed iteration budget so both run the identical optimization prefix.
func BenchmarkFig7VsReference(b *testing.B) {
	const iters = 100
	for _, name := range []string{"adult", "mnist", "trefethen"} {
		d, err := dataset.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		bl := d.MustGenerate(benchSeed)
		rng := rand.New(rand.NewSource(benchSeed))
		y := dataset.PlantedLabels(bl.MustBuild(sparse.CSR), 0.02, rng)
		b.Run(name+"/reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := reference.Train(bl, y, reference.Config{
					C: 1, MaxIter: iters, Kernel: svm.KernelParams{Type: svm.Linear}, Exec: exec.Serial(),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/adaptive", func(b *testing.B) {
			sched := core.New(core.Config{Policy: core.Hybrid, Exec: exec.Serial(), Seed: benchSeed})
			for i := 0; i < b.N; i++ {
				if _, err := svm.TrainAdaptive(bl, y, sched, svm.Config{
					C: 1, MaxIter: iters, Kernel: svm.KernelParams{Type: svm.Linear}, Exec: exec.Serial(),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable7Model is the Table VII / Figures 5–6 experiment: the
// calibrated platform + convergence model evaluation.
func BenchmarkTable7Model(b *testing.B) {
	c := hwmodel.CIFAR10()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hwmodel.TableVII(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTuningPipeline measures the §IV batch→lr→momentum grid search
// on the modeled DGX.
func BenchmarkTuningPipeline(b *testing.B) {
	c := hwmodel.CIFAR10()
	for i := 0; i < b.N; i++ {
		if _, err := hwmodel.AutoTune(c, hwmodel.DGX); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveDNNStep measures one real forward+backward+update step of
// the pure-Go convnet at the live-experiment geometry.
func BenchmarkLiveDNNStep(b *testing.B) {
	d, err := dnn.SyntheticCIFAR(6, 1, 8, 8, 256, 64, 2.2, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	net := dnn.SmallConvNet(d.Classes, d.C, d.H, d.W, nil, benchSeed)
	opt := dnn.NewSGD(net, 0.01, 0.9)
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i
	}
	x, y := d.Batch(idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainStep(x, y)
		opt.Step()
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationPolicy compares the cost of the three decision policies
// on the same dataset: the rule-based path is pure arithmetic, empirical
// builds and measures all five formats, hybrid only the model's top-2.
func BenchmarkAblationPolicy(b *testing.B) {
	d, err := dataset.ByName("aloi")
	if err != nil {
		b.Fatal(err)
	}
	bl := d.MustGenerate(benchSeed)
	for _, pol := range []core.Policy{core.RuleBased, core.Empirical, core.Hybrid} {
		b.Run(pol.String(), func(b *testing.B) {
			sched := core.New(core.Config{Policy: pol, Exec: exec.Serial(), Seed: benchSeed})
			for i := 0; i < b.N; i++ {
				if _, err := sched.Choose(bl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationChunking compares static vs guided scheduling of the
// CSR kernel on a skewed matrix.
func BenchmarkAblationChunking(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	bl, err := dataset.VdimFamily(2000, 4000, 40, 20000, rng)
	if err != nil {
		b.Fatal(err)
	}
	m := bl.MustBuild(sparse.CSR)
	rows, cols := m.Dims()
	xs := bench.SampleRows(m, 1, benchSeed)
	dst := make([]float64, rows)
	scratch := make([]float64, cols)
	for _, sched := range []exec.Sched{exec.Static, exec.Guided} {
		name := "static"
		if sched == exec.Guided {
			name = "guided"
		}
		b.Run(name, func(b *testing.B) {
			ex := exec.New(0, sched)
			defer ex.Close()
			for i := 0; i < b.N; i++ {
				m.MulVecSparse(dst, xs[0], scratch, ex)
			}
		})
	}
}

// BenchmarkAblationFusion compares the fused update+select SMO pass
// against separate sweeps, at a fixed iteration budget.
func BenchmarkAblationFusion(b *testing.B) {
	d, err := dataset.ByName("adult")
	if err != nil {
		b.Fatal(err)
	}
	bl := d.MustGenerate(benchSeed)
	m := bl.MustBuild(sparse.ELL)
	rng := rand.New(rand.NewSource(benchSeed))
	y := dataset.PlantedLabels(m, 0.02, rng)
	for _, unfused := range []bool{false, true} {
		name := "fused"
		if unfused {
			name = "unfused"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := svm.Train(m, y, svm.Config{
					C: 1, MaxIter: 100, Kernel: svm.KernelParams{Type: svm.Linear},
					Exec: exec.Serial(), Unfused: unfused,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSkewFormats compares ELL against its derived remedy HYB
// on a Figure 3-style skewed matrix: one mdim-length row forces ELL to pad
// every row, while HYB spills the tail to COO.
func BenchmarkAblationSkewFormats(b *testing.B) {
	const n = 2048
	rng := rand.New(rand.NewSource(benchSeed))
	bl, err := dataset.SkewRows(n, n, 2*n, 1024, rng)
	if err != nil {
		b.Fatal(err)
	}
	mats := []struct {
		name string
		m    sparse.Matrix
	}{
		{"ELL-padded", bl.MustBuild(sparse.ELL)},
		{"HYB", sparse.NewHYB(bl, 0)},
		{"CSR", bl.MustBuild(sparse.CSR)},
	}
	xs := bench.SampleRows(mats[2].m, 1, benchSeed)
	dst := make([]float64, n)
	scratch := make([]float64, n)
	for _, tc := range mats {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc.m.MulVecSparse(dst, xs[0], scratch, nil)
			}
		})
	}
}

// BenchmarkAblationCOOMergeVsSMSV compares the LIBSVM-style per-row merge
// dot (reference baseline) against the scatter/gather SMSV kernel for
// computing one full kernel row — the key kernel-level difference behind
// Figure 7.
func BenchmarkAblationCOOMergeVsSMSV(b *testing.B) {
	d, err := dataset.ByName("adult")
	if err != nil {
		b.Fatal(err)
	}
	bl := d.MustGenerate(benchSeed)
	m := bl.MustBuild(sparse.CSR).(*sparse.CSRMatrix)
	rows, cols := m.Dims()
	x := m.Row(17).Clone()
	dst := make([]float64, rows)
	scratch := make([]float64, cols)
	b.Run("merge-dot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < rows; r++ {
				dst[r] = m.Row(r).Dot(x)
			}
		}
	})
	b.Run("scatter-smsv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.MulVecSparse(dst, x, scratch, nil)
		}
	})
}

// BenchmarkAblationPairedSMSV compares SMO's two kernel rows computed as
// one fused pass over the matrix against two independent SMSVs — fusing
// halves the matrix traffic (Equation 7's memory bound).
func BenchmarkAblationPairedSMSV(b *testing.B) {
	d, err := dataset.ByName("connect-4")
	if err != nil {
		b.Fatal(err)
	}
	bl := d.MustGenerate(benchSeed)
	m := bl.MustBuild(sparse.CSR)
	rows, cols := m.Dims()
	xs := bench.SampleRows(m, 2, benchSeed)
	d1 := make([]float64, rows)
	d2 := make([]float64, rows)
	s1 := make([]float64, cols)
	s2 := make([]float64, cols)
	b.Run("two-passes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.MulVecSparse(d1, xs[0], s1, nil)
			m.MulVecSparse(d2, xs[1], s1, nil)
		}
	})
	b.Run("fused-pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.Candidate{Format: sparse.CSR, Variant: sparse.VariantFused}.RunPair(m, d1, d2, xs[0], xs[1], s1, s2, nil)
		}
	})
}

// BenchmarkAblationShrinking compares plain SMO against the shrinking
// variant on an overlapping problem where many variables hit the C bound —
// the regime shrinking was designed for — and shrinking combined with
// second-order selection and the row cache, LIBSVM's default.
func BenchmarkAblationShrinking(b *testing.B) {
	d, err := dataset.ByName("adult")
	if err != nil {
		b.Fatal(err)
	}
	bl := d.MustGenerate(benchSeed)
	m := bl.MustBuild(sparse.CSR)
	rng := rand.New(rand.NewSource(benchSeed))
	y := dataset.PlantedLabels(m, 0.08, rng) // noisy: many bound alphas
	cfg := svm.Config{C: 0.5, Kernel: svm.KernelParams{Type: svm.Linear}, MaxIter: 30000, Exec: exec.Serial()}
	shrinking := cfg
	shrinking.Shrinking = true
	wss2 := shrinking
	wss2.SecondOrder = true
	cached := wss2
	cached.CacheRows = 100
	for _, tc := range []struct {
		name string
		cfg  svm.Config
	}{{"plain", cfg}, {"shrinking", shrinking}, {"shrinking+wss2", wss2}, {"shrinking+wss2+cache", cached}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := svm.Train(m, y, tc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// smoReplay replays the phases of one first-order SMO iteration on a
// matrix, outside the solver, so each can be timed alone: the two RowTo
// calls that fetch the working rows, the pair SMSV, and the fused update of
// f with the next working-set selection. The update body is the solver's,
// bound once, with one partial result per part.
type smoReplay struct {
	m           sparse.Matrix
	ex          *exec.Exec
	y, alpha, f []float64
	kHigh, kLow []float64
	s1, s2      []float64
	rowH, rowL  sparse.Vector
	high, low   int
	partial     []smoPick // one per part
	body        func(w int)
}

type smoPick struct {
	minIdx, maxIdx int
	minVal, maxVal float64
}

func newSMOReplay(m sparse.Matrix, y []float64, ex *exec.Exec) *smoReplay {
	rows, cols := m.Dims()
	r := &smoReplay{m: m, ex: ex, y: y, high: rows / 3, low: 2 * rows / 3,
		alpha: make([]float64, rows), f: make([]float64, rows),
		kHigh: make([]float64, rows), kLow: make([]float64, rows),
		s1: make([]float64, cols), s2: make([]float64, cols)}
	for i := range r.f {
		r.f[i] = -y[i]
	}
	r.partial = make([]smoPick, ex.ElementParts(rows))
	r.body = r.updatePart
	return r
}

func (r *smoReplay) rowTo() {
	r.rowH = r.m.RowTo(r.rowH, r.high)
	r.rowL = r.m.RowTo(r.rowL, r.low)
}

func (r *smoReplay) pair() {
	sparse.Candidate{Format: r.m.Format(), Variant: sparse.VariantFused}.RunPair(r.m, r.kHigh, r.kLow, r.rowH, r.rowL, r.s1, r.s2, r.ex)
}

// update applies a step too small to move any f_i off its value by more
// than rounding, so every replayed iteration does the same work.
func (r *smoReplay) update() { r.ex.ForParts(len(r.partial), r.body) }

func (r *smoReplay) updatePart(w int) {
	const ch, cl = 1e-12, -1e-12
	lo, hi := parallel.SplitRange(len(r.f), len(r.partial), w)
	p := smoPick{minIdx: -1, maxIdx: -1}
	for i := lo; i < hi; i++ {
		fi := r.f[i] + (ch*r.kHigh[i] + cl*r.kLow[i])
		r.f[i] = fi
		a, yi := r.alpha[i], r.y[i]
		if ((a > 0 && a < 1) || (yi > 0 && a == 0) || (yi < 0 && a == 1)) && (p.minIdx < 0 || fi < p.minVal) {
			p.minIdx, p.minVal = i, fi
		}
		if ((a > 0 && a < 1) || (yi > 0 && a == 1) || (yi < 0 && a == 0)) && (p.maxIdx < 0 || fi > p.maxVal) {
			p.maxIdx, p.maxVal = i, fi
		}
	}
	r.partial[w] = p
}

// BenchmarkSMOIteration times the phases of one SMO iteration per Table V
// clone of the gated svm_train workload, on CSR, at 1, 2 and 4 workers: it
// is the measurement behind EXPERIMENTS.md's serial-grain table — whether a
// loop of a few thousand elements is worth a ticket dispatch at all.
func BenchmarkSMOIteration(b *testing.B) {
	for _, name := range []string{"adult", "aloi", "mnist", "gisette", "trefethen", "connect-4", "sector"} {
		d, err := dataset.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		m := d.MustGenerate(benchSeed).MustBuild(sparse.CSR)
		y := dataset.PlantedLabels(m, 0.02, rand.New(rand.NewSource(benchSeed)))
		for _, workers := range []int{1, 2, 4} {
			ex := exec.New(workers, exec.Static)
			r := newSMOReplay(m, y, ex)
			r.rowTo()
			for _, phase := range []struct {
				name string
				run  func()
			}{
				{"rowto", r.rowTo},
				{"pair", r.pair},
				{"update", r.update},
				{"iteration", func() { r.rowTo(); r.pair(); r.update() }},
			} {
				b.Run(fmt.Sprintf("%s/workers=%d/%s", name, workers, phase.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						phase.run()
					}
				})
			}
			ex.Close()
		}
	}
}

// freshBuilder copies m's entries into a builder with nothing cached, the
// way the gated svm_train job receives its dataset: sparse.Builder memoizes
// every Build, so a reused builder would time a cache lookup.
func freshBuilder(m sparse.Matrix) *sparse.Builder {
	rows, cols := m.Dims()
	b := sparse.NewBuilder(rows, cols)
	var row sparse.Vector
	for i := 0; i < rows; i++ {
		row = m.RowTo(row, i)
		b.AddRow(i, row)
	}
	return b
}

// BenchmarkChoose prices one scheduling decision per Table V clone of the
// gated svm_train workload and per rung of the ladder that can answer it: a
// hybrid measurement, an empirical one (the whole candidate space raced, the
// policy of the gated serve_cold workload), a history hit, a trusted
// predictor answer and the rule-based model. Every iteration decides on a fresh builder under a fresh
// scheduler, as a training job does; filling the builder is not timed. It is
// the source of EXPERIMENTS.md's "What a scheduling decision costs".
func BenchmarkChoose(b *testing.B) {
	ex := exec.Default()
	labeled, err := learn.SMSV.MeasureAll(context.Background(), learn.SMSV.Synthetic(20, benchSeed), ex, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	forest, err := learn.Train(learn.Examples(labeled), learn.TrainConfig{Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"adult", "aloi", "mnist", "gisette", "trefethen", "connect-4", "sector"} {
		d, err := dataset.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		src := d.MustGenerate(benchSeed).MustBuild(sparse.CSR)
		hist := &core.History{}
		if _, err := core.New(core.Config{Policy: core.Hybrid, History: hist, Exec: ex}).Choose(freshBuilder(src)); err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			cfg  core.Config
		}{
			{"hybrid", core.Config{Policy: core.Hybrid}},
			{"empirical", core.Config{Policy: core.Empirical}},
			{"history", core.Config{Policy: core.Hybrid, History: hist}},
			{"predict", core.Config{Policy: core.PolicyPredict, Predictor: forest, MinConfidence: 1e-9}},
			{"rule-based", core.Config{Policy: core.RuleBased}},
		} {
			mode.cfg.Exec = ex
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					bl := freshBuilder(src)
					b.StartTimer()
					dec, err := core.New(mode.cfg).Choose(bl)
					if err != nil {
						b.Fatal(err)
					}
					if got := dec.Rung; (mode.name == "history") != (got == core.RungHistory) || (mode.name == "predict") != (got == core.RungPredictor) {
						b.Fatalf("decision answered from %s", got)
					}
					dec.Release()
				}
			})
		}
	}
}
