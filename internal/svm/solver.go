package svm

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// Config parameterizes SMO training.
type Config struct {
	C       float64 // regularization constant, the box bound of every α; 0 means 1.0
	Tol     float64 // KKT tolerance τ; convergence when b_low ≤ b_high + 2τ; 0 means 1e-3
	MaxIter int     // iteration cap; 0 means 10·n + 1000
	Kernel  KernelParams
	// Exec is the execution context every parallel kernel and reduction
	// runs under; nil means exec.Default() (all cores, static schedule,
	// pooled workers).
	Exec *exec.Exec
	// Unfused disables the fused update-and-select pass: the f update and
	// the working-set reductions run as separate parallel sweeps, costing
	// one extra pass over f per iteration (the paper-era implementations
	// fuse them; kept switchable for the fusion ablation).
	Unfused bool
	// CacheRows enables an LRU cache of that many kernel-matrix rows —
	// the LIBSVM/SVM-light caching the paper's related work cites. SMO
	// reselects hot indices constantly, so warm rows skip both SMSVs.
	CacheRows int
	// SecondOrder switches the low-index selection to the second-order
	// criterion of Fan, Chen & Lin (2005) — "working set selection using
	// second order information", which LIBSVM adopted: low maximizes
	// (f_i − b_high)²/η_i over the violating set instead of max f_i.
	// Typically fewer, slightly costlier iterations.
	SecondOrder bool
	// Shrinking drops bound variables outside the optimality window from the
	// active set every min(n, 1000) iterations, so that the sweeps run over
	// the active rows and the per-iteration SMSVs over a submatrix of them.
	// When the active problem converges, the gradient is reconstructed and
	// the whole problem checked again, so the model solves the same problem.
	// Pays off on long-running problems; see BenchmarkAblationShrinking.
	Shrinking bool

	// chosen is the scheduled candidate TrainAdaptive hands the solver: its
	// SMSV products run that kernel variant under that chunk policy. Nil — any
	// caller's Config — runs the matrix's fused pair kernel where it has one,
	// under Exec's schedule.
	chosen *sparse.Candidate
}

func (c Config) withDefaults(n int) Config {
	if c.Exec == nil {
		c.Exec = exec.Default()
	}
	if c.C <= 0 {
		c.C = 1
	}
	if c.Tol <= 0 {
		c.Tol = 1e-3
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 10*n + 1000
	}
	return c
}

// Stats reports what training did.
type Stats struct {
	Iterations int
	Converged  bool
	KernelTime time.Duration // time in the two per-iteration SMSV products
	TotalTime  time.Duration
	Objective  float64 // the dual objective F(α) of Equation (1)
	NumSV      int
}

// validate is the one check of a classification problem.
func validate(x sparse.Matrix, y []float64, cfg Config) error {
	rows, _ := x.Dims()
	if len(y) != rows {
		return fmt.Errorf("svm: %d labels for %d rows", len(y), rows)
	}
	var pos, neg int
	for _, l := range y {
		switch l {
		case 1:
			pos++
		case -1:
			neg++
		default:
			return fmt.Errorf("svm: label %v not in {-1,+1}", l)
		}
	}
	if pos == 0 || neg == 0 {
		return fmt.Errorf("svm: need both classes, got %d positive and %d negative", pos, neg)
	}
	return cfg.Kernel.Validate()
}

// Train runs binary SMO (the paper's Algorithm 1) on x with ±1 labels y.
// SecondOrder, Shrinking and CacheRows combine freely: one loop runs them.
func Train(x sparse.Matrix, y []float64, cfg Config) (*Model, Stats, error) {
	start := time.Now()
	if err := validate(x, y, cfg); err != nil {
		return nil, Stats{}, err
	}
	s := newClassificationSolver(x, y, cfg)
	stats := s.run()
	stats.TotalTime = time.Since(start)
	model := s.buildModel()
	stats.NumSV = len(model.SVs)
	stats.Objective = s.objective()
	return model, stats, nil
}

// newClassificationSolver starts the solver on a validated classification
// problem: one variable per row, labelled y, with f = −y.
func newClassificationSolver(x sparse.Matrix, y []float64, cfg Config) *solver {
	f := make([]float64, len(y))
	for i, l := range y {
		f[i] = -l // step 2 of Algorithm 1
	}
	return newSolver(x, cfg, y, f, nil)
}

// newSolver sets up Algorithm 1's state at α = 0 for a validated problem:
// variable p has label y[p] ∈ {−1, +1} and initial gradient f[p], and reads
// row index[p] of x, or row p when index is nil. Classification has one
// variable per row and f = −y; ε-SVR's extended problem has two per row. The
// solver keeps the three slices.
func newSolver(x sparse.Matrix, cfg Config, y, f []float64, index []int) *solver {
	vars := len(y)
	cfg = cfg.withDefaults(vars)
	s := &solver{
		kernels: newKernels(x, vars, cfg.Kernel, cfg.Exec, cfg.chosen, cfg.CacheRows, cfg.SecondOrder),
		cfg:     cfg,
		eager:   !cfg.SecondOrder && !cfg.Shrinking,
		scan:    sweep{ex: cfg.Exec},
	}
	s.problem = problem{y: y, alpha: make([]float64, vars), f: f, norm: s.normSq, index: index}
	// The loop bodies are bound once: a method value or closure made per
	// iteration is a heap object per iteration.
	s.fusedFn, s.selectFn, s.pickFn, s.updateFn = s.fusedPart, s.selectPart, s.pickPart, s.updateRange
	if cfg.SecondOrder {
		s.diag = make([]float64, vars)
		for p := range s.diag {
			sq := s.normSq[s.rowAt(p)]
			s.diag[p] = cfg.Kernel.FromDot(sq, sq, sq)
		}
	}
	if cfg.Shrinking {
		s.index = make([]int, vars)
		for i := range s.index {
			s.index[i] = i
		}
	}
	return s
}

// problem is what Algorithm 1 keeps per variable, over the variables the
// loop works on: every variable, or with Shrinking the active ones, in
// order, at consecutive positions.
type problem struct {
	y, alpha, f []float64
	diag        []float64 // K(X_i, X_i) of each variable's row, for second-order selection
	norm        []float64 // ‖X_i‖² per row the products fill (n for ε-SVR's 2n variables); nil unless read
	// index is the row of x at each position, nil when position p reads row
	// p. With Shrinking, which only classification runs, a row of x is also
	// its variable's position in the whole problem.
	index []int
}

// rowAt returns the row of x at position p.
func (v *problem) rowAt(p int) int {
	if v.index == nil {
		return p
	}
	return v.index[p]
}

type solver struct {
	kernels
	problem
	cfg       Config
	bHigh     float64
	bLow      float64
	high, low int // the working pair, as positions

	// eager: the update also selects the next pair, in the same pass unless
	// Unfused, so that a run the cap stops holds the window of its final f.
	// Shrinking runs select at the top of the iteration instead: a shrink
	// renumbers the positions a selection holds, and reads the window the
	// iteration's pair was picked in. Second-order runs do too, which keeps
	// their trajectories (TestLoopTrajectoriesMatchParent).
	eager bool

	whole *problem // every row, while rows are shrunk; nil otherwise
	keep  []int    // the positions a shrink keeps

	// Per-iteration loop state, so that an iteration allocates nothing: the
	// reduction workspace, the update coefficients Δα·y the bodies read,
	// and the bodies themselves.
	scan     sweep
	ch, cl   float64
	kHH      float64 // K(X_high, X_high) of the second-order pick
	fusedFn  func(w int)
	selectFn func(w int)
	pickFn   func(w int)
	updateFn func(lo, hi int)
}

// best is what one part of a selection sweep, or the whole sweep, found:
// the minimum of its key over the candidates for high and the maximum over
// the candidates for low, each with the smallest index among ties.
type best struct {
	minIdx, maxIdx int
	minVal, maxVal float64
}

// noBest is a scan that has seen no candidate yet.
var noBest = best{minIdx: -1, maxIdx: -1}

// offer considers key v at index idx: for the minimum when it is a candidate
// for high, for the maximum when it is one for low. Only a strictly better
// value replaces, so an ascending scan keeps the smallest index among ties.
func (b *best) offer(idx int, v float64, high, low bool) {
	if high && (b.minIdx < 0 || v < b.minVal) {
		b.minIdx, b.minVal = idx, v
	}
	if low && (b.maxIdx < 0 || v > b.maxVal) {
		b.maxIdx, b.maxVal = idx, v
	}
}

// sweep is a solver's reusable parallel reduction over [0, n): one static
// partition, one best per part, merged in ascending part order and replaced
// only on a strictly better value — the serial scan's answer whatever the
// partition, which is what keeps results bit-identical across worker counts.
type sweep struct {
	ex      *exec.Exec
	n, p    int
	partial []best
}

// run calls body(w) once per part of [0, n); body scans span(w) and stores
// what it found in partial[w].
func (r *sweep) run(n int, body func(w int)) best {
	r.n, r.p = n, r.ex.ElementParts(n)
	if cap(r.partial) < r.p {
		r.partial = make([]best, r.p)
	}
	r.ex.ForParts(r.p, body)
	out := noBest
	for _, b := range r.partial[:r.p] {
		out.offer(b.minIdx, b.minVal, b.minIdx >= 0, false)
		out.offer(b.maxIdx, b.maxVal, false, b.maxIdx >= 0)
	}
	return out
}

func (r *sweep) span(w int) (lo, hi int) { return parallel.SplitRange(r.n, r.p, w) }

// needsNorms reports whether the kernel's Table I transform reads ‖X_i‖².
func needsNorms(k KernelParams) bool { return k.Type == Gaussian }

// normAt returns ‖X_i‖², or 0 when nothing reads the norms and normSq is nil.
func normAt(normSq []float64, i int) float64 {
	if normSq == nil {
		return 0
	}
	return normSq[i]
}

func (s *solver) inHigh(i int) bool {
	a, yi, c := s.alpha[i], s.y[i], s.cfg.C
	return (a > 0 && a < c) || (yi > 0 && a == 0) || (yi < 0 && a == c)
}

func (s *solver) inLow(i int) bool {
	a, yi, c := s.alpha[i], s.y[i], s.cfg.C
	return (a > 0 && a < c) || (yi > 0 && a == c) || (yi < 0 && a == 0)
}

// pairKernel is how a solver runs its SMSV products: one joint candidate's
// kernel variant, under an execution context that carries the candidate's
// chunk policy.
type pairKernel struct {
	cand sparse.Candidate
	ex   *exec.Exec
}

// run computes dst1 = m·x1 and dst2 = m·x2. A matrix of another format than
// the candidate's — a shrunk problem's CSR submatrix — has none of its
// variants, and takes its own fused kernel.
func (p pairKernel) run(m sparse.Matrix, dst1, dst2 []float64, x1, x2 sparse.Vector, scratch1, scratch2 []float64) {
	c := p.cand
	if m.Format() != c.Format {
		c.Variant = sparse.VariantFused
	}
	c.RunPair(m, dst1, dst2, x1, x2, scratch1, scratch2, p.ex)
}

// kernels is the part of a solver that produces kernel rows K(X_r, ·) of the
// data matrix: SMSV products, then the pointwise Table I transform, with an
// optional LRU of finished rows in front. A row holds one entry per variable.
// The products fill one per row of sub: the active rows, which are every row
// unless a shrinking solver restricts them. ε-SVR's extended problem has
// twice as many variables as rows, and its second n entries mirror the
// first; the cache holds the first n.
type kernels struct {
	x     sparse.Matrix
	sub   sparse.Matrix // the active rows of x: x itself, or a CSR submatrix
	ex    *exec.Exec    // the caller's context, which the transform runs under
	pair  pairKernel
	kHigh []float64 // kernel row K(X_high, ·)
	kLow  []float64
	// scratch and scratch2 are the cols-length scatter workspaces of the row
	// formats' products; nil while the products run on CSC, whose column
	// kernel reads x's support directly, until a shrink's CSR submatrix
	// needs them.
	scratch  []float64
	scratch2 []float64
	normSq   []float64 // ‖X_i‖², nil unless the kernel or SecondOrder reads it
	subNorm  []float64 // normSq of the active rows
	rowBufH  sparse.Vector
	rowBufL  sparse.Vector
	cache    *rowCache // optional kernel-row LRU
	xform    *rowTransform
}

// newKernels sizes the buffers for vars variables over x. The products run
// the chosen candidate on ex's workers, or, when it is nil, x's fused pair
// kernel where it has one under ex as it is.
func newKernels(x sparse.Matrix, vars int, p KernelParams, ex *exec.Exec, chosen *sparse.Candidate, cacheRows int, norms bool) kernels {
	pair := pairKernel{cand: sparse.Candidate{Format: x.Format(), Variant: sparse.VariantFused}, ex: ex}
	if chosen != nil {
		pair = pairKernel{cand: *chosen, ex: ex.WithSched(chosen.Chunk.Sched())}
	}
	k := kernels{
		x:     x,
		sub:   x,
		ex:    ex,
		pair:  pair,
		kHigh: make([]float64, vars),
		kLow:  make([]float64, vars),
		cache: newRowCache(cacheRows),
		xform: newRowTransform(p),
	}
	if x.Format() != sparse.CSC {
		k.workspaces()
	}
	if norms || needsNorms(p) {
		rows, _ := x.Dims()
		k.normSq = make([]float64, rows)
		var v sparse.Vector
		for i := range k.normSq {
			v = x.RowTo(v, i)
			k.normSq[i] = v.Norm2Sq()
		}
	}
	k.subNorm = k.normSq
	return k
}

// workspaces allocates the scatter workspaces once something needs them.
func (k *kernels) workspaces() {
	if k.scratch == nil {
		_, cols := k.x.Dims()
		k.scratch, k.scratch2 = make([]float64, cols), make([]float64, cols)
	}
}

// restrict points the kernel rows at the rows index of x, in that order,
// whose norms are norm — through a CSR submatrix of them — or back at every
// row when index is nil. A cached row keeps its entries at the positions
// keep of the rows before; back on every row, the cache starts empty.
func (k *kernels) restrict(index []int, norm []float64, keep []int) {
	k.subNorm = norm
	if index == nil {
		k.sub = k.x
		k.kHigh, k.kLow = k.kHigh[:cap(k.kHigh)], k.kLow[:cap(k.kLow)]
		if k.cache != nil {
			k.cache = newRowCache(k.cache.capacity)
		}
		return
	}
	_, cols := k.x.Dims()
	b := sparse.NewBuilder(max(len(index), 1), cols)
	var v sparse.Vector
	for p, i := range index {
		v = k.x.RowTo(v, i)
		b.AddRow(p, v)
	}
	k.sub = b.MustBuild(sparse.CSR)
	k.workspaces()
	k.kHigh, k.kLow = k.kHigh[:len(index)], k.kLow[:len(index)]
	k.cache.keep(keep)
}

// row computes K(X_r, X_i) for the active rows i into dst: one SMSV
// producing the dot products, then the pointwise Table I transform. With
// caching enabled, warm rows are copied out of the LRU instead. buf receives
// X_r.
func (k *kernels) row(dst []float64, buf *sparse.Vector, r int) {
	if cached := k.cache.get(r); cached != nil {
		mirror(dst, copy(dst, cached))
		return
	}
	*buf = k.x.RowTo(*buf, r)
	n, _ := k.sub.Dims()
	k.sub.MulVecSparse(dst[:n], *buf, k.scratch, k.pair.ex)
	k.finish(dst, n, r)
}

// finish turns the dot products with X_r in dst[:n] into K(X_r, ·): the
// Table I transform, whose n entries go into the cache, then the mirror.
func (k *kernels) finish(dst []float64, n, r int) {
	k.xform.apply(k.ex, dst[:n], k.subNorm, normAt(k.normSq, r))
	k.cache.put(r, dst[:n])
	mirror(dst, n)
}

// mirror copies a kernel row's n entries onto the second n of ε-SVR's
// extended problem, whose two variables per row read the same K(X_r, X_i).
func mirror(dst []float64, n int) {
	if len(dst) > n {
		copy(dst[n:], dst[:n])
	}
}

// rows fills kHigh and kLow for the working-set pair. When neither row is
// cached, both products come from one run of the pair kernel — for a fused
// variant one pass over the matrix, halving its traffic versus two
// independent SMSVs, the dominant per-iteration cost per §III-A.
func (k *kernels) rows(high, low int) {
	if high == low || k.cache.get(high) != nil || k.cache.get(low) != nil {
		k.row(k.kHigh, &k.rowBufH, high)
		if high == low {
			copy(k.kLow, k.kHigh)
			return
		}
		k.row(k.kLow, &k.rowBufL, low)
		return
	}
	k.rowBufH = k.x.RowTo(k.rowBufH, high)
	k.rowBufL = k.x.RowTo(k.rowBufL, low)
	n, _ := k.sub.Dims()
	k.pair.run(k.sub, k.kHigh[:n], k.kLow[:n], k.rowBufH, k.rowBufL, k.scratch, k.scratch2)
	k.finish(k.kHigh, n, high)
	k.finish(k.kLow, n, low)
}

// selectWorkingSet finds high = argmin f over I_high and low = argmax f
// over I_low, setting bHigh/bLow (steps 6–10 of Algorithm 1).
func (s *solver) selectWorkingSet() bool {
	return s.selected(s.scan.run(len(s.f), s.selectFn))
}

// selected adopts a sweep's result as the next working set.
func (s *solver) selected(b best) bool {
	if b.minIdx < 0 || b.maxIdx < 0 {
		return false
	}
	s.bHigh, s.bLow = b.minVal, b.maxVal
	s.high, s.low = b.minIdx, b.maxIdx
	return true
}

func (s *solver) selectPart(w int) {
	lo, hi := s.scan.span(w)
	b := noBest
	for i := lo; i < hi; i++ {
		b.offer(i, s.f[i], s.inHigh(i), s.inLow(i))
	}
	s.scan.partial[w] = b
}

// update applies step 5: f_i += Δα_high·y_high·K_high,i + Δα_low·y_low·K_low,i.
// An eager solver also selects the next working set: in the same pass,
// saving one sweep over f per iteration, or with Unfused in a second sweep.
// It reports false when that selection finds no pair.
func (s *solver) update(dh, dl float64) bool {
	s.ch = dh * s.y[s.high]
	s.cl = dl * s.y[s.low]
	if s.eager && !s.cfg.Unfused {
		return s.selected(s.scan.run(len(s.f), s.fusedFn))
	}
	s.cfg.Exec.ForElements(len(s.f), s.updateFn)
	return !s.eager || s.selectWorkingSet()
}

func (s *solver) updateRange(lo, hi int) {
	ch, cl := s.ch, s.cl
	for i := lo; i < hi; i++ {
		s.f[i] += ch*s.kHigh[i] + cl*s.kLow[i]
	}
}

func (s *solver) fusedPart(w int) {
	lo, hi := s.scan.span(w)
	ch, cl := s.ch, s.cl
	b := noBest
	for i := lo; i < hi; i++ {
		// Parenthesized to match updateRange's `f[i] += ch*kH + cl*kL`
		// association bit-for-bit, keeping both modes on the same
		// optimization trajectory.
		fi := s.f[i] + (ch*s.kHigh[i] + cl*s.kLow[i])
		s.f[i] = fi
		b.offer(i, fi, s.inHigh(i), s.inLow(i))
	}
	s.scan.partial[w] = b
}

// pairStep is the analytic two-variable update: the unclipped Equation (5)
// for Δα_low, clipped to the box both variables share — α_low + dl ∈ [0, c]
// and α_high − s·dl ∈ [0, c] with s = y_high·y_low, from the equality
// constraint — then Equation (6) for Δα_high. eta is the pair's curvature
// K_hh + K_ll − 2·K_hl.
func pairStep(eta, yh, yl, bHigh, bLow, ah, al, c float64) (dh, dl float64) {
	if eta <= 0 {
		eta = 1e-12 // degenerate pair; take a tiny safe step
	}
	dl = yl * (bHigh - bLow) / eta
	sgn := yh * yl
	loB, hiB := -al, c-al
	if sgn > 0 {
		loB = max(loB, ah-c)
		hiB = min(hiB, ah)
	} else {
		loB = max(loB, -ah)
		hiB = min(hiB, c-ah)
	}
	if dl < loB {
		dl = loB
	}
	if dl > hiB {
		dl = hiB
	}
	return -sgn * dl, dl
}

// step takes pairStep on the working pair and applies the deltas.
func (s *solver) step() (dh, dl float64) {
	high, low := s.high, s.low
	eta := s.kHigh[high] + s.kLow[low] - 2*s.kHigh[low]
	dh, dl = pairStep(eta, s.y[high], s.y[low], s.bHigh, s.bLow, s.alpha[high], s.alpha[low], s.cfg.C)
	s.alpha[low] += dl
	s.alpha[high] += dh
	return dh, dl
}

// run is the SMO loop of classification, in every configuration, and of
// ε-SVR's extended problem. An iteration selects the working pair — high by
// the first-order rule, low by the first- or second-order one — computes its
// two kernel rows, takes the step and updates f; with Shrinking, every
// shrinkPeriod iterations it shrinks the active set, and when the stopping
// rule holds it reconstructs the gradient over every row and checks again.
func (s *solver) run() Stats {
	var st Stats
	selected, reconstructed := false, false
	for st.Iterations < s.cfg.MaxIter {
		if !selected && !s.selectWorkingSet() {
			break
		}
		selected = false
		if s.bLow <= s.bHigh+2*s.cfg.Tol {
			if !s.cfg.Shrinking || reconstructed {
				st.Converged = true
				break
			}
			st.KernelTime += s.reconstruct()
			reconstructed = true
			continue
		}
		reconstructed = false
		t0 := time.Now()
		if s.cfg.SecondOrder {
			s.row(s.kHigh, &s.rowBufH, s.rowAt(s.high))
			st.KernelTime += time.Since(t0)
			if !s.pickLow() {
				break
			}
			t0 = time.Now()
			s.row(s.kLow, &s.rowBufL, s.rowAt(s.low))
		} else {
			s.rows(s.rowAt(s.high), s.rowAt(s.low))
		}
		st.KernelTime += time.Since(t0)
		if dh, dl := s.step(); dh != 0 || dl != 0 {
			if !s.update(dh, dl) {
				break
			}
			selected = s.eager
		}
		st.Iterations++
		if s.cfg.Shrinking && st.Iterations%s.shrinkPeriod() == 0 {
			s.shrink()
		}
	}
	if s.whole != nil {
		// Stopped with rows shrunk, whose f is stale: the model and the
		// objective read the whole problem, as LIBSVM's do.
		st.KernelTime += s.reconstruct()
		s.selectWorkingSet()
	}
	return st
}

// pickLow replaces low by the second-order choice of Fan, Chen & Lin: the
// violator of I_low with the largest guaranteed dual decrease
// (f_i − b_high)²/η_i against high, and bLow by its f, which the step uses.
func (s *solver) pickLow() bool {
	s.kHH = s.kHigh[s.high]
	low := s.scan.run(len(s.f), s.pickFn).maxIdx
	if low < 0 {
		return false
	}
	s.low, s.bLow = low, s.f[low]
	return true
}

// pickPart scans one part for the second-order low: the violator of I_low
// with the largest guaranteed dual decrease against the chosen high.
func (s *solver) pickPart(w int) {
	lo, hi := s.scan.span(w)
	b := noBest
	for i := lo; i < hi; i++ {
		if !s.inLow(i) || !(s.f[i] > s.bHigh) {
			continue
		}
		d := s.f[i] - s.bHigh
		eta := s.kHH + s.diag[i] - 2*s.kHigh[i]
		if eta <= 0 {
			eta = 1e-12
		}
		b.offer(i, d*d/eta, false, true)
	}
	s.scan.partial[w] = b
}

// shrinkPeriod is how many iterations run between shrinks, LIBSVM's
// min(n, 1000) rule.
func (s *solver) shrinkPeriod() int {
	rows, _ := s.x.Dims()
	return min(rows, 1000)
}

// shrink drops from the active set the bound variables whose gradient lies
// strictly outside the (bHigh, bLow) window: none can join a violating pair
// until the window moves past it. The rows that stay keep their order, so a
// sweep breaks ties among them as it would over every row.
func (s *solver) shrink() {
	keep := s.keep[:0]
	for p := range s.f {
		if !s.shrinkable(p) {
			keep = append(keep, p)
		}
	}
	s.keep = keep
	if len(keep) == len(s.f) {
		return
	}
	src, dst := s.problem, s.problem
	if s.whole == nil {
		s.whole, dst = &src, problem{}
	} else {
		s.saveAlpha() // the rows about to leave keep their α there
	}
	s.problem = problem{
		y:     gather(dst.y, src.y, keep),
		alpha: gather(dst.alpha, src.alpha, keep),
		f:     gather(dst.f, src.f, keep),
		diag:  gather(dst.diag, src.diag, keep),
		norm:  gather(dst.norm, src.norm, keep),
		index: gather(dst.index, src.index, keep),
	}
	s.restrict(s.index, s.norm, keep)
}

// shrinkable reports whether position p holds a bound variable outside the
// window.
func (s *solver) shrinkable(p int) bool {
	a, yp, c := s.alpha[p], s.y[p], s.cfg.C
	switch {
	case a == 0 && yp > 0:
		return s.f[p] > s.bLow // only ever in I_high, and never minimal
	case a == 0 && yp < 0:
		return s.f[p] < s.bHigh
	case a == c && yp > 0:
		return s.f[p] < s.bHigh
	case a == c && yp < 0:
		return s.f[p] > s.bLow
	default:
		return false // free variable: always active
	}
}

// reconstruct makes every row active and recomputes f from the support
// vectors, f_i = Σ_j α_j·y_j·K(X_j, X_i) − y_i: one kernel row per support
// vector, the price of shrinking, paid each time the active problem
// converges. It returns the time it took. Starting from −y holds for
// classification only, whose initial gradient that is: ε-SVR's is y_e·p_e,
// and RegressionConfig cannot turn shrinking on.
func (s *solver) reconstruct() time.Duration {
	t0 := time.Now()
	if s.whole != nil {
		s.saveAlpha()
		s.problem, s.whole = *s.whole, nil
		s.restrict(nil, s.norm, nil)
	}
	for i := range s.f {
		s.f[i] = -s.y[i]
	}
	for j, a := range s.alpha {
		if a == 0 {
			continue
		}
		s.row(s.kHigh, &s.rowBufH, j)
		coef := a * s.y[j]
		for i, k := range s.kHigh {
			s.f[i] += coef * k
		}
	}
	return time.Since(t0)
}

// saveAlpha writes the active rows' α into the whole problem's.
func (s *solver) saveAlpha() {
	for p, i := range s.index {
		s.whole.alpha[i] = s.alpha[p]
	}
}

// gather stores src's entries at the ascending positions keep into dst's
// storage, which may be src's own — no entry moves to a later position — or
// new storage when dst is nil. A nil src gathers to nil.
func gather[T any](dst, src []T, keep []int) []T {
	if src == nil {
		return nil
	}
	if dst == nil {
		dst = make([]T, 0, len(keep))
	}
	dst = dst[:0]
	for _, p := range keep {
		dst = append(dst, src[p])
	}
	return dst
}

// objective evaluates the dual objective of Equation (1) in O(n) using the
// identity Σᵢαᵢyᵢfᵢ = ΣᵢΣⱼαᵢαⱼyᵢyⱼKᵢⱼ − Σᵢαᵢ.
func (s *solver) objective() float64 {
	var sumA, sumAYF float64
	for i, a := range s.alpha {
		sumA += a
		sumAYF += a * s.y[i] * s.f[i]
	}
	return 0.5*sumA - 0.5*sumAYF
}

func (s *solver) buildModel() *Model {
	m := &Model{
		Kernel: s.cfg.Kernel,
		B:      (s.bHigh + s.bLow) / 2,
	}
	m.SVs, m.Coef = supportVectors(s.x, func(i int) float64 { return s.alpha[i] * s.y[i] })
	return m
}

// supportVectors collects the rows of x whose coefficient coef(i) is
// non-zero, with those coefficients. All the vectors share one index arena
// and one value arena, sized by a first pass, so a model costs a fixed number
// of allocations however many support vectors it has.
func supportVectors(x sparse.Matrix, coef func(i int) float64) ([]sparse.Vector, []float64) {
	rows, _ := x.Dims()
	var v sparse.Vector
	count, nnz := 0, 0
	for i := 0; i < rows; i++ {
		if coef(i) != 0 {
			v = x.RowTo(v, i)
			count++
			nnz += len(v.Index)
		}
	}
	if count == 0 {
		return nil, nil
	}
	svs, coefs := make([]sparse.Vector, 0, count), make([]float64, 0, count)
	index, value := make([]int32, 0, nnz), make([]float64, 0, nnz)
	for i := 0; i < rows; i++ {
		c := coef(i)
		if c == 0 {
			continue
		}
		// RowTo appends in place: the arenas have room for every row.
		at := len(index)
		v = x.RowTo(sparse.Vector{Index: index[at:], Value: value[at:]}, i)
		index, value = index[:at+len(v.Index)], value[:at+len(v.Value)]
		v.Index, v.Value = v.Index[:len(v.Index):len(v.Index)], v.Value[:len(v.Value):len(v.Value)]
		svs, coefs = append(svs, v), append(coefs, c)
	}
	return svs, coefs
}
