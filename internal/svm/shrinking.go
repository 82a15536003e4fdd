package svm

import (
	"time"

	"repro/internal/sparse"
)

// runShrinking is SMO with the shrinking heuristic the paper's related
// work cites ("points shrinking, caching", Joachims 1999): variables stuck
// at a bound whose gradient puts them far outside the current optimality
// window are removed from the active set, and the per-iteration SMSVs run
// on a *submatrix* of only the active rows — shrinking both the selection
// sweeps and the dominant kernel work. When the active problem converges,
// the full gradient is reconstructed from the support vectors, everything
// is unshrunk, and optimization continues until the full problem satisfies
// the stopping rule, so the returned model solves the same problem as the
// plain loop.
func (s *solver) runShrinking() Stats {
	a := &shrinkSolver{solver: s}
	a.selectActiveFn, a.updateActiveFn = a.selectActivePart, a.updateActiveRange
	a.unshrink()
	return a.run()
}

// shrinkSolver extends the base solver with an active-set view of the
// problem. f, alpha, y and normSq stay indexed by original row; the
// kernel-row buffers and the working-set sweeps run over active positions.
type shrinkSolver struct {
	*solver
	active  []int         // original indices of active rows, ascending
	subX    sparse.Matrix // the active rows of x (x itself when all are active)
	subNorm []float64     // normSq of the active rows, by active position; nil with normSq

	// The active-set loop bodies, bound once like the base solver's.
	selectActiveFn func(w int)
	updateActiveFn func(lo, hi int)
}

// shrinkPeriod is how many iterations run between shrink attempts,
// LIBSVM's min(n, 1000) rule.
func (s *shrinkSolver) shrinkPeriod() int {
	n := len(s.y)
	if n < 1000 {
		return n
	}
	return 1000
}

// unshrink resets the active set to every row.
func (s *shrinkSolver) unshrink() {
	n := len(s.y)
	s.active = s.active[:0]
	for i := 0; i < n; i++ {
		s.active = append(s.active, i)
	}
	s.subX, s.subNorm = s.x, s.normSq
}

// shrink removes bound variables whose gradient lies strictly outside the
// (bHigh, bLow) window — they cannot be selected into any violating pair
// until the window moves past them. Returns true when the set changed.
func (s *shrinkSolver) shrink() bool {
	kept := s.active[:0]
	changed := false
	for _, i := range s.active {
		if s.shrinkable(i) {
			changed = true
			continue
		}
		kept = append(kept, i)
	}
	s.active = kept
	if changed {
		s.rebuildSub()
	}
	return changed
}

// shrinkable reports whether row i is a bound variable outside the window.
func (s *shrinkSolver) shrinkable(i int) bool {
	a, yi, c := s.alpha[i], s.y[i], s.cfg.C
	switch {
	case a == 0 && yi > 0:
		return s.f[i] > s.bLow // only ever in I_high, and never minimal
	case a == 0 && yi < 0:
		return s.f[i] < s.bHigh
	case a == c && yi > 0:
		return s.f[i] < s.bHigh
	case a == c && yi < 0:
		return s.f[i] > s.bLow
	default:
		return false // free variable: always active
	}
}

// rebuildSub materializes the active-rows submatrix (CSR) used by the
// per-iteration SMSVs, and gathers the same rows' norms.
func (s *shrinkSolver) rebuildSub() {
	_, cols := s.x.Dims()
	if len(s.active) == len(s.y) {
		s.subX, s.subNorm = s.x, s.normSq
		return
	}
	b := sparse.NewBuilder(max(len(s.active), 1), cols)
	var v sparse.Vector
	for k, orig := range s.active {
		v = s.x.RowTo(v, orig)
		b.AddRow(k, v)
	}
	sub, err := b.Build(sparse.CSR)
	if err != nil {
		// Submatrix construction cannot realistically fail for CSR; fall
		// back to the full matrix (correct, just unshrunken).
		s.unshrink()
		return
	}
	s.subX = sub
	if s.normSq == nil {
		return
	}
	s.subNorm = make([]float64, len(s.active))
	for k, orig := range s.active {
		s.subNorm[k] = s.normSq[orig]
	}
}

// kernelRowsActive computes K(X_high, ·) and K(X_low, ·) restricted to the
// active rows, into kHigh/kLow[0:len(active)], via one fused pass over the
// submatrix.
func (s *shrinkSolver) kernelRowsActive(high, low int) {
	s.rowBufH = s.x.RowTo(s.rowBufH, high)
	s.rowBufL = s.x.RowTo(s.rowBufL, low)
	nAct := len(s.active)
	kH := s.kHigh[:nAct]
	kL := s.kLow[:nAct]
	if high == low {
		s.subX.MulVecSparse(kH, s.rowBufH, s.scratch, s.pair.ex)
		copy(kL, kH)
	} else {
		s.pair.run(s.subX, kH, kL, s.rowBufH, s.rowBufL, s.scratch, s.scratch2)
	}
	s.xform.apply(s.cfg.Exec, kH, s.subNorm, normAt(s.normSq, high))
	s.xform.apply(s.cfg.Exec, kL, s.subNorm, normAt(s.normSq, low))
}

// selectActive picks the working set over active positions, returning
// original indices and their active positions.
func (s *shrinkSolver) selectActive() (high, low, hPos, lPos int, ok bool) {
	b := s.scan.run(len(s.active), s.selectActiveFn)
	if b.minIdx < 0 || b.maxIdx < 0 {
		return 0, 0, 0, 0, false
	}
	s.bHigh, s.bLow = b.minVal, b.maxVal
	return s.active[b.minIdx], s.active[b.maxIdx], b.minIdx, b.maxIdx, true
}

func (s *shrinkSolver) selectActivePart(w int) {
	lo, hi := s.scan.span(w)
	b := noBest
	for k := lo; k < hi; k++ {
		i := s.active[k]
		b.offer(k, s.f[i], s.inHigh(i), s.inLow(i))
	}
	s.scan.partial[w] = b
}

// updateActiveRange applies step 5 to the active rows at positions [lo, hi).
func (s *shrinkSolver) updateActiveRange(lo, hi int) {
	ch, cl := s.ch, s.cl
	for k := lo; k < hi; k++ {
		s.f[s.active[k]] += ch*s.kHigh[k] + cl*s.kLow[k]
	}
}

// reconstructF recomputes f for every row from the support vectors:
// f_i = Σ_j α_j·y_j·K(X_j, X_i) − y_i. One SMSV per support vector over
// the full matrix — the price of unshrinking, paid at most a handful of
// times per training run.
func (s *shrinkSolver) reconstructF() {
	n := len(s.y)
	for i := 0; i < n; i++ {
		s.f[i] = -s.y[i]
	}
	row := s.kHigh // free until the next iteration recomputes it
	for j := 0; j < n; j++ {
		if s.alpha[j] == 0 {
			continue
		}
		s.rowBufH = s.x.RowTo(s.rowBufH, j)
		s.x.MulVecSparse(row, s.rowBufH, s.scratch, s.pair.ex)
		s.xform.apply(s.cfg.Exec, row, s.normSq, normAt(s.normSq, j))
		coef := s.alpha[j] * s.y[j]
		for i := 0; i < n; i++ {
			s.f[i] += coef * row[i]
		}
	}
}

// run is the outer SMO loop with periodic shrinking and reconstruction on
// inner convergence.
func (s *shrinkSolver) run() Stats {
	var st Stats
	sinceShrink := 0
	reconstructed := false
	for st.Iterations < s.cfg.MaxIter {
		high, low, hPos, lPos, ok := s.selectActive()
		if !ok {
			break
		}
		if s.bLow <= s.bHigh+2*s.cfg.Tol {
			if len(s.active) == len(s.y) && reconstructed {
				st.Converged = true
				break
			}
			// The shrunken problem converged (or we need a clean check):
			// reconstruct the full gradient, unshrink, and verify on the
			// whole problem.
			t0 := time.Now()
			s.reconstructF()
			st.KernelTime += time.Since(t0)
			s.unshrink()
			reconstructed = true
			continue
		}
		reconstructed = false
		t0 := time.Now()
		s.kernelRowsActive(high, low)
		st.KernelTime += time.Since(t0)

		dh, dl := s.step(high, low, hPos, lPos)
		st.Iterations++
		if dh != 0 || dl != 0 {
			s.ch = dh * s.y[high]
			s.cl = dl * s.y[low]
			s.cfg.Exec.ForElements(len(s.active), s.updateActiveFn)
		}
		sinceShrink++
		if sinceShrink >= s.shrinkPeriod() {
			sinceShrink = 0
			s.shrink()
		}
	}
	return st
}
