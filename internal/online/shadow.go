package online

// Shadow evaluation replays harvested records against a model and
// scores it against the measured oracle the record carries. Hit-rate
// answers "would the model have picked the fastest candidate?"; regret
// answers "how much slower would its pick have run?" — the same metrics
// learn.Workload.Evaluate reports offline, computed incrementally here so
// the controller can fold a window record-by-record.

// PredictFunc is a model as the shadow evaluator sees it: features in,
// candidate string out. ok=false means the model abstains (no model
// loaded, or confidence below its gate).
type PredictFunc func(Record) (string, bool)

// ShadowStats accumulates hit/regret over scored records. The zero
// value is ready to use. Observe folds one record as an exact sum, so
// incremental accumulation equals a from-scratch batch pass over the same
// records in the same order.
type ShadowStats struct {
	N         int     // records scored
	Hits      int     // model picked the measured-fastest candidate
	RegretSum float64 // sum of per-record regret ratios (each >= 1)
}

// Observe folds one scored record.
func (s *ShadowStats) Observe(hit bool, regret float64) {
	s.N++
	if hit {
		s.Hits++
	}
	s.RegretSum += regret
}

// HitRate returns Hits/N, or 0 when nothing was scored.
func (s ShadowStats) HitRate() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.N)
}

// MeanRegret returns RegretSum/N, or 0 when nothing was scored. A
// perfect model scores exactly 1.
func (s ShadowStats) MeanRegret() float64 {
	if s.N == 0 {
		return 0
	}
	return s.RegretSum / float64(s.N)
}

// ScoreRecord scores one prediction against the record's measured
// oracle. Regret is the measured time of the model's pick over the best
// measured time (>= 1). An abstaining model, or a pick the record never
// measured, is charged the worst measured time — the pessimistic bound,
// since the serving layer would have had to fall back or measure cold.
// ok=false means the record itself is unscoreable (no measurements).
func ScoreRecord(r Record, predict PredictFunc) (hit bool, regret float64, ok bool) {
	if len(r.Times) == 0 {
		return false, 0, false
	}
	best, worst := int64(0), int64(0)
	for _, ns := range r.Times {
		if best == 0 || ns < best {
			best = ns
		}
		if ns > worst {
			worst = ns
		}
	}
	if best <= 0 {
		return false, 0, false
	}
	pick, predicted := predict(r)
	if !predicted {
		return false, float64(worst) / float64(best), true
	}
	if pick == r.Label {
		return true, float64(r.Times[pick]) / float64(best), true
	}
	ns, measured := r.Times[pick]
	if !measured {
		return false, float64(worst) / float64(best), true
	}
	return false, float64(ns) / float64(best), true
}

// EvalShadow replays recs in order through predict, folding each score
// into the returned stats. It is the batch form of record-by-record
// Observe calls and produces bit-identical sums.
func EvalShadow(recs []Record, predict PredictFunc) ShadowStats {
	var s ShadowStats
	for _, r := range recs {
		hit, regret, ok := ScoreRecord(r, predict)
		if !ok {
			continue
		}
		s.Observe(hit, regret)
	}
	return s
}
