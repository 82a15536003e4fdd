package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// raceWorkload is a stub workload whose kernels take scripted times on a
// fake clock: candidate c's n-th run, counting its warm-up as the 0th, takes
// script[c][n mod len] milliseconds, so what the race sees, spread included,
// is exactly what the test wrote.
type raceWorkload[P embedded, C candidate] struct {
	ladderScratch[C]
	ranked []C
	script map[C][]float64
	trials int
	clock  *time.Duration
	runs   map[C]int // warm-up included
	times  map[C]time.Duration
	chosen C
}

// fakeClock makes the race read its time off the returned duration, which
// the stub kernels advance, until the test ends.
func fakeClock(t *testing.T) *time.Duration {
	at, base := new(time.Duration), time.Now()
	now = func() time.Time { return base.Add(*at) }
	t.Cleanup(func() { now = time.Now })
	return at
}

func (w *raceWorkload[P, C]) prepare(ranked []C) (p P, _ []C, err error) {
	return p, append(ranked, w.ranked...), nil
}
func (w *raceWorkload[P, C]) predict() (c C, _ float64, _ bool) { return c, 0, false }
func (w *raceWorkload[P, C]) usable(C) bool                     { return true }
func (w *raceWorkload[P, C]) build(C) error                     { return nil }
func (w *raceWorkload[P, C]) sample(*rand.Rand) int             { return w.trials }
func (w *raceWorkload[P, C]) run(c C, _ int) error {
	script := w.script[c]
	*w.clock += time.Duration(script[w.runs[c]%len(script)] * float64(time.Millisecond))
	w.runs[c]++
	return nil
}
func (w *raceWorkload[P, C]) kernelPanic(_ C, p any) error { return fmt.Errorf("stub: panic: %v", p) }
func (w *raceWorkload[P, C]) measured(c C, t time.Duration, chosen bool) {
	w.times[c] = t
	if chosen {
		w.chosen = c
	}
}

// TestRaceStopsTimingTheBeaten runs scripted races through each scheduler's
// ladder: a 4× loser leaves after its first sample, a 1.5× loser whose
// samples do not overlap the leader's after its second, and a 1.05×
// near-tie whose samples overlap is timed for the whole budget. A dropped
// candidate keeps its fastest sample in Measured, and the chosen
// candidate's is the smallest.
func TestRaceStopsTimingTheBeaten(t *testing.T) {
	// Three trial inputs × the default two repeats.
	const trials, budget = 3, 6
	clock := fakeClock(t)
	smsv := New(Config{Policy: Hybrid, TopK: 2}).ladder
	pair := NewSpGEMM(SpGEMMConfig{Policy: Hybrid, TopK: 2}).ladder
	pairCands := spgemm.AppendCandidates(nil)
	t.Run("smsv", func(t *testing.T) {
		raceCases(t, smsv, clock, trials, budget, sparse.Candidate{Format: sparse.CSR}, sparse.Candidate{Format: sparse.ELL})
	})
	t.Run("spgemm", func(t *testing.T) {
		raceCases(t, pair, clock, trials, budget, pairCands[0], pairCands[1])
	})
}

func raceCases[P embedded, C candidate](t *testing.T, l ladder[P, C], clock *time.Duration, trials, budget int, fast, slow C) {
	for _, tc := range []struct {
		name       string
		fast, slow []float64
		samples    int // the slow candidate's timed samples
	}{
		{"4x loser", []float64{1, 1.2}, []float64{4, 4.8}, 1},
		{"1.5x loser", []float64{1, 1.2}, []float64{1.5, 1.6}, 2},
		{"1.05x near-tie", []float64{1, 1.2}, []float64{1.05, 1.26}, budget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &raceWorkload[P, C]{
				ranked: []C{fast, slow}, script: map[C][]float64{fast: tc.fast, slow: tc.slow},
				trials: trials, clock: clock, runs: map[C]int{}, times: map[C]time.Duration{},
			}
			v, err := l.choose(context.Background(), w, &w.ladderScratch)
			if err != nil {
				t.Fatal(err)
			}
			if samples := w.runs[slow] - 1; samples != tc.samples { // less the warm-up
				t.Errorf("the slow candidate was timed %d times, want %d", samples, tc.samples)
			}
			if len(w.times) != 2 {
				t.Fatalf("Measured holds %v, want both candidates", w.times)
			}
			for c, d := range w.times {
				if d < w.times[v.chosen] {
					t.Errorf("chose %v (%v) over %v (%v)", v.chosen, w.times[v.chosen], c, d)
				}
			}
			if v.chosen != fast || v.chosen != w.chosen || v.rung != RungMeasured {
				t.Errorf("verdict %+v, measured winner %v, want %v: %v", v, w.chosen, fast, w.times)
			}
		})
	}
}

// TestRaceRetriesOneSample: a transient failure of one sample is retried
// without disqualifying the candidate, and a candidate whose kernel panics
// mid-race leaves it without sinking the decision.
func TestRaceRetriesOneSample(t *testing.T) {
	l := New(Config{Policy: Hybrid, TopK: 2, RetryBackoff: 10 * time.Microsecond}).ladder
	a, b := sparse.Candidate{Format: sparse.CSR}, sparse.Candidate{Format: sparse.COO}
	w := &flakyWorkload{fail: map[int]error{2: transientErr{}, 5: errPoison}, got: map[sparse.Candidate]bool{}}
	w.ranked, w.trials, w.clock, w.runs = []sparse.Candidate{a, b}, 3, fakeClock(t), map[sparse.Candidate]int{}
	w.script = map[sparse.Candidate][]float64{a: {1}, b: {1}}
	v, err := l.choose(context.Background(), w, &w.ladderScratch)
	if err != nil {
		t.Fatal(err)
	}
	// Runs in order: warm-ups 0 (a) and 1 (b); round 0: 2 (a, transient),
	// 3 (a, retried), 4 (b); round 1 starts with b: 5 (b panics), 6 (a).
	if v.chosen != a || len(w.got) != 1 || w.runs[a] != 1+3 || w.runs[b] != 1+2 {
		t.Fatalf("chose %v, measured %v, runs %v", v.chosen, w.got, w.runs)
	}
}

type transientErr struct{}

func (transientErr) Error() string   { return "stub: transient" }
func (transientErr) Transient() bool { return true }

var errPoison = errors.New("stub: poisoned")

// flakyWorkload fails its n-th kernel run overall with fail[n]: a transient
// error is returned, any other value is panicked with.
type flakyWorkload struct {
	raceWorkload[[dataset.EmbedDims]float64, sparse.Candidate]
	fail map[int]error
	n    int
	got  map[sparse.Candidate]bool // the measured candidates
}

func (w *flakyWorkload) run(c sparse.Candidate, trial int) error {
	n := w.n
	w.n++
	switch err := w.fail[n]; {
	case err == nil:
		return w.raceWorkload.run(c, trial)
	case IsTransient(err):
		w.runs[c]++
		return err
	default:
		w.runs[c]++
		panic(err)
	}
}

func (w *flakyWorkload) measured(c sparse.Candidate, _ time.Duration, _ bool) { w.got[c] = true }
