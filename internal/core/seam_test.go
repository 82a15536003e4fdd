package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

// A toy workload (two features in the first two coordinates, three labels)
// drives the radius store, its codec and the decision ladder without naming
// a production candidate type: the generic code cannot be branching on its
// caller.
type toyPoint [dataset.EmbedDims]float64
type toyLabel int

func (l toyLabel) String() string { return strconv.Itoa(int(l)) }

func parseToy(s string) (toyLabel, error) { i, err := strconv.Atoi(s); return toyLabel(i), err }

func TestSeamRadiusStoreToyWorkload(t *testing.T) {
	codec := historyCodec[toyLabel]{header: "#toy-history v1", noun: "toy history", parse: parseToy}
	var h, loaded radiusStore[toyPoint, toyLabel]
	h.record(toyPoint{0, 0}, 0)
	h.record(toyPoint{3, 4}, 2)
	var buf bytes.Buffer
	if err := h.save(&buf, codec); err != nil {
		t.Fatal(err)
	}
	if err := loaded.load(bytes.NewReader(buf.Bytes()), codec); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*radiusStore[toyPoint, toyLabel]{&h, &loaded} {
		c, near := st.lookup(toyPoint{3, 4.2}, 0.5)
		if _, far := st.lookup(toyPoint{10, 10}, 0.5); !near || c != 2 || far || st.Len() != 2 {
			t.Fatalf("lookup: near %v→%v, far %v, len %d", near, c, far, st.Len())
		}
	}
	body := strings.TrimPrefix(buf.String(), codec.header+"\n")
	if new(radiusStore[toyPoint, toyLabel]).load(strings.NewReader(body), codec) == nil {
		t.Fatal("headerless file loaded although the codec does not allow it")
	}
}

// toyWorkload is a workload over the toy types: the cost model ranks the
// labels 2, 0, 1, the predictor always answers label 1 with vote share conf,
// and kernels of label broken fail.
type toyWorkload struct {
	ladderScratch[toyLabel]
	point  toyPoint
	conf   float64
	broken toyLabel
	runs   int
	times  map[toyLabel]time.Duration
}

func (w *toyWorkload) prepare(ranked []toyLabel) (toyPoint, []toyLabel, error) {
	return w.point, append(ranked, 2, 0, 1), nil
}
func (w *toyWorkload) predict() (toyLabel, float64, bool) { return 1, w.conf, true }
func (w *toyWorkload) usable(toyLabel) bool               { return true }
func (w *toyWorkload) build(toyLabel) error               { return nil }
func (w *toyWorkload) sample(*rand.Rand) int              { return 2 }
func (w *toyWorkload) run(c toyLabel, _ int) error {
	w.runs++
	if c == w.broken {
		return errors.New("toy: broken kernel")
	}
	return nil
}
func (w *toyWorkload) kernelPanic(_ toyLabel, p any) error { return fmt.Errorf("toy: panic: %v", p) }
func (w *toyWorkload) measured(c toyLabel, t time.Duration, _ bool) {
	w.times[c] = t
}

func TestSeamLadderToyWorkload(t *testing.T) {
	l := ladder[toyPoint, toyLabel]{
		policy: PolicyPredict, predictor: true, history: &radiusStore[toyPoint, toyLabel]{}, radius: 0.5,
		space: []toyLabel{0, 1, 2}, span: "toy.choose", op: "toy: choose", noun: "toy label",
	}.withDefaults()
	w := &toyWorkload{point: toyPoint{3, 4}, conf: 0.2, broken: 2, times: map[toyLabel]time.Duration{}}
	choose := func() verdict[toyLabel] {
		t.Helper()
		w.runs = 0
		v, err := l.choose(context.Background(), w, &w.ladderScratch)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	// An untrusted prediction falls back to measuring the two cheapest
	// labels. Label 2 fails in its warm-up run and is skipped; label 0 runs
	// a warm-up and, alone in the race, one timed sample, wins, and is
	// remembered.
	v := choose()
	if v.chosen != 0 || v.rung != RungMeasured || v.confidence != 0.2 {
		t.Fatalf("fallback verdict %+v, want measured label 0 at confidence 0.2", v)
	}
	if _, ok := w.times[0]; !ok || len(w.times) != 1 || w.runs != 1+2 || l.history.Len() != 1 {
		t.Fatalf("measured %v in %d runs with %d remembered, want only label 0, 3 runs, 1 remembered", w.times, w.runs, l.history.Len())
	}
	// The same shape class again is answered from the history, before the
	// predictor is even asked.
	w.point, w.conf = toyPoint{3, 4.2}, 0.9
	if v := choose(); v.chosen != 0 || v.rung != RungHistory || v.confidence != 0 || w.runs != 0 {
		t.Fatalf("history verdict %+v after %d runs, want reused label 0 without running", v, w.runs)
	}
	// A far-away shape with a trusted prediction takes the predictor's label.
	w.point = toyPoint{10, 10}
	if v := choose(); v.chosen != 1 || v.rung != RungPredictor || v.confidence != 0.9 || w.runs != 0 {
		t.Fatalf("predict verdict %+v after %d runs, want predicted label 1 without running", v, w.runs)
	}
}
