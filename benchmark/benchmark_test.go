package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/sparse"
	"repro/internal/svm"
)

// smoke is the shrunken size the tests run workloads at.
var smoke = params{div: 8, seconds: 3}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%.2f) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestWindowedTail(t *testing.T) {
	// Two sub-windows of 100 ops each: latencies 1..100 ms in the first,
	// 101..200 ms in the second. p90 is 90 and 190, each sub-window keeps 10
	// samples beyond it, and the lower of the two is reported.
	var samples []sample
	for i := 1; i <= 200; i++ {
		samples = append(samples, sample{at: time.Duration(i-1) * 5 * time.Millisecond, lat: time.Duration(i) * time.Millisecond})
	}
	if got, counted := windowedTail(samples, time.Second, 2, 0.9); got != 90 || counted != 2 {
		t.Errorf("windowedTail = %v ms over %d sub-windows, want 90 ms over 2", got, counted)
	}
	// A sub-window with too few samples beyond its percentile does not
	// count: drop one op from the first and the second decides.
	if got, counted := windowedTail(samples[1:], time.Second, 2, 0.9); got != 190 || counted != 1 {
		t.Errorf("windowedTail = %v ms over %d sub-windows, want 190 ms over 1", got, counted)
	}
	if _, counted := windowedTail(samples[:50], time.Second, 2, 0.9); counted != 0 {
		t.Errorf("50 ops counted %d sub-windows at p90, want 0", counted)
	}
}

func TestSubWindows(t *testing.T) {
	for _, c := range []struct {
		good  int
		p     float64
		limit int
		want  int
	}{
		{60000, 0.99, 10, 10}, // serve_hot: the limit
		{900, 0.90, 5, 4},     // svm_train on a quiet host
		{240, 0.90, 5, 1},     // svm_train in a slow phase
		{50, 0.90, 5, 1},      // never fewer than the whole window
	} {
		if got := subWindows(c.good, c.p, c.limit); got != c.want {
			t.Errorf("subWindows(%d, %g, %d) = %d, want %d", c.good, c.p, c.limit, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "handler", StartNs: 10, EndNs: 70, Parent: 0},
		{Name: "parse", StartNs: 10, EndNs: 30, Parent: 1},
		{Name: "extract", StartNs: 25, EndNs: 40, Parent: 1},   // overlaps parse by 5
		{Name: "encode", StartNs: 60, EndNs: 90, Parent: 1},    // reaches 20 past handler
		{Name: "forward", StartNs: 120, EndNs: 130, Parent: 0}, // wholly outside request
	}
	want := []time.Duration{40, 20, 20, 15, 30, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerLaysChildrenEndToEnd(t *testing.T) {
	tr := newTracer(time.Unix(0, 0))
	root := tr.root(spRequest, time.Unix(0, 1000), 500, 7)
	h := tr.child(root, spHandler, 300)
	tr.child(h, spParse, 100)
	tr.child(h, spExtract, 50)
	want := []span{
		{spRequest, 1000, 1500, -1, 7},
		{spHandler, 1000, 1300, 0, 7},
		{spParse, 1000, 1100, 1, 7},
		{spExtract, 1100, 1150, 1, 7},
	}
	if !reflect.DeepEqual(tr.spans, want) {
		t.Errorf("spans = %+v, want %+v", tr.spans, want)
	}
	if self := selfTimes(tr.spans); self[h] != 150 || self[root] != 200 {
		t.Errorf("self times handler %v request %v, want 150 and 200", self[h], self[root])
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		a, b   float64
		m      specMetric
		sa, sb float64
		want   verdict
	}{
		{1, 1.09, lower, 0, 0, within},
		{1, 1.11, lower, 0, 0, regression},
		{1, 0.5, lower, 0, 0, within},
		{100, 91, higher, 0, 0, within},
		{100, 89, higher, 0, 0, regression},
		{100, 150, higher, 0, 0, within},
		{1, 1.5, lower, 0.2, 0, unresolved}, // noise wider than the bound: no verdict
		{1, 1.0, lower, 0, 0.11, unresolved},
	} {
		if _, got := judge(c.a, c.b, c.m, c.sa, c.sb); got != c.want {
			t.Errorf("judge(%v -> %v, %s, spreads %v %v) = %v, want %v", c.a, c.b, c.m.Name, c.sa, c.sb, got, c.want)
		}
	}
}

// requestBytes flattens a request table for byte comparison.
func requestBytes(reqs []*request) []byte {
	var buf bytes.Buffer
	for _, rq := range reqs {
		fmt.Fprintf(&buf, "%d %s\n", rq.endpoint, rq.body)
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	decks := map[string]func(seed int64) ([]byte, error){
		"serve_hot": func(seed int64) ([]byte, error) {
			reqs, classes, batches, pairs, err := hotRequests(seed, smoke)
			if err != nil {
				return nil, err
			}
			seq := hotSequence(streamRNG(seed, "hot/seq/0"), 512, classes, batches, pairs)
			return append(requestBytes(reqs), fmt.Sprint(seq)...), nil
		},
		"serve_cold": func(seed int64) ([]byte, error) {
			reqs, err := coldRequests(seed, smoke)
			if err != nil {
				return nil, err
			}
			c := &coldInstance{reqs: reqs, seed: seed}
			return append(requestBytes(reqs), fmt.Sprint(c.deckOrder(0), c.deckOrder(1))...), nil
		},
		"ring_mixed": func(seed int64) ([]byte, error) {
			reqs, classes, err := ringRequests(seed, smoke)
			if err != nil {
				return nil, err
			}
			seq := ringSequence(streamRNG(seed, "ring/seq/0"), 512, classes, []int32{int32(classes), int32(classes + 1)})
			return append(requestBytes(reqs), fmt.Sprint(seq)...), nil
		},
	}
	for name, deck := range decks {
		a, err := deck(11)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := deck(11)
		c, _ := deck(12)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 11 gave two different decks", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 11 and 12 gave the same deck", name)
		}
	}
}

// The fast path of newMatrix takes a pinned matrix's features from the
// builder; they must be the features the server's parse path extracts.
func TestFeaturesMatchParsePath(t *testing.T) {
	rng := streamRNG(5, "features")
	for i := 0; i < 40; i++ {
		mx, err := newMatrix(smallShape(rng, rng, logUniform(rng, 300, 8<<10)))
		if err != nil {
			t.Fatal(err)
		}
		_, parsed, err := parseOperand(mx.data)
		if err != nil {
			t.Fatal(err)
		}
		if mx.feats != parsed {
			t.Fatalf("shape %d: builder features %+v, parse path %+v", i, mx.feats, parsed)
		}
	}
}

func TestColdDeckIsSpacedBeyondHistoryRadius(t *testing.T) {
	shapes, err := coldMatrices(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != 40 {
		t.Fatalf("deck holds %d shapes, want 40", len(shapes))
	}
	for i := range shapes {
		for j := 0; j < i; j++ {
			a, b := dataset.Embed(shapes[i].feats), dataset.Embed(shapes[j].feats)
			d2 := 0.0
			for k := range a {
				d2 += (a[k] - b[k]) * (a[k] - b[k])
			}
			if math.Sqrt(d2) <= 0.75 {
				t.Fatalf("shapes %d and %d are %.3f apart: the tuning history would answer one for the other", i, j, math.Sqrt(d2))
			}
		}
	}
}

// svm_train scores models through their weight vector; on a linear kernel
// that must classify every row as Model.Predict does.
func TestLinearAccuracyMatchesModel(t *testing.T) {
	inst, err := setupSVM(4, smoke)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*svmInstance)
	for _, job := range s.jobs {
		m, _, err := svm.TrainFixed(cloneBuilder(job.csr), job.y, sparse.CSR, svmConfig(s.ex))
		if err != nil {
			t.Fatal(err)
		}
		agree := 0
		for i, x := range job.checkX {
			if m.Predict(x) == job.checkY[i] {
				agree++
			}
		}
		want := float64(agree) / float64(len(job.checkX))
		if got := linearAccuracy(m, job.checkX, job.checkY, s.w); got != want {
			t.Errorf("%s: linearAccuracy %v, Model.Predict agrees on %v", job.name, got, want)
		}
	}
}

func mustPositive(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s = %v, want a positive finite value", name, v)
	}
	return nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the harness must name exactly the same workloads and
// metrics, with the same units and directions.
func TestSpecMatchesHarness(t *testing.T) {
	sp, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloadNames())
	}
	if !reflect.DeepEqual(sp.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer differs from the harness's list (%d in the file, %d in the harness)", len(sp.PerLayer), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// A one-second run of every workload on a shrunken deck: no op fails, no
// guard trips, and both runs emit exactly the metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	sp, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel() // the smoke asserts outcomes, not timings
			res, err := runUntraced(wl, 1, 1, smoke)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed > 0 || res.guard != nil {
				t.Fatalf("untraced: %d of %d ops failed %v, guard %v", res.Failed, res.Attempted, res.Errors, res.guard)
			}
			if err := checkNames(res.Metrics, sp.EndToEnd); err != nil {
				t.Error(err)
			}
			for name, m := range res.Metrics {
				if err := mustPositive(name, m.Value); err != nil {
					t.Error(err)
				}
			}
			res, err = runTraced(wl, 1, 1, smoke, "")
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed > 0 || res.guard != nil {
				t.Fatalf("traced: %d of %d ops failed %v, guard %v", res.Failed, res.Attempted, res.Errors, res.guard)
			}
			if err := checkNames(res.Metrics, sp.PerLayer); err != nil {
				t.Error(err)
			}
		})
	}
}
