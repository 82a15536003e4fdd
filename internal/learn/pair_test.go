package learn

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// modelPairLabeled builds a measurement-free labeled pair corpus the same
// way modelLabeled does for SMSV: each pair's per-candidate "times" are the
// scheduler's pair cost model on its real extracted features, so labels and
// regret are deterministic while the feature→label structure matches what
// the flywheel trains on.
func modelPairLabeled(t *testing.T, n int, seed int64) []pairLabeled {
	t.Helper()
	out := make([]pairLabeled, 0, n)
	for _, p := range syntheticPairCorpus(n, seed) {
		ma, err := p[0].Build(sparse.CSR)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := p[1].Build(sparse.CSR)
		if err != nil {
			t.Fatal(err)
		}
		fa, fb := dataset.Extract(ma), dataset.Extract(mb)
		times := make(map[spgemm.Candidate]time.Duration)
		label := spgemm.Candidate{}
		best := time.Duration(-1)
		for _, e := range core.EstimatePairCandidates(fa, fb) {
			d := time.Duration(e.Cost * 64)
			times[e.Candidate] = d
			if best < 0 || d < best || (d == best && e.Candidate.Index() < label.Index()) {
				label, best = e.Candidate, d
			}
		}
		out = append(out, pairLabeled{Recorded: FromPairFeatures(fa, fb, label), Times: times})
	}
	return out
}

// gustavsonOnlyExamples projects the corpus onto a fixed-dataflow baseline:
// the label becomes the cheapest Gustavson candidate, as a scheduler that
// only knows the row-wise kernel would choose.
func gustavsonOnlyExamples(items []pairLabeled) []PairExample {
	out := make([]PairExample, 0, len(items))
	for _, it := range items {
		label := spgemm.Candidate{}
		best := time.Duration(-1)
		for c, d := range it.Times {
			if c.Dataflow != spgemm.Gustavson {
				continue
			}
			if best < 0 || d < best || (d == best && c.Index() < label.Index()) {
				label, best = c, d
			}
		}
		out = append(out, PairExample{Point: it.Point, Candidate: label})
	}
	return out
}

func TestTrainPairPredict(t *testing.T) {
	train := modelPairLabeled(t, 50, 3)
	f, err := TrainPair(Examples(train), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Trees() == 0 || f.TrainedOn() != 50 {
		t.Fatalf("Trees=%d TrainedOn=%d", f.Trees(), f.TrainedOn())
	}
	exact := 0
	for _, it := range train {
		pred, conf, ok := SpGEMM.Predict(f, it.Point)
		if !ok {
			t.Fatal("trained forest refused to predict")
		}
		if conf <= 0 || conf > 1 {
			t.Fatalf("confidence %g outside (0,1]", conf)
		}
		if !spgemm.Supported(pred) {
			t.Fatalf("predicted unsupported candidate %s", pred)
		}
		if pred == it.Candidate {
			exact++
		}
	}
	if exact < len(train)/2 {
		t.Fatalf("training-set exact accuracy %d/%d; forest did not fit", exact, len(train))
	}
	if _, err := TrainPair(nil, TrainConfig{}); err != ErrNoTrainingData {
		t.Fatalf("empty training set: err = %v, want ErrNoTrainingData", err)
	}
}

func TestPairModelRoundTrip(t *testing.T) {
	train := modelPairLabeled(t, 40, 5)
	f, err := TrainPair(Examples(train), TrainConfig{Trees: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := LoadPair(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g.Trees() != f.Trees() || g.TrainedOn() != f.TrainedOn() {
		t.Fatalf("loaded Trees=%d TrainedOn=%d, want %d/%d", g.Trees(), g.TrainedOn(), f.Trees(), f.TrainedOn())
	}
	for _, it := range train {
		p1, c1, _ := SpGEMM.Predict(f, it.Point)
		p2, c2, _ := SpGEMM.Predict(g, it.Point)
		if p1 != p2 || c1 != c2 {
			t.Fatalf("round-trip prediction drift: %s/%g vs %s/%g", p1, c1, p2, c2)
		}
	}
}

func TestLoadPairRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"smsv-kind":     `{"version":1,"kind":"","dims":12,"trees":[{"nodes":[{"feat":-1,"label":"gustavson/CSR/CSR","purity":1}]}]}`,
		"version":       `{"version":99,"kind":"spgemm-pair","dims":12,"trees":[{"nodes":[{"feat":-1,"label":"gustavson/CSR/CSR","purity":1}]}]}`,
		"dims":          `{"version":1,"kind":"spgemm-pair","dims":7,"trees":[{"nodes":[{"feat":-1,"label":"gustavson/CSR/CSR","purity":1}]}]}`,
		"no-trees":      `{"version":1,"kind":"spgemm-pair","dims":12,"trees":[]}`,
		"bad-label":     `{"version":1,"kind":"spgemm-pair","dims":12,"trees":[{"nodes":[{"feat":-1,"label":"CSR","purity":1}]}]}`,
		"bad-purity":    `{"version":1,"kind":"spgemm-pair","dims":12,"trees":[{"nodes":[{"feat":-1,"label":"gustavson/CSR/CSR","purity":2}]}]}`,
		"feat-range":    `{"version":1,"kind":"spgemm-pair","dims":12,"trees":[{"nodes":[{"feat":12,"thresh":1,"left":1,"right":2},{"feat":-1,"label":"gustavson/CSR/CSR","purity":1},{"feat":-1,"label":"inner/CSR/CSC","purity":1}]}]}`,
		"back-child":    `{"version":1,"kind":"spgemm-pair","dims":12,"trees":[{"nodes":[{"feat":0,"thresh":1,"left":0,"right":1},{"feat":-1,"label":"gustavson/CSR/CSR","purity":1}]}]}`,
		"corrupt":       `{"version":`,
		"smsv-contents": `{"version":3,"dims":7,"trees":[{"nodes":[{"feat":-1,"label":"CSR","purity":1}]}]}`,
	}
	for name, body := range cases {
		if _, err := LoadPair(strings.NewReader(body)); err == nil {
			t.Errorf("%s: malformed pair model accepted", name)
		}
	}
}

// TestPairRegretGate is the SpGEMM model-quality acceptance gate: on a
// held-out set, the forest trained over the joint dataflow×format space
// must have mean slowdown (regret vs the per-pair oracle) no worse than a
// forest confined to the Gustavson-only label space, and must actually
// choose non-Gustavson dataflows where the cost model favors them.
func TestPairRegretGate(t *testing.T) {
	train := modelPairLabeled(t, 60, 11)
	held := modelPairLabeled(t, 40, 22)

	joint, err := TrainPair(Examples(train), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := TrainPair(gustavsonOnlyExamples(train), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}

	evJoint := SpGEMM.Evaluate(joint, held, 1.25, 0.6)
	evFixed := SpGEMM.Evaluate(fixed, held, 1.25, 0.6)
	t.Logf("joint:          %s", evJoint)
	t.Logf("gustavson-only: %s", evFixed)

	if evJoint.N != len(held) || evFixed.N != len(held) {
		t.Fatalf("scored %d/%d items, want %d each", evJoint.N, evFixed.N, len(held))
	}
	if evJoint.MeanSlowdown > evFixed.MeanSlowdown+1e-9 {
		t.Fatalf("joint regret %.4fx worse than gustavson-only %.4fx",
			evJoint.MeanSlowdown, evFixed.MeanSlowdown)
	}
	nonGustavson := 0
	for _, it := range held {
		if pred, _, ok := SpGEMM.Predict(joint, it.Point); ok && pred.Dataflow != spgemm.Gustavson {
			nonGustavson++
		}
	}
	oracleNonGustavson := 0
	for _, it := range held {
		if it.Candidate.Dataflow != spgemm.Gustavson {
			oracleNonGustavson++
		}
	}
	t.Logf("non-gustavson: oracle %d/%d, predicted %d/%d",
		oracleNonGustavson, len(held), nonGustavson, len(held))
	if oracleNonGustavson > 0 && nonGustavson == 0 {
		t.Fatal("joint forest never leaves the Gustavson dataflow despite oracle evidence")
	}
}

func TestSyntheticPairCorpusConformable(t *testing.T) {
	corpus := syntheticPairCorpus(20, 7)
	if len(corpus) != 20 {
		t.Fatalf("%d pairs, want 20", len(corpus))
	}
	for i, p := range corpus {
		_, ak := p[0].Dims()
		bk, _ := p[1].Dims()
		if ak != bk {
			t.Fatalf("pair %d not conformable: A cols %d, B rows %d", i, ak, bk)
		}
		if p[0].Len() == 0 || p[1].Len() == 0 {
			t.Fatalf("pair %d has an empty operand", i)
		}
	}
}

func TestFromPairHistoryHarvest(t *testing.T) {
	h := &core.PairHistory{}
	fa := dataset.Features{M: 32, N: 24, NNZ: 120, Mdim: 7, Adim: 4, Vdim: 2, Density: 0.15}
	fb := dataset.Features{M: 24, N: 16, NNZ: 96, Mdim: 6, Adim: 4, Vdim: 2, Density: 0.25}
	want := spgemm.Candidate{Dataflow: spgemm.InnerProduct, AFormat: sparse.CSR, BFormat: sparse.CSC}
	h.RecordCandidate(fa, fb, want)
	got := SpGEMM.Harvest(h)
	if len(got) != 1 || got[0].Candidate != want || got[0].Point != dataset.EmbedPair(fa, fb) {
		t.Fatalf("harvested %+v", got)
	}
}
