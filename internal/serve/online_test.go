package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/online"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// recordSink collects harvested records behind a mutex so tests can
// assert on them after concurrent request handling settles.
type recordSink struct {
	mu   sync.Mutex
	recs []online.Record
}

func (rs *recordSink) add(r online.Record) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.recs = append(rs.recs, r)
}

func (rs *recordSink) snapshot() []online.Record {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]online.Record(nil), rs.recs...)
}

// TestScheduleHarvestsMeasuredDecisions pins the flywheel's input contract:
// exactly one record per fresh measured decision on each workload, labeled
// with the empirical winner, and nothing on cache hits.
func TestScheduleHarvestsMeasuredDecisions(t *testing.T) {
	sink := &recordSink{}
	s := newTestServer(t, Config{Policy: core.Hybrid, Repeats: 1, Harvest: sink.add})
	h := s.Handler()

	d := decodeSchedule(t, post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(40, 30, 4, 42)})).Decision
	if d.Source != "measured" {
		t.Fatalf("source %q, want measured", d.Source)
	}
	recs := sink.snapshot()
	if len(recs) != 1 {
		t.Fatalf("harvested %d records after one measured decision, want 1", len(recs))
	}
	r := recs[0]
	if r.Kind != online.KindSMSV {
		t.Fatalf("kind %q, want smsv", r.Kind)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("harvested record invalid: %v\n%+v", err, r)
	}
	c, err := sparse.ParseCandidate(r.Label)
	if err != nil {
		t.Fatalf("label %q does not parse: %v", r.Label, err)
	}
	if c.Format.String() != d.Chosen {
		t.Fatalf("label format %s, decision chose %s", c.Format, d.Chosen)
	}
	if len(r.Times) != len(d.Measured) {
		t.Fatalf("record carries %d measurements, decision had %d", len(r.Times), len(d.Measured))
	}
	if r.F.M != d.Features.M || r.F.N != d.Features.N {
		t.Fatalf("record features %+v, decision echoed %+v", r.F, d.Features)
	}

	// A cache hit re-serves the decision without fresh evidence: no harvest.
	d2 := decodeSchedule(t, post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(40, 30, 4, 42)})).Decision
	if d2.Source != "cache" {
		t.Fatalf("second source %q, want cache", d2.Source)
	}
	if got := len(sink.snapshot()); got != 1 {
		t.Fatalf("cache hit harvested: %d records", got)
	}

	// SpGEMM rides the same hook with its own kind.
	sp := decodeSpGEMM(t, post(t, h, "/v1/schedule/spgemm", conformablePair(40, 32, 24, 1))).Decision
	if sp.Source != "measured" {
		t.Fatalf("spgemm source %q, want measured", sp.Source)
	}
	recs = sink.snapshot()
	if len(recs) != 2 {
		t.Fatalf("harvested %d records after spgemm decision, want 2", len(recs))
	}
	pr := recs[1]
	if pr.Kind != online.KindPair {
		t.Fatalf("spgemm record kind %q, want spgemm-pair", pr.Kind)
	}
	if err := pr.Validate(); err != nil {
		t.Fatalf("spgemm record invalid: %v\n%+v", err, pr)
	}
	if pr.Label != sp.Chosen {
		t.Fatalf("spgemm label %q, decision chose %q", pr.Label, sp.Chosen)
	}
	if pr.F.N != pr.FB.M {
		t.Fatalf("pair record operands not conformable: %+v x %+v", pr.F, pr.FB)
	}
	// Records from both workloads feed one store without cross-talk.
	store := online.NewStore(8, nil)
	for _, rec := range recs {
		if err := store.Add(rec); err != nil {
			t.Fatalf("store rejected live-harvested record: %v", err)
		}
	}
	if len(store.Window(online.KindSMSV, 8)) != 1 || len(store.Window(online.KindPair, 8)) != 1 {
		t.Fatal("store windows did not partition the harvested kinds")
	}
}

// TestHarvestSkipsUnmeasuredSources: predictor- and profile-sourced
// decisions carry no measurement evidence and must never reach the store.
func TestHarvestSkipsUnmeasuredSources(t *testing.T) {
	sink := &recordSink{}
	s := newTestServer(t, Config{
		Policy:    core.Hybrid,
		Repeats:   1,
		Harvest:   sink.add,
		Predictor: fixedPredictor{format: sparse.CSR, conf: 0.99, ok: true},
	})
	h := s.Handler()

	req := ScheduleRequest{Data: makeLIBSVM(32, 26, 4, 7), Policy: "predict"}
	d := decodeSchedule(t, post(t, h, "/v1/schedule", req)).Decision
	if d.Source != "predictor" {
		t.Fatalf("source %q, want predictor", d.Source)
	}
	// Profile-only requests never measure either.
	post(t, h, "/v1/schedule", ScheduleRequest{
		Profile: &FeaturesJSON{M: 100, N: 80, NNZ: 500, Density: 0.0625},
	})
	sp := conformablePair(24, 20, 16, 3)
	sp.Policy = "rule-based"
	decodeSpGEMM(t, post(t, h, "/v1/schedule/spgemm", sp))
	if got := sink.snapshot(); len(got) != 0 {
		t.Fatalf("unmeasured decisions were harvested: %+v", got)
	}
}

// stubPairLoader mirrors stubLoader for the pair-model distribution path:
// it decodes {"candidate": "<dataflow/AFMT/BFMT>"} into a fixedPairPredictor.
func stubPairLoader(b []byte) (core.PairPredictor, error) {
	var m struct {
		Candidate string `json:"candidate"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	c, err := spgemm.ParseCandidate(m.Candidate)
	if err != nil {
		return nil, err
	}
	return fixedPairPredictor{c: c, conf: 0.9}, nil
}

// TestClusterModelPushPairKind pins the kinded dispatch on
// /v1/cluster/model: "spgemm-pair" swaps the pair predictor (enabling the
// predict policy that 400s beforehand), unknown kinds are rejected, and
// the pair kind without a configured loader is a 503.
func TestClusterModelPushPairKind(t *testing.T) {
	s := newTestServer(t, Config{PairModelLoader: stubPairLoader})
	h := s.Handler()

	req := conformablePair(30, 24, 18, 5)
	req.Policy = "predict"
	if w := post(t, h, "/v1/schedule/spgemm", req); w.Code != http.StatusBadRequest {
		t.Fatalf("predict policy before any pair model: status %d, want 400", w.Code)
	}

	// A model the loader rejects must not swap anything.
	w := post(t, h, cluster.ModelPath, ModelPushRequest{
		Kind: string(online.KindPair), Model: json.RawMessage(`{"candidate":"nonsense"}`),
	})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad pair model: status %d, want 400", w.Code)
	}
	w = post(t, h, cluster.ModelPath, ModelPushRequest{
		Kind: "who-knows", Model: json.RawMessage(`{}`),
	})
	if w.Code != http.StatusBadRequest || !bytes.Contains(w.Body.Bytes(), []byte("unknown model kind")) {
		t.Fatalf("unknown kind: %d %s", w.Code, w.Body)
	}

	model := fmt.Sprintf(`{"candidate":%q}`, spgemm.BaseCandidate.String())
	w = post(t, h, cluster.ModelPath, ModelPushRequest{Kind: string(online.KindPair), Model: json.RawMessage(model)})
	if w.Code != http.StatusOK {
		t.Fatalf("pair push: status %d: %s", w.Code, w.Body)
	}
	d := decodeSpGEMM(t, post(t, h, "/v1/schedule/spgemm", req)).Decision
	if d.Source != "predictor" || d.Chosen != spgemm.BaseCandidate.String() {
		t.Fatalf("after pair swap: source=%q chosen=%q", d.Source, d.Chosen)
	}
	body := scrapeMetrics(t, h)
	for _, want := range []string{
		"layoutd_spgemm_predictor_loaded 1",
		"layoutd_spgemm_model_swaps_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The SMSV default-kind path still requires its own loader.
	sNoLoader := newTestServer(t, Config{PairModelLoader: stubPairLoader})
	w = post(t, sNoLoader.Handler(), cluster.ModelPath, ModelPushRequest{Model: json.RawMessage(`{}`)})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("smsv kind without ModelLoader: status %d, want 503", w.Code)
	}
	// And the pair kind without a pair loader is equally unavailable.
	sNoPair := newTestServer(t, Config{ModelLoader: stubLoader})
	w = post(t, sNoPair.Handler(), cluster.ModelPath, ModelPushRequest{
		Kind: string(online.KindPair), Model: json.RawMessage(`{}`),
	})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("pair kind without PairModelLoader: status %d, want 503", w.Code)
	}
}

func scrapeMetrics(t *testing.T, h http.Handler) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Body.String()
}

// onlineFeats builds the minimal valid feature vector harvested records
// carry, varied by shape so forest training sees a spread of points.
func onlineFeats(m, n int, nnz int64) dataset.Features {
	return dataset.Features{
		M: m, N: n, NNZ: nnz,
		Ndig: n / 2, Dnnz: float64(nnz) / float64(m),
		Mdim: 8, Adim: 4, Vdim: 2,
		Density: float64(nnz) / float64(m*n),
	}
}

// TestInstallModelByKind drives the install step of an online promotion
// for the pair workload: an unknown kind and a kind without a loader are
// errors, a model goes through the pair loader into the pair slot (and
// nowhere else), its hits count under the pair kind, and a nil model
// unloads it.
func TestInstallModelByKind(t *testing.T) {
	ctx := context.Background()
	if _, err := newTestServer(t, Config{}).InstallModel(ctx, string(online.KindPair), []byte(`{}`)); err == nil {
		t.Fatal("install without a pair loader succeeded")
	}
	s := newTestServer(t, Config{PairModelLoader: stubPairLoader})
	if _, err := s.InstallModel(ctx, "who-knows", []byte(`{}`)); err == nil {
		t.Fatal("install of an unknown kind succeeded")
	}
	model := fmt.Sprintf(`{"candidate":%q}`, spgemm.BaseCandidate.String())
	if peers, err := s.InstallModel(ctx, string(online.KindPair), []byte(model)); err != nil || peers != 0 {
		t.Fatalf("pair install: peers %d, err %v", peers, err)
	}
	if !s.pairPredictor.Loaded() || s.predictor.Loaded() {
		t.Fatalf("after a pair install: pair loaded %v, smsv loaded %v", s.pairPredictor.Loaded(), s.predictor.Loaded())
	}
	req := conformablePair(30, 24, 18, 5)
	req.Policy = "predict"
	if d := decodeSpGEMM(t, post(t, s.Handler(), "/v1/schedule/spgemm", req)).Decision; d.Source != "predictor" {
		t.Fatalf("after install: source %q", d.Source)
	}
	if hits, fallbacks := s.PredictorStats(string(online.KindPair)); hits != 1 || fallbacks != 0 {
		t.Fatalf("pair predictor stats %d/%d, want 1/0", hits, fallbacks)
	}
	if hits, _ := s.PredictorStats(ModelKindSMSV); hits != 0 {
		t.Fatalf("smsv predictor stats moved: %d hits", hits)
	}
	if _, err := s.InstallModel(ctx, string(online.KindPair), nil); err != nil || s.pairPredictor.Loaded() {
		t.Fatalf("nil install: err %v, still loaded %v", err, s.pairPredictor.Loaded())
	}
}

// TestClusterOnlinePromotionPropagatesModel is the flywheel E2E: a 3-node
// ring where node A's online controller retrains a real forest from
// harvested records, the shadow eval beats the (absent) live model, and
// the install hook hot-swaps A's predictor and broadcasts the model so B
// and C serve it too. Named TestCluster* so CI's race-enabled cluster
// suite runs it.
func TestClusterOnlinePromotionPropagatesModel(t *testing.T) {
	learnLoader := func(b []byte) (core.FormatPredictor, error) {
		f, err := learn.Load(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	nodes := startCluster(t, 3, func(i int, cfg *Config) {
		cfg.ModelLoader = learnLoader
	})

	profile := FeaturesJSON{M: 200, N: 160, NNZ: 2000, Density: 0.0625}
	for _, nd := range nodes {
		status, _, _ := postURL(t, nd.url+"/v1/predict-format", PredictFormatRequest{Profile: &profile})
		if status != http.StatusServiceUnavailable {
			t.Fatalf("%s served predict-format before any promotion (status %d)", nd.id, status)
		}
	}

	var clockMu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}

	store := online.NewStore(64, clock)
	var propagated int
	install := func(ctx context.Context, f *learn.Forest) error {
		if f == nil { // rollback to the no-model boot lane unloads
			_, err := nodes[0].srv.InstallModel(ctx, ModelKindSMSV, nil)
			return err
		}
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			return err
		}
		var err error
		propagated, err = nodes[0].srv.InstallModel(ctx, ModelKindSMSV, buf.Bytes())
		return err
	}
	interval := time.Minute
	ctl, err := online.New(online.Config{
		Store:           store,
		Now:             clock,
		RetrainInterval: interval,
		ShadowWindow:    32,
		PromoteMargin:   0.05,
		RollbackRegret:  1.5,
		MonitorRecords:  4,
		Lanes:           []online.LaneConfig{online.SMSVLane(nil, learn.TrainConfig{}, install)},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Harvest a regime where CSR decisively wins across varied shapes, the
	// same labeled evidence harvestDecision produces from live traffic.
	label := "CSR/static/base"
	for i := 0; i < 16; i++ {
		rec := online.Record{
			Kind:  online.KindSMSV,
			F:     onlineFeats(100+i*17, 80+i*11, int64(400+i*37)),
			Label: label,
			Times: map[string]int64{
				label:             100,
				"COO/static/base": 340,
				"ELL/static/base": 520,
			},
		}
		if err := store.Add(rec); err != nil {
			t.Fatal(err)
		}
	}

	advance(interval)
	ctl.Step()

	st := ctl.Status()
	if len(st) != 1 || st[0].Promotions != 1 || !st[0].Monitoring {
		t.Fatalf("controller did not promote: %+v", st)
	}
	if propagated != 2 {
		t.Fatalf("broadcast reached %d peers, want 2", propagated)
	}

	// Every node in the ring now serves the promoted forest, and it
	// predicts the regime's winning format.
	for _, nd := range nodes {
		status, raw, _ := postURL(t, nd.url+"/v1/predict-format", PredictFormatRequest{Profile: &profile})
		if status != http.StatusOK {
			t.Fatalf("%s after promotion: status %d: %s", nd.id, status, raw)
		}
		var pf PredictFormatResponse
		if err := json.Unmarshal(raw, &pf); err != nil {
			t.Fatal(err)
		}
		if pf.Format != sparse.CSR.String() {
			t.Fatalf("%s predicts %s, want the promoted forest's csr", nd.id, pf.Format)
		}
	}

	// Fresh post-swap traffic that still agrees with the promotion lets
	// the judge commit rather than roll back.
	for i := 0; i < 4; i++ {
		rec := online.Record{
			Kind:  online.KindSMSV,
			F:     onlineFeats(90+i*13, 70+i*9, int64(250+i*19)),
			Label: label,
			Times: map[string]int64{label: 100, "COO/static/base": 300},
		}
		if err := store.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	ctl.Step()
	st = ctl.Status()
	if st[0].Commits != 1 || st[0].Monitoring || st[0].Rollbacks != 0 {
		t.Fatalf("judge did not commit the healthy swap: %+v", st)
	}
}
