package online

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// installTracker records which model name is "serving" — the test's
// stand-in for serve's predictorSwap.
type installTracker struct {
	mu      sync.Mutex
	serving string
}

func (it *installTracker) model(name, predicts string) Model {
	return Model{
		Name: name,
		Predict: func(Record) (string, bool) {
			if predicts == "" {
				return "", false
			}
			return predicts, true
		},
		Install: func(context.Context) error {
			it.mu.Lock()
			it.serving = name
			it.mu.Unlock()
			return nil
		},
	}
}

func (it *installTracker) current() string {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.serving
}

// majorityTrainer fits the crudest possible model: predict the window's
// majority label. Deterministic and transparent, which is all the state
// machine tests need.
func majorityTrainer(it *installTracker) func([]Record, int64) (Model, error) {
	return func(recs []Record, round int64) (Model, error) {
		counts := map[string]int{}
		for _, r := range recs {
			counts[r.Label]++
		}
		best, n := "", 0
		for label, c := range counts {
			if c > n {
				best, n = label, c
			}
		}
		return it.model(fmt.Sprintf("r%d-%s", round, best), best), nil
	}
}

// harvestRegime adds n SMSV records where fast wins and every candidate
// in slow is measured slower by the given regret ratio.
func harvestRegime(t *testing.T, s *Store, n int, fast string, slow map[string]float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		times := map[string]int64{fast: 100}
		for cand, regret := range slow {
			times[cand] = int64(100 * regret)
		}
		if err := s.Add(smsvRecord(fast, times)); err != nil {
			t.Fatal(err)
		}
	}
}

func scrape(t *testing.T, c *Controller) string {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteFamilies(&buf, c.MetricFamilies()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func wantMetric(t *testing.T, exposition, line string) {
	t.Helper()
	if !strings.Contains(exposition, line+"\n") {
		t.Fatalf("exposition missing %q:\n%s", line, exposition)
	}
}

// TestControllerPromoteCommitRollback is the PR's acceptance scenario,
// driven entirely by a fake clock: planted drift → retrain → shadow
// detects the win → hot-swap → hit-rate recovers → commit; then the
// traffic shifts under a freshly promoted model → post-swap regret
// regresses → automatic rollback. Every transition is asserted through
// the layoutd_online_* exposition.
func TestControllerPromoteCommitRollback(t *testing.T) {
	clk := newTestClock()
	store := NewStore(64, clk.Now)
	it := &installTracker{serving: "boot"}
	interval := time.Minute
	events := NewEventLog(4)
	c, err := New(Config{
		Store: store, Now: clk.Now, Events: events,
		RetrainInterval: interval, ShadowWindow: 32,
		PromoteMargin: 0.05, RollbackRegret: 1.5, MonitorRecords: 8,
		Lanes: []LaneConfig{{
			Kind: KindSMSV,
			// Boot model is stale: it always picks COO, which the
			// planted drift makes 3x slower than CSR.
			Boot:  it.model("boot", "COO/static/base"),
			Train: majorityTrainer(it),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1 — drift: live traffic is a regime the boot model
	// mispredicts (CSR wins, COO regrets 3x).
	regimeA := map[string]float64{"COO/static/base": 3, "ELL/static/base": 5}
	harvestRegime(t, store, 16, "CSR/static/base", regimeA)

	c.Step() // interval not yet elapsed: nothing may happen
	exp := scrape(t, c)
	wantMetric(t, exp, `layoutd_online_retrains_total{lane="smsv"} 0`)

	clk.Advance(interval)
	c.Step() // retrain → shadow win → promote
	exp = scrape(t, c)
	wantMetric(t, exp, `layoutd_online_retrains_total{lane="smsv"} 1`)
	wantMetric(t, exp, `layoutd_online_shadow_evals_total{lane="smsv"} 1`)
	wantMetric(t, exp, `layoutd_online_promotions_total{lane="smsv"} 1`)
	wantMetric(t, exp, `layoutd_online_state{lane="smsv"} 1`) // monitoring
	wantMetric(t, exp, `layoutd_online_live_hit_rate{lane="smsv"} 0`)
	wantMetric(t, exp, `layoutd_online_candidate_hit_rate{lane="smsv"} 1`)
	if got := it.current(); got != "r1-CSR/static/base" {
		t.Fatalf("serving %q after promotion, want the retrained model", got)
	}

	// Phase 2 — fresh post-swap traffic stays in regime A: the promoted
	// model keeps hitting, so the swap commits and hit-rate recovers.
	harvestRegime(t, store, 8, "CSR/static/base", regimeA)
	c.Step() // MonitorRecords fresh records → judge → commit
	exp = scrape(t, c)
	wantMetric(t, exp, `layoutd_online_commits_total{lane="smsv"} 1`)
	wantMetric(t, exp, `layoutd_online_rollbacks_total{lane="smsv"} 0`)
	wantMetric(t, exp, `layoutd_online_state{lane="smsv"} 0`) // idle again
	wantMetric(t, exp, `layoutd_online_post_swap_regret{lane="smsv"} 1`)

	// The committed model now scores perfectly on the next shadow
	// window: hit-rate recovered from 0 to 1.
	clk.Advance(interval)
	c.Step()
	exp = scrape(t, c)
	wantMetric(t, exp, `layoutd_online_live_hit_rate{lane="smsv"} 1`)
	wantMetric(t, exp, `layoutd_online_rejections_total{lane="smsv"} 1`)

	// Phase 3 — plant a bad candidate: the window shifts to regime B
	// (ELL wins), the retrained majority model picks ELL and wins the
	// shadow eval, so it promotes...
	for i := 0; i < 40; i++ { // flush regime A out of the bounded window
		harvestRegime(t, store, 1, "ELL/static/base",
			map[string]float64{"CSR/static/base": 4, "COO/static/base": 2})
	}
	clk.Advance(interval)
	c.Step()
	exp = scrape(t, c)
	wantMetric(t, exp, `layoutd_online_promotions_total{lane="smsv"} 2`)
	wantMetric(t, exp, `layoutd_online_state{lane="smsv"} 1`)
	if got := it.current(); got != "r3-ELL/static/base" {
		t.Fatalf("serving %q after second promotion", got)
	}

	// ...but post-swap traffic immediately shifts again (regime C: COO
	// wins and the promoted model's ELL pick regrets 4x), so the
	// post-swap judgment rolls back to the previous model.
	harvestRegime(t, store, 8, "COO/static/base",
		map[string]float64{"ELL/static/base": 4, "CSR/static/base": 2})
	c.Step()
	exp = scrape(t, c)
	wantMetric(t, exp, `layoutd_online_rollbacks_total{lane="smsv"} 1`)
	wantMetric(t, exp, `layoutd_online_commits_total{lane="smsv"} 1`)
	wantMetric(t, exp, `layoutd_online_state{lane="smsv"} 0`)
	if got := it.current(); got != "r1-CSR/static/base" {
		t.Fatalf("serving %q after rollback, want the pre-swap model back", got)
	}

	// The whole exposition stays lint-clean (histogram cumulativeness,
	// grouping, duplicate series).
	if errs := telemetry.Lint(strings.NewReader(scrape(t, c))); errs != nil {
		t.Fatalf("exposition lint: %v", errs)
	}

	// The event log counted all five transitions; its ring of four holds the
	// last four.
	var buf bytes.Buffer
	if err := telemetry.WriteFamilies(&buf, events.MetricFamilies("layoutd")); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`layoutd_online_events_total{type="promote"} 2`,
		`layoutd_online_events_total{type="commit"} 1`,
		`layoutd_online_events_total{type="reject"} 1`,
		`layoutd_online_events_total{type="rollback"} 1`,
		`layoutd_online_events_total{type="quiescent-commit"} 0`,
		"layoutd_online_events_retained 4",
	} {
		wantMetric(t, buf.String(), line)
	}
}

// TestControllerJudgesOnIntervalWithSparseTraffic covers the patience
// path: fewer than MonitorRecords fresh records but a full interval
// elapsed judges on whatever arrived — except that zero scored records
// is no evidence at all, so the lane keeps monitoring until the
// quiescent-patience ceiling, then commits.
func TestControllerJudgesOnIntervalWithSparseTraffic(t *testing.T) {
	clk := newTestClock()
	store := NewStore(64, clk.Now)
	it := &installTracker{}
	c, err := New(Config{
		Store: store, Now: clk.Now, RetrainInterval: time.Minute,
		MonitorRecords: 8, PromoteMargin: 0.05,
		Lanes: []LaneConfig{{
			Kind: KindSMSV, Boot: it.model("boot", ""), Train: majorityTrainer(it),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	harvestRegime(t, store, 16, "CSR/static/base", map[string]float64{"COO/static/base": 2})
	clk.Advance(time.Minute)
	c.Step()
	if st := c.Status()[0]; !st.Monitoring || st.Promotions != 1 {
		t.Fatalf("expected promotion into monitoring, got %+v", st)
	}
	c.Step() // no fresh traffic, interval not elapsed since promotion: wait
	if st := c.Status()[0]; !st.Monitoring {
		t.Fatal("lane judged with neither fresh records nor an elapsed interval")
	}
	clk.Advance(time.Minute)
	c.Step() // interval elapsed but zero evidence: quiescent, keep monitoring
	if st := c.Status()[0]; !st.Monitoring || st.Commits != 0 {
		t.Fatalf("lane committed a promotion with zero fresh evidence: %+v", st)
	}
	// A couple of scored fresh records is evidence enough once the
	// interval has elapsed.
	harvestRegime(t, store, 2, "CSR/static/base", map[string]float64{"COO/static/base": 2})
	c.Step()
	if st := c.Status()[0]; st.Monitoring || st.Commits != 1 {
		t.Fatalf("expected commit on sparse evidence after the interval, got %+v", st)
	}
}

// TestControllerQuiescentCommitAfterPatienceCeiling: a promotion with
// no post-swap traffic at all is eventually confirmed by default — the
// lane must return to idle and resume retraining, just not on the first
// elapsed interval.
func TestControllerQuiescentCommitAfterPatienceCeiling(t *testing.T) {
	clk := newTestClock()
	store := NewStore(64, clk.Now)
	it := &installTracker{}
	c, err := New(Config{
		Store: store, Now: clk.Now, RetrainInterval: time.Minute,
		MonitorRecords: 8,
		Lanes: []LaneConfig{{
			Kind: KindSMSV, Boot: it.model("boot", ""), Train: majorityTrainer(it),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	harvestRegime(t, store, 16, "CSR/static/base", map[string]float64{"COO/static/base": 2})
	clk.Advance(time.Minute)
	c.Step()
	if st := c.Status()[0]; !st.Monitoring {
		t.Fatalf("expected promotion into monitoring, got %+v", st)
	}
	for i := 0; i < quiescentPatience-1; i++ {
		clk.Advance(time.Minute)
		c.Step()
		if st := c.Status()[0]; !st.Monitoring {
			t.Fatalf("quiescent lane left monitoring after %d intervals, got %+v", i+1, st)
		}
	}
	clk.Advance(time.Minute)
	c.Step() // patience ceiling reached: commit without evidence
	if st := c.Status()[0]; st.Monitoring || st.Commits != 1 {
		t.Fatalf("expected quiescent commit at the patience ceiling, got %+v", st)
	}
}

// TestControllerRollbackToNilInstallBoot: the default daemon shape — no
// predictor loaded at boot, so the boot Model has a nil Install — must
// survive a promote-then-rollback without panicking (the rollback has
// nothing to install; it only flips the controller's bookkeeping).
func TestControllerRollbackToNilInstallBoot(t *testing.T) {
	clk := newTestClock()
	store := NewStore(64, clk.Now)
	it := &installTracker{}
	c, err := New(Config{
		Store: store, Now: clk.Now, RetrainInterval: time.Minute,
		MonitorRecords: 4, RollbackRegret: 1.5,
		Lanes: []LaneConfig{{
			Kind:  KindSMSV,
			Boot:  Model{Name: "boot"}, // nil Predict AND nil Install
			Train: majorityTrainer(it),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	harvestRegime(t, store, 16, "CSR/static/base", map[string]float64{"COO/static/base": 3})
	clk.Advance(time.Minute)
	c.Step() // promote over the abstaining boot model
	if st := c.Status()[0]; !st.Monitoring || st.Promotions != 1 {
		t.Fatalf("expected promotion over nil boot, got %+v", st)
	}
	// Regime flip: the promoted CSR model regrets 4x → rollback to the
	// nil-Install boot model.
	harvestRegime(t, store, 4, "COO/static/base", map[string]float64{"CSR/static/base": 4})
	c.Step()
	st := c.Status()[0]
	if st.Monitoring || st.Rollbacks != 1 {
		t.Fatalf("expected rollback to nil-Install boot, got %+v", st)
	}
	if st.LiveModel != "boot" {
		t.Fatalf("live model %q after rollback, want boot", st.LiveModel)
	}
	exp := scrape(t, c)
	wantMetric(t, exp, `layoutd_online_rollbacks_total{lane="smsv"} 1`)
	wantMetric(t, exp, `layoutd_online_install_errors_total{lane="smsv"} 0`)
}

// TestControllerPromoteMarginZero: the sentinel makes an exactly-zero
// margin expressible — a candidate that merely ties the live model
// promotes, where the 0.05 default would reject it.
func TestControllerPromoteMarginZero(t *testing.T) {
	clk := newTestClock()
	store := NewStore(64, clk.Now)
	it := &installTracker{serving: "boot"}
	c, err := New(Config{
		Store: store, Now: clk.Now, RetrainInterval: time.Minute,
		PromoteMargin: PromoteMarginZero,
		Lanes: []LaneConfig{{
			Kind: KindSMSV,
			// Live model already picks the winner: the candidate ties.
			Boot:  it.model("boot", "CSR/static/base"),
			Train: majorityTrainer(it),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	harvestRegime(t, store, 16, "CSR/static/base", map[string]float64{"COO/static/base": 2})
	clk.Advance(time.Minute)
	c.Step()
	if st := c.Status()[0]; !st.Monitoring || st.Promotions != 1 {
		t.Fatalf("tying candidate was not promoted under a zero margin: %+v", st)
	}
}

// TestControllerRejectionKeepsLiveModel: a candidate that does not
// clear the margin is counted and never installed.
func TestControllerRejectionKeepsLiveModel(t *testing.T) {
	clk := newTestClock()
	store := NewStore(64, clk.Now)
	it := &installTracker{serving: "boot"}
	c, err := New(Config{
		Store: store, Now: clk.Now, RetrainInterval: time.Minute,
		PromoteMargin: 0.05,
		Lanes: []LaneConfig{{
			Kind: KindSMSV,
			// Live model already picks the winner: the candidate ties,
			// which is below live+margin.
			Boot:  it.model("boot", "CSR/static/base"),
			Train: majorityTrainer(it),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	harvestRegime(t, store, 16, "CSR/static/base", map[string]float64{"COO/static/base": 2})
	clk.Advance(time.Minute)
	c.Step()
	if st := c.Status()[0]; st.Monitoring || st.Promotions != 0 {
		t.Fatalf("tying candidate was promoted: %+v", st)
	}
	if it.current() != "boot" {
		t.Fatalf("serving %q, want untouched boot model", it.current())
	}
	exp := scrape(t, c)
	wantMetric(t, exp, `layoutd_online_rejections_total{lane="smsv"} 1`)
}

// TestControllerTrainErrorCounted: a failing trainer increments the
// error counter and leaves the lane idle on the live model.
func TestControllerTrainErrorCounted(t *testing.T) {
	clk := newTestClock()
	store := NewStore(64, clk.Now)
	it := &installTracker{serving: "boot"}
	c, err := New(Config{
		Store: store, Now: clk.Now, RetrainInterval: time.Minute,
		Lanes: []LaneConfig{{
			Kind: KindSMSV, Boot: it.model("boot", ""),
			Train: func([]Record, int64) (Model, error) {
				return Model{}, errors.New("synthetic fit failure")
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	harvestRegime(t, store, 16, "CSR/static/base", map[string]float64{"COO/static/base": 2})
	clk.Advance(time.Minute)
	c.Step()
	exp := scrape(t, c)
	wantMetric(t, exp, `layoutd_online_retrain_errors_total{lane="smsv"} 1`)
	wantMetric(t, exp, `layoutd_online_promotions_total{lane="smsv"} 0`)
}

// TestControllerInstallErrorStaysMonitoring: a rollback whose install
// fails retries on the next tick instead of losing the lane.
func TestControllerInstallErrorStaysMonitoring(t *testing.T) {
	clk := newTestClock()
	store := NewStore(64, clk.Now)
	it := &installTracker{}
	failInstalls := true
	var mu sync.Mutex
	boot := Model{
		Name:    "boot",
		Predict: func(Record) (string, bool) { return "COO/static/base", true },
		Install: func(context.Context) error {
			mu.Lock()
			defer mu.Unlock()
			if failInstalls {
				return errors.New("swap refused")
			}
			it.serving = "boot"
			return nil
		},
	}
	c, err := New(Config{
		Store: store, Now: clk.Now, RetrainInterval: time.Minute,
		MonitorRecords: 4, RollbackRegret: 1.5,
		Lanes: []LaneConfig{{Kind: KindSMSV, Boot: boot, Train: majorityTrainer(it)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	harvestRegime(t, store, 16, "CSR/static/base", map[string]float64{"COO/static/base": 3})
	clk.Advance(time.Minute)
	c.Step() // promote the CSR model
	// Regime flip: promoted model now regrets 4x → rollback wanted, but
	// the boot model's install fails.
	harvestRegime(t, store, 4, "COO/static/base", map[string]float64{"CSR/static/base": 4})
	c.Step()
	exp := scrape(t, c)
	wantMetric(t, exp, `layoutd_online_install_errors_total{lane="smsv"} 1`)
	wantMetric(t, exp, `layoutd_online_state{lane="smsv"} 1`) // still monitoring
	mu.Lock()
	failInstalls = false
	mu.Unlock()
	c.Step() // retry succeeds
	exp = scrape(t, c)
	wantMetric(t, exp, `layoutd_online_rollbacks_total{lane="smsv"} 1`)
	if it.current() != "boot" {
		t.Fatalf("serving %q, want boot restored", it.current())
	}
}

// TestControllerLanesIndependent: the pair lane promotes while the SMSV
// lane idles, under one controller.
func TestControllerLanesIndependent(t *testing.T) {
	clk := newTestClock()
	store := NewStore(64, clk.Now)
	it := &installTracker{}
	pairTrainer := func(recs []Record, round int64) (Model, error) {
		return it.model(fmt.Sprintf("pair-r%d", round), "gustavson/CSR/CSR"), nil
	}
	c, err := New(Config{
		Store: store, Now: clk.Now, RetrainInterval: time.Minute,
		Lanes: []LaneConfig{
			{Kind: KindSMSV, Boot: it.model("smsv-boot", ""), Train: majorityTrainer(it)},
			{Kind: KindPair, Boot: it.model("pair-boot", ""), Train: pairTrainer},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := store.Add(pairRecord("gustavson/CSR/CSR", pairTimes("gustavson/CSR/CSR"))); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Minute)
	c.Step()
	exp := scrape(t, c)
	wantMetric(t, exp, `layoutd_online_promotions_total{lane="spgemm-pair"} 1`)
	wantMetric(t, exp, `layoutd_online_retrains_total{lane="smsv"} 0`) // below MinRecords
	wantMetric(t, exp, `layoutd_online_harvested_total{kind="spgemm-pair"} 12`)
}

// TestControllerConfigValidation rejects out-of-range knobs.
func TestControllerConfigValidation(t *testing.T) {
	store := NewStore(4, nil)
	lane := LaneConfig{Kind: KindSMSV, Train: func([]Record, int64) (Model, error) { return Model{}, nil }}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no store", Config{Lanes: []LaneConfig{lane}}},
		{"no lanes", Config{Store: store}},
		{"bad margin", Config{Store: store, PromoteMargin: 1.5, Lanes: []LaneConfig{lane}}},
		{"regret below one", Config{Store: store, RollbackRegret: 0.5, Lanes: []LaneConfig{lane}}},
		{"lane without trainer", Config{Store: store, Lanes: []LaneConfig{{Kind: KindSMSV}}}},
		{"duplicate lanes", Config{Store: store, Lanes: []LaneConfig{lane, lane}}},
		{"unknown lane kind", Config{Store: store, Lanes: []LaneConfig{{Kind: "dnn", Train: lane.Train}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Fatal("New accepted an invalid config")
			}
		})
	}
}

// TestControllerScrapeDuringTrainSeesEveryFamily: a scrape must never wait
// for, or lose families to, a Step in progress — counters intermittently
// vanishing breaks scraper-side staleness handling and rate(). The very
// first scrape lands while Step is blocked inside Train and must return
// exactly the families an idle scrape does, at their current values.
func TestControllerScrapeDuringTrainSeesEveryFamily(t *testing.T) {
	clk := newTestClock()
	store := NewStore(64, clk.Now)
	it := &installTracker{}
	training, release := make(chan struct{}), make(chan struct{})
	c, err := New(Config{
		Store: store, Now: clk.Now, RetrainInterval: time.Minute,
		Lanes: []LaneConfig{{Kind: KindSMSV, Boot: it.model("boot", ""),
			Train: func(recs []Record, round int64) (Model, error) {
				close(training)
				<-release
				return majorityTrainer(it)(recs, round)
			}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	harvestRegime(t, store, 16, "CSR/static/base", map[string]float64{"COO/static/base": 2})
	clk.Advance(time.Minute)
	stepped := make(chan struct{})
	go func() { c.Step(); close(stepped) }()
	<-training
	names := func(fams []telemetry.Family) string {
		var out []string
		for _, f := range fams {
			out = append(out, f.Name)
		}
		return strings.Join(out, " ")
	}
	during := names(c.MetricFamilies())
	exp := scrape(t, c)
	wantMetric(t, exp, `layoutd_online_retrains_total{lane="smsv"} 1`)
	wantMetric(t, exp, `layoutd_online_promotions_total{lane="smsv"} 0`)
	wantMetric(t, exp, `layoutd_online_harvested_total{kind="smsv"} 16`)
	if errs := telemetry.Lint(strings.NewReader(exp)); errs != nil {
		t.Fatalf("mid-step exposition lint: %v", errs)
	}
	close(release)
	<-stepped
	if idle := names(c.MetricFamilies()); during != idle {
		t.Fatalf("families scraped during Train:\n%s\nidle:\n%s", during, idle)
	}
	exp = scrape(t, c)
	wantMetric(t, exp, `layoutd_online_promotions_total{lane="smsv"} 1`)
	wantMetric(t, exp, `layoutd_online_shadow_regret_count{lane="smsv"} 1`)
}

// TestControllerRegretHistogramPinned holds the registry histogram to the
// exposition the hand-built one rendered for the same observations (the
// values below were produced by it): bucket bounds, `le` inclusive at 1.5
// and 10, cumulative counts, sum and count.
func TestControllerRegretHistogramPinned(t *testing.T) {
	clk := newTestClock()
	store := NewStore(64, clk.Now)
	it := &installTracker{serving: "boot"}
	c, err := New(Config{
		Store: store, Now: clk.Now, RetrainInterval: time.Minute, ShadowWindow: 8,
		Lanes: []LaneConfig{{
			Kind: KindSMSV,
			// The live model always hits; every candidate picks COO, whose
			// planted slowdown is that round's mean shadow regret.
			Boot:  it.model("boot", "CSR/static/base"),
			Train: func([]Record, int64) (Model, error) { return it.model("coo", "COO/static/base"), nil },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, regret := range []float64{1, 1.03, 1.2, 1.2, 1.5, 2.5, 7, 10, 20} {
		harvestRegime(t, store, 8, "CSR/static/base", map[string]float64{"COO/static/base": regret})
		clk.Advance(time.Minute)
		c.Step()
	}
	exp := scrape(t, c)
	for _, line := range []string{
		`layoutd_online_shadow_regret_bucket{lane="smsv",le="1.01"} 1`,
		`layoutd_online_shadow_regret_bucket{lane="smsv",le="1.05"} 2`,
		`layoutd_online_shadow_regret_bucket{lane="smsv",le="1.1"} 2`,
		`layoutd_online_shadow_regret_bucket{lane="smsv",le="1.25"} 4`,
		`layoutd_online_shadow_regret_bucket{lane="smsv",le="1.5"} 5`,
		`layoutd_online_shadow_regret_bucket{lane="smsv",le="2"} 5`,
		`layoutd_online_shadow_regret_bucket{lane="smsv",le="3"} 6`,
		`layoutd_online_shadow_regret_bucket{lane="smsv",le="5"} 6`,
		`layoutd_online_shadow_regret_bucket{lane="smsv",le="10"} 8`,
		`layoutd_online_shadow_regret_bucket{lane="smsv",le="+Inf"} 9`,
		`layoutd_online_shadow_regret_sum{lane="smsv"} 45.43`,
		`layoutd_online_shadow_regret_count{lane="smsv"} 9`,
		`layoutd_online_rejections_total{lane="smsv"} 9`,
	} {
		wantMetric(t, exp, line)
	}
	if got := strings.Count(exp, "layoutd_online_shadow_regret_bucket{"); got != len(regretBounds)+1 {
		t.Fatalf("%d bucket lines, want the %d bounds plus +Inf", got, len(regretBounds))
	}
}

// TestControllerMetricsConcurrentWithSteps scrapes while stepping and
// harvesting: the controller must stay race-clean and every scrape
// complete.
func TestControllerMetricsConcurrentWithSteps(t *testing.T) {
	clk := newTestClock()
	store := NewStore(64, clk.Now)
	it := &installTracker{}
	c, err := New(Config{
		Store: store, Now: clk.Now, RetrainInterval: time.Millisecond,
		Lanes: []LaneConfig{{Kind: KindSMSV, Boot: it.model("boot", ""), Train: majorityTrainer(it)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = store.Add(smsvRecord("CSR/static/base",
					map[string]int64{"CSR/static/base": 100, "COO/static/base": 200}))
				clk.Advance(time.Millisecond)
				c.Step()
			}
		}
	}()
	want := len(c.MetricFamilies())
	for i := 0; i < 50; i++ {
		if got := len(c.MetricFamilies()); got != want {
			t.Errorf("scrape %d returned %d families, want all %d", i, got, want)
		}
	}
	close(stop)
	wg.Wait()
	if errs := telemetry.Lint(strings.NewReader(scrape(t, c))); errs != nil {
		t.Fatalf("exposition lint after concurrent run: %v", errs)
	}
}
