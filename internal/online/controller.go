package online

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Model is a candidate (or live) predictor as the controller manages
// it: a display name for logs/traces, the shadow-evaluable predict
// function, and an Install hook that makes it the serving model
// (typically serve's atomic predictorSwap plus a ring-wide broadcast).
// Install receives the round's trace context, so a broadcast inside it
// propagates the online.retrain trace across the ring. A nil Install
// installs trivially — the model needs no serving-side step, e.g. a
// boot placeholder when no predictor was ever loaded. Lanes whose
// serving slot must actually be cleared on rollback-to-boot should
// install nil into the slot instead (see SMSVLane/PairLane).
type Model struct {
	Name    string
	Predict PredictFunc
	Install func(context.Context) error
}

// installModel runs a model's install hook, treating a nil hook as an
// immediate success so a rollback to a no-model boot lane never
// dereferences a missing function.
func installModel(ctx context.Context, m Model) error {
	if m.Install == nil {
		return nil
	}
	return m.Install(ctx)
}

// LaneConfig is one workload's flywheel: which records it trains from,
// the model serving at boot, and how to fit a fresh candidate from a
// harvested window. The controller runs every lane through the same
// state machine independently — SMSV and SpGEMM promote and roll back
// on their own evidence.
type LaneConfig struct {
	Kind Kind
	// Boot is the model serving when the controller starts. A Boot
	// with a nil Predict is treated as always abstaining (no model
	// loaded), which any trained candidate shadow-beats.
	Boot Model
	// Train fits a candidate from a harvested window. round is a
	// monotonic retrain counter, useful for naming.
	Train func(recs []Record, round int64) (Model, error)
	// MinRecords gates training: fewer harvested records than this and
	// the lane skips the round. Default 8.
	MinRecords int
}

// Config parameterizes the controller. Zero fields take the documented
// defaults, so tests and callers set only what they care about.
type Config struct {
	Store *Store
	Now   Clock // nil = wall clock

	// RetrainInterval is the cadence of retrain attempts per lane and
	// the patience ceiling for judging a promoted model. Default 1m.
	RetrainInterval time.Duration
	// ShadowWindow is how many recent records (per lane) the retrainer
	// fits and shadow-evaluates on. Default 256.
	ShadowWindow int
	// PromoteMargin is the hit-rate edge (absolute, 0..1) a candidate
	// must have over the live model on the shadow window to be
	// promoted. The zero value takes the 0.05 default like every other
	// field, so an explicit zero margin is spelled PromoteMarginZero
	// (any negative value): ties with the live model then promote.
	PromoteMargin float64
	// RollbackRegret rolls a promoted model back when its mean regret
	// on fresh post-swap traffic exceeds this ratio. Default 1.5.
	RollbackRegret float64
	// MonitorRecords is how many fresh records after a swap trigger
	// the post-swap judgment (the interval elapsing judges on whatever
	// arrived). Default 16.
	MonitorRecords int

	Logger *slog.Logger
	Lanes  []LaneConfig

	// Events receives a timeline entry for every state-machine
	// transition (promote/reject/rollback/commit); nil disables the
	// timeline. TraceSink receives the per-round online.retrain and
	// online.judge traces (typically the serve trace store's Put); nil
	// disables round tracing. Node stamps those traces with the local
	// node id so assembled cluster traces attribute flywheel spans.
	Events    *EventLog
	TraceSink func(*telemetry.Trace)
	Node      string
}

// PromoteMarginZero requests a promote margin of exactly zero: any
// candidate that does not lose to the live model promotes. The Config
// zero value keeps the documented 0.05 default, so exact zero needs a
// sentinel (any negative PromoteMargin is treated the same way).
const PromoteMarginZero = -1.0

// quiescentPatience bounds how long (in retrain intervals) a monitoring
// lane waits for scoreable post-swap traffic before committing without
// evidence. One interval is the normal judgment patience; a quiescent
// lane gets a few more before the promotion is confirmed by default.
const quiescentPatience = 4

// laneState is the per-lane position in the promotion state machine.
type laneState int

const (
	// laneIdle: serving the live model, retraining on the interval.
	laneIdle laneState = iota
	// laneMonitoring: a candidate was promoted; fresh traffic decides
	// between commit and rollback.
	laneMonitoring
)

// lane is one workload's live state, guarded by Controller.mu, plus its
// exported instruments: handles in the controller's registry that Step
// updates with one atomic op each and a scrape reads without the lock.
type lane struct {
	cfg         LaneConfig
	state       laneState
	live        Model
	prev        Model // only set while monitoring; rollback target
	round       int64
	lastRetrain time.Time
	promotedSeq uint64
	promotedAt  time.Time

	retrains      *telemetry.Counter
	retrainErrors *telemetry.Counter
	installErrors *telemetry.Counter
	shadowEvals   *telemetry.Counter
	promotions    *telemetry.Counter
	rejections    *telemetry.Counter
	rollbacks     *telemetry.Counter
	commits       *telemetry.Counter

	monitoring  *telemetry.Gauge // mirrors state: 0 idle, 1 monitoring
	liveHitRate *telemetry.Gauge
	candHitRate *telemetry.Gauge
	postRegret  *telemetry.Gauge

	regret *telemetry.Histogram
}

// setState moves the lane through the promotion state machine.
func (ln *lane) setState(s laneState) {
	ln.state = s
	ln.monitoring.Set(float64(s))
}

// regretBounds bucket candidate shadow mean-regret ratios (1 = perfect).
var regretBounds = []float64{1.01, 1.05, 1.1, 1.25, 1.5, 2, 3, 5, 10}

// metricPrefix names every family the controller exports.
const metricPrefix = "layoutd_online"

// Controller drives the harvest→retrain→shadow→promote/rollback state
// machine. Step is the only state transition and is synchronous and
// clock-injected, so tests walk the machine deterministically; Run is
// the daemon-mode ticker around it.
type Controller struct {
	cfg Config
	// mu is held for the whole of Step. Step runs training under it too —
	// retrains are background cadence work, never on a request path, so
	// simplicity beats concurrency.
	mu    sync.Mutex
	lanes []*lane
	// reg holds every layoutd_online_* family. Scrapes read it lock-free,
	// so one that lands mid-retrain still sees every family.
	reg *telemetry.Registry
}

// New validates cfg, applies defaults, and returns a controller with
// every lane idle on its boot model.
func New(cfg Config) (*Controller, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("online: controller needs a store")
	}
	if len(cfg.Lanes) == 0 {
		return nil, fmt.Errorf("online: controller needs at least one lane")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.RetrainInterval <= 0 {
		cfg.RetrainInterval = time.Minute
	}
	if cfg.ShadowWindow <= 0 {
		cfg.ShadowWindow = 256
	}
	if cfg.PromoteMargin > 1 {
		return nil, fmt.Errorf("online: promote margin %g outside [0,1]", cfg.PromoteMargin)
	}
	switch {
	case cfg.PromoteMargin < 0: // PromoteMarginZero
		cfg.PromoteMargin = 0
	case cfg.PromoteMargin == 0:
		cfg.PromoteMargin = 0.05
	}
	if cfg.RollbackRegret == 0 {
		cfg.RollbackRegret = 1.5
	}
	if cfg.RollbackRegret < 1 {
		return nil, fmt.Errorf("online: rollback regret %g below 1 (regret ratios are >= 1)", cfg.RollbackRegret)
	}
	if cfg.MonitorRecords <= 0 {
		cfg.MonitorRecords = 16
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(discard{}, nil))
	}
	c := &Controller{cfg: cfg, reg: telemetry.NewRegistry()}
	c.registerHarvestMetrics()
	seen := map[Kind]bool{}
	now := cfg.Now()
	for _, lc := range cfg.Lanes {
		if !lc.Kind.Valid() {
			return nil, fmt.Errorf("online: lane with unknown kind %q", lc.Kind)
		}
		if seen[lc.Kind] {
			return nil, fmt.Errorf("online: duplicate lane for kind %q", lc.Kind)
		}
		seen[lc.Kind] = true
		if lc.Train == nil {
			return nil, fmt.Errorf("online: lane %q has no trainer", lc.Kind)
		}
		if lc.MinRecords <= 0 {
			lc.MinRecords = 8
		}
		c.lanes = append(c.lanes, c.newLane(lc, now))
	}
	return c, nil
}

// registerHarvestMetrics exports the store's per-workload harvest counts,
// read at scrape time.
func (c *Controller) registerHarvestMetrics() {
	store := c.cfg.Store
	const harvested = "Measured decisions harvested into the online store, by workload."
	c.reg.CounterFunc(metricPrefix+"_harvested_total", harvested,
		func() float64 { smsv, _, _, _ := store.Counters(); return float64(smsv) }, telemetry.L("kind", string(KindSMSV)))
	c.reg.CounterFunc(metricPrefix+"_harvested_total", harvested,
		func() float64 { _, pair, _, _ := store.Counters(); return float64(pair) }, telemetry.L("kind", string(KindPair)))
}

// newLane starts a lane idle on its boot model with its instruments
// registered, so every family is present (at zero) from the first scrape.
func (c *Controller) newLane(lc LaneConfig, now time.Time) *lane {
	label := telemetry.L("lane", string(lc.Kind))
	counter := func(name, help string) *telemetry.Counter {
		return c.reg.Counter(metricPrefix+name, help, label)
	}
	gauge := func(name, help string) *telemetry.Gauge {
		return c.reg.Gauge(metricPrefix+name, help, label)
	}
	return &lane{
		cfg: lc, live: lc.Boot, lastRetrain: now,

		retrains:      counter("_retrains_total", "Background retrain rounds attempted."),
		retrainErrors: counter("_retrain_errors_total", "Retrain rounds that failed to fit a model."),
		installErrors: counter("_install_errors_total", "Model installs (promote or rollback) that failed."),
		shadowEvals:   counter("_shadow_evals_total", "Shadow evaluations of candidate vs live model."),
		promotions:    counter("_promotions_total", "Candidates hot-swapped in after winning shadow eval."),
		rejections:    counter("_rejections_total", "Candidates that failed to clear the promote margin."),
		rollbacks:     counter("_rollbacks_total", "Promoted models rolled back on post-swap regret regression."),
		commits:       counter("_commits_total", "Promoted models confirmed by post-swap traffic."),

		monitoring:  gauge("_state", "Lane state: 0 idle, 1 monitoring a fresh promotion."),
		liveHitRate: gauge("_live_hit_rate", "Live model hit rate on the latest shadow window."),
		candHitRate: gauge("_candidate_hit_rate", "Candidate model hit rate on the latest shadow window."),
		postRegret:  gauge("_post_swap_regret", "Mean regret of the latest post-swap judgment window."),

		regret: c.reg.Histogram(metricPrefix+"_shadow_regret",
			"Candidate mean shadow regret per retrain round (ratio, 1 = oracle).", regretBounds, label),
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// predictOrAbstain tolerates models without a Predict (nothing loaded).
func predictOrAbstain(m Model) PredictFunc {
	if m.Predict == nil {
		return func(Record) (string, bool) { return "", false }
	}
	return m.Predict
}

// Step advances every lane one tick at the injected clock's current
// time: monitoring lanes are judged (commit or rollback) and idle lanes
// retrain + shadow-evaluate + maybe promote once their interval has
// elapsed. It is safe to call from one goroutine at a time per
// controller (Run serializes; tests call it directly).
func (c *Controller) Step() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	for _, ln := range c.lanes {
		if ln.state == laneMonitoring {
			c.judge(ln, now)
		}
		if ln.state == laneIdle {
			c.retrain(ln, now)
		}
	}
}

// roundTrace starts one flywheel round's trace when a sink is wired.
// The returned context carries the root span (so installs that
// broadcast propagate the trace ring-wide), the id links events to the
// trace, and finish must be called exactly once to record it. With no
// sink everything degrades to no-ops.
func (c *Controller) roundTrace(name string, attrs ...telemetry.Attr) (context.Context, string, func(error)) {
	if c.cfg.TraceSink == nil {
		return context.Background(), "", func(error) {}
	}
	ctx, tr, root := telemetry.NewTrace(context.Background(), name, attrs...)
	if c.cfg.Node != "" {
		tr.SetNode(c.cfg.Node)
	}
	return ctx, tr.ID, func(err error) {
		root.EndErr(err)
		tr.Finish()
		c.cfg.TraceSink(tr)
	}
}

// event appends one transition to the event log (nil-safe).
func (c *Controller) event(ln *lane, typ, model, traceID, detail string) {
	c.cfg.Events.Append(Event{
		Time: c.cfg.Now(), Lane: string(ln.cfg.Kind), Type: typ,
		Model: model, TraceID: traceID, Detail: detail,
	})
}

// judge decides a promoted model's fate from fresh post-swap traffic:
// rollback when mean regret regressed past the threshold, commit when
// the evidence clears it. With neither enough fresh records nor an
// elapsed interval it keeps waiting; with an elapsed interval but zero
// scoreable records it keeps monitoring — quiescent traffic is not
// confirmation — up to a patience ceiling so the lane eventually
// returns to idle.
func (c *Controller) judge(ln *lane, now time.Time) {
	fresh := c.cfg.Store.Since(ln.cfg.Kind, ln.promotedSeq, c.cfg.MonitorRecords)
	if len(fresh) < c.cfg.MonitorRecords && now.Sub(ln.promotedAt) < c.cfg.RetrainInterval {
		return // not enough evidence yet; stay monitoring
	}
	post := EvalShadow(fresh, predictOrAbstain(ln.live))
	ln.postRegret.Set(post.MeanRegret())
	if post.N > 0 && post.MeanRegret() > c.cfg.RollbackRegret {
		// The trace is created only once a verdict is reached — judge runs
		// every tick while monitoring, and a trace per no-op tick would
		// flood the bounded trace store.
		ctx, tid, finish := c.roundTrace("online.judge",
			telemetry.String("lane", string(ln.cfg.Kind)),
			telemetry.String("decision", "rollback"),
			telemetry.Float("post_regret", post.MeanRegret()))
		if err := installModel(ctx, ln.prev); err != nil {
			finish(err)
			ln.installErrors.Inc()
			c.cfg.Logger.Error("online rollback install failed; will retry",
				"lane", ln.cfg.Kind, "model", ln.prev.Name, "err", err)
			return // stay monitoring, retry next tick
		}
		finish(nil)
		c.cfg.Logger.Warn("online rollback",
			"lane", ln.cfg.Kind, "from", ln.live.Name, "to", ln.prev.Name,
			"post_regret", post.MeanRegret(), "threshold", c.cfg.RollbackRegret)
		c.event(ln, EventRollback, ln.live.Name, tid,
			fmt.Sprintf("post_regret=%.3g threshold=%.3g to=%s", post.MeanRegret(), c.cfg.RollbackRegret, ln.prev.Name))
		ln.live, ln.prev = ln.prev, Model{}
		ln.setState(laneIdle)
		ln.rollbacks.Inc()
		// Back off one interval: the window that produced the bad
		// candidate is still mostly in the store.
		ln.lastRetrain = now
		return
	}
	if post.N == 0 && now.Sub(ln.promotedAt) < quiescentPatience*c.cfg.RetrainInterval {
		return // no evidence either way; keep monitoring
	}
	typ := EventCommit
	if post.N == 0 {
		typ = EventQuiescentCommit
	}
	_, tid, finish := c.roundTrace("online.judge",
		telemetry.String("lane", string(ln.cfg.Kind)),
		telemetry.String("decision", typ),
		telemetry.Float("post_regret", post.MeanRegret()),
		telemetry.Int("fresh", post.N))
	finish(nil)
	c.cfg.Logger.Info("online commit",
		"lane", ln.cfg.Kind, "model", ln.live.Name,
		"post_regret", post.MeanRegret(), "fresh", post.N,
		"quiescent", post.N == 0)
	c.event(ln, typ, ln.live.Name, tid,
		fmt.Sprintf("post_regret=%.3g fresh=%d", post.MeanRegret(), post.N))
	ln.prev = Model{}
	ln.setState(laneIdle)
	ln.commits.Inc()
}

// retrain fits a candidate from the lane's recent window, shadow-scores
// it against the live model, and promotes when it clears the margin.
func (c *Controller) retrain(ln *lane, now time.Time) {
	if now.Sub(ln.lastRetrain) < c.cfg.RetrainInterval {
		return
	}
	ln.lastRetrain = now
	window := c.cfg.Store.Window(ln.cfg.Kind, c.cfg.ShadowWindow)
	if len(window) < ln.cfg.MinRecords {
		return
	}
	ln.round++
	ln.retrains.Inc()
	ctx, tid, finish := c.roundTrace("online.retrain",
		telemetry.String("lane", string(ln.cfg.Kind)),
		telemetry.Int("round", int(ln.round)),
		telemetry.Int("window", len(window)))
	tctx, tsp := telemetry.StartSpan(ctx, "online.train")
	cand, err := ln.cfg.Train(window, ln.round)
	if err != nil {
		tsp.EndErr(err)
		finish(err)
		ln.retrainErrors.Inc()
		c.cfg.Logger.Error("online retrain failed", "lane", ln.cfg.Kind, "err", err)
		return
	}
	tsp.End()
	ssp := telemetry.StartLeaf(tctx, "online.shadow")
	liveStats := EvalShadow(window, predictOrAbstain(ln.live))
	candStats := EvalShadow(window, predictOrAbstain(cand))
	ssp.Annotate(
		telemetry.Float("live_hit", liveStats.HitRate()),
		telemetry.Float("cand_hit", candStats.HitRate()))
	ssp.End()
	ln.shadowEvals.Inc()
	ln.liveHitRate.Set(liveStats.HitRate())
	ln.candHitRate.Set(candStats.HitRate())
	ln.regret.Observe(candStats.MeanRegret())
	if candStats.N == 0 || candStats.HitRate() < liveStats.HitRate()+c.cfg.PromoteMargin {
		finish(nil)
		ln.rejections.Inc()
		c.cfg.Logger.Info("online candidate rejected",
			"lane", ln.cfg.Kind, "candidate", cand.Name,
			"cand_hit", candStats.HitRate(), "live_hit", liveStats.HitRate(),
			"margin", c.cfg.PromoteMargin)
		c.event(ln, EventReject, cand.Name, tid,
			fmt.Sprintf("cand_hit=%.3g live_hit=%.3g margin=%.3g", candStats.HitRate(), liveStats.HitRate(), c.cfg.PromoteMargin))
		return
	}
	ictx, isp := telemetry.StartSpan(tctx, "online.install", telemetry.String("model", cand.Name))
	if err := installModel(ictx, cand); err != nil {
		isp.EndErr(err)
		finish(err)
		ln.installErrors.Inc()
		c.cfg.Logger.Error("online promote install failed",
			"lane", ln.cfg.Kind, "candidate", cand.Name, "err", err)
		return
	}
	isp.End()
	finish(nil)
	c.cfg.Logger.Info("online promotion",
		"lane", ln.cfg.Kind, "from", ln.live.Name, "to", cand.Name,
		"cand_hit", candStats.HitRate(), "live_hit", liveStats.HitRate())
	c.event(ln, EventPromote, cand.Name, tid,
		fmt.Sprintf("cand_hit=%.3g live_hit=%.3g from=%s", candStats.HitRate(), liveStats.HitRate(), ln.live.Name))
	ln.prev, ln.live = ln.live, cand
	ln.promotedSeq = c.cfg.Store.LastSeq()
	ln.promotedAt = now
	ln.setState(laneMonitoring)
	ln.promotions.Inc()
}

// Run ticks Step at a quarter of the retrain interval (floor 1s) until
// ctx is done, so post-swap judgments land promptly while retrains stay
// on their own internal cadence. Daemon mode only — tests use Step.
func (c *Controller) Run(ctx context.Context) {
	period := c.cfg.RetrainInterval / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Step()
		}
	}
}

// LaneStatus is a point-in-time snapshot of one lane for logs/tests.
type LaneStatus struct {
	Kind        Kind
	Monitoring  bool
	LiveModel   string
	Promotions  int64
	Rollbacks   int64
	Commits     int64
	LiveHitRate float64
}

// Status snapshots every lane.
func (c *Controller) Status() []LaneStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]LaneStatus, 0, len(c.lanes))
	for _, ln := range c.lanes {
		out = append(out, LaneStatus{
			Kind:       ln.cfg.Kind,
			Monitoring: ln.state == laneMonitoring,
			LiveModel:  ln.live.Name,
			Promotions: ln.promotions.Value(), Rollbacks: ln.rollbacks.Value(), Commits: ln.commits.Value(),
			LiveHitRate: ln.liveHitRate.Value(),
		})
	}
	return out
}

// MetricFamilies implements telemetry.Collector over the controller's
// registry: counters for every state-machine transition, gauges for the
// latest shadow scores, a per-lane histogram of candidate shadow regret,
// and the store's harvest counts. It takes no controller lock, so a scrape
// during a long training run returns every family at its current value.
func (c *Controller) MetricFamilies() []telemetry.Family { return c.reg.Families() }
