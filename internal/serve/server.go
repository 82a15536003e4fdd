package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"repro/internal/breaker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/online"
	"repro/internal/sparse"
	"repro/internal/spgemm"
	"repro/internal/svm"
	"repro/internal/telemetry"
	"repro/internal/telemetry/slo"
)

// ErrOverloaded is returned (and mapped to 429) when every measurement slot
// is occupied: the request would have queued unbounded work onto the shared
// exec pool.
var ErrOverloaded = errors.New("serve: all measurement slots busy, retry later")

// DefaultBreakerThreshold is how many consecutive measurement failures trip
// the measurement breaker open.
const DefaultBreakerThreshold = 3

// DefaultBreakerCooldown is how long an open measurement breaker rejects
// measurements before letting a half-open probe through.
const DefaultBreakerCooldown = 10 * time.Second

// maxInlineCells bounds the dense footprint (M×N cells) a measured inline
// request may declare: candidate formats materialize the matrix, and DEN of
// 2^26 cells is already a 512 MiB allocation. Larger shapes must use
// profile-only scheduling, which is pure arithmetic.
const maxInlineCells = 1 << 26

// Config parameterizes a Server. The zero value is usable: hybrid policy,
// shared default exec context, fresh history, no prediction model.
type Config struct {
	// Policy is the default decision policy; requests may override it.
	Policy core.Policy
	// Exec is the execution context measurements and predictions run
	// under; nil means exec.Default().
	Exec *exec.Exec
	// Stats, when non-nil, is attached to Exec for kernel counters that
	// /metrics exports.
	Stats *exec.Stats
	// History is the scheduler's near-miss tuning memory, layered under
	// the exact-key decision cache; nil starts empty.
	History *core.History
	// Model, when non-nil, serves /v1/predict.
	Model *svm.Model
	// Predictor, when non-nil, serves /v1/predict-format and answers
	// "predict"-policy schedule requests (typically a *learn.Forest
	// loaded from -predictor at startup).
	Predictor core.FormatPredictor
	// MinConfidence gates the predictor; answers below it fall back to
	// measurement. 0 = core.DefaultMinConfidence.
	MinConfidence float64

	// PairHistory is the SpGEMM scheduler's pairwise tuning memory, layered
	// under the pair decision cache; nil starts empty.
	PairHistory *core.PairHistory
	// PairPredictor answers "predict"-policy /v1/schedule/spgemm requests
	// (typically a *learn.PairForest loaded from -spgemm-predictor).
	PairPredictor core.PairPredictor

	TrialRows int   // scheduler trial rows; 0 = core default
	Repeats   int   // scheduler repeats; 0 = core default
	TopK      int   // hybrid candidate count; 0 = core default
	Seed      int64 // sampling seed

	// MaxInflight bounds concurrent measurement computations; further
	// cache-missing schedule requests get 429. 0 = 4.
	MaxInflight int
	// MaxBatch caps the items one /v1/schedule/batch request may carry;
	// larger batches get 400. 0 = MaxBatchItems.
	MaxBatch int
	// Timeout bounds each request's measurement phase. 0 = 30s.
	Timeout time.Duration
	// MaxBody caps request body bytes; larger bodies get 413. 0 = 8 MiB.
	MaxBody int64
	// CacheShards and CacheCapacity size the decision cache (see
	// NewCache); zeros take the cache defaults.
	CacheShards   int
	CacheCapacity int

	// BreakerThreshold is how many consecutive measurement failures trip
	// the measurement circuit breaker open; while open, schedule requests
	// are answered from history/predictor/model with degraded: true
	// instead of 5xx. 0 = DefaultBreakerThreshold.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting
	// a half-open probe measurement. 0 = DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// DegradedTTL bounds how long a degraded decision may serve from the
	// cache before being re-computed (and re-measured, once the breaker
	// closes). 0 = DefaultDegradedTTL.
	DegradedTTL time.Duration

	// Logger receives structured request, degradation, and panic records;
	// nil discards them (telemetry.NopLogger).
	Logger *slog.Logger
	// TraceCapacity sizes the ring buffer of completed decision traces that
	// GET /v1/trace/{id} serves from. 0 = telemetry.DefaultTraceCapacity.
	TraceCapacity int

	// Cluster, when non-nil, scales the server out: schedule requests whose
	// shape class another ring member owns are forwarded there (falling back
	// to the local decision path if the peer is unreachable), fresh decisions
	// gossip to the ring successor, and /v1/cluster/* peer endpoints are
	// served. nil runs single-node, with zero overhead on the decision path.
	Cluster *cluster.Peers
	// ModelLoader parses a pushed predictor model (the /v1/cluster/model
	// body's model field) into a usable predictor; nil disables model
	// distribution. Kept a function so serve stays decoupled from the model
	// encoding (layoutd plugs in the learn package's decoder).
	ModelLoader func([]byte) (core.FormatPredictor, error)
	// PairModelLoader is ModelLoader's SpGEMM twin: it parses a pushed
	// pair-predictor model (a /v1/cluster/model body with kind
	// "spgemm-pair") into a usable pair predictor; nil disables pair
	// model distribution.
	PairModelLoader func([]byte) (core.PairPredictor, error)

	// Harvest, when non-nil, receives one online.Record for every
	// non-degraded *measured* decision this node computes (both SMSV
	// and SpGEMM) — the feed for the online retraining flywheel.
	// Called synchronously by the singleflight leader after the
	// decision is cached; implementations must be cheap and
	// concurrency-safe (online.Store.Add is both).
	Harvest func(online.Record)

	// OnlineEvents, when non-nil, is the flywheel's transition timeline:
	// /v1/online/events serves it, its per-type counters join /metrics,
	// and its rollback/commit transitions feed the rollback-rate SLO.
	OnlineEvents *online.EventLog

	// SLOLatencyObjective is the per-request latency objective the
	// latency SLO counts against (a data-plane request slower than this
	// is "bad"). 0 = 500ms.
	SLOLatencyObjective time.Duration
	// SLONow injects the SLO burn-rate clock; nil = wall clock. Tests
	// use it to age fault storms out of the burn windows deterministically.
	SLONow func() time.Time

	// TraceFetchTimeout bounds the whole remote-fragment assembly of one
	// GET /v1/trace/{id} request across all peers. 0 = 3s.
	TraceFetchTimeout time.Duration
	// TraceFetchPeerTimeout bounds each individual peer's fragment fetch
	// within that budget, so one hung peer costs its timeout, not the
	// whole request's. 0 = 1s.
	TraceFetchPeerTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Exec == nil {
		c.Exec = exec.Default()
	}
	if c.Stats != nil {
		c.Exec = c.Exec.WithStats(c.Stats)
	}
	if c.History == nil {
		c.History = &core.History{}
	}
	if c.PairHistory == nil {
		c.PairHistory = &core.PairHistory{}
	}
	if c.MinConfidence <= 0 {
		c.MinConfidence = core.DefaultMinConfidence
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = MaxBatchItems
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 8 << 20
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.Logger == nil {
		c.Logger = telemetry.NopLogger()
	}
	if c.SLOLatencyObjective <= 0 {
		c.SLOLatencyObjective = 500 * time.Millisecond
	}
	if c.TraceFetchTimeout <= 0 {
		c.TraceFetchTimeout = 3 * time.Second
	}
	if c.TraceFetchPeerTimeout <= 0 {
		c.TraceFetchPeerTimeout = time.Second
	}
	return c
}

// Server is the layout-scheduling service: Handler exposes it over
// HTTP/JSON, Drain stops admission and waits out in-flight work.
type Server struct {
	cfg Config
	// scheds holds one shared scheduler per policy, built once: schedulers
	// are concurrency-safe and pool their own scratch, so constructing one
	// per request would defeat that pooling.
	scheds   [4]*core.Scheduler
	spScheds [4]*core.SpGEMMScheduler // likewise, for /v1/schedule/spgemm
	// smsv and pair are the two workloads' entries in the shared decide
	// pipeline (decide.go): cache, scheduler call, degrade ladder, publish.
	smsv    workload[smsvIn, sparse.Candidate, MeasurementJSON]
	pair    workload[pairIn, spgemm.Candidate, PairMeasurementJSON]
	metrics *serverMetrics
	traces  *telemetry.TraceStore // completed decision traces, /v1/trace/{id}
	logger  *slog.Logger
	// breaker guards the measurement path: while measurement keeps failing
	// (injected faults, kernel panics, a saturated machine) it opens and
	// the server answers from history, the predictor, or the cost model
	// instead — degraded but 200, never a 5xx storm.
	breaker *breaker.Breaker
	sem     chan struct{} // measurement admission slots
	wg      sync.WaitGroup
	closed  atomic.Bool

	// predictor and pairPredictor wrap cfg.Predictor / cfg.PairPredictor so
	// /v1/cluster/model pushes and online promotions can hot-swap a model
	// under live traffic; schedulers, degrade ladders and handlers only
	// ever see these stable pointers.
	predictor     *predictorSwap[core.FormatPredictor]
	pairPredictor *predictorSwap[core.PairPredictor]
	cluster       *cluster.Peers // nil when running single-node
	node          string         // cluster node id; "" single-node
	// replApply and models route a gossip entry or a pushed model to its
	// workload by wire kind; built once in NewServer.
	replApply map[string]func(cluster.ReplEntry) bool
	models    map[string]modelSlot

	// The SLO layer: multi-window burn rates over the request-level SLIs
	// route() records, surfaced at /v1/healthz and layoutd_slo_*.
	slos        *slo.Tracker
	sloAvail    *slo.SLO // non-5xx responses on data-plane endpoints
	sloLatency  *slo.SLO // data-plane responses under SLOLatencyObjective
	sloRollback *slo.SLO // flywheel verdicts that were not rollbacks

	panics atomic.Int64 // handler panics recovered into 500s

	forwardedServed atomic.Int64 // schedule requests that arrived forwarded from a peer
}

// NewServer creates a Server from cfg.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:           cfg,
		metrics:       newServerMetrics(),
		traces:        telemetry.NewTraceStore(cfg.TraceCapacity),
		logger:        cfg.Logger,
		breaker:       breaker.New(cfg.BreakerThreshold, cfg.BreakerCooldown),
		sem:           make(chan struct{}, cfg.MaxInflight),
		predictor:     &predictorSwap[core.FormatPredictor]{},
		pairPredictor: &predictorSwap[core.PairPredictor]{},
		cluster:       cfg.Cluster,
	}
	s.predictor.set(cfg.Predictor)
	s.pairPredictor.set(cfg.PairPredictor)
	s.setupSMSV()
	s.setupPair()
	s.replApply = map[string]func(cluster.ReplEntry) bool{
		cluster.KindDecision:    applyDecision(&s.smsv),
		cluster.KindHistory:     applyHistory[historyWire](&s.smsv),
		cluster.KindSpGEMM:      applyDecision(&s.pair),
		cluster.KindPairHistory: applyHistory[pairHistoryWire](&s.pair),
	}
	smsvModel := newModelSlot("model", cfg.ModelLoader, s.predictor, &s.smsv.decideCounts)
	s.models = map[string]modelSlot{
		"":                      smsvModel,
		ModelKindSMSV:           smsvModel,
		string(online.KindPair): newModelSlot("pair model", cfg.PairModelLoader, s.pairPredictor, &s.pair.decideCounts),
	}
	if s.cluster != nil {
		s.node = s.cluster.Self().ID
		// Traces the cluster layer records on its own (gossip flushes) land
		// in the same bounded store the handlers use.
		s.cluster.SetTraceSink(func(tr *telemetry.Trace) { s.traces.Put(tr) })
	}
	s.slos = slo.NewTracker(slo.Options{Now: cfg.SLONow})
	s.sloAvail = s.slos.Add("availability", 0.999)
	s.sloLatency = s.slos.Add("latency", 0.99)
	// Rollback target 0.8: its burn saturates at 5, so rollbacks alone can
	// degrade the node (≥40% of recent flywheel verdicts) but never mark it
	// critical — only sustained request-level failure does that.
	s.sloRollback = s.slos.Add("rollback", 0.8)
	if cfg.OnlineEvents != nil {
		cfg.OnlineEvents.Subscribe(func(e online.Event) {
			switch e.Type {
			case online.EventRollback:
				s.sloRollback.Record(false)
			case online.EventCommit, online.EventQuiescentCommit:
				s.sloRollback.Record(true)
			}
		})
	}
	for _, p := range []core.Policy{core.RuleBased, core.Empirical, core.Hybrid, core.PolicyPredict} {
		s.scheds[p] = core.New(core.Config{
			Policy: p, Exec: cfg.Exec,
			TrialRows: cfg.TrialRows, Repeats: cfg.Repeats,
			TopK: cfg.TopK, Seed: cfg.Seed, History: cfg.History,
			// The swap wrapper, not cfg.Predictor: a pushed model must reach
			// the shared schedulers without rebuilding them. With no model
			// loaded it predicts ok=false, which the scheduler treats as
			// "measure instead".
			Predictor: s.predictor, MinConfidence: cfg.MinConfidence,
		})
		s.spScheds[p] = core.NewSpGEMM(core.SpGEMMConfig{
			Policy: p, Exec: cfg.Exec,
			Repeats: cfg.Repeats, TopK: cfg.TopK, Seed: cfg.Seed,
			History: cfg.PairHistory,
			// The swap wrapper, for the same reason as the SMSV
			// schedulers above: hot-swapped pair models must reach the
			// shared schedulers without rebuilding them.
			Predictor: s.pairPredictor, MinConfidence: cfg.MinConfidence,
		})
	}
	s.registerMetrics()
	return s
}

// newDecisionCache builds one workload's decision cache from the shared
// cache settings.
func newDecisionCache[V Degradable](cfg Config) *Cache[V] {
	c := NewCache[V](cfg.CacheShards, cfg.CacheCapacity)
	if cfg.DegradedTTL > 0 {
		c.degradedTTL = cfg.DegradedTTL
	}
	return c
}

// registerMetrics hangs every /metrics series on the telemetry registry.
// Server-owned counters stay plain atomics (the handlers' source of truth);
// the registry reads them at scrape time through Counter/GaugeFuncs, and
// external subsystems (kernel stats, fault registry) contribute whole
// families through Collectors.
func (s *Server) registerMetrics() {
	reg := s.metrics.reg
	iv := func(fn func() int64) func() float64 {
		return func() float64 { return float64(fn()) }
	}
	reg.CounterFunc("layoutd_handler_panics_total",
		"Handler panics recovered into 500 responses.", iv(s.panics.Load))
	reg.GaugeFunc("layoutd_breaker_state",
		"Measurement circuit breaker state (0 closed, 1 open, 2 half-open).",
		func() float64 { return float64(s.breaker.State()) })
	reg.CounterFunc("layoutd_breaker_opens_total",
		"Times the measurement breaker tripped open.", iv(s.breaker.Opens))
	reg.CounterFunc("layoutd_trace_store_evicted_total",
		"Decision traces evicted from the bounded ring buffer.",
		func() float64 { return float64(s.traces.Evicted()) })
	reg.GaugeFunc("layoutd_pool_workers",
		"Exec pool worker count.", func() float64 { _, n := s.cfg.Exec.Occupancy(); return float64(n) })
	reg.GaugeFunc("layoutd_pool_busy",
		"Pooled workers currently executing kernels.",
		func() float64 { busy, _ := s.cfg.Exec.Occupancy(); return float64(busy) })
	reg.Register(telemetry.CollectorFunc(func() []telemetry.Family {
		return s.cfg.Stats.MetricFamilies("layoutd")
	}))
	reg.Register(telemetry.CollectorFunc(func() []telemetry.Family {
		return fault.MetricFamilies("layoutd")
	}))
	reg.Register(telemetry.CollectorFunc(func() []telemetry.Family {
		return s.slos.MetricFamilies("layoutd")
	}))
	if s.cfg.OnlineEvents != nil {
		reg.Register(telemetry.CollectorFunc(func() []telemetry.Family {
			return s.cfg.OnlineEvents.MetricFamilies("layoutd")
		}))
	}
	registerWorkloadMetrics(reg, "", "", &s.smsv, s.cfg.History.Len, s.predictor)
	registerWorkloadMetrics(reg, "spgemm_", "SpGEMM: ", &s.pair, s.cfg.PairHistory.Len, s.pairPredictor)
	if s.cluster != nil {
		s.registerClusterMetrics()
	}
}

// registerWorkloadMetrics hangs one scheduled workload's families on the
// registry as layoutd_<infix><family>: what the decide pipeline counts for
// it, its cache, its tuning history and its predictor box. A workload
// supplies only the infix and the help prefix, so every workload exports
// the same set.
func registerWorkloadMetrics[In any, C candidate, R evidenceRow[C, R], P comparable](reg *telemetry.Registry, infix, helpPrefix string,
	w *workload[In, C, R], historyLen func() int, model *predictorSwap[P]) {
	counter := func(name, help string, fn func() int64) {
		reg.CounterFunc("layoutd_"+infix+name, helpPrefix+help, func() float64 { return float64(fn()) })
	}
	gauge := func(name, help string, fn func() int) {
		reg.GaugeFunc("layoutd_"+infix+name, helpPrefix+help, func() float64 { return float64(fn()) })
	}
	counter("measurements_total", "Schedule requests that ran an actual measurement.", w.measurements.Load)
	counter("degraded_total",
		"Decisions served without measurement while the measurement path was failing.", w.degraded.Load)
	counter("cache_hits_total", "Decision-cache exact hits.", w.cache.hits.Load)
	counter("cache_misses_total", "Decision-cache misses.", w.cache.misses.Load)
	counter("cache_dedups_total",
		"Requests that joined an in-flight computation (singleflight).", w.cache.dedups.Load)
	counter("cache_evictions_total", "Decision-cache LRU evictions.", w.cache.evictions.Load)
	counter("cache_expired_total", "Degraded cache entries expired by TTL.", w.cache.expired.Load)
	gauge("cache_inflight", "Decision computations currently in flight.", w.cache.Inflight)
	gauge("history_entries", "Tuning-history entries.", historyLen)
	gauge("predictor_loaded", "Whether a trained predictor is loaded (0 or 1).", func() int {
		if model.Loaded() {
			return 1
		}
		return 0
	})
	counter("model_swaps_total",
		"Predictor models hot-swapped in (cluster pushes and online promotions).", model.swaps.Load)
	counter("predictor_hits_total",
		"Decisions answered by the trained predictor without measurement.", w.predictorHits.Load)
	counter("predictor_fallbacks_total",
		"Predict-policy decisions that fell back to measurement.", w.predictorFallbacks.Load)
	counter("predictor_confidence_milli_sum",
		"Sum of predictor hit confidences ×1000 (divide by hits for the mean).", w.predictorConfMilli.Load)
}

// Registry exposes the server's metric registry so embedders (and the
// metrics lint) can scrape or extend it.
func (s *Server) Registry() *telemetry.Registry { return s.metrics.reg }

// Traces exposes the completed-trace ring buffer.
func (s *Server) Traces() *telemetry.TraceStore { return s.traces }

// Measurements reports how many schedule requests ran an actual
// measurement (as opposed to being served from the cache, the singleflight
// dedup, or the rule-based model).
func (s *Server) Measurements() int64 { return s.smsv.measurements.Load() }

// Drain stops admitting requests (new ones get 503) and blocks until every
// in-flight handler returns. Call after http.Server.Shutdown for a
// belt-and-braces graceful stop, or directly when embedding the Handler.
func (s *Server) Drain() {
	s.closed.Store(true)
	s.wg.Wait()
}

// Handler returns the HTTP API:
//
//	POST /v1/schedule        dataset profile or inline LIBSVM rows → decision
//	POST /v1/schedule/batch  up to MaxBatch schedule items → per-item decisions
//	POST /v1/schedule/spgemm A and B operands as LIBSVM rows → dataflow decision
//	POST /v1/predict         LIBSVM rows → SVM predictions
//	POST /v1/predict-format  dataset profile or LIBSVM rows → predicted format
//	GET  /v1/trace/{id}      span tree of a recent schedule decision
//	GET  /healthz            liveness
//	GET  /metrics            Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule", s.route("schedule", http.MethodPost, s.handleSchedule))
	mux.HandleFunc("/v1/schedule/batch", s.route("schedule-batch", http.MethodPost, s.handleScheduleBatch))
	mux.HandleFunc("/v1/schedule/spgemm", s.route("schedule-spgemm", http.MethodPost, s.handleScheduleSpGEMM))
	mux.HandleFunc("/v1/predict", s.route("predict", http.MethodPost, s.handlePredict))
	mux.HandleFunc("/v1/predict-format", s.route("predict-format", http.MethodPost, s.handlePredictFormat))
	mux.HandleFunc("/v1/trace/", s.route("trace", http.MethodGet, s.handleTrace))
	mux.HandleFunc(cluster.ReplicatePath, s.route("cluster-replicate", http.MethodPost, s.handleClusterReplicate))
	mux.HandleFunc(cluster.ModelPath, s.route("cluster-model", http.MethodPost, s.handleClusterModel))
	mux.HandleFunc(cluster.LookupPath, s.route("cluster-lookup", http.MethodPost, s.handleClusterLookup))
	mux.HandleFunc("/v1/healthz", s.route("healthz-slo", http.MethodGet, s.handleSLOHealthz))
	mux.HandleFunc("/v1/online/events", s.route("online-events", http.MethodGet, s.handleOnlineEvents))
	mux.HandleFunc("/healthz", s.route("healthz", http.MethodGet, s.handleHealthz))
	mux.HandleFunc("/metrics", s.route("metrics", http.MethodGet, s.handleMetrics))
	// Pre-register every route's series so the first scrape already shows
	// zero-valued counters for endpoints that have seen no traffic.
	for _, name := range []string{"schedule", "schedule-batch", "schedule-spgemm", "predict", "predict-format", "trace", "cluster-replicate", "cluster-model", "cluster-lookup", "healthz-slo", "online-events", "healthz", "metrics"} {
		s.metrics.endpoint(name)
	}
	return mux
}

// dataPlaneEndpoints are the routes whose responses count against the
// availability and latency SLOs. Control-plane endpoints (metrics, trace
// retrieval, peer gossip) are excluded: a scrape or an admin fetch
// failing is not user-visible unavailability.
var dataPlaneEndpoints = map[string]bool{
	"schedule":        true,
	"schedule-batch":  true,
	"schedule-spgemm": true,
	"predict":         true,
	"predict-format":  true,
}

// statusRecorder captures the response code (for the metrics layer) and
// the request's trace id (for latency-histogram exemplars).
type statusRecorder struct {
	http.ResponseWriter
	status  int
	traceID string
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// setTraceID stamps the request's trace id onto the response recorder so
// the metrics layer can attach it to the latency exemplar. Handlers call
// it as soon as their trace exists; a non-recorder writer is a no-op.
func setTraceID(w http.ResponseWriter, id string) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.traceID = id
	}
}

// route wraps a handler with method filtering, drain gating, in-flight
// tracking, body capping, latency observation, and SLI recording.
func (s *Server) route(name, method string, h http.HandlerFunc) http.HandlerFunc {
	sli := dataPlaneEndpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		defer func() {
			d := time.Since(start)
			s.metrics.observe(name, d, rec.traceID, s.node)
			if sli {
				good := rec.status < 500
				s.sloAvail.Record(good)
				if good {
					// Latency only counts answered requests: a fast 503 is an
					// availability failure, not a latency success.
					s.sloLatency.Record(d <= s.cfg.SLOLatencyObjective)
				}
			}
			// Asked first: the arguments would be boxed for a logger that
			// drops the record anyway.
			if s.logger.Enabled(r.Context(), slog.LevelDebug) {
				s.logger.Debug("request", "endpoint", name, "status", rec.status, "dur", d)
			}
		}()
		// Last line of defense: a panic anywhere in a handler — including
		// an injected serve.request panic — becomes a 500, not a dead
		// connection and a crashed daemon.
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				s.logger.Error("handler panic recovered", "endpoint", name, "panic", fmt.Sprint(p))
				writeError(rec, http.StatusInternalServerError, fmt.Sprintf("internal panic: %v", p))
			}
		}()
		if r.Method != method {
			writeError(rec, http.StatusMethodNotAllowed, fmt.Sprintf("use %s", method))
			return
		}
		if s.closed.Load() {
			writeError(rec, http.StatusServiceUnavailable, "server draining")
			return
		}
		if err := fault.Inject("serve.request"); err != nil {
			writeError(rec, http.StatusServiceUnavailable, err.Error())
			return
		}
		s.wg.Add(1)
		defer s.wg.Done()
		if r.Body != nil {
			r.Body = http.MaxBytesReader(rec, r.Body, s.cfg.MaxBody)
		}
		h(rec, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeReply sends the 200 decision reply appended into out: one Write of
// bytes the encoder in encode.go holds identical to what writeJSON would
// have produced from the wire struct.
func writeReply(w http.ResponseWriter, out *wire) {
	if out.nonFinite {
		// encoding/json would have refused the value; say so instead of
		// sending a body no JSON parser accepts.
		writeError(w, http.StatusInternalServerError, "decision holds a NaN or an infinity, which JSON cannot carry")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(out.b)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// decodeStrict decodes the first JSON value of src — a request body, or the
// scratch's copy of one — into v, refusing unknown fields and translating
// the MaxBytesReader overflow into 413. It reports whether decoding
// succeeded; on failure the error response has been written.
func decodeStrict(w http.ResponseWriter, src io.Reader, v any) bool {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
		"history_len":    s.cfg.History.Len(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WriteText(w)
}

// handleSLOHealthz serves the SLO health verdict: ok, degraded (short-
// window burn over budget), or critical (both windows burning hard).
// Only critical maps to 503 — degraded is an alert, not an outage, and
// load balancers polling this endpoint should not evict a node that is
// still answering.
func (s *Server) handleSLOHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.slos.Health()
	status := http.StatusOK
	if h.Status == slo.StateCritical {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// OnlineEventsResponse is the /v1/online/events body.
type OnlineEventsResponse struct {
	Events []online.Event `json:"events"`
}

// handleOnlineEvents serves the flywheel's transition timeline,
// oldest-first, from the bounded event ring.
func (s *Server) handleOnlineEvents(w http.ResponseWriter, r *http.Request) {
	if s.cfg.OnlineEvents == nil {
		writeError(w, http.StatusServiceUnavailable, "online event log disabled (start layoutd with -online)")
		return
	}
	writeJSON(w, http.StatusOK, OnlineEventsResponse{Events: s.cfg.OnlineEvents.Events()})
}

// handleTrace serves the span tree of one recent decision: GET
// /v1/trace/{id}, where {id} is the trace_id a decision carried. In
// cluster mode the node assembles the full distributed tree by fetching
// each peer's fragment (bounded fan-out, per-peer timeout, breaker-aware)
// and grafting them under the propagated parent spans; unreachable peers
// mark the result incomplete rather than failing it. ?scope=local skips
// assembly and serves only this node's fragment — the form peers use, so
// fetches never recurse. Traces live in a bounded ring buffer, so old
// IDs eventually 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if id == "" || strings.ContainsRune(id, '/') {
		writeError(w, http.StatusBadRequest, "trace id required: GET /v1/trace/{id}")
		return
	}
	// Failpoint for the partial-assembly test: serve.trace.delay hangs this
	// node's answer past a caller's per-peer timeout.
	if err := fault.Inject("serve.trace"); err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	local, localOK := s.traces.Get(id)
	if r.URL.Query().Get("scope") == "local" || s.cluster == nil || !telemetry.ValidTraceID(id) {
		if !localOK {
			writeError(w, http.StatusNotFound, fmt.Sprintf(
				"trace %q not found (never recorded, or evicted from the %d-trace ring)", id, s.traces.Capacity()))
			return
		}
		writeJSON(w, http.StatusOK, local)
		return
	}
	var frags []telemetry.TraceJSON
	if localOK {
		frags = append(frags, local)
	}
	remote, incomplete := s.fetchPeerFragments(r.Context(), id)
	frags = append(frags, remote...)
	if len(frags) == 0 {
		writeError(w, http.StatusNotFound, fmt.Sprintf(
			"trace %q not found on any reachable ring member", id))
		return
	}
	out := telemetry.AssembleTrace(frags)
	out.Incomplete = incomplete
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	env, ok := decodeEnvelope[ScheduleRequest](s, sc, w, r, scheduleFields)
	if !ok {
		return
	}
	policy, err := s.schedulePolicy(env.policy)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	r = s.acceptForwarded(r)
	// Every schedule request gets a decision trace; the completed span tree
	// is retrievable at /v1/trace/{id} with the trace_id from the response.
	// A request forwarded by a peer carries that peer's trace headers, so
	// this node records a fragment of the SAME trace, parented under the
	// sender's cluster.forward span.
	ctx, tr, root := s.joinOrStartTrace(r, "schedule",
		telemetry.String("policy", policy.String()))
	setTraceID(w, tr.ID)
	var res scheduled
	defer func() { s.endTrace(w, tr, root, err) }()
	res, err = s.scheduleOne(ctx, sc, &env, policy, true)
	switch {
	case err != nil:
		writeScheduleError(w, err)
	case res.peer != nil:
		relay(w, res.peer.status, res.peer.body)
	default:
		sc.out.scheduleReply(&res.d, rendered{measured: res.measured, trace: sc.trace.elems})
		writeReply(w, &sc.out)
	}
}

// contextTraceID returns the trace ID riding ctx, for decision responses.
func contextTraceID(ctx context.Context) string {
	if tr := telemetry.ContextTrace(ctx); tr != nil {
		return tr.ID
	}
	return ""
}

// traceHeaders extracts a validated propagated trace id and parent span
// wire id from a forwarded request. ok=false means no (or garbage)
// propagation headers, and the handler should start a fresh trace.
func (s *Server) traceHeaders(r *http.Request) (traceID, parent string, ok bool) {
	tid := r.Header.Get(cluster.TraceHeader)
	if !telemetry.ValidTraceID(tid) {
		return "", "", false
	}
	return tid, r.Header.Get(cluster.ParentHeader), true
}

// joinOrStartTrace continues the sender's trace when valid propagation
// headers rode the request, and starts a fresh one otherwise. Either way
// the trace is stamped with the local node id so assembled cluster
// traces attribute every span.
func (s *Server) joinOrStartTrace(r *http.Request, name string, attrs ...telemetry.Attr) (context.Context, *telemetry.Trace, telemetry.Span) {
	if tid, parent, ok := s.traceHeaders(r); ok {
		return s.traces.NewRemoteTrace(r.Context(), tid, parent, s.node, name, attrs...)
	}
	ctx, tr, root := s.traces.NewTrace(r.Context(), name, attrs...)
	if s.node != "" {
		tr.SetNode(s.node)
	}
	return ctx, tr, root
}

// endTrace closes a handler's trace — the root span records the status the
// handler answered with and err, the failure behind a non-2xx — and files
// it in the bounded store /v1/trace/{id} serves from. A handler defers it
// in a closure, so that err is the request's final error and not the nil
// it held when the defer statement ran.
func (s *Server) endTrace(w http.ResponseWriter, tr *telemetry.Trace, root telemetry.Span, err error) {
	if rec, ok := w.(*statusRecorder); ok {
		root.Annotate(telemetry.Int("status", rec.status))
	}
	root.EndErr(err)
	tr.Finish()
	s.traces.Put(tr)
}

// observeDecision records one freshly computed decision's wall time,
// attaching the request's trace id as a histogram exemplar so a slow
// decision bucket links straight to its span tree.
func (s *Server) observeDecision(ctx context.Context, d time.Duration) {
	s.metrics.decision.ObserveExemplar(d.Seconds(), contextTraceID(ctx), s.node)
}

// profileTrace is the one line a profile-only decision explains itself
// with; shared by every such reply, so never modified.
var profileTrace = []string{"profile-only request: rule-based cost model, no measurement"}

// profileDecision answers a profile-only request: with no data to measure,
// the decision is the rule-based cost model evaluated on the given
// (already validated) nine parameters.
func (s *Server) profileDecision(ctx context.Context, f dataset.Features, p FeaturesJSON) DecisionJSON {
	sp := telemetry.StartLeaf(ctx, "estimate.costs")
	ests := core.EstimateCosts(f)
	sp.Annotate(telemetry.String("chosen", ests[0].Format.String()))
	sp.End()
	return DecisionJSON{
		Policy:    core.RuleBased.String(),
		Chosen:    ests[0].Format.String(),
		Features:  p,
		Source:    core.RungModel.String(),
		Estimates: appendEstimates(nil, ests),
		TraceID:   contextTraceID(ctx),
		Trace:     profileTrace,
	}
}

// inlineCapError rejects shapes over maxInlineCells: a tiny body can
// declare a near-int32 feature index, making the dense measurement
// candidate a multi-gigabyte allocation. Such shapes get the profile-only
// path, which never materializes formats.
func inlineCapError(f dataset.Features) error {
	if cells := int64(f.M) * int64(f.N); cells > maxInlineCells {
		return fmt.Errorf("matrix %d×%d declares %d dense cells, over the %d inline-scheduling cap",
			f.M, f.N, cells, int64(maxInlineCells))
	}
	return nil
}

// smsvIn is the SMSV workload's operand bundle: the parsed matrix and its
// Table IV features.
type smsvIn struct {
	b     *sparse.Builder
	feats dataset.Features
}

// setupSMSV fills the SMSV workload's entry in the decide pipeline.
func (s *Server) setupSMSV() {
	w := &s.smsv
	w.cache = newDecisionCache[*CachedDecision](s.cfg)
	w.choose = func(ctx context.Context, policy core.Policy, in smsvIn) (decision[sparse.Candidate], error) {
		return s.scheds[policy].ChooseContext(ctx, in.b)
	}
	w.history = func(in smsvIn) (sparse.Candidate, bool) {
		return s.cfg.History.Lookup(in.feats, core.DefaultHistoryRadius)
	}
	w.predict = func(in smsvIn) (sparse.Candidate, float64, bool) { return s.predictor.PredictCandidate(in.feats) }
	w.model = func(in smsvIn) (sparse.Candidate, float64) {
		return sparse.BaseCandidate(core.EstimateCosts(in.feats)[0].Format), 0
	}
	w.publish = s.publishSMSV
	w.record = func(in smsvIn, c sparse.Candidate) { s.cfg.History.RecordCandidate(in.feats, c) }
	w.parse = sparse.ParseCandidate
	w.classNoun = "shape class"
}

// publishSMSV gossips a fresh SMSV decision (and, when measured, the
// history record behind it) and harvests it for the online flywheel.
func (s *Server) publishSMSV(key []byte, in smsvIn, val *CachedDecision) {
	label := val.Candidate.String()
	gossip(s, val, key, cluster.KindDecision, cluster.KindHistory,
		historyWire{Features: NewFeaturesJSON(in.feats), Candidate: label})
	harvest(s, val, online.Record{Kind: online.KindSMSV, F: in.feats, Label: label})
}

// isMeasurementFailure reports whether err is a failure of the measurement
// machinery itself — the kind the circuit breaker guards and the degraded
// path absorbs. Caller mistakes (empty matrices), admission overload, and
// request cancellation keep their precise HTTP statuses instead.
func isMeasurementFailure(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
		errors.Is(err, core.ErrEmptyMatrix) || errors.Is(err, ErrOverloaded) {
		return false
	}
	var kp *core.KernelPanicError
	return core.IsTransient(err) || errors.As(err, &kp)
}

// writeScheduleError maps scheduler failures onto HTTP statuses.
func writeScheduleError(w http.ResponseWriter, err error) {
	switch {
	case errors.As(err, new(badRequest)), errors.Is(err, core.ErrEmptyMatrix), errors.Is(err, core.ErrEmptyPair):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "measurement deadline exceeded")
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "request cancelled mid-measurement")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Model == nil {
		writeError(w, http.StatusServiceUnavailable, "no model loaded (start layoutd with -model)")
		return
	}
	var req PredictRequest
	if !decodeStrict(w, r.Body, &req) {
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, "rows is empty")
		return
	}
	// Rows are LIBSVM feature lists; a leading "index:value" token means
	// the label is absent and a dummy one is prepended for the parser. The
	// token ends at any whitespace, as the parser's do.
	var sb strings.Builder
	for i, row := range req.Rows {
		row = strings.TrimSpace(row)
		if row == "" {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("row %d is blank", i))
			return
		}
		first := row
		if k := strings.IndexFunc(row, unicode.IsSpace); k >= 0 {
			first = row[:k]
		}
		if strings.Contains(first, ":") {
			sb.WriteString("0 ")
		}
		sb.WriteString(row)
		sb.WriteByte('\n')
	}
	samples, n, err := dataset.ParseLIBSVM(strings.NewReader(sb.String()))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(samples) != len(req.Rows) {
		writeError(w, http.StatusBadRequest, "blank rows are not allowed")
		return
	}
	b, _ := dataset.SamplesToMatrix(samples, n)
	m, err := b.Build(sparse.CSR)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unbuildable matrix: %v", err))
		return
	}
	decisions := s.cfg.Model.DecisionBatch(m, s.cfg.Exec)
	preds := make([]float64, len(decisions))
	for i, d := range decisions {
		if d >= 0 {
			preds[i] = 1
		} else {
			preds[i] = -1
		}
	}
	writeJSON(w, http.StatusOK, PredictResponse{
		Predictions: preds,
		Decisions:   decisions,
		SVs:         len(s.cfg.Model.SVs),
	})
}

// handlePredictFormat answers a pure model inference: which storage format
// does the trained predictor recommend for this dataset, and with what
// confidence. Unlike /v1/schedule with the predict policy, it never falls
// back to measurement, so it is safe to hammer — no admission control.
func (s *Server) handlePredictFormat(w http.ResponseWriter, r *http.Request) {
	if !s.predictor.Loaded() {
		writeError(w, http.StatusServiceUnavailable, "no format predictor loaded (start layoutd with -predictor)")
		return
	}
	sc := getScratch()
	defer putScratch(sc)
	env, ok := decodeEnvelope[PredictFormatRequest](s, sc, w, r, predictFormatFields)
	if !ok {
		return
	}
	feats, _, _, err := sc.resolve(r.Context(), env.profile, env.data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	c, conf, ok := s.predictor.PredictCandidate(feats)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "predictor has no answer (empty model)")
		return
	}
	writeJSON(w, http.StatusOK, PredictFormatResponse{
		Format:     c.Format.String(),
		Confidence: conf,
		Confident:  conf >= s.cfg.MinConfidence,
		Features:   NewFeaturesJSON(feats),
	})
}
