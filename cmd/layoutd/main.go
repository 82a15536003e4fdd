// Command layoutd is the layout-scheduling daemon: it serves the paper's
// runtime format selection over HTTP/JSON so the measurement cost is
// amortized across a workload of similar datasets. Decisions are cached by
// shape class (the nine Table IV parameters, quantized), deduplicated with
// singleflight, bounded by an admission limit, and optionally backed by a
// persistent tuning history, a trained SVM model for /v1/predict, and a
// trained format predictor for /v1/predict-format and the predict policy.
//
// Usage:
//
//	layoutd -addr :8723
//	layoutd -addr :8723 -policy hybrid -history tuning.hist -model svm.model
//	layoutd -addr :8723 -policy predict -predictor model.json
//	layoutd -addr :8731 -node-id n1 -peers n1=http://h1:8731,n2=http://h2:8731
//	layoutd -addr :8723 -online -retrain-interval 1m -online-store harvest.log
//
// With -online, the daemon closes the learning flywheel at runtime: every
// fresh measured decision (SMSV and SpGEMM) is harvested into a bounded
// store, a background loop periodically retrains candidate predictors from
// the harvested window, shadow-evaluates them against the measured oracle,
// hot-swaps a candidate that beats the live model by -promote-margin, and
// rolls the swap back automatically if post-swap regret exceeds
// -rollback-regret. In cluster mode a promoted model broadcasts to the
// ring through /v1/cluster/model. Progress is visible under the
// layoutd_online_* metrics.
//
// With -peers, nodes form a consistent-hash ring over shape classes: each
// schedule request is answered by the node owning its shape class (one
// forwarding hop at most), fresh decisions gossip to the ring successor,
// and a model pushed to any node's /v1/cluster/model can propagate to all.
// A dead peer costs locality, never availability — requests fall back to
// the local decision path.
//
// Endpoints:
//
//	POST /v1/schedule          {"data": "<libsvm rows>"} or {"profile": {...}}
//	POST /v1/schedule/batch    {"items": [<schedule bodies>...]} — up to
//	                           -max-batch items decided in one round trip,
//	                           sharing one trace and the pooled hot path
//	POST /v1/schedule/spgemm   {"a": "<libsvm rows>", "b": "<libsvm rows>"} —
//	                           pick a SpGEMM dataflow × format pair for A×B
//	                           (-spgemm-history persists its pair history,
//	                           -spgemm-predictor arms its predict policy)
//	POST /v1/predict           {"rows": ["1:0.5 3:1.2", ...]}
//	POST /v1/predict-format    {"data": "<libsvm rows>"} or {"profile": {...}}
//	POST /v1/cluster/replicate gossip batches from ring peers
//	POST /v1/cluster/lookup    {"key": "<shape-class key>"} from a ring peer:
//	                           this node's cached decision, or 404
//	POST /v1/cluster/model     {"model": <predictor json>, "propagate": true}
//	GET  /v1/trace/{id}        span tree of a recent decision; in cluster
//	                           mode assembled across the ring (?scope=local
//	                           for this node's fragment only)
//	GET  /v1/online/events     flywheel promote/commit/rollback timeline
//	GET  /v1/healthz           SLO health: ok, degraded, or critical (503)
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus text exposition (with exemplars)
//	GET  /debug/pprof/         runtime profiles (only with -pprof)
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/svm"
	"repro/internal/telemetry"
)

// options collects every daemon flag so run stays callable from tests
// without a 14-argument signature.
type options struct {
	addr          string
	policy        string
	workers       int
	files         [2]workloadFiles // per workload, in daemonWorkloads order
	modelPath     string
	minConfidence float64
	maxInflight   int
	maxBatch      int
	timeout       time.Duration
	maxBody       int64
	cacheCap      int
	trialRows     int
	topK          int
	seed          int64
	faults        string
	faultSeed     int64
	logLevel      string
	logFormat     string
	pprofOn       bool
	traceBuffer   int
	sloLatency    time.Duration
	traceFetch    time.Duration
	tracePeer     time.Duration

	peers     string
	nodeID    string
	replicate bool
	vnodes    int

	online          bool
	retrainInterval time.Duration
	shadowWindow    int
	promoteMargin   float64
	rollbackRegret  float64
	onlineStorePath string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8723", "listen address")
	flag.StringVar(&o.policy, "policy", "hybrid", "default decision policy: rule-based, empirical, hybrid, predict")
	flag.IntVar(&o.workers, "workers", 0, "kernel workers (0 = all cores)")
	for _, w := range daemonWorkloads(&o.files) {
		w.flags()
	}
	flag.StringVar(&o.modelPath, "model", "", "trained SVM model file served by /v1/predict")
	flag.Float64Var(&o.minConfidence, "min-confidence", 0, "predictor confidence below which decisions fall back to measurement (0 = default)")
	flag.IntVar(&o.maxInflight, "max-inflight", 4, "concurrent measurement slots; excess requests get 429")
	flag.IntVar(&o.maxBatch, "max-batch", serve.MaxBatchItems, "items allowed per /v1/schedule/batch request")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request measurement deadline")
	flag.Int64Var(&o.maxBody, "max-body", 8<<20, "request body byte cap")
	flag.IntVar(&o.cacheCap, "cache-capacity", 256, "decision cache entries per shard")
	flag.IntVar(&o.trialRows, "trial-rows", 0, "scheduler trial rows (0 = default)")
	flag.IntVar(&o.topK, "topk", 0, "hybrid candidate count (0 = default)")
	flag.Int64Var(&o.seed, "seed", 1, "measurement sampling seed")
	flag.StringVar(&o.faults, "faults", "", "failpoint spec for chaos runs, e.g. 'core.measure.err=1;serve.request.delay=5ms@0.1'")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for probabilistic failpoints")
	flag.StringVar(&o.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	flag.StringVar(&o.logFormat, "log-format", "text", "log format: text or json")
	flag.BoolVar(&o.pprofOn, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.IntVar(&o.traceBuffer, "trace-buffer", telemetry.DefaultTraceCapacity, "completed decision traces kept for /v1/trace/{id}")
	flag.DurationVar(&o.sloLatency, "slo-latency-objective", 500*time.Millisecond, "per-request latency objective feeding the SLO burn windows and /v1/healthz")
	flag.DurationVar(&o.traceFetch, "trace-fetch-timeout", 3*time.Second, "overall deadline for assembling one cross-node trace from peer fragments")
	flag.DurationVar(&o.tracePeer, "trace-fetch-peer-timeout", time.Second, "per-peer deadline for a single trace-fragment fetch")
	flag.StringVar(&o.peers, "peers", "", "cluster member list as id=http://host:port pairs, comma-separated; empty runs single-node")
	flag.StringVar(&o.nodeID, "node-id", "", "this node's id in the -peers list (required with -peers)")
	flag.BoolVar(&o.replicate, "replicate", true, "gossip fresh decisions and history records to the ring successor")
	flag.IntVar(&o.vnodes, "vnodes", 0, "virtual nodes per ring member (0 = default)")
	flag.BoolVar(&o.online, "online", false, "run the online flywheel: harvest measured decisions, retrain in the background, shadow-evaluate and hot-swap predictors with automatic rollback")
	flag.DurationVar(&o.retrainInterval, "retrain-interval", time.Minute, "online retrain cadence per lane (with -online)")
	flag.IntVar(&o.shadowWindow, "shadow-window", 256, "harvested records per lane the online retrainer fits and shadow-evaluates on (with -online)")
	flag.Float64Var(&o.promoteMargin, "promote-margin", 0.05, "shadow hit-rate edge (0..1) a candidate model needs over the live one to be promoted (with -online)")
	flag.Float64Var(&o.rollbackRegret, "rollback-regret", 1.5, "mean post-swap regret ratio beyond which a promotion is rolled back (with -online)")
	flag.StringVar(&o.onlineStorePath, "online-store", "", "harvest-store file: loaded at startup, saved on shutdown (with -online)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "layoutd:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	logger, err := telemetry.NewLogger(os.Stderr, o.logLevel, o.logFormat)
	if err != nil {
		return err
	}
	p, err := core.ParsePolicy(o.policy)
	if err != nil {
		return err
	}
	// Misconfiguration fails startup with the flag named, never mid-request:
	// a zero or negative cap would silently fall back to a default (or wedge
	// the endpoint), which is harder to debug than a refusal to boot.
	if o.maxBatch <= 0 {
		return fmt.Errorf("-max-batch must be positive, got %d", o.maxBatch)
	}
	if o.traceBuffer <= 0 {
		return fmt.Errorf("-trace-buffer must be positive, got %d", o.traceBuffer)
	}
	if o.sloLatency <= 0 {
		return fmt.Errorf("-slo-latency-objective must be positive, got %v", o.sloLatency)
	}
	if o.traceFetch <= 0 {
		return fmt.Errorf("-trace-fetch-timeout must be positive, got %v", o.traceFetch)
	}
	if o.tracePeer <= 0 {
		return fmt.Errorf("-trace-fetch-peer-timeout must be positive, got %v", o.tracePeer)
	}
	if o.tracePeer > o.traceFetch {
		return fmt.Errorf("-trace-fetch-peer-timeout %v exceeds -trace-fetch-timeout %v", o.tracePeer, o.traceFetch)
	}
	if o.peers == "" && o.nodeID != "" {
		return fmt.Errorf("-node-id %q given without -peers", o.nodeID)
	}
	if o.vnodes < 0 {
		return fmt.Errorf("-vnodes must not be negative, got %d (0 = default)", o.vnodes)
	}
	if o.onlineStorePath != "" && !o.online {
		return fmt.Errorf("-online-store %q given without -online", o.onlineStorePath)
	}
	if o.online {
		if o.retrainInterval <= 0 {
			return fmt.Errorf("-retrain-interval must be positive, got %v", o.retrainInterval)
		}
		if o.shadowWindow <= 0 {
			return fmt.Errorf("-shadow-window must be positive, got %d", o.shadowWindow)
		}
		if o.promoteMargin < 0 || o.promoteMargin > 1 {
			return fmt.Errorf("-promote-margin is an absolute hit-rate edge and must be in [0,1], got %g", o.promoteMargin)
		}
		if o.rollbackRegret < 1 {
			return fmt.Errorf("-rollback-regret is a slowdown ratio and must be at least 1, got %g", o.rollbackRegret)
		}
	}
	if o.faults != "" {
		reg, err := fault.Parse(o.faults, o.faultSeed)
		if err != nil {
			return err
		}
		fault.Enable(reg)
		logger.Warn("fault injection armed", "spec", fmt.Sprint(reg))
	}
	// The predict policy's default workload is SMSV, the first.
	if p == core.PolicyPredict && o.files[0].predictor == "" {
		return fmt.Errorf("policy predict needs -predictor")
	}
	workloads := daemonWorkloads(&o.files)
	for _, w := range workloads {
		if err := w.load(logger); err != nil {
			return err
		}
	}
	var model *svm.Model
	if o.modelPath != "" {
		f, err := os.Open(o.modelPath)
		if err != nil {
			return err
		}
		model, err = svm.LoadModel(f)
		f.Close()
		if err != nil {
			return err
		}
		logger.Info("loaded SVM model", "support_vectors", len(model.SVs), "path", o.modelPath)
	}
	// Cluster mode: every node is started with the same -peers list and its
	// own -node-id; the consistent-hash ring then gives all nodes one view of
	// which node owns each shape class.
	var peers *cluster.Peers
	if o.peers != "" {
		if o.nodeID == "" {
			return fmt.Errorf("-peers needs -node-id naming this node in the list")
		}
		members, err := cluster.ParseMembers(o.peers)
		if err != nil {
			return err
		}
		peers, err = cluster.NewPeers(o.nodeID, members, cluster.Options{
			VirtualNodes:       o.vnodes,
			DisableReplication: !o.replicate,
		})
		if err != nil {
			return err
		}
		logger.Info("cluster ring joined",
			"node", o.nodeID, "members", len(members), "replicate", o.replicate)
	}
	ex := exec.New(o.workers, exec.Static)
	defer ex.Close()

	// The harvest store is sized to hold several shadow windows per lane so
	// one retrain's window survives the other lane's traffic bursts.
	var store *online.Store
	var events *online.EventLog
	if o.online {
		capacity := 4 * o.shadowWindow
		if capacity < 1024 {
			capacity = 1024
		}
		store = loadOnlineStore(o.onlineStorePath, capacity, logger)
		events = online.NewEventLog(0)
	}

	cfg := serve.Config{
		Policy: p, Exec: ex, Stats: &exec.Stats{}, Model: model,
		MinConfidence: o.minConfidence,
		TrialRows:     o.trialRows, TopK: o.topK, Seed: o.seed,
		MaxInflight: o.maxInflight, MaxBatch: o.maxBatch,
		Timeout: o.timeout, MaxBody: o.maxBody,
		CacheCapacity: o.cacheCap,
		Logger:        logger, TraceCapacity: o.traceBuffer,
		SLOLatencyObjective:   o.sloLatency,
		TraceFetchTimeout:     o.traceFetch,
		TraceFetchPeerTimeout: o.tracePeer,
		Cluster:               peers,
		OnlineEvents:          events,
	}
	for _, w := range workloads {
		w.configure(&cfg)
	}
	if store != nil {
		// The store validates and counts rejected records itself, so the
		// hot-path hook stays a plain enqueue.
		cfg.Harvest = func(r online.Record) { _ = store.Add(r) }
	}
	s := serve.NewServer(cfg)

	// The flywheel: retrain from the harvest store on a cadence, promote a
	// candidate only when it shadow-beats the live model, install through
	// the same hot-swap path cluster pushes use, and broadcast the promoted
	// model to the ring so every node serves it.
	var ctl *online.Controller
	var ctlCancel context.CancelFunc
	if o.online {
		// The Config zero value means "default margin"; an operator's
		// explicit -promote-margin 0 means exactly zero (ties promote),
		// which the controller spells with a sentinel.
		margin := o.promoteMargin
		if margin == 0 {
			margin = online.PromoteMarginZero
		}
		var lanes []online.LaneConfig
		for _, w := range workloads {
			lanes = append(lanes, w.lane(s, logger))
		}
		ctl, err = online.New(online.Config{
			Store:           store,
			RetrainInterval: o.retrainInterval,
			ShadowWindow:    o.shadowWindow,
			PromoteMargin:   margin,
			RollbackRegret:  o.rollbackRegret,
			Logger:          logger,
			Events:          events,
			TraceSink:       func(tr *telemetry.Trace) { s.Traces().Put(tr) },
			Node:            o.nodeID,
			Lanes:           lanes,
		})
		if err != nil {
			return err
		}
		s.Registry().Register(ctl)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctlCancel = cancel
		go ctl.Run(ctx)
		logger.Info("online flywheel armed",
			"retrain_interval", o.retrainInterval.String(),
			"shadow_window", o.shadowWindow,
			"promote_margin", o.promoteMargin,
			"rollback_regret", o.rollbackRegret)
	}

	handler := http.Handler(s.Handler())
	if o.pprofOn {
		// pprof rides the same listener but stays off the API mux, so it
		// only exists when explicitly enabled.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Bind explicitly so -addr :0 works and the log names the real port.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	// The startup line keeps its exact phrasing: tools (and the CLI test)
	// scrape the bound address out of "layoutd listening on <addr>".
	logger.Info(fmt.Sprintf("layoutd listening on %s (policy %s, %d measurement slots)",
		ln.Addr(), p, o.maxInflight))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String())
	}

	// Graceful shutdown: stop accepting, let in-flight handlers finish
	// (bounded by the measurement timeout plus slack), then drain and
	// persist what was learned.
	ctx, cancel := context.WithTimeout(context.Background(), o.timeout+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Error("shutdown", "err", err)
	}
	if ctlCancel != nil {
		ctlCancel()
	}
	s.Drain()
	if peers != nil {
		// After Drain no handler can enqueue more gossip; Stop flushes what
		// is queued to the successor while peers are still reachable.
		peers.Stop()
	}
	for _, w := range workloads {
		w.summarize(s, logger)
		if err := w.save(logger); err != nil {
			return err
		}
	}
	if ctl != nil {
		for _, ls := range ctl.Status() {
			logger.Info("online lane summary", "lane", string(ls.Kind),
				"model", ls.LiveModel, "promotions", ls.Promotions,
				"rollbacks", ls.Rollbacks, "commits", ls.Commits)
		}
	}
	if store != nil && o.onlineStorePath != "" {
		if err := core.WriteFileAtomic(o.onlineStorePath, store.Save); err != nil {
			return fmt.Errorf("saving online store: %w", err)
		}
		logger.Info("saved online harvest store", "records", store.Len(), "path", o.onlineStorePath)
	}
	return nil
}

// loadOnlineStore builds the harvest store and warm-starts it from path
// when one is configured. The file is an advisory cache, not an artifact
// the daemon depends on: missing starts empty, and an unreadable or
// corrupt file logs a warning and starts empty rather than blocking the
// restart (a crash mid-save, or an operator edit, must never require
// deleting the file by hand to boot).
func loadOnlineStore(path string, capacity int, logger *slog.Logger) *online.Store {
	store := online.NewStore(capacity, nil)
	if path == "" {
		return store
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return store // first boot: saved on shutdown
	}
	if err != nil {
		logger.Warn("online harvest store unreadable; starting with an empty store",
			"path", path, "err", err)
		return store
	}
	defer f.Close()
	if err := store.Load(f); err != nil {
		logger.Warn("online harvest store unreadable; starting with an empty store",
			"path", path, "err", err)
		return online.NewStore(capacity, nil)
	}
	logger.Info("loaded online harvest store", "records", store.Len(), "path", path)
	return store
}
