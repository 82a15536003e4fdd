package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/learn"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/spgemm"
	"repro/internal/svm"
)

// The per-layer metrics of a traced run. A layer a workload does not
// exercise reports 0 on it: that is the "should not move" half of the
// layer -> workload predictions in README.md.

const (
	maxReplay    = 120             // ops replayed stage by stage per traced run
	replayBudget = 6 * time.Second // and the time they may take
	probeShapes  = 8               // operands the per-layer probes run on
)

var basicFormats = []sparse.Format{sparse.DEN, sparse.CSR, sparse.COO, sparse.ELL, sparse.DIA}

// dataflowProbes is the canonical candidate timed for each dataflow.
var dataflowProbes = []spgemm.Candidate{
	{Dataflow: spgemm.Gustavson, AFormat: sparse.CSR, BFormat: sparse.CSR},
	{Dataflow: spgemm.OuterProduct, AFormat: sparse.CSC, BFormat: sparse.CSR},
	{Dataflow: spgemm.InnerProduct, AFormat: sparse.CSR, BFormat: sparse.CSC},
}

// servingLayers replays sampled ops of the window and runs every probe a
// serving workload shares.
func servingLayers(rp *replayer, w *window, reqs []*request, nodes []*node, out metricSet) error {
	deadline := time.Now().Add(replayBudget)
	sampled := replaySample(w)
	handlers := make([]int, len(sampled))
	replies := make([][]byte, len(sampled))
	for k, idx := range sampled {
		if time.Now().After(deadline) {
			sampled = sampled[:k]
			break
		}
		o := &w.ops[idx]
		var err error
		if handlers[k], replies[k], err = rp.replayHandler(k, o, reqs[o.ref]); err != nil {
			return fmt.Errorf("replay of op %d (%s): %w", idx, endpointNames[o.endpoint], err)
		}
	}
	for k, idx := range sampled {
		if time.Now().After(deadline) {
			break
		}
		o := &w.ops[idx]
		if err := rp.replayStages(handlers[k], o, reqs[o.ref], replies[k]); err != nil {
			return fmt.Errorf("replay of op %d (%s): %w", idx, endpointNames[o.endpoint], err)
		}
	}
	tr := rp.tr
	parse := tr.durations(spParse)
	out.set("dataset.parse_us", durMedian(parse, time.Microsecond), "us", len(parse))
	if total := sumDur(parse); total > 0 {
		out.set("dataset.parse_mb_per_s", float64(rp.parseB)/1e6/total.Seconds(), "MB/s", len(parse))
	}
	setSpanMedian(out, tr, "dataset.extract_us", spExtract)
	setSpanMedian(out, tr, "serve.decode_us", spDecode)
	setSpanMedian(out, tr, "serve.encode_us", spEncode)
	for ep := epSchedule; ep <= epSpGEMM; ep++ {
		out.set("serve.handler_us."+endpointNames[ep], durMedian(rp.handlerBy[ep], time.Microsecond), "us", len(rp.handlerBy[ep]))
	}
	// Handler self time: what the replayed stages leave unexplained —
	// routing, admission, tracing, metrics, the response writer.
	self := selfTimes(tr.spans)
	handlerSelf := make([]time.Duration, len(rp.staged))
	for i, hs := range rp.staged {
		handlerSelf[i] = self[hs]
	}
	out.set("serve.self_us", durMedian(handlerSelf, time.Microsecond), "us", len(handlerSelf))
	out.set("client.rtt_overhead_us", durMedian(rp.rtt, time.Microsecond), "us", len(rp.rtt))

	windowLayers(w, out)
	keyProbes(rp, reqs, out)
	batchProbe(nodes[0], reqs, out)

	var boots []time.Duration
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		serve.NewServer(nodeConfig(nodes[0].store, nodes[0].stats, nil))
		boots = append(boots, time.Since(t0))
	}
	out.set("serve.new_server_ms", durMedian(boots, time.Millisecond), "ms", len(boots))

	if err := telemetryProbes(nodes[0], reqs, out); err != nil {
		return err
	}
	if err := clientProbe(w, reqs, out); err != nil {
		return err
	}
	shapes, pairs, err := probeOperands(reqs)
	if err != nil {
		return err
	}
	kernelProbes(shapes, out)
	if err := schedulerProbes(shapes, out); err != nil {
		return err
	}
	if err := spgemmProbes(pairs, out); err != nil {
		return err
	}
	onlineProbes(nodes, out)
	return nil
}

// replaySample picks the ops to replay: up to maxReplay, and never more
// than a quarter of the window, so replaying a short window stays short.
func replaySample(w *window) []int {
	return sampleOps(w, min(maxReplay, max(len(w.ops)/4, 1)))
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func setSpanMedian(out metricSet, tr *tracer, name, spanName string) {
	ds := tr.durations(spanName)
	out.set(name, durMedian(ds, time.Microsecond), "us", len(ds))
}

// windowLayers derives the counts and shares that come from the traced
// window's own op records and counter deltas.
func windowLayers(w *window, out metricSet) {
	n := len(w.ops)
	byEndpoint := make([][]float64, numEndpoints)
	var bySource [len(sourceNames)]int
	var s2xx, s429, s5xx, degraded, measured, candidates int
	var bodies []float64
	for i := range w.ops {
		o := &w.ops[i]
		switch {
		case o.status >= 200 && o.status < 300:
			s2xx++
		case o.status == http.StatusTooManyRequests:
			s429++
		case o.status >= 500:
			s5xx++
		}
		if o.degraded {
			degraded++
		}
		if o.source >= 0 {
			bySource[o.source]++
		}
		if o.measured > 0 {
			measured++
			candidates += int(o.measured)
		}
		if o.err == "" {
			byEndpoint[o.endpoint] = append(byEndpoint[o.endpoint], ms(o.lat))
		}
		if o.bytes > 0 {
			bodies = append(bodies, float64(o.bytes)/1024)
		}
	}
	for ep := epSchedule; ep <= epSpGEMM; ep++ {
		sort.Float64s(byEndpoint[ep])
		out.set("serve.endpoint_p50_ms."+endpointNames[ep], percentile(byEndpoint[ep], 0.5), "ms", len(byEndpoint[ep]))
	}
	for i, name := range sourceNames {
		out.set("serve.source_share."+name, float64(bySource[i])/float64(n), "ratio", n)
	}
	out.set("serve.status_2xx", float64(s2xx), "count", n)
	out.set("serve.status_429", float64(s429), "count", n)
	out.set("serve.status_5xx", float64(s5xx), "count", n)
	out.set("serve.degraded", float64(degraded), "count", n)
	out.set("serve.measurements", float64(w.server.measurements), "count", n)
	if measured > 0 {
		out.set("core.candidates_measured", float64(candidates)/float64(measured), "count", measured)
	}
	out.set("sparse.smsv_calls", float64(w.server.smsvCalls), "count", n)
	out.set("sparse.smsv_nnz", float64(w.server.smsvElems), "count", n)
	out.set("online.harvested", float64(w.server.harvested), "count", n)
	out.set("client.body_kb_p50", median(bodies), "KB", len(bodies))
	out.set("exec.occupancy_share", w.occupancy, "ratio", w.occupancySamples)
	out.set("process.peak_rss_mb", peakRSSMB(), "MB", 1)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.set("process.heap_live_mb", float64(ms.HeapAlloc)/(1<<20), "MB", 1)
	out.set("process.gc_cycles", float64(w.after.gcs-w.before.gcs), "count", n)
	out.set("process.gc_pause_ms", float64(w.gcPause)/float64(time.Millisecond), "ms", int(w.after.gcs-w.before.gcs))
	ns, cnt := timeLoop(20, 200, func() { exec.Default().ForRange(64, func(lo, hi int) {}) })
	out.set("exec.dispatch_ns", ns, "ns", cnt)
}

// keyProbes times the nanosecond-scale steps of the hit path in tight
// loops: building a shape-class key, probing the cache, finding the owner.
func keyProbes(rp *replayer, reqs []*request, out metricSet) {
	var keys [][]byte
	var feats []dataset.Features
	for i := 0; i < len(reqs) && len(keys) < 64; i++ {
		if reqs[i].endpoint != epSchedule {
			continue
		}
		f := reqs[i].operands[0].feats
		key := serve.AppendKey(nil, f, reqs[i].policy, 0)
		rp.cache.Put(string(key), &serve.CachedDecision{})
		keys, feats = append(keys, key), append(feats, f)
	}
	if len(keys) == 0 {
		return
	}
	var buf []byte
	k := 0
	ns, n := timeLoop(20, 2000, func() { buf = serve.AppendKey(buf[:0], feats[k%len(feats)], serverPolicy, 0); k++ })
	out.set("serve.key_ns", ns, "ns", n)
	ns, n = timeLoop(20, 2000, func() { rp.cache.Get(keys[k%len(keys)]); k++ })
	out.set("serve.cache_get_ns", ns, "ns", n)
	if rp.ring != nil {
		ns, n = timeLoop(20, 2000, func() { rp.ring.Owner(keys[k%len(keys)]); k++ })
		out.set("cluster.route_ns", ns, "ns", n)
	}
}

// batchProbe times Server.ScheduleBatch, the in-process batched hit path,
// per item on the live (warm) server.
func batchProbe(n *node, reqs []*request, out metricSet) {
	var per []float64
	for _, rq := range reqs {
		if rq.endpoint != epBatch || len(per) >= 16 {
			continue
		}
		var req serve.BatchScheduleRequest
		if json.Unmarshal(rq.body, &req) != nil {
			continue
		}
		t0 := time.Now()
		n.srv.ScheduleBatch(context.Background(), &req)
		per = append(per, float64(time.Since(t0))/float64(len(req.Items)))
	}
	if len(per) > 0 {
		out.set("serve.batch_item_ns", median(per), "ns", len(per))
	}
}

// telemetryProbes times what observing the loaded server costs: a full
// /metrics scrape and the fetch of one decision's span tree.
func telemetryProbes(n *node, reqs []*request, out metricSet) error {
	cl := newHTTPClient()
	defer cl.close()
	var scrapes, fetches []time.Duration
	for i := 0; i < 7; i++ {
		status, _, lat, err := cl.get(n.url + "/metrics")
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("scraping /metrics: status %d, %v", status, err)
		}
		scrapes = append(scrapes, lat)
	}
	out.set("telemetry.scrape_ms", durMedian(scrapes, time.Millisecond), "ms", len(scrapes))
	rq := reqs[0]
	status, reply, _, _, err := cl.post(n.url+endpointPaths[rq.endpoint], rq.body)
	if err != nil {
		return err
	}
	info, err := rq.check(status, reply, false)
	if err != nil {
		return fmt.Errorf("trace probe request: %w", err)
	}
	for i := 0; i < 20; i++ {
		status, _, lat, err := cl.get(n.url + "/v1/trace/" + info.traceID)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("fetching trace %s: status %d, %v", info.traceID, status, err)
		}
		fetches = append(fetches, lat)
	}
	out.set("telemetry.trace_fetch_us", durMedian(fetches, time.Microsecond), "us", len(fetches))
	return nil
}

// clientProbe measures what the client side of an op allocates: the same
// bodies posted to a stub that drains them and returns a canned reply. The
// figure includes net/http's server-side floor for one request, which the
// real server pays as well.
func clientProbe(w *window, reqs []*request, out metricSet) error {
	canned := bytes.Repeat([]byte(`{"decision":{"policy":"hybrid","chosen":"CSR"}}`+"\n"), 40)
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // a short read only shortens the probe
		_, _ = rw.Write(canned)
	}))
	defer stub.Close()
	cl := newHTTPClient()
	defer cl.close()
	idx := sampleOps(w, 200)
	post := func(i int) error {
		_, _, _, _, err := cl.post(stub.URL, reqs[w.ops[i].ref].body)
		return err
	}
	for _, i := range idx[:min(len(idx), 8)] { // open the connection, fill pools
		if err := post(i); err != nil {
			return err
		}
	}
	before := readUsage()
	for _, i := range idx {
		if err := post(i); err != nil {
			return err
		}
	}
	after := readUsage()
	out.set("client.alloc_kb_per_op", float64(after.bytes-before.bytes)/1024/float64(len(idx)), "KB", len(idx))
	return nil
}

// probeOperands parses a spread of the request table's operands back into
// matrices: the shapes the kernel and scheduler probes run on.
func probeOperands(reqs []*request) (shapes []sparse.Matrix, pairs [][2]sparse.Matrix, err error) {
	var single, double []*request
	for _, rq := range reqs {
		switch rq.endpoint {
		case epSchedule:
			single = append(single, rq)
		case epSpGEMM:
			double = append(double, rq)
		}
	}
	csr := func(mx matrix) (sparse.Matrix, error) {
		b, _, err := parseOperand(mx.data)
		if err != nil {
			return nil, err
		}
		return b.Build(sparse.CSR)
	}
	for k := 0; k < min(probeShapes, len(single)); k++ {
		m, err := csr(single[k*len(single)/min(probeShapes, len(single))].operands[0])
		if err != nil {
			return nil, nil, err
		}
		shapes = append(shapes, m)
	}
	for k := 0; k < min(probeShapes, len(double)); k++ {
		rq := double[k*len(double)/min(probeShapes, len(double))]
		a, err := csr(rq.operands[0])
		if err != nil {
			return nil, nil, err
		}
		b, err := csr(rq.operands[1])
		if err != nil {
			return nil, nil, err
		}
		pairs = append(pairs, [2]sparse.Matrix{a, b})
	}
	return shapes, pairs, nil
}

// kernelProbes times, per storage format, materializing each shape from a
// builder with nothing memoized and one SMSV product on it.
func kernelProbes(shapes []sparse.Matrix, out metricSet) {
	ex := exec.Default()
	for _, f := range basicFormats {
		var builds []time.Duration
		var perNNZ []float64
		for _, src := range shapes {
			b := cloneBuilder(src)
			t0 := time.Now()
			m, err := b.Build(f)
			if err != nil {
				continue // DIA over its lane cap: not a candidate for this shape
			}
			builds = append(builds, time.Since(t0))
			rows, cols := m.Dims()
			if m.NNZ() == 0 {
				continue
			}
			dst, scratch := make([]float64, rows), make([]float64, cols)
			x := src.RowTo(sparse.Vector{}, rows/2)
			ns, _ := timeLoop(5, 20, func() { m.MulVecSparse(dst, x, scratch, ex) })
			perNNZ = append(perNNZ, ns/float64(m.NNZ()))
		}
		out.set("sparse.build_us."+f.String(), durMedian(builds, time.Microsecond), "us", len(builds))
		out.set("sparse.smsv_ns_per_nnz."+f.String(), median(perNNZ), "ns", len(perNNZ))
	}
}

// schedulerProbes times one Choose per decision path on fresh builders and
// schedulers, then trains a forest on the hybrid answers and times the
// learn layer with it.
func schedulerProbes(shapes []sparse.Matrix, out metricSet) error {
	ctx := context.Background()
	var empirical, hybrid, reuse, predict []time.Duration
	var examples []learn.Example
	choose := func(cfg core.Config, src sparse.Matrix) (time.Duration, *core.Decision, error) {
		b := cloneBuilder(src)
		sched := core.New(cfg)
		t0 := time.Now()
		d, err := sched.ChooseContext(ctx, b)
		return time.Since(t0), d, err
	}
	for _, src := range shapes {
		t, d, err := choose(core.Config{Policy: core.Empirical, History: &core.History{}}, src)
		if err != nil {
			return fmt.Errorf("empirical choose probe: %w", err)
		}
		d.Release()
		empirical = append(empirical, t)

		t, d, err = choose(core.Config{Policy: core.Hybrid, History: &core.History{}}, src)
		if err != nil {
			return fmt.Errorf("hybrid choose probe: %w", err)
		}
		hybrid = append(hybrid, t)
		examples = append(examples, learn.FromFeatures(d.Features, d.ChosenCandidate))
		hist := &core.History{}
		hist.RecordCandidate(d.Features, d.ChosenCandidate)
		d.Release()

		t, d, err = choose(core.Config{Policy: core.Hybrid, History: hist}, src)
		if err != nil {
			return fmt.Errorf("history choose probe: %w", err)
		}
		d.Release()
		reuse = append(reuse, t)
	}
	out.set("core.choose_ms.empirical", durMedian(empirical, time.Millisecond), "ms", len(empirical))
	out.set("core.choose_ms.hybrid", durMedian(hybrid, time.Millisecond), "ms", len(hybrid))
	out.set("core.choose_us.history", durMedian(reuse, time.Microsecond), "us", len(reuse))
	if len(examples) == 0 {
		return nil
	}

	var trains []time.Duration
	var forest *learn.Forest
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		f, err := learn.Train(examples, learn.TrainConfig{})
		if err != nil {
			return err
		}
		trains = append(trains, time.Since(t0))
		forest = f
	}
	out.set("learn.train_ms", durMedian(trains, time.Millisecond), "ms", len(trains))
	for _, src := range shapes {
		// MinConfidence near zero: the probe times the predicted path, not
		// the fallback a cautious threshold would take.
		t, d, err := choose(core.Config{Policy: core.PolicyPredict, Predictor: forest, MinConfidence: 1e-9}, src)
		if err != nil {
			return fmt.Errorf("predict choose probe: %w", err)
		}
		d.Release()
		predict = append(predict, t)
	}
	out.set("core.choose_us.predict", durMedian(predict, time.Microsecond), "us", len(predict))
	feats := make([]dataset.Features, len(shapes))
	for i, src := range shapes {
		feats[i] = dataset.Extract(src)
	}
	k := 0
	ns, n := timeLoop(20, 1000, func() { forest.PredictCandidate(feats[k%len(feats)]); k++ })
	out.set("learn.predict_ns", ns, "ns", n)
	var model bytes.Buffer
	if err := forest.Save(&model); err != nil {
		return err
	}
	var loads []time.Duration
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		if _, err := learn.Load(bytes.NewReader(model.Bytes())); err != nil {
			return err
		}
		loads = append(loads, time.Since(t0))
	}
	out.set("learn.model_load_us", durMedian(loads, time.Microsecond), "us", len(loads))
	return nil
}

// spgemmProbes times the SpGEMM half: the shape-only cost estimate, one
// product per dataflow, an empirical pair decision, and the pair forest.
func spgemmProbes(pairs [][2]sparse.Matrix, out metricSet) error {
	if len(pairs) == 0 {
		return nil
	}
	ex := exec.Default()
	var estimates, chooses []time.Duration
	var examples []learn.PairExample
	var feats [][2]dataset.Features
	multiply := make([][]time.Duration, len(dataflowProbes))
	for _, p := range pairs {
		fa, fb := dataset.Extract(p[0]), dataset.Extract(p[1])
		feats = append(feats, [2]dataset.Features{fa, fb})
		t0 := time.Now()
		dataset.EstimateOutputNNZ(fa, fb)
		core.EstimatePairCandidates(fa, fb)
		estimates = append(estimates, time.Since(t0))
		for i, c := range dataflowProbes {
			a, err := cloneBuilder(p[0]).Build(c.AFormat)
			if err != nil {
				return err
			}
			b, err := cloneBuilder(p[1]).Build(c.BFormat)
			if err != nil {
				return err
			}
			var res spgemm.Result
			t0 := time.Now()
			if err := spgemm.Multiply(c, a, b, &res, ex); err != nil {
				return fmt.Errorf("spgemm probe %s: %w", c, err)
			}
			multiply[i] = append(multiply[i], time.Since(t0))
		}
		sched := core.NewSpGEMM(core.SpGEMMConfig{Policy: core.Empirical, History: &core.PairHistory{}})
		a, b := cloneBuilder(p[0]), cloneBuilder(p[1])
		t0 = time.Now()
		d, err := sched.ChooseContext(context.Background(), a, b)
		if err != nil {
			return fmt.Errorf("spgemm choose probe: %w", err)
		}
		chooses = append(chooses, time.Since(t0))
		examples = append(examples, learn.FromPairFeatures(fa, fb, d.Chosen))
		d.Release()
	}
	out.set("spgemm.estimate_us", durMedian(estimates, time.Microsecond), "us", len(estimates))
	for i, c := range dataflowProbes {
		out.set("spgemm.multiply_us."+c.Dataflow.String(), durMedian(multiply[i], time.Microsecond), "us", len(multiply[i]))
	}
	out.set("core.choose_ms.spgemm", durMedian(chooses, time.Millisecond), "ms", len(chooses))
	forest, err := learn.TrainPair(examples, learn.TrainConfig{})
	if err != nil {
		return err
	}
	k := 0
	ns, n := timeLoop(20, 1000, func() { f := feats[k%len(feats)]; forest.PredictPair(f[0], f[1]); k++ })
	out.set("learn.predict_pair_ns", ns, "ns", n)
	return nil
}

// onlineProbes times the flywheel on what the run harvested: one record
// into a store, and one retrain + shadow-evaluation step on a fake clock.
func onlineProbes(nodes []*node, out metricSet) {
	store := online.NewStore(8192, nil)
	var recs []online.Record
	for _, n := range nodes {
		recs = append(recs, n.store.Window(online.KindSMSV, 256)...)
		recs = append(recs, n.store.Window(online.KindPair, 256)...)
	}
	for _, r := range recs {
		_ = store.Add(r) // records come out of a store, so they are valid
	}
	if len(recs) > 0 {
		scratch := online.NewStore(1024, nil)
		k := 0
		ns, n := timeLoop(20, 500, func() { _ = scratch.Add(recs[k%len(recs)]); k++ })
		out.set("online.store_add_ns", ns, "ns", n)
	}
	now := time.Unix(1_700_000_000, 0)
	ctl, err := online.New(online.Config{
		Store: store,
		Now:   func() time.Time { return now },
		Lanes: []online.LaneConfig{
			online.SMSVLane(nil, learn.TrainConfig{}, func(context.Context, *learn.Forest) error { return nil }),
			online.PairLane(nil, learn.TrainConfig{}, func(context.Context, *learn.PairForest) error { return nil }),
		},
	})
	if err != nil {
		return
	}
	now = now.Add(2 * time.Minute) // past the retrain interval
	t0 := time.Now()
	ctl.Step()
	out.set("online.step_ms", ms(time.Since(t0)), "ms", len(recs))
}

// ringLayers adds what only the ring has: local against forwarded
// latency, the replication queue, gossip apply and model pushes.
func ringLayers(r *ringInstance, w *window, out metricSet) error {
	var local, fwd []float64
	for i := range w.ops {
		if o := &w.ops[i]; o.err == "" {
			if o.forwarded {
				fwd = append(fwd, ms(o.lat))
			} else {
				local = append(local, ms(o.lat))
			}
		}
	}
	sort.Float64s(local)
	sort.Float64s(fwd)
	lp, fp := percentile(local, 0.5), percentile(fwd, 0.5)
	out.set("cluster.local_p50_ms", lp, "ms", len(local))
	out.set("cluster.forwarded_p50_ms", fp, "ms", len(fwd))
	out.set("cluster.hop_us", (fp-lp)*1000, "us", len(fwd))
	out.set("cluster.forward_share", float64(w.server.forwards)/float64(len(w.ops)), "ratio", len(w.ops))
	out.set("cluster.forward_fallbacks", float64(w.server.forwardErrors), "count", len(w.ops))
	out.set("cluster.repl_enqueued", float64(w.server.replEnqueued), "count", len(w.ops))
	out.set("cluster.repl_dropped", float64(w.server.replDropped), "count", len(w.ops))

	// One gossip batch of one decision entry, applied by a peer endpoint.
	cl := newHTTPClient()
	defer cl.close()
	payload := mustJSON(map[string]any{"candidate": "CSR/static/base", "source": "measured"})
	var applies []time.Duration
	for i := 0; i < 20; i++ {
		body := mustJSON(cluster.ReplicatePayload{From: "n1", Entries: []cluster.ReplEntry{
			{Kind: cluster.KindDecision, Key: fmt.Sprintf("bench-probe-%d", i), Payload: payload}}})
		status, reply, _, lat, err := cl.post(r.nodes[1].url+cluster.ReplicatePath, body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("replicate probe: status %d %s, %v", status, firstLine(reply), err)
		}
		applies = append(applies, lat)
	}
	out.set("cluster.repl_apply_us", durMedian(applies, time.Microsecond), "us", len(applies))
	r.mu.Lock()
	pushes := append([]time.Duration(nil), r.pushes...)
	r.mu.Unlock()
	out.set("cluster.model_push_ms", durMedian(pushes, time.Millisecond), "ms", len(pushes))
	// The forests pushed around the ring were trained during set-up; the
	// probe's own forest is far smaller.
	out.set("learn.train_ms", r.trainMs, "ms", 1)
	return nil
}

// svmLayers replays sampled jobs as extract -> decide -> train and scores
// the scheduler against the oracle over the five formats.
func svmLayers(s *svmInstance, tr *tracer, w *window, out metricSet) error {
	cfg := svmConfig(exec.Default())
	trainBy := make([][]time.Duration, len(s.jobs))
	var choose, train time.Duration
	var iters []float64
	deadline := time.Now().Add(replayBudget)
	for k, idx := range replaySample(w) {
		if time.Now().After(deadline) {
			break
		}
		o := &w.ops[idx]
		job := &s.jobs[o.ref]
		root := tr.root(spRequest, o.start, o.lat, k)
		b := cloneBuilder(job.csr)
		// Choose starts with this same analysis pass; the replayed decision
		// then finds the CSR form memoized, so the two stages add up to one
		// real Choose.
		choose += tr.stage(root, spExtract, func() { dataset.Extract(b.MustBuild(sparse.CSR)) })
		sched := core.New(core.Config{Policy: core.Hybrid})
		var dec *core.Decision
		var err error
		choose += tr.stage(root, spDecide, func() { dec, err = sched.Choose(b) })
		if err != nil {
			return err
		}
		var st svm.Stats
		d := tr.stage(root, spTrain, func() { _, st, err = svm.Train(dec.Matrix, job.y, cfg) })
		if err != nil {
			return err
		}
		dec.Release()
		train += d
		trainBy[o.ref] = append(trainBy[o.ref], d)
		iters = append(iters, float64(st.Iterations))
	}
	for i, name := range svmDatasets {
		if i < len(trainBy) {
			out.set("svm.train_ms."+name, durMedian(trainBy[i], time.Millisecond), "ms", len(trainBy[i]))
		}
	}
	out.set("svm.iterations", median(iters), "count", len(iters))
	if choose+train > 0 {
		out.set("core.sched_overhead_share", float64(choose)/float64(choose+train), "ratio", len(iters))
	}
	setSpanMedian(out, tr, "dataset.extract_us", spExtract)

	// Oracle: the fastest of TrainFixed over the five formats, against the
	// format the hybrid scheduler picks. Best of two timings per format.
	matches, n := 0, 0
	var regrets, fixedCSR []float64
	for j := range s.jobs {
		job := &s.jobs[j]
		times := map[sparse.Format]time.Duration{}
		for _, f := range basicFormats {
			best := time.Duration(0)
			for rep := 0; rep < 2; rep++ {
				b := cloneBuilder(job.csr)
				t0 := time.Now()
				if _, _, err := svm.TrainFixed(b, job.y, f, cfg); err != nil {
					best = 0
					break
				}
				if d := time.Since(t0); best == 0 || d < best {
					best = d
				}
			}
			if best > 0 {
				times[f] = best
			}
		}
		fixedCSR = append(fixedCSR, ms(times[sparse.CSR]))
		dec, err := core.New(core.Config{Policy: core.Hybrid}).Choose(cloneBuilder(job.csr))
		if err != nil {
			return err
		}
		chosen := dec.Chosen
		dec.Release()
		oracle := sparse.CSR
		for f, t := range times {
			if t < times[oracle] {
				oracle = f
			}
		}
		n++
		if chosen == oracle {
			matches++
		}
		if t, ok := times[chosen]; ok {
			regrets = append(regrets, float64(t)/float64(times[oracle]))
		}
	}
	out.set("svm.fixed_csr_ms", median(fixedCSR), "ms", len(fixedCSR))
	out.set("core.oracle_match_share", float64(matches)/float64(n), "ratio", n)
	out.set("core.regret_ratio", mean(regrets), "ratio", len(regrets))

	windowLayers(w, out)
	shapes := make([]sparse.Matrix, len(s.jobs))
	for j := range s.jobs {
		shapes[j] = s.jobs[j].csr
	}
	kernelProbes(shapes, out)
	return schedulerProbes(shapes, out)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
