package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
)

// clusterNode is one in-process layoutd of a test ring: a real serve.Server
// behind a real HTTP listener, so forwarding, gossip, and node kills travel
// the same network path they would in production.
type clusterNode struct {
	id    string
	url   string
	srv   *Server
	peers *cluster.Peers
	hs    *httptest.Server
	// front, when set, sees every request the node receives before its
	// server does and may answer it instead: a peer that fails, or one that
	// predates a route.
	front atomic.Pointer[func(w http.ResponseWriter, r *http.Request, next http.Handler)]
}

// startCluster boots an n-node ring on loopback listeners with a 25 ms
// gossip cadence.
func startCluster(t testing.TB, n int, mutate func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	return startRing(t, n, cluster.Options{
		Client:      cluster.ClientOptions{Timeout: 5 * time.Second},
		Replication: cluster.ReplicatorOptions{Interval: 25 * time.Millisecond},
	}, mutate)
}

// startRing boots an n-node ring on loopback listeners. The listeners are
// bound before any Peers is built, because every member's address must be
// in every node's ring from the start.
func startRing(t testing.TB, n int, opts cluster.Options, mutate func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	members := make([]cluster.Member, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		members[i] = cluster.Member{ID: fmt.Sprintf("n%d", i+1), Addr: "http://" + ln.Addr().String()}
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		peers, err := cluster.NewPeers(members[i].ID, members, opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Policy: core.Hybrid, TrialRows: 4, Repeats: 2, Cluster: peers}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv := newTestServer(t, cfg)
		nd := &clusterNode{id: members[i].ID, url: members[i].Addr, srv: srv, peers: peers}
		h := srv.Handler()
		nd.hs = &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if front := nd.front.Load(); front != nil {
				(*front)(w, r, h)
				return
			}
			h.ServeHTTP(w, r)
		})}}
		nd.hs.Start()
		nodes[i] = nd
		t.Cleanup(func() {
			peers.Stop()
			nd.hs.Close()
		})
	}
	return nodes
}

// metricValue scrapes a node's /metrics and returns the value of one series,
// written as the exposition writes it: name{labels}.
func metricValue(t *testing.T, nd *clusterNode, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(getMetrics(t, nd.srv.Handler()), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return int64(n)
		}
	}
	t.Fatalf("%s exports no series %s", nd.id, series)
	return 0
}

// postURL sends a JSON body over the network (unlike post, which drives a
// handler in-process) and returns the status, response bytes, and headers.
func postURL(t *testing.T, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

func TestClusterRoutesByOwnership(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	const classes = 12
	payloads := make([]string, classes)
	distinct := map[string]bool{}
	for c := range payloads {
		payloads[c] = makeLIBSVM(20+c*5, 15+c*7, 4, int64(100+c))
		// The log1p quantization grid may merge near-identical shapes into
		// one class; derive the expected class count the way the server
		// keys, instead of assuming 1 payload = 1 class.
		samples, n, err := dataset.ParseLIBSVM(strings.NewReader(payloads[c]))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := dataset.SamplesToMatrix(samples, n)
		m, err := b.Build(sparse.CSR)
		if err != nil {
			t.Fatal(err)
		}
		distinct[Key(dataset.Extract(m), core.Hybrid.String(), 0)] = true
	}
	// Every payload through every node: whichever node a request hits, the
	// shape class's ring owner decides it, so the answers must agree and the
	// class must be measured exactly once cluster-wide.
	chosen := make([]string, classes)
	for c, data := range payloads {
		for _, nd := range nodes {
			status, raw, _ := postURL(t, nd.url+"/v1/schedule", ScheduleRequest{Data: data})
			if status != http.StatusOK {
				t.Fatalf("class %d via %s: status %d: %s", c, nd.id, status, raw)
			}
			var resp ScheduleResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			if chosen[c] == "" {
				chosen[c] = resp.Decision.Chosen
			} else if resp.Decision.Chosen != chosen[c] {
				t.Fatalf("class %d: %s chose %s, earlier node chose %s",
					c, nd.id, resp.Decision.Chosen, chosen[c])
			}
		}
	}
	var measured, misses, forwards, served, enqueued, dropped int64
	for _, nd := range nodes {
		measured += nd.srv.Measurements()
		misses += nd.srv.smsv.cache.misses.Load()
		forwards += metricValue(t, nd, "layoutd_cluster_forwards_total")
		served += metricValue(t, nd, "layoutd_cluster_forwarded_served_total")
		enqueued += metricValue(t, nd, "layoutd_cluster_replication_enqueued_total")
		dropped += metricValue(t, nd, "layoutd_cluster_replication_dropped_total")
	}
	// Each shape class is computed exactly once cluster-wide — on its owner.
	// (Fewer measurements than classes is fine: the shared tuning history
	// answers near-miss classes without re-measuring.)
	if misses != int64(len(distinct)) {
		t.Fatalf("%d cache misses across the ring, want exactly %d (one per distinct shape class)", misses, len(distinct))
	}
	if measured == 0 {
		t.Fatal("nothing was measured")
	}
	if forwards == 0 {
		t.Fatal("no request was forwarded: routing is not consulting the ring")
	}
	if served == 0 {
		t.Fatal("no node served a forwarded request")
	}
	// Every fresh decision gossips its entry, and a measured one its history
	// record too, into queues far from full.
	if enqueued < int64(len(distinct)) || dropped != 0 {
		t.Fatalf("gossip enqueued %d and dropped %d records for %d classes", enqueued, dropped, len(distinct))
	}
}

func TestClusterForwardedRequestsDecideLocally(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	// Send n1 a request with the forwarded marker already set: n1 must
	// decide it locally whatever the ring says about ownership — one hop at
	// most, so routing stays loop-free even if two nodes' ring views ever
	// disagree.
	data := makeLIBSVM(64, 48, 4, 999)
	raw, _ := json.Marshal(ScheduleRequest{Data: data})
	req, err := http.NewRequest(http.MethodPost, nodes[0].url+"/v1/schedule", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardedHeader, "n9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: status %d", resp.StatusCode)
	}
	if got := nodes[0].peers.Forwards(); got != 0 {
		t.Fatalf("n1 re-forwarded a forwarded request %d times", got)
	}
	if got := nodes[0].srv.forwardedServed.Load(); got != 1 {
		t.Fatalf("forwardedServed = %d, want 1", got)
	}
	if got := nodes[0].srv.Measurements(); got != 1 {
		t.Fatalf("n1 measurements = %d, want 1 (decided locally)", got)
	}
}

// TestClusterNodeKillZero5xx is the availability contract: killing a node
// mid-traffic may cost latency and locality, but no request may surface a
// 5xx — the local fallback path absorbs the dead peer.
func TestClusterNodeKillZero5xx(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	const total = 60
	killAt := total / 3
	var fiveXX, killed int
	for i := 0; i < total; i++ {
		if i == killAt {
			// Kill n3 abruptly; its listener resets in-flight and future
			// connections.
			nodes[2].hs.Close()
			killed = 1
		}
		// Fresh shape class per request, sprayed at the two survivors, so a
		// third of the keys (n3's share) must take the fallback path.
		data := makeLIBSVM(8+(i%17)*4, 6+(i%13)*9, 3, int64(1000+i))
		nd := nodes[i%2]
		status, raw, _ := postURL(t, nd.url+"/v1/schedule", ScheduleRequest{Data: data})
		if status >= 500 {
			fiveXX++
			t.Errorf("request %d via %s: status %d: %s", i, nd.id, status, raw)
		}
	}
	if fiveXX > 0 {
		t.Fatalf("%d responses were 5xx after killing a node", fiveXX)
	}
	if killed == 0 {
		t.Fatal("test never killed the node")
	}
	if nodes[0].peers.ForwardErrors()+nodes[1].peers.ForwardErrors() == 0 {
		t.Fatal("no forward fell back locally: the dead node's keys were never exercised")
	}
}

// TestClusterReplicationWarmsSuccessor drives one shape class through the
// ring and waits for gossip to land the decision (and its history record)
// on the owner's successor.
func TestClusterReplicationWarmsSuccessor(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	data := makeLIBSVM(120, 90, 6, 4242)
	status, raw, _ := postURL(t, nodes[0].url+"/v1/schedule", ScheduleRequest{Data: data})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	// The owner is whichever node measured.
	var owner *clusterNode
	for _, nd := range nodes {
		if nd.srv.Measurements() == 1 {
			owner = nd
		}
	}
	if owner == nil {
		t.Fatal("no node measured")
	}
	succ, ok := owner.peers.Ring().Successor(owner.id)
	if !ok {
		t.Fatal("ring has no successor")
	}
	var succNode *clusterNode
	for _, nd := range nodes {
		if nd.id == succ.ID {
			succNode = nd
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for cached(succNode.srv.smsv.cache) == 0 || succNode.srv.cfg.History.Len() == 0 { // decision + history record
		if time.Now().After(deadline) {
			t.Fatalf("successor %s holds %d replicated decisions and %d history records, want both",
				succ.ID, cached(succNode.srv.smsv.cache), succNode.srv.cfg.History.Len())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The replicated entry keeps the successor local for this shape class:
	// the same request hits its cache instead of forwarding to the owner.
	forwardsBefore := succNode.peers.Forwards()
	status, raw, _ = postURL(t, succNode.url+"/v1/schedule", ScheduleRequest{Data: data})
	if status != http.StatusOK {
		t.Fatalf("status %d on successor: %s", status, raw)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Decision.Source != "cache" {
		t.Fatalf("successor answered from %q, want the replicated cache entry", resp.Decision.Source)
	}
	if got := succNode.peers.Forwards(); got != forwardsBefore {
		t.Fatalf("successor forwarded (%d -> %d) despite holding the replicated entry", forwardsBefore, got)
	}
}

func TestClusterReplicateHandlerAppliesAndSkips(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	nd := nodes[0]
	good := sparse.BaseCandidate(sparse.CSR).String()
	entry := func(kind, key string, payload any) cluster.ReplEntry {
		raw, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		return cluster.ReplEntry{Kind: kind, Key: key, Payload: raw}
	}
	payload := cluster.ReplicatePayload{From: "n2", Entries: []cluster.ReplEntry{
		entry(cluster.KindDecision, "v2|hybrid/0|1,2,3", decisionWire{Candidate: good, Source: "measured"}),
		entry(cluster.KindDecision, "v2|hybrid/0|4,5,6", decisionWire{Candidate: "no-such-candidate"}),
		entry(cluster.KindHistory, "", historyWire{
			Features:  FeaturesJSON{M: 100, N: 80, NNZ: 500, Density: 0.0625},
			Candidate: good,
		}),
		entry("mystery-kind", "", struct{}{}),
	}}
	status, raw, _ := postURL(t, nd.url+cluster.ReplicatePath, payload)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var resp cluster.ReplicateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 2 || resp.Skipped != 2 {
		t.Fatalf("applied %d skipped %d, want 2/2", resp.Applied, resp.Skipped)
	}
	if !nd.srv.smsv.cache.Peek([]byte("v2|hybrid/0|1,2,3")) {
		t.Fatal("applied decision entry not in the cache")
	}
	if nd.srv.cfg.History.Len() != 1 {
		t.Fatalf("history len %d, want 1", nd.srv.cfg.History.Len())
	}
}

func TestClusterReplicateDisabledWithoutCluster(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s.Handler(), cluster.ReplicatePath, cluster.ReplicatePayload{From: "nX"})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 on a single-node server", w.Code)
	}
}

// stubLoader decodes {"format": "<name>"} into a fixedPredictor, standing in
// for the learn decoder in model-distribution tests.
func stubLoader(b []byte) (core.FormatPredictor, error) {
	var m struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	f, err := sparse.ParseFormat(m.Format)
	if err != nil {
		return nil, err
	}
	return fixedPredictor{format: f, conf: 0.9, ok: true}, nil
}

func TestClusterModelPushHotSwapAndPropagate(t *testing.T) {
	nodes := startCluster(t, 2, func(i int, cfg *Config) {
		cfg.ModelLoader = stubLoader
	})
	profile := FeaturesJSON{M: 50, N: 40, NNZ: 200, Density: 0.1}
	// No model anywhere yet.
	for _, nd := range nodes {
		status, _, _ := postURL(t, nd.url+"/v1/predict-format", PredictFormatRequest{Profile: &profile})
		if status != http.StatusServiceUnavailable {
			t.Fatalf("%s served predict-format without a model (status %d)", nd.id, status)
		}
	}
	// A rejected model must not change anything.
	status, _, _ := postURL(t, nodes[0].url+cluster.ModelPath, ModelPushRequest{Model: json.RawMessage(`{"format":"gibberish"}`)})
	if status != http.StatusBadRequest {
		t.Fatalf("bad model: status %d, want 400", status)
	}
	// Push to n1 with propagation: both nodes serve the model afterwards.
	model := fmt.Sprintf(`{"format":%q}`, sparse.CSR.String())
	status, raw, _ := postURL(t, nodes[0].url+cluster.ModelPath,
		ModelPushRequest{Model: json.RawMessage(model), Propagate: true})
	if status != http.StatusOK {
		t.Fatalf("push: status %d: %s", status, raw)
	}
	var resp ModelPushResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Swapped || resp.Propagated != 1 {
		t.Fatalf("push response %+v, want swapped and 1 peer propagated", resp)
	}
	for _, nd := range nodes {
		status, raw, _ := postURL(t, nd.url+"/v1/predict-format", PredictFormatRequest{Profile: &profile})
		if status != http.StatusOK {
			t.Fatalf("%s after push: status %d: %s", nd.id, status, raw)
		}
		var pf PredictFormatResponse
		if err := json.Unmarshal(raw, &pf); err != nil {
			t.Fatal(err)
		}
		if pf.Format != sparse.CSR.String() {
			t.Fatalf("%s predicts %s, want the pushed model's csr", nd.id, pf.Format)
		}
	}
}

func TestClusterModelPushWithoutLoader(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s.Handler(), cluster.ModelPath, ModelPushRequest{Model: json.RawMessage(`{}`)})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 without a ModelLoader", w.Code)
	}
}

// TestClusterRelays429WithRetryAfter pins the admission-control contract
// across a forward: when the owner sheds load, the relaying node passes the
// 429 and its Retry-After header through to the client.
func TestClusterRelays429WithRetryAfter(t *testing.T) {
	nodes := startCluster(t, 2, func(i int, cfg *Config) {
		cfg.MaxInflight = 1
	})
	// Occupy both nodes' only measurement slot, so whichever node owns a
	// fresh shape class answers 429.
	nodes[0].srv.sem <- struct{}{}
	nodes[1].srv.sem <- struct{}{}
	defer func() { <-nodes[0].srv.sem; <-nodes[1].srv.sem }()
	status, raw, hdr := postURL(t, nodes[0].url+"/v1/schedule",
		ScheduleRequest{Data: makeLIBSVM(77, 55, 5, 31337)})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", status, raw)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 relayed without Retry-After")
	}
}

// TestClusterFallbackTraceRecordsOutcome: when a shape class's owner is
// down the request is still answered, and its trace says what happened —
// the failed hop on the cluster.forward span, the 200 on the root, which
// the fallback leaves without an error.
func TestClusterFallbackTraceRecordsOutcome(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	// A shape class n1's ring hands to n2.
	var data string
	for seed := int64(1); data == ""; seed++ {
		rows := makeLIBSVM(10+int(seed)*3, 12+int(seed)*5, 3, seed)
		sc := getScratch()
		feats, _, err := sc.parse([]byte(rows))
		putScratch(sc)
		if err != nil {
			t.Fatal(err)
		}
		if m, remote := nodes[0].peers.Route(AppendKey(nil, feats, "hybrid", 0)); remote && m.ID == "n2" {
			data = rows
		}
		if seed > 200 {
			t.Fatal("no shape class routes to n2")
		}
	}
	nodes[1].hs.Close()
	const id = "00000000000000fb"
	raw, _ := json.Marshal(ScheduleRequest{Data: data})
	req, _ := http.NewRequest(http.MethodPost, nodes[0].url+"/v1/schedule", bytes.NewReader(raw))
	req.Header.Set(cluster.TraceHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "cluster: owner n2 unreachable, deciding locally") {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	tr, ok := nodes[0].srv.Traces().Get(id)
	if !ok {
		t.Fatal("request left no trace")
	}
	if root := tr.Spans[0]; !slices.Contains(root.AttrList, "status=200") || root.Error != "" {
		t.Errorf("root span %v error %q, want status=200 and no error\n%s", root.AttrList, root.Error, tr.Tree())
	}
	failedHop := false
	for _, sp := range tr.Spans {
		failedHop = failedHop || sp.Name == "cluster.forward" && sp.Error != "" && slices.Contains(sp.AttrList, "peer=n2")
	}
	if !failedHop {
		t.Errorf("no failed cluster.forward span:\n%s", tr.Tree())
	}
}
