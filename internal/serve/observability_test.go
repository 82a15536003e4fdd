package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/sparse"
	"repro/internal/telemetry"
	"repro/internal/telemetry/slo"
)

// remoteOwnedPayload finds a payload whose shape class, per nd's ring view,
// is owned by a remote member — the precondition for exercising a forward.
func remoteOwnedPayload(t *testing.T, nd *clusterNode) (string, cluster.Member) {
	t.Helper()
	for seed := int64(5000); seed < 5100; seed++ {
		data := makeLIBSVM(30+int(seed%19)*7, 25+int(seed%13)*9, 4, seed)
		samples, n, err := dataset.ParseLIBSVM(strings.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := dataset.SamplesToMatrix(samples, n)
		m, err := b.Build(sparse.CSR)
		if err != nil {
			t.Fatal(err)
		}
		key := Key(dataset.Extract(m), core.Hybrid.String(), 0)
		if owner, remote := nd.peers.Route([]byte(key)); remote {
			return data, owner
		}
	}
	t.Fatal("no seed in range produced a remotely-owned shape class")
	return "", cluster.Member{}
}

// remoteOwnedPair is remoteOwnedPayload for /v1/schedule/spgemm: an operand
// pair whose pair key a remote member owns per nd's ring view.
func remoteOwnedPair(t *testing.T, nd *clusterNode) (SpGEMMRequest, cluster.Member) {
	t.Helper()
	for seed := int64(0); seed < 100; seed++ {
		pair := conformablePair(30+int(seed%7)*6, 20+int(seed%5)*4, 16+int(seed%3)*8, 7000+seed)
		sc := getScratch()
		fa, aerr := sc.parseOperand("a", []byte(pair.A))
		fb, berr := sc.parseOperand("b", []byte(pair.B))
		if aerr != nil || berr != nil {
			t.Fatalf("generated pair does not parse: %v %v", aerr, berr)
		}
		key := PairKey(fa, fb, core.Hybrid.String(), 0)
		if owner, remote := nd.peers.Route([]byte(key)); remote {
			return pair, owner
		}
	}
	t.Fatal("no seed in range produced a remotely-owned pair shape class")
	return SpGEMMRequest{}, cluster.Member{}
}

// getTrace fetches /v1/trace/{id} from url, retrying briefly: a node's own
// fragment is stored by a deferred Put that can run a hair after the HTTP
// response reaches the client.
func getTrace(t *testing.T, url, id string, want func(telemetry.TraceJSON) bool) telemetry.TraceJSON {
	t.Helper()
	var last telemetry.TraceJSON
	var lastBody []byte
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		lastBody = body
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &last); err != nil {
				t.Fatalf("trace %s: %v: %s", id, err, body)
			}
			if want == nil || want(last) {
				return last
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("trace %s never reached the wanted shape via %s; last: %s", id, url, lastBody)
	return last
}

// spanNodes collects the distinct node attributions across a trace's spans
// (including the fragment-level Node for single-fragment trees).
func spanNodes(tr telemetry.TraceJSON) map[string]bool {
	nodes := map[string]bool{}
	if tr.Node != "" {
		nodes[tr.Node] = true
	}
	for _, sp := range tr.Spans {
		if sp.Node != "" {
			nodes[sp.Node] = true
		}
	}
	return nodes
}

// spanAttr returns the value of sp's attribute key, or "".
func spanAttr(sp telemetry.SpanJSON, key string) string {
	for _, a := range sp.AttrList {
		if k, v, ok := strings.Cut(a, "="); ok && k == key {
			return v
		}
	}
	return ""
}

// forwardLegs indexes an assembled trace's cluster.forward spans by leg,
// failing on a leg recorded twice.
func forwardLegs(t *testing.T, tr telemetry.TraceJSON) map[string]*telemetry.SpanJSON {
	t.Helper()
	legs := map[string]*telemetry.SpanJSON{}
	for i, sp := range tr.Spans {
		if sp.Name == "cluster.forward" {
			leg := spanAttr(sp, "leg")
			if legs[leg] != nil {
				t.Fatalf("two %q legs:\n%s", leg, tr.Tree())
			}
			legs[leg] = &tr.Spans[i]
		}
	}
	return legs
}

// ownerRoot returns the root span of the fragment node recorded: its first
// span, whose parent is on another node.
func ownerRoot(tr telemetry.TraceJSON, node string) *telemetry.SpanJSON {
	for i, sp := range tr.Spans {
		if sp.Node == node && sp.Parent >= 0 && tr.Spans[sp.Parent].Node != node {
			return &tr.Spans[i]
		}
	}
	return nil
}

// TestClusterForwardedScheduleOneTrace is the tentpole acceptance for trace
// propagation: a schedule request that node A forwards to its ring owner B
// produces ONE trace — the id the client sees resolves on A to an assembled
// tree containing spans recorded by both nodes, each carrying its node attr.
func TestClusterForwardedScheduleOneTrace(t *testing.T) {
	// No replication: the entry node must not come to hold a replica of the
	// class between the two requests.
	nodes := startRing(t, 3, cluster.Options{DisableReplication: true}, nil)
	entry := nodes[0]
	data, owner := remoteOwnedPayload(t, entry)

	status, raw, _ := postURL(t, entry.url+"/v1/schedule", ScheduleRequest{Data: data})
	if status != http.StatusOK {
		t.Fatalf("schedule status %d: %s", status, raw)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Decision.TraceID == "" {
		t.Fatalf("forwarded decision carries no trace_id: %s", raw)
	}
	if entry.peers.Forwards() == 0 {
		t.Fatal("request was not forwarded; ownership probe is broken")
	}

	tr := getTrace(t, entry.url, resp.Decision.TraceID, func(tr telemetry.TraceJSON) bool {
		ns := spanNodes(tr)
		return ns[entry.id] && ns[owner.ID]
	})
	if tr.TraceID != resp.Decision.TraceID {
		t.Fatalf("assembled trace id %q != decision trace_id %q", tr.TraceID, resp.Decision.TraceID)
	}
	if tr.Incomplete {
		t.Fatalf("healthy ring assembled an incomplete trace: %+v", tr)
	}
	ns := spanNodes(tr)
	if !ns[entry.id] || !ns[owner.ID] {
		t.Fatalf("assembled trace spans nodes %v, want both %s (entry) and %s (owner)", ns, entry.id, owner.ID)
	}
	// The owner's fragment must contain real scheduling work, grafted under
	// the entry node's forward span — not a detached sibling tree.
	var ownerSpans, unresolved int
	for _, sp := range tr.Spans {
		if sp.Node == owner.ID {
			ownerSpans++
		}
		for _, a := range sp.AttrList {
			if a == "link=unresolved" {
				unresolved++
			}
		}
	}
	if ownerSpans < 2 {
		t.Fatalf("only %d spans from owner %s; the remote fragment is missing its scheduling work:\n%s",
			ownerSpans, owner.ID, raw)
	}
	if unresolved != 0 {
		t.Fatalf("%d fragments grafted with link=unresolved in a healthy ring", unresolved)
	}
	// A first contact took both legs of the hop: the lookup the owner could
	// not answer, then the rows, under which the owner's decision hangs.
	legs := forwardLegs(t, tr)
	if lookup, rows := legs["lookup"], legs["rows"]; lookup == nil || rows == nil ||
		spanAttr(*lookup, "status") != "404" || spanAttr(*rows, "status") != "200" {
		t.Fatalf("want a lookup leg answered 404 and a rows leg answered 200:\n%s", tr.Tree())
	}
	if root := ownerRoot(tr, owner.ID); root == nil || root.Name != "schedule" || tr.Spans[root.Parent].Name != "cluster.forward" ||
		spanAttr(tr.Spans[root.Parent], "leg") != "rows" {
		t.Fatalf("the owner's decision is not grafted under the rows leg:\n%s", tr.Tree())
	}

	// Now the owner has the class cached: one leg, and the owner's fragment
	// is the lookup it answered — a cluster.lookup root over a cache.do hit —
	// grafted under it.
	status, raw, _ = postURL(t, entry.url+"/v1/schedule", ScheduleRequest{Data: data})
	if status != http.StatusOK {
		t.Fatalf("second request status %d: %s", status, raw)
	}
	var hit ScheduleResponse
	if err := json.Unmarshal(raw, &hit); err != nil {
		t.Fatal(err)
	}
	htr := getTrace(t, entry.url, hit.Decision.TraceID, func(tr telemetry.TraceJSON) bool {
		return spanNodes(tr)[owner.ID]
	})
	legs = forwardLegs(t, htr)
	lookup := legs["lookup"]
	if lookup == nil || legs["rows"] != nil || spanAttr(*lookup, "status") != "200" {
		t.Fatalf("want one lookup leg answered 200 and no rows leg:\n%s", htr.Tree())
	}
	root := ownerRoot(htr, owner.ID)
	if root == nil || root.Name != "cluster.lookup" || &htr.Spans[root.Parent] != lookup {
		t.Fatalf("the owner's lookup is not grafted under the lookup leg:\n%s", htr.Tree())
	}
	var leaf *telemetry.SpanJSON
	for i, sp := range htr.Spans {
		if sp.Parent == root.ID {
			leaf = &htr.Spans[i]
		}
	}
	if leaf == nil || leaf.Name != "cache.do" || spanAttr(*leaf, "outcome") != "hit" {
		t.Fatalf("the owner's lookup holds no cache.do hit:\n%s", htr.Tree())
	}

	// The same id resolves to the same cross-node tree from a NON-entry node:
	// its local fragment is secondary, so assembly must fetch the primary
	// from the entry node.
	other := nodes[1]
	if other.id == owner.ID {
		other = nodes[2]
	}
	tr2 := getTrace(t, other.url, resp.Decision.TraceID, func(tr telemetry.TraceJSON) bool {
		ns := spanNodes(tr)
		return ns[entry.id] && ns[owner.ID]
	})
	if tr2.Incomplete {
		t.Fatalf("assembly from %s marked incomplete on a healthy ring", other.id)
	}
}

// TestClusterModelPushOneTraceAcrossRing covers the other tentpole hop: a
// propagated model push is ONE trace spanning every ring member — the apply
// on the pushed-to node, a cluster.model.push span per peer, and each
// peer's own model.apply fragment.
func TestClusterModelPushOneTraceAcrossRing(t *testing.T) {
	nodes := startCluster(t, 3, func(i int, cfg *Config) {
		cfg.ModelLoader = stubLoader
	})
	model := fmt.Sprintf(`{"format":%q}`, sparse.CSR.String())
	status, raw, _ := postURL(t, nodes[0].url+cluster.ModelPath,
		ModelPushRequest{Model: json.RawMessage(model), Propagate: true})
	if status != http.StatusOK {
		t.Fatalf("push status %d: %s", status, raw)
	}
	var resp ModelPushResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Swapped || resp.Propagated != 2 {
		t.Fatalf("push response %+v, want swapped with 2 peers propagated", resp)
	}
	if !telemetry.ValidTraceID(resp.TraceID) {
		t.Fatalf("push response trace_id %q is not a valid trace id", resp.TraceID)
	}

	allThree := func(tr telemetry.TraceJSON) bool {
		ns := spanNodes(tr)
		return ns["n1"] && ns["n2"] && ns["n3"]
	}
	// Any ring member assembles the full three-node tree from the one id.
	for _, nd := range nodes {
		tr := getTrace(t, nd.url, resp.TraceID, allThree)
		if tr.Incomplete {
			t.Fatalf("assembly via %s incomplete on a healthy ring", nd.id)
		}
		var pushes, applies int
		for _, sp := range tr.Spans {
			switch sp.Name {
			case "cluster.model.push":
				pushes++
			case "model.apply":
				applies++
			}
		}
		if pushes != 2 || applies != 3 {
			t.Fatalf("via %s: %d cluster.model.push spans (want 2) and %d model.apply spans (want 3):\n%+v",
				nd.id, pushes, applies, tr.Spans)
		}
	}
}

// TestClusterForwardLoopAvertedJoinsSenderTrace pins the divergent-view
// guard: a request arriving with the forwarded marker for a key the local
// ring says someone else owns is decided locally (one hop, no loop), joins
// the sender's trace, and records a forward.loop_averted span naming the
// claimed owner — so membership skew shows up in traces, not in hop storms.
func TestClusterForwardLoopAvertedJoinsSenderTrace(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	nd := nodes[0]
	data, owner := remoteOwnedPayload(t, nd)
	pair, pairOwner := remoteOwnedPair(t, nd)
	for _, tc := range []struct {
		path  string
		body  any
		owner cluster.Member
	}{
		{"/v1/schedule", ScheduleRequest{Data: data}, owner},
		{"/v1/schedule/spgemm", pair, pairOwner},
	} {
		// Emulate a peer with a divergent ring view forwarding us a key we do
		// not own, propagating its trace context on the hop.
		tid := telemetry.NewTraceID()
		parent := telemetry.SpanWireID(tid, "n9", 0)
		raw, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, nd.url+tc.path, bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(cluster.ForwardedHeader, "n9")
		req.Header.Set(cluster.TraceHeader, tid)
		req.Header.Set(cluster.ParentHeader, parent)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: forwarded request status %d: %s", tc.path, resp.StatusCode, body)
		}
		// Both endpoints answer {"decision": {"trace_id", "trace", ...}}.
		var sched struct {
			Decision struct {
				TraceID string   `json:"trace_id"`
				Trace   []string `json:"trace"`
			} `json:"decision"`
		}
		if err := json.Unmarshal(body, &sched); err != nil {
			t.Fatal(err)
		}
		if sched.Decision.TraceID != tid {
			t.Fatalf("%s: decision trace_id %q, want the propagated sender trace %q (one trace across the hop)",
				tc.path, sched.Decision.TraceID, tid)
		}
		if got := nd.peers.Forwards(); got != 0 {
			t.Fatalf("%s: node re-forwarded a forwarded request %d times", tc.path, got)
		}
		if lines := strings.Join(sched.Decision.Trace, "\n"); !strings.Contains(lines, "loop averted") {
			t.Fatalf("%s: response trace does not mention the averted loop:\n%s", tc.path, lines)
		}

		// The local fragment links back to the sender's span and records the
		// averted loop with the claimed owner.
		tr := getTrace(t, nd.url, tid+"?scope=local", nil)
		if tr.RemoteParent != parent {
			t.Fatalf("%s: fragment remote_parent %q, want %q", tc.path, tr.RemoteParent, parent)
		}
		var averted *telemetry.SpanJSON
		for i, sp := range tr.Spans {
			if sp.Name == "forward.loop_averted" {
				averted = &tr.Spans[i]
			}
		}
		if averted == nil {
			t.Fatalf("%s: no forward.loop_averted span in the fragment: %+v", tc.path, tr.Spans)
		}
		wantAttr := "claimed_owner=" + tc.owner.ID
		found := false
		for _, a := range averted.AttrList {
			if a == wantAttr {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: loop_averted attrs %v, want %q", tc.path, averted.AttrList, wantAttr)
		}
	}
}

// TestClusterTraceAssemblyPartialOnHungPeer is the bounded-assembly
// satellite: when ring peers hang past the per-peer fetch timeout
// (serve.trace.delay failpoint), /v1/trace/{id} still answers within the
// request deadline with the local fragment, marked incomplete — never a
// hang, never a 5xx.
func TestClusterTraceAssemblyPartialOnHungPeer(t *testing.T) {
	nodes := startCluster(t, 3, func(i int, cfg *Config) {
		cfg.TraceFetchTimeout = 300 * time.Millisecond
		cfg.TraceFetchPeerTimeout = 100 * time.Millisecond
	})
	entry := nodes[0]
	data, owner := remoteOwnedPayload(t, entry)
	status, raw, _ := postURL(t, entry.url+"/v1/schedule", ScheduleRequest{Data: data})
	if status != http.StatusOK {
		t.Fatalf("schedule status %d: %s", status, raw)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	// Wait for the healthy assembly first, so the local fragment is
	// definitely stored before the peers start hanging.
	getTrace(t, entry.url, resp.Decision.TraceID, func(tr telemetry.TraceJSON) bool {
		return spanNodes(tr)[owner.ID]
	})

	// Every handleTrace in the process now sleeps well past the per-peer
	// timeout, so the entry node's peer fetches all time out.
	reg, err := fault.Parse("serve.trace.delay=400ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(reg)
	t.Cleanup(func() { fault.Enable(nil) })

	start := time.Now()
	httpResp, err := http.Get(entry.url + "/v1/trace/" + resp.Decision.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	elapsed := time.Since(start)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("trace with hung peers: status %d: %s", httpResp.StatusCode, body)
	}
	var tr telemetry.TraceJSON
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Incomplete {
		t.Fatalf("assembled trace not marked incomplete with every peer hung: %s", body)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("partial assembly dropped the local fragment")
	}
	// 400ms own-handler delay + 300ms overall fetch budget + slack: the
	// per-request deadline held, the handler did not wait out the peers'
	// full 400ms hangs serially.
	if elapsed > 2*time.Second {
		t.Fatalf("partial assembly took %v; the fetch deadline did not bound the hung peers", elapsed)
	}
}

// TestHealthzFlipsUnderFaultStorm drives the SLO layer end to end: healthy
// traffic reports ok, an injected serve.request fault storm burns the
// short availability window into degraded (long window still under the
// critical threshold), and once the windows age past the storm the verdict
// recovers to ok — all on an injected clock.
func TestHealthzFlipsUnderFaultStorm(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	s := newTestServer(t, Config{Policy: core.Hybrid, TopK: 2, SLONow: clock})
	h := s.Handler()
	data := makeLIBSVM(40, 30, 5, 77)

	health := func() slo.Health {
		req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var out slo.Health
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("healthz body: %v: %s", err, rec.Body)
		}
		return out
	}

	// Seed the long window with enough good traffic that a short storm
	// cannot push the long burn over the critical threshold: 500 good, 4
	// bad gives a long error ratio of ~0.8% = burn ~8 < 10.
	for i := 0; i < 500; i++ {
		w := post(t, h, "/v1/schedule", ScheduleRequest{Data: data})
		if w.Code != http.StatusOK {
			t.Fatalf("seed request %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	if got := health(); got.Status != slo.StateOK {
		t.Fatalf("healthy traffic reports %q, want ok: %+v", got.Status, got)
	}

	// Age the good traffic out of the 5m short window but not the 1h long
	// one, then storm: the next data-plane requests all 503.
	advance(10 * time.Minute)
	reg, err := fault.Parse("serve.request.err=1:4", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(reg)
	for i := 0; i < 4; i++ {
		w := post(t, h, "/v1/schedule", ScheduleRequest{Data: data})
		if w.Code < 500 {
			t.Fatalf("storm request %d: status %d, want an injected 5xx", i, w.Code)
		}
	}
	fault.Enable(nil)

	got := health()
	if got.Status != slo.StateDegraded {
		t.Fatalf("post-storm health %q, want degraded: %+v", got.Status, got)
	}
	var avail *slo.SLOHealth
	for i := range got.SLOs {
		if got.SLOs[i].Name == "availability" {
			avail = &got.SLOs[i]
		}
	}
	if avail == nil {
		t.Fatalf("no availability SLO in healthz detail: %+v", got)
	}
	if avail.Status != slo.StateDegraded || avail.BurnShort < slo.DefDegradedBurn {
		t.Fatalf("availability detail %+v, want degraded with short burn >= %g", avail, slo.DefDegradedBurn)
	}
	if avail.BurnLong >= slo.DefCriticalBurn {
		t.Fatalf("long burn %g crossed the critical threshold; the storm should only degrade", avail.BurnLong)
	}

	// Both windows age past the storm; fresh good traffic reads ok again.
	advance(2 * time.Hour)
	for i := 0; i < 10; i++ {
		if w := post(t, h, "/v1/schedule", ScheduleRequest{Data: data}); w.Code != http.StatusOK {
			t.Fatalf("recovery request %d: status %d", i, w.Code)
		}
	}
	if got := health(); got.Status != slo.StateOK {
		t.Fatalf("post-recovery health %q, want ok: %+v", got.Status, got)
	}
}
