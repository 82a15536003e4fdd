package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// The fixtures under testdata/golden pin the wire bytes the serving layer
// emits: one gossip payload carrying all four replication kinds, and the
// measured and cache-hit responses of the three schedule endpoints. They
// were generated from the twin SMSV/SpGEMM code paths before the generic
// decide pipeline replaced them. Regenerate with `go test -run Golden
// -update` only for an intentional wire change.
var update = flag.Bool("update", false, "rewrite golden fixtures")

func assertGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := "testdata/golden/" + name
	if *update {
		if err := os.MkdirAll("testdata/golden", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: bytes differ from the fixture\n got: %s\nwant: %s", path, got, want)
	}
	return want
}

// goldenConfig measures exactly one candidate (hybrid, top-1), so which
// candidate wins — and therefore every byte but the timings — is decided by
// the cost model, not by the clock.
func goldenConfig() Config {
	return Config{Policy: core.Hybrid, TopK: 1, TrialRows: 4, Repeats: 1}
}

// Timings and trace ids are the only run-dependent bytes in a response.
var (
	maskTraceID = regexp.MustCompile(`"trace_id":"[0-9a-f]+"`)
	maskNanos   = regexp.MustCompile(`"nanos":[0-9]+`)
	maskMillis  = regexp.MustCompile(`"millis":[0-9.e+-]+`)
)

func maskResponse(raw []byte) []byte {
	raw = maskTraceID.ReplaceAll(raw, []byte(`"trace_id":"MASKED"`))
	raw = maskNanos.ReplaceAll(raw, []byte(`"nanos":0`))
	return maskMillis.ReplaceAll(raw, []byte(`"millis":0`))
}

func TestGoldenScheduleResponses(t *testing.T) {
	s := newTestServer(t, goldenConfig())
	h := s.Handler()
	single := ScheduleRequest{Data: makeLIBSVM(24, 18, 4, 11)}
	batch := BatchScheduleRequest{Items: []ScheduleRequest{
		{Data: makeLIBSVM(60, 40, 5, 12)},
		{Profile: &FeaturesJSON{M: 512, N: 512, NNZ: 1534, Ndig: 3, Dnnz: 511.3, Mdim: 3, Adim: 2.996, Vdim: 0.004, Density: 0.00585}},
	}}
	pair := conformablePair(40, 32, 24, 13)
	for _, tc := range []struct {
		path, name string
		body       any
	}{
		{"/v1/schedule", "schedule", single},
		{"/v1/schedule/batch", "batch", batch},
		{"/v1/schedule/spgemm", "spgemm", pair},
	} {
		for _, phase := range []string{"measured", "hit"} {
			w := post(t, h, tc.path, tc.body)
			if w.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", tc.path, phase, w.Code, w.Body)
			}
			assertGolden(t, tc.name+"_"+phase+".json", maskResponse(w.Body.Bytes()))
		}
	}
}

// TestGoldenReplicatePayload captures the gossip envelope a node sends its
// ring successor after one measured SMSV decision and one measured SpGEMM
// decision — decision, history, spgemm-decision and spgemm-history entries
// in one payload — and checks a fresh node applies the fixture.
func TestGoldenReplicatePayload(t *testing.T) {
	captured := make(chan []byte, 1)
	successor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cluster.ReplicatePath {
			body, _ := io.ReadAll(r.Body)
			captured <- body
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"applied":0,"skipped":0}`)
	}))
	defer successor.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	members := []cluster.Member{
		{ID: "n1", Addr: "http://" + ln.Addr().String()},
		{ID: "n2", Addr: successor.URL},
	}
	// An hour-long flush interval: the only flush is Stop's final drain, so
	// all four entries ride one envelope.
	peers, err := cluster.NewPeers("n1", members, cluster.Options{
		Replication: cluster.ReplicatorOptions{Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenConfig()
	cfg.Cluster = peers
	s := newTestServer(t, cfg)
	hs := &httptest.Server{Listener: ln, Config: &http.Server{Handler: s.Handler()}}
	hs.Start()
	defer hs.Close()

	single := ScheduleRequest{Data: makeLIBSVM(24, 18, 4, 11)}
	pair := conformablePair(40, 32, 24, 13)
	// The forwarded marker makes n1 decide locally whatever its ring says.
	postForwarded := func(path string, body any) {
		t.Helper()
		raw, _ := json.Marshal(body)
		req, _ := http.NewRequest(http.MethodPost, hs.URL+path, bytes.NewReader(raw))
		req.Header.Set(cluster.ForwardedHeader, "n2")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, out)
		}
	}
	postForwarded("/v1/schedule", single)
	postForwarded("/v1/schedule/spgemm", pair)
	peers.Stop()
	var payload []byte
	select {
	case payload = <-captured:
	case <-time.After(5 * time.Second):
		t.Fatal("successor never received the gossip flush")
	}
	fixture := assertGolden(t, "replicate_payload.json", payload)

	// A fresh single-node-ring receiver applies all four kinds.
	rpeers, err := cluster.NewPeers("n2", members[1:], cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rpeers.Stop()
	rcfg := goldenConfig()
	rcfg.Cluster = rpeers
	recv := newTestServer(t, rcfg)
	rh := recv.Handler()
	req := httptest.NewRequest(http.MethodPost, cluster.ReplicatePath, bytes.NewReader(fixture))
	w := httptest.NewRecorder()
	rh.ServeHTTP(w, req)
	var ack cluster.ReplicateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil || ack.Applied != 4 || ack.Skipped != 0 {
		t.Fatalf("apply ack %s (err %v), want 4 applied, 0 skipped", w.Body, err)
	}
	if recv.cfg.History.Len() != 1 || recv.cfg.PairHistory.Len() != 1 {
		t.Fatalf("history lens %d/%d after apply, want 1/1", recv.cfg.History.Len(), recv.cfg.PairHistory.Len())
	}
	if d := decodeSchedule(t, post(t, rh, "/v1/schedule", single)).Decision; d.Source != "cache" {
		t.Fatalf("replicated SMSV decision served from %q, want cache", d.Source)
	}
	if d := decodeSpGEMM(t, post(t, rh, "/v1/schedule/spgemm", pair)).Decision; d.Source != "cache" {
		t.Fatalf("replicated SpGEMM decision served from %q, want cache", d.Source)
	}
	if recv.Measurements() != 0 || recv.SpGEMMMeasurements() != 0 {
		t.Fatal("receiver measured despite the replicated decisions")
	}
}

// TestGoldenLookup pins a forward's lookup leg on the wire, one line per
// workload: the body the forwarder sends — the shape-class key it built —
// and the verdict an owner that has the class cached answers with. A class
// the owner has not cached answers 404, and a key of no known version 400.
func TestGoldenLookup(t *testing.T) {
	peers, err := cluster.NewPeers("n1", []cluster.Member{{ID: "n1", Addr: "http://127.0.0.1:1"}},
		cluster.Options{DisableReplication: true})
	if err != nil {
		t.Fatal(err)
	}
	defer peers.Stop()
	cfg := goldenConfig()
	cfg.Cluster = peers
	s := newTestServer(t, cfg)
	h := s.Handler()
	single := ScheduleRequest{Data: makeLIBSVM(24, 18, 4, 11)}
	pair := conformablePair(40, 32, 24, 13)
	decodeSchedule(t, post(t, h, "/v1/schedule", single))
	decodeSpGEMM(t, post(t, h, "/v1/schedule/spgemm", pair))

	sc := getScratch()
	defer putScratch(sc)
	feats, _, err := sc.parse([]byte(single.Data))
	if err != nil {
		t.Fatal(err)
	}
	fa, aerr := sc.parseOperand("a", []byte(pair.A))
	fb, berr := sc.parseOperand("b", []byte(pair.B))
	if aerr != nil || berr != nil {
		t.Fatal(aerr, berr)
	}
	lookup := func(key []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, cluster.LookupPath, bytes.NewReader(appendLookupBody(nil, key))))
		return w
	}
	var requests, replies []byte
	for _, key := range [][]byte{AppendKey(nil, feats, "hybrid", 1), AppendPairKey(nil, fa, fb, "hybrid", 1)} {
		requests = append(appendLookupBody(requests, key), '\n')
		w := lookup(key)
		if w.Code != http.StatusOK {
			t.Fatalf("lookup %s: %d %s", key, w.Code, w.Body)
		}
		replies = append(replies, maskResponse(w.Body.Bytes())...)
	}
	assertGolden(t, "lookup_request.json", requests)
	assertGolden(t, "lookup_reply.json", replies)

	if w := lookup(AppendKey(nil, feats, "empirical", 1)); w.Code != http.StatusNotFound || w.Body.String() != string(lookupMiss) {
		t.Fatalf("uncached class: %d %s", w.Code, w.Body)
	}
	if w := lookup([]byte("v9|hybrid/1|1,2,3")); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown key version: %d %s", w.Code, w.Body)
	}
	if got := s.forwardedServed.Load(); got != 2 {
		t.Fatalf("%d forwarded serves for 2 answered lookups", got)
	}
}
