package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// classKey is the shape-class key a server derives for inline rows under
// policy with the default top-k.
func classKey(tb testing.TB, rows, policy string) []byte {
	tb.Helper()
	sc := getScratch()
	defer putScratch(sc)
	feats, _, err := sc.parse([]byte(rows))
	if err != nil {
		tb.Fatal(err)
	}
	return AppendKey(nil, feats, policy, 0)
}

// rowsOfSize renders about size bytes of LIBSVM rows, 6 nonzeros a row over
// 40 columns.
func rowsOfSize(size int, seed int64) string {
	return makeLIBSVM(max(1, size/len(makeLIBSVM(1, 40, 6, seed))), 40, 6, seed)
}

// hopClient posts bodies to one node over its own keepalive connection.
type hopClient struct{ hc *http.Client }

func newHopClient() hopClient {
	return hopClient{&http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

func (c hopClient) post(tb testing.TB, url string, body []byte) []byte {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		tb.Fatalf("POST %s: %d %v %s", url, resp.StatusCode, err, reply)
	}
	return reply
}

// BenchmarkForwardHop prices the forward hop end to end on a three-node
// loopback ring: a /v1/schedule request sent to a node that does not own
// its shape class, with everything it costs in the process — the client's
// request, both nodes' handlers and every leg between them — per request,
// by body size (EXPERIMENTS.md, "The forward hop"). A hit is a class the
// owner has cached. A miss is one it has not: two classes with one owner
// take turns evicting each other from its one-entry cache, and its tuning
// history answers them again, so a miss pays the hop and no measurement.
// Replication is off, so no node holds a replica and nothing runs between
// requests.
func BenchmarkForwardHop(b *testing.B) {
	for _, kind := range []string{"hit", "miss"} {
		for _, kb := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/%dKB", kind, kb), func(b *testing.B) {
				nodes := startRing(b, 3, cluster.Options{DisableReplication: true}, func(i int, cfg *Config) {
					cfg.CacheShards, cfg.CacheCapacity = 1, 1
				})
				entry := nodes[0]
				var bodies [][]byte
				var owner cluster.Member
				var first []byte
				for seed := int64(1); len(bodies) < 2; seed++ {
					rows := rowsOfSize(kb<<10, seed)
					key := classKey(b, rows, "hybrid")
					m, remote := entry.peers.Route(key)
					if !remote || len(bodies) == 1 && (m.ID != owner.ID || bytes.Equal(key, first)) {
						continue
					}
					owner, first = m, key
					raw, err := json.Marshal(ScheduleRequest{Data: rows})
					if err != nil {
						b.Fatal(err)
					}
					bodies = append(bodies, raw)
				}
				cl := newHopClient()
				url := entry.url + "/v1/schedule"
				for _, body := range bodies { // first contact: measured on the owner
					cl.post(b, url, body)
				}
				if kind == "hit" {
					bodies = bodies[:1]
					cl.post(b, url, bodies[0])
					if reply := cl.post(b, url, bodies[0]); !bytes.Contains(reply, []byte(`"source":"cache"`)) {
						b.Fatalf("a warmed class was not a hit: %s", reply)
					}
				}
				b.SetBytes(int64(len(bodies[0])))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cl.post(b, url, bodies[i%len(bodies)])
				}
			})
		}
	}
}

// nodeByID returns the ring node called id.
func nodeByID(t *testing.T, nodes []*clusterNode, id string) *clusterNode {
	t.Helper()
	for _, nd := range nodes {
		if nd.id == id {
			return nd
		}
	}
	t.Fatalf("no node %s", id)
	return nil
}

// postOK posts body to url and returns the 200 reply.
func postOK(t *testing.T, url string, body any) []byte {
	t.Helper()
	status, raw, _ := postURL(t, url, body)
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, status, raw)
	}
	return raw
}

// TestForwardedHitMatchesOwner: a class its owner has cached is answered on
// the forwarder, from the owner's verdict and the forwarder's own parse, and
// the decision matches the one the owner answers its own hit with on every
// field but trace and trace_id — on /v1/schedule, in a batch slot and on
// /v1/schedule/spgemm. The forwarder keeps nothing of it: its caches stay
// empty and it measures nothing.
func TestForwardedHitMatchesOwner(t *testing.T) {
	nodes := startRing(t, 3, cluster.Options{DisableReplication: true}, nil)
	entry := nodes[0]
	rows, owner := remoteOwnedPayload(t, entry)
	pair, pairOwner := remoteOwnedPair(t, entry)
	masked := func(t *testing.T, path string, raw []byte) any {
		t.Helper()
		switch path {
		case "/v1/schedule":
			var resp ScheduleResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			resp.Decision.Trace, resp.Decision.TraceID = nil, ""
			return resp.Decision
		case "/v1/schedule/batch":
			var resp BatchScheduleResponse
			if err := json.Unmarshal(raw, &resp); err != nil || len(resp.Decisions) != 1 || resp.Decisions[0].Decision == nil {
				t.Fatalf("batch reply %s (%v)", raw, err)
			}
			d := resp.Decisions[0].Decision
			d.Trace, d.TraceID = nil, ""
			return *d
		default:
			var resp SpGEMMResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			resp.Decision.Trace, resp.Decision.TraceID = nil, ""
			return resp.Decision
		}
	}
	for _, tc := range []struct {
		name, path string
		body       any
		owner      cluster.Member
	}{
		{"schedule", "/v1/schedule", ScheduleRequest{Data: rows}, owner},
		{"batch item", "/v1/schedule/batch", BatchScheduleRequest{Items: []ScheduleRequest{{Data: rows}}}, owner},
		{"spgemm", "/v1/schedule/spgemm", pair, pairOwner},
	} {
		t.Run(tc.name, func(t *testing.T) {
			own := nodeByID(t, nodes, tc.owner.ID)
			postOK(t, own.url+tc.path, tc.body) // first contact, or already cached
			local := postOK(t, own.url+tc.path, tc.body)
			forwards := entry.peers.Forwards()
			forwarded := postOK(t, entry.url+tc.path, tc.body)
			if got := entry.peers.Forwards(); got != forwards+1 {
				t.Fatalf("%d forwards for one request: the class was not routed", got-forwards)
			}
			if !bytes.Contains(forwarded, []byte(`"source":"cache"`)) || bytes.Contains(forwarded, []byte(`"error"`)) {
				t.Fatalf("forwarded reply is no cache hit: %s", forwarded)
			}
			// A batch slot carries no trace lines; that the owner did not
			// render it shows in the estimates its single reply would hold.
			if tc.path != "/v1/schedule/batch" && !bytes.Contains(forwarded, []byte("answered from its cache")) {
				t.Fatalf("the owner did not answer the lookup: %s", forwarded)
			}
			want := masked(t, tc.path, local)
			if got := masked(t, tc.path, forwarded); !equalJSON(t, got, want) {
				t.Fatalf("forwarded decision differs from the owner's own hit\nforwarded: %s\n    owner: %s", forwarded, local)
			}
			if req, ok := tc.body.(BatchScheduleRequest); ok {
				// In process the owner's rendered evidence is decoded into rows.
				in := entry.srv.ScheduleBatch(context.Background(), &req)
				if len(in.Decisions) != 1 || in.Decisions[0].Decision == nil || len(in.Decisions[0].Decision.Measured) == 0 ||
					!equalJSON(t, *in.Decisions[0].Decision, want) {
					t.Fatalf("ScheduleBatch answered %+v, the owner %+v", in.Decisions, want)
				}
			}
		})
	}
	if cached(entry.srv.smsv.cache) != 0 || cached(entry.srv.pair.cache) != 0 || entry.srv.Measurements() != 0 || entry.srv.SpGEMMMeasurements() != 0 {
		t.Fatalf("the forwarder cached %d + %d owner answers and measured %d + %d classes",
			cached(entry.srv.smsv.cache), cached(entry.srv.pair.cache), entry.srv.Measurements(), entry.srv.SpGEMMMeasurements())
	}
}

// closeConn answers a request by dropping its connection: a peer that died
// mid-hop.
func closeConn(w http.ResponseWriter) {
	conn, _, err := w.(http.Hijacker).Hijack()
	if err != nil {
		panic(err)
	}
	conn.Close()
}

// TestForwardCountsOneForward: a routed request is one forward, one
// forwarded serve on the owner that answers it and at most one forward
// error, however many legs it takes, as each node's /metrics reports them —
// ring_mixed compares the nodes' forward count with the harness's own
// routing to within 2 % of ops, and a miss counted twice would be 6.7 %
// over. Each case runs on a fresh two-node ring.
func TestForwardCountsOneForward(t *testing.T) {
	for _, tc := range []struct {
		name  string
		warm  bool // the owner has the class cached
		front func(w http.ResponseWriter, r *http.Request, next http.Handler)
		// served is the owner's forwarded serves; a fallback means the
		// entry decided alone, its forward counted as an error.
		served   int64
		fallback bool
		line     string // the reply's trace line about the hop
	}{
		{name: "hit", warm: true, served: 1, line: "answered from its cache"},
		{name: "miss", served: 1},
		{name: "owner down at the lookup", fallback: true, line: "unreachable, deciding locally",
			front: func(w http.ResponseWriter, r *http.Request, next http.Handler) { closeConn(w) }},
		{name: "owner down at the rows leg", fallback: true, line: "unreachable, deciding locally",
			front: func(w http.ResponseWriter, r *http.Request, next http.Handler) {
				if r.URL.Path == cluster.LookupPath {
					next.ServeHTTP(w, r)
					return
				}
				closeConn(w)
			}},
		{name: "owner answers a verdict this build cannot read", served: 1,
			front: func(w http.ResponseWriter, r *http.Request, next http.Handler) {
				if r.URL.Path == cluster.LookupPath {
					w.Write([]byte(`{"candidate":"HYB/static/base","source":"measured"}` + "\n"))
					return
				}
				next.ServeHTTP(w, r)
			}},
		{name: "owner without the lookup route", served: 1,
			front: func(w http.ResponseWriter, r *http.Request, next http.Handler) {
				if r.URL.Path == cluster.LookupPath {
					http.NotFound(w, r)
					return
				}
				next.ServeHTTP(w, r)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := startRing(t, 2, cluster.Options{DisableReplication: true}, nil)
			entry, owner := nodes[0], nodes[1]
			rows, m := remoteOwnedPayload(t, entry)
			if m.ID != owner.id {
				t.Fatalf("class routed to %s", m.ID)
			}
			if tc.warm {
				postOK(t, owner.url+"/v1/schedule", ScheduleRequest{Data: rows})
			}
			if tc.front != nil {
				owner.front.Store(&tc.front)
			}
			raw := postOK(t, entry.url+"/v1/schedule", ScheduleRequest{Data: rows})
			var resp ScheduleResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			if lines := strings.Join(resp.Decision.Trace, "\n"); tc.line != "" && !strings.Contains(lines, tc.line) {
				t.Errorf("trace does not say %q:\n%s", tc.line, lines)
			}
			errs := int64(0)
			if tc.fallback {
				errs = 1
			}
			for _, c := range []struct {
				what      string
				got, want int64
			}{
				{"entry forwards", metricValue(t, entry, "layoutd_cluster_forwards_total"), 1},
				{"entry forward errors", metricValue(t, entry, "layoutd_cluster_forward_errors_total"), errs},
				{"owner forwarded serves", metricValue(t, owner, "layoutd_cluster_forwarded_served_total"), tc.served},
				{"entry forwarded serves", metricValue(t, entry, "layoutd_cluster_forwarded_served_total"), 0},
				{"owner forwards", metricValue(t, owner, "layoutd_cluster_forwards_total"), 0},
				{"owner forward errors", metricValue(t, owner, "layoutd_cluster_forward_errors_total"), 0},
			} {
				if c.got != c.want {
					t.Errorf("%s = %d, want %d", c.what, c.got, c.want)
				}
			}
		})
	}
}

// lookupReplies returns the golden lookup answers: the SMSV verdict, then
// the SpGEMM one.
func lookupReplies(tb testing.TB) (smsv, pair []byte) {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "lookup_reply.json"))
	if err != nil {
		tb.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 2 {
		tb.Fatalf("%d golden lookup replies, want 2", len(lines))
	}
	return lines[0], lines[1]
}

// TestLookupHitRebuildAllocs bounds the forwarder's share of a forwarded
// hit, ring_mixed's commonest path: decoding the owner's verdict and
// rebuilding the entry it answers from, for both workloads. 11 objects is
// what the two per-workload rebuilds cost before they were folded into one.
func TestLookupHitRebuildAllocs(t *testing.T) {
	s := newTestServer(t, Config{})
	smsv, pair := lookupReplies(t)
	for name, rebuild := range map[string]func() error{
		"smsv": func() error { _, err := s.smsv.fromWire(smsv); return err },
		"pair": func() error { _, err := s.pair.fromWire(pair); return err },
	} {
		if err := rebuild(); err != nil {
			t.Fatalf("%s: golden lookup reply rejected: %v", name, err)
		}
		if allocs := testing.AllocsPerRun(200, func() { rebuild() }); allocs > 11 {
			t.Errorf("%s: lookup-hit rebuild allocates %.1f objects, want at most 11", name, allocs)
		}
	}
}
