package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestClientBreakerFailsFastAndRecovers(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	c := NewClient(ClientOptions{BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond})
	ctx := context.Background()
	// Two 5xx responses trip the breaker.
	for i := 0; i < 2; i++ {
		if _, _, err := c.Post(ctx, srv.URL, "/x", "self", nil); err == nil {
			t.Fatal("5xx did not error")
		}
	}
	if st := c.breakerFor(srv.URL).State().String(); st != "open" {
		t.Fatalf("breaker %s after threshold failures", st)
	}
	before := hits.Load()
	if _, _, err := c.Post(ctx, srv.URL, "/x", "self", nil); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("open breaker returned %v, want ErrPeerDown", err)
	}
	if hits.Load() != before {
		t.Fatal("open breaker still dialed the peer")
	}
	// After the cooldown a probe goes through; success closes the breaker.
	failing.Store(false)
	time.Sleep(60 * time.Millisecond)
	status, _, err := c.Post(ctx, srv.URL, "/x", "self", nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("probe: status %d err %v", status, err)
	}
	if st := c.breakerFor(srv.URL).State().String(); st != "closed" {
		t.Fatalf("breaker %s after successful probe", st)
	}
	if c.breakerFor(srv.URL).Opens() != 1 {
		t.Fatalf("opens %d, want 1", c.breakerFor(srv.URL).Opens())
	}
}

func TestClientPostSetsForwardedHeader(t *testing.T) {
	var gotHeader, gotBody string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader = r.Header.Get(ForwardedHeader)
		buf := make([]byte, 64)
		n, _ := r.Body.Read(buf)
		gotBody = string(buf[:n])
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"nope"}`))
	}))
	defer srv.Close()
	c := NewClient(ClientOptions{})
	status, data, err := c.Post(context.Background(), srv.URL, "/v1/schedule", "n1", []byte(`{"a":1}`))
	if err != nil {
		t.Fatalf("4xx must not error (it is the request's fault): %v", err)
	}
	if status != http.StatusBadRequest || !strings.Contains(string(data), "nope") {
		t.Fatalf("status %d body %q", status, data)
	}
	if gotHeader != "n1" || gotBody != `{"a":1}` {
		t.Fatalf("header %q body %q", gotHeader, gotBody)
	}
	if st := c.breakerFor(srv.URL).State().String(); st != "closed" {
		t.Fatalf("4xx moved the breaker to %s", st)
	}
}

// TestClientPostWireAndAllocs: a Post sent from a shared template puts the
// same request on the wire as one built afresh the way every Post used to be
// — NewRequestWithContext plus a Header.Set per header — traced or not, on
// first use of a path and on reuse; and building it costs a bounded handful
// of objects where the fresh build cost 11.
func TestClientPostWireAndAllocs(t *testing.T) {
	dumps := make(chan string, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dump, err := httputil.DumpRequest(r, true)
		if err != nil {
			t.Error(err)
		}
		dumps <- string(dump)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	c := NewClient(ClientOptions{})
	body := []byte(`{"key":"v2|hybrid/0|1,2,3"}`)
	traced, _, _ := telemetry.NewTrace(context.Background(), "forward")
	tid, sid, _ := telemetry.ContextTraceParent(traced)

	fresh := func(ctx context.Context) string {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+LookupPath, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(ForwardedHeader, "n1")
		if ctx != context.Background() {
			req.Header.Set(TraceHeader, tid)
			req.Header.Set(ParentHeader, sid)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return <-dumps
	}
	for _, ctx := range []context.Context{context.Background(), traced, traced, context.Background()} {
		want := fresh(ctx)
		status, data, err := c.Post(ctx, srv.URL, LookupPath, "n1", body)
		if err != nil || status != http.StatusOK || string(data) != `{"ok":true}` {
			t.Fatalf("Post: %d %q %v", status, data, err)
		}
		if got := <-dumps; got != want {
			t.Fatalf("on the wire:\n%s\nbuilt afresh:\n%s", got, want)
		}
	}

	_, tmpl, err := c.postTemplate(srv.URL, LookupPath, "n1")
	if err != nil {
		t.Fatal(err)
	}
	for name, bound := range map[string]float64{"untraced": 3, "traced": 6} {
		ctx := context.Background()
		if name == "traced" {
			ctx = traced
		}
		allocs := testing.AllocsPerRun(200, func() { newPost(ctx, tmpl, body) })
		t.Logf("%s: %.0f allocations", name, allocs)
		if allocs > bound {
			t.Errorf("building a %s Post allocates %.0f objects, want at most %.0f", name, allocs, bound)
		}
	}
}

func TestClientTransportErrorCounts(t *testing.T) {
	c := NewClient(ClientOptions{BreakerThreshold: 1, Timeout: 200 * time.Millisecond})
	// Unroutable port: connection refused.
	if _, _, err := c.Post(context.Background(), "http://127.0.0.1:1", "/x", "", nil); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if st := c.breakerFor("http://127.0.0.1:1").State().String(); st != "open" {
		t.Fatalf("breaker %s after dial failure with threshold 1", st)
	}
}
