package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// twoNodeRing builds a ring of the local node plus one peer answering at
// the test server's URL, so the successor of "self" is always the peer.
func twoNodeRing(peerAddr string) *Ring {
	return NewRing(16,
		Member{ID: "self", Addr: "http://unused.invalid"},
		Member{ID: "peer", Addr: peerAddr},
	)
}

func TestReplicatorGossipsBatches(t *testing.T) {
	var mu sync.Mutex
	var got []ReplEntry
	var froms []string
	posts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != ReplicatePath {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		var p ReplicatePayload
		if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
			t.Errorf("decode: %v", err)
		}
		mu.Lock()
		got = append(got, p.Entries...)
		froms = append(froms, p.From, r.Header.Get(ForwardedHeader))
		posts++
		mu.Unlock()
		json.NewEncoder(w).Encode(ReplicateResponse{Applied: len(p.Entries)})
	}))
	defer srv.Close()

	repl := NewReplicator(twoNodeRing(srv.URL), NewClient(ClientOptions{}), "self",
		ReplicatorOptions{BatchSize: 4, Interval: 10 * time.Millisecond})
	for i := 0; i < 10; i++ {
		if !repl.Enqueue(ReplEntry{Kind: KindDecision, Key: "k", Payload: json.RawMessage(`{}`)}) {
			t.Fatal("enqueue rejected with room in the queue")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip delivered %d/10 entries", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	repl.Stop()
	mu.Lock()
	defer mu.Unlock()
	for _, f := range froms {
		if f != "self" {
			t.Fatalf("payload/header From = %q, want self", f)
		}
	}
	st := repl.Stats()
	if st.Enqueued != 10 || st.Sent != 10 || st.Dropped != 0 || posts < 3 {
		t.Fatalf("stats %+v over %d posts, want 10 sent in batches of at most 4", st, posts)
	}
}

func TestReplicatorDropsWhenFull(t *testing.T) {
	// Enqueue behavior is what is under test, so the gossip loop must not
	// drain the queue while it fills: a batch of one sends the first entry at
	// once, to a peer that holds the flush until the test is done.
	flushing, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		first.Do(func() { close(flushing) })
		<-release
	}))
	defer srv.Close()
	repl := NewReplicator(twoNodeRing(srv.URL), NewClient(ClientOptions{}), "self",
		ReplicatorOptions{QueueSize: 2, BatchSize: 1, Interval: time.Hour})
	defer repl.Stop()
	defer close(release)
	if !repl.Enqueue(ReplEntry{Kind: KindHistory}) {
		t.Fatal("enqueue rejected into an empty queue")
	}
	<-flushing
	accepted := 0
	for i := 0; i < 10; i++ {
		if repl.Enqueue(ReplEntry{Kind: KindHistory}) {
			accepted++
		}
	}
	st := repl.Stats()
	if accepted != 2 || st.Dropped != 8 {
		t.Fatalf("accepted %d dropped %d, want 2/8", accepted, st.Dropped)
	}
}

func TestReplicatorStopFlushes(t *testing.T) {
	var mu sync.Mutex
	delivered := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var p ReplicatePayload
		json.NewDecoder(r.Body).Decode(&p)
		mu.Lock()
		delivered += len(p.Entries)
		mu.Unlock()
		json.NewEncoder(w).Encode(ReplicateResponse{Applied: len(p.Entries)})
	}))
	defer srv.Close()
	repl := NewReplicator(twoNodeRing(srv.URL), NewClient(ClientOptions{}), "self",
		ReplicatorOptions{BatchSize: 64, Interval: time.Hour})
	for i := 0; i < 5; i++ {
		repl.Enqueue(ReplEntry{Kind: KindDecision, Key: "k"})
	}
	repl.Stop() // interval never fires; Stop must flush
	mu.Lock()
	defer mu.Unlock()
	if delivered != 5 {
		t.Fatalf("Stop flushed %d/5 entries", delivered)
	}
}

func TestReplicatorSingleNodeNoop(t *testing.T) {
	ring := NewRing(16, Member{ID: "self", Addr: "http://unused.invalid"})
	repl := NewReplicator(ring, NewClient(ClientOptions{}), "self",
		ReplicatorOptions{BatchSize: 2, Interval: 5 * time.Millisecond})
	repl.Enqueue(ReplEntry{Kind: KindDecision})
	time.Sleep(20 * time.Millisecond)
	repl.Stop()
	if st := repl.Stats(); st.Sent != 0 {
		t.Fatalf("single-node gossip stats %+v, want nothing sent", st)
	}
}
