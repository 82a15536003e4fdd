package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/learn"
	"repro/internal/serve"
)

// ring_mixed: three in-process nodes on loopback with default vnodes and
// replication on; targets go round-robin, so a request lands on its shape
// class's owner, on the owner's successor (which holds a gossiped replica)
// or on the third node, which forwards it one hop. 90 % of ops read warmed
// Zipf classes, 10 % bring a never-seen shape (measure or history reuse ->
// harvest -> gossip), and a control goroutine keeps swapping the predictor
// ring-wide. It is the only workload where cluster does work, and the one
// where serve's cache and predictor take writes beside the reads.
const (
	ringNodes      = 3
	ringClasses    = 128
	ringFreshShare = 0.10
	// ringFreshPerSec never-seen shapes are generated per second of load.
	// The quiet reference box consumes 600 a second (10 % of 6000 ops/s);
	// a host more than twice as fast trips the guard that names this
	// constant instead of silently re-sending shapes.
	ringFreshPerSec = 1200
	// ringMinForward guards the hop: with replication on, the owner and
	// its successor answer locally, so one target in three forwards a
	// warmed class and two in three forward a never-seen one.
	ringMinForward = 0.25
	modelPushEvery = 2 * time.Second
	ringTrainSet   = 32 // measured shapes behind each pushed forest
)

type ringInstance struct {
	nodes   []*node
	members []cluster.Member
	clients []*httpClient
	reqs    []*request // warmed classes first, then the never-seen pool
	holders [][2]int8  // per request: owner and the successor holding its replica
	classes int
	seqs    [][]int32 // per client: op sequence as indices into reqs
	pos     []int     // per client: ops sent so far, across windows

	models   [2][]byte // the two /v1/cluster/model bodies pushed alternately
	trainMs  float64   // learn.Train of one forest during set-up
	stop     chan struct{}
	pusher   sync.WaitGroup
	mu       sync.Mutex
	pushes   []time.Duration
	pushErrs []string
}

// ringSequence draws n ops: a Zipf class with probability 1-fresh,
// otherwise the client's next never-seen request.
func ringSequence(rng *rand.Rand, n, classes int, fresh []int32) []int32 {
	z := rand.NewZipf(rng, zipfS, 1, uint64(classes-1))
	seq := make([]int32, n)
	next := 0
	for i := range seq {
		if rng.Float64() < ringFreshShare && len(fresh) > 0 {
			seq[i] = fresh[next%len(fresh)]
			next++
		} else {
			seq[i] = int32(z.Uint64())
		}
	}
	return seq
}

func ringRequests(seed int64, p params) (reqs []*request, classes int, err error) {
	classes = p.of(ringClasses)
	fresh := max(int(p.seconds*ringFreshPerSec), 8) // sized by time, whatever the deck scale
	seen := map[string]bool{}
	warm, err := distinctShapes("ring/classes", streamRNG(seed, "ring/classes"), classes, 2<<10, 8<<10, seen)
	if err != nil {
		return nil, 0, err
	}
	cold, err := distinctShapes("ring/fresh", streamRNG(seed, "ring/fresh"), fresh, 1<<10, 4<<10, seen)
	if err != nil {
		return nil, 0, err
	}
	for _, mx := range append(warm, cold...) {
		reqs = append(reqs, scheduleRequest(mx, ""))
	}
	return reqs, classes, nil
}

// trainForests measure-labels a few of the shapes and fits two forests
// from them (different bagging seeds), returning their push bodies.
func trainForests(seed int64, reqs []*request) (models [2][]byte, trainMs float64, err error) {
	var labeled []learn.Labeled
	for i := 0; i < len(reqs) && len(labeled) < ringTrainSet; i++ {
		b, _, err := parseOperand(reqs[i].operands[0].data)
		if err != nil {
			return models, 0, err
		}
		l, err := learn.Measure(context.Background(), b, exec.Default(), seed+int64(i))
		if err != nil {
			return models, 0, err
		}
		labeled = append(labeled, l)
	}
	for k := range models {
		t0 := time.Now()
		f, err := learn.Train(learn.Examples(labeled), learn.TrainConfig{Seed: seed + int64(k) + 1})
		if err != nil {
			return models, 0, err
		}
		trainMs = ms(time.Since(t0))
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			return models, 0, err
		}
		models[k] = mustJSON(serve.ModelPushRequest{Model: buf.Bytes(), Kind: serve.ModelKindSMSV, Propagate: true})
	}
	return models, trainMs, nil
}

func setupRing(seed int64, p params) (instance, error) {
	reqs, classes, err := ringRequests(seed, p)
	if err != nil {
		return nil, err
	}
	r := &ringInstance{reqs: reqs, classes: classes, stop: make(chan struct{})}
	if r.models, r.trainMs, err = trainForests(seed, reqs); err != nil {
		return nil, err
	}
	// Bind every listener before any Peers exists: each node's ring must
	// hold every member's address from the start.
	lns := make([]net.Listener, ringNodes)
	for i := range lns {
		if lns[i], err = listen(); err != nil {
			return nil, err
		}
		r.members = append(r.members, cluster.Member{ID: fmt.Sprintf("n%d", i+1), Addr: "http://" + lns[i].Addr().String()})
	}
	for i := range lns {
		peers, err := cluster.NewPeers(r.members[i].ID, r.members, cluster.Options{})
		if err != nil {
			return nil, err
		}
		r.nodes = append(r.nodes, startNode(r.members[i].ID, lns[i], peers))
	}
	index := map[string]int8{}
	for i, m := range r.members {
		index[m.ID] = int8(i)
	}
	ring := r.nodes[0].peers.Ring()
	for _, rq := range reqs {
		owner, _ := ring.Owner([]byte(serve.Key(rq.operands[0].feats, rq.policy, 0)))
		succ, _ := ring.Successor(owner.ID)
		r.holders = append(r.holders, [2]int8{index[owner.ID], index[succ.ID]})
	}
	clients := numClients()
	freshPer := (len(reqs) - classes) / clients
	for c := 0; c < clients; c++ {
		r.clients = append(r.clients, newHTTPClient())
		fresh := make([]int32, freshPer)
		for k := range fresh {
			fresh[k] = int32(classes + c*freshPer + k)
		}
		n := int(float64(freshPer)/ringFreshShare) + 1
		r.seqs = append(r.seqs, ringSequence(streamRNG(seed, fmt.Sprintf("ring/seq/%d", c)), n, classes, fresh))
	}
	r.pos = make([]int, clients)
	// Warm every class through every node, owner first so that the two
	// others meet a decided class, then let the gossip land the replicas.
	for ref := 0; ref < classes; ref++ {
		own := int(r.holders[ref][0])
		for k := 0; k < ringNodes; k++ {
			if o := send(r.clients[0], r.nodes[(own+k)%ringNodes].url, reqs[ref], ref, true); o.err != "" {
				r.Close()
				return nil, fmt.Errorf("ring_mixed warm-up of class %d: %s", ref, o.err)
			}
		}
	}
	if err := r.awaitReplicas(); err != nil {
		r.Close()
		return nil, err
	}
	r.pusher.Add(1)
	go r.pushModels()
	return r, nil
}

// awaitReplicas waits until every node's gossip queue has drained.
func (r *ringInstance) awaitReplicas() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		pending := int64(0)
		for _, n := range r.nodes {
			st := n.peers.ReplicatorStats()
			pending += st.Enqueued - st.Sent - st.Dropped
		}
		if pending <= 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ring_mixed: %d gossip entries still queued after 10s", pending)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// pushModels is the control plane: it alternates the two forests into n1
// with propagate set, so every push swaps the predictor on all three
// nodes under live traffic. Pushes are not ops; a failed one fails the run.
func (r *ringInstance) pushModels() {
	defer r.pusher.Done()
	cl := newHTTPClient()
	defer cl.close()
	tick := time.NewTicker(modelPushEvery)
	defer tick.Stop()
	for k := 0; ; k++ {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
		status, reply, _, lat, err := cl.post(r.nodes[0].url+cluster.ModelPath, r.models[k%2])
		r.mu.Lock()
		switch {
		case err != nil:
			r.pushErrs = append(r.pushErrs, err.Error())
		case status != http.StatusOK:
			r.pushErrs = append(r.pushErrs, fmt.Sprintf("status %d: %s", status, firstLine(reply)))
		default:
			r.pushes = append(r.pushes, lat)
		}
		r.mu.Unlock()
	}
}

func (r *ringInstance) Clients() int { return len(r.clients) }

func (r *ringInstance) Do(client, _ int) op {
	i := r.pos[client]
	r.pos[client]++
	seq := r.seqs[client]
	ref := int(seq[i%len(seq)])
	target := (i*len(r.clients) + client) % ringNodes
	o := send(r.clients[client], r.nodes[target].url, r.reqs[ref], ref, false)
	o.target = uint8(target)
	o.forwarded = int8(target) != r.holders[ref][0] && (ref >= r.classes || int8(target) != r.holders[ref][1])
	return o
}

func (r *ringInstance) Guards(w *window) error {
	r.mu.Lock()
	errs := append([]string(nil), r.pushErrs...)
	r.mu.Unlock()
	if len(errs) > 0 {
		return fmt.Errorf("ring_mixed: %d model pushes failed, first: %s", len(errs), errs[0])
	}
	predicted, fresh, stale := 0, 0, 0
	for i := range w.ops {
		if w.ops[i].forwarded {
			predicted++
		}
		if int(w.ops[i].ref) >= r.classes {
			fresh++
			if w.ops[i].source == 0 {
				stale++
			}
		}
	}
	// A never-seen shape answered from the cache has been sent before: the
	// pool ran out and wrapped around.
	if stale*50 > fresh {
		return fmt.Errorf("ring_mixed: %d of %d never-seen requests were cache hits; the pool of %d shapes is too small for this op rate (raise ringFreshPerSec)", stale, fresh, len(r.reqs)-r.classes)
	}
	share := float64(w.server.forwards) / float64(len(w.ops))
	if share < ringMinForward {
		return fmt.Errorf("ring_mixed: cluster.forward_share %.3f, want >= %.2f", share, ringMinForward)
	}
	// The harness labels ops local or forwarded from the ring it computes
	// itself; the nodes' own forward counters must agree with it.
	if diff := float64(predicted) - float64(w.server.forwards); diff > 0.02*float64(len(w.ops)) || -diff > 0.02*float64(len(w.ops)) {
		return fmt.Errorf("ring_mixed: harness expected %d forwarded ops, the nodes forwarded %d", predicted, w.server.forwards)
	}
	return nil
}

func (r *ringInstance) Counters() serverCounters {
	var t serverCounters
	for _, n := range r.nodes {
		t = t.add(n.counters())
	}
	return t
}

func (r *ringInstance) Close() {
	close(r.stop)
	r.pusher.Wait()
	for _, c := range r.clients {
		c.close()
	}
	for _, n := range r.nodes {
		n.close()
	}
}

func (r *ringInstance) Layers(tr *tracer, w *window, out metricSet) error {
	rp := newReplayer(tr)
	rp.ring = r.nodes[0].peers.Ring()
	rp.handler = func(o *op) http.Handler { return r.nodes[o.target].box }
	rp.forward = func(o *op, rq *request) (time.Duration, error) {
		owner := r.members[r.holders[o.ref][0]]
		t0 := time.Now()
		status, _, err := r.nodes[o.target].peers.Forward(context.Background(), owner, endpointPaths[rq.endpoint],
			mustJSON(serve.ScheduleRequest{Data: rq.operands[0].data, Policy: rq.policy}))
		d := time.Since(t0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("replayed forward answered %d", status)
		}
		return d, err
	}
	if err := servingLayers(rp, w, r.reqs, r.nodes, out); err != nil {
		return err
	}
	return ringLayers(r, w, out)
}
