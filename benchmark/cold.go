package main

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/serve"
)

// serve_cold: first contact under the paper's auto-tuning mode. Each epoch
// a fresh server (empty cache, history and pair history) is sent a fixed
// deck of never-seen requests once, every item asking for the empirical
// policy, so core measurement, sparse build/convert/SMSV and the spgemm
// multiply do most of the work. Empirical is deliberate: a default-hybrid
// first contact spends several times longer parsing its body than
// choosing, which would make this a second serve_hot.
const (
	coldSchedules   = 144
	coldSpGEMMs     = 48
	coldMinMeasured = 0.5 // guard: share of ops answered by a fresh measurement
)

type coldInstance struct {
	node    *node
	clients []*httpClient
	reqs    []*request
	seed    int64

	next atomic.Int64 // ops drawn so far, across clients and epochs

	mu       sync.Mutex
	idle     *sync.Cond
	epoch    int64   // epoch the live server belongs to
	inflight int     // ops of the live epoch still running
	order    []int32 // the live epoch's deck order
}

func coldRequests(seed int64, p params) ([]*request, error) {
	shapes, err := coldMatrices(seed, p.of(coldSchedules))
	if err != nil {
		return nil, err
	}
	pairs, err := coldPairs(seed, p.of(coldSpGEMMs))
	if err != nil {
		return nil, err
	}
	var reqs []*request
	for _, mx := range shapes {
		reqs = append(reqs, scheduleRequest(mx, "empirical"))
	}
	for _, pr := range pairs {
		reqs = append(reqs, spgemmRequest(pr, "empirical"))
	}
	return reqs, nil
}

func setupCold(seed int64, p params) (instance, error) {
	reqs, err := coldRequests(seed, p)
	if err != nil {
		return nil, err
	}
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	c := &coldInstance{node: startNode("n1", ln, nil), reqs: reqs, seed: seed, epoch: -1}
	c.idle = sync.NewCond(&c.mu)
	for i := 0; i < numClients(); i++ {
		c.clients = append(c.clients, newHTTPClient())
	}
	return c, nil
}

func (c *coldInstance) Clients() int { return len(c.clients) }

// deckOrder is epoch e's shuffle of the deck: heavy and light items are
// spread over the epoch, so a window cut anywhere holds the same mix.
func (c *coldInstance) deckOrder(e int64) []int32 {
	order := make([]int32, len(c.reqs))
	for i := range order {
		order[i] = int32(i)
	}
	rng := streamRNG(c.seed, fmt.Sprintf("cold/epoch/%d", e))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// enter claims the n-th op of the run: it waits until the previous
// epoch's last op has been answered, swaps in a fresh server for a new
// epoch, and returns the request to send. Server construction happens
// here, outside op timing.
func (c *coldInstance) enter(n int64) int {
	e, pos := n/int64(len(c.reqs)), n%int64(len(c.reqs))
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.epoch < e {
		if c.inflight > 0 {
			c.idle.Wait()
			continue
		}
		c.epoch++
		c.order = c.deckOrder(c.epoch)
		c.node.reset()
	}
	c.inflight++
	return int(c.order[pos])
}

func (c *coldInstance) leave() {
	c.mu.Lock()
	c.inflight--
	if c.inflight == 0 {
		c.idle.Broadcast()
	}
	c.mu.Unlock()
}

func (c *coldInstance) Do(client, _ int) op {
	ref := c.enter(c.next.Add(1) - 1)
	defer c.leave()
	return send(c.clients[client], c.node.url, c.reqs[ref], ref, false)
}

func (c *coldInstance) Guards(w *window) error {
	measured, refused := 0, 0
	for i := range w.ops {
		if w.ops[i].source >= 0 && sourceNames[w.ops[i].source] == "measured" {
			measured++
		}
		if w.ops[i].status == http.StatusTooManyRequests {
			refused++
		}
	}
	if share := float64(measured) / float64(len(w.ops)); share < coldMinMeasured {
		return fmt.Errorf("serve_cold: only %.3f of ops were freshly measured, want >= %.2f", share, coldMinMeasured)
	}
	// Two clients never fill four measurement slots.
	if refused > 0 {
		return fmt.Errorf("serve_cold: %d requests were refused with 429 although admission cannot be full", refused)
	}
	return nil
}

func (c *coldInstance) Counters() serverCounters { return c.node.counters() }

func (c *coldInstance) Close() {
	for _, cl := range c.clients {
		cl.close()
	}
	c.node.close()
}

func (c *coldInstance) Layers(tr *tracer, w *window, out metricSet) error {
	rp := newReplayer(tr)
	// Every op met a server that had never seen its shape: replay against
	// a fresh one.
	rp.handler = func(*op) http.Handler {
		return serve.NewServer(nodeConfig(c.node.store, c.node.stats, nil)).Handler()
	}
	return servingLayers(rp, w, c.reqs, []*node{c.node}, out)
}
