package main

import (
	"fmt"
	"math/rand"
	"net/http"
)

// serve_hot: one node, every shape class decided before the window, so
// every answer is source=cache and core/sparse/spgemm do nothing. All the
// time is net/http, JSON, LIBSVM parse + feature extraction, the serve
// key/cache/encode path and telemetry — the 5000x gap between an
// in-process batch decide and the same batch over HTTP lives here.
const (
	hotClasses    = 256 // /v1/schedule shape classes, Zipf(1.2)
	hotItemPool   = 64  // small shapes batch items are drawn from
	hotBatches    = 64  // distinct 16-item batch bodies
	hotBatchItems = 16
	hotPairs      = 64   // /v1/schedule/spgemm pair classes
	hotMinCache   = 0.99 // guard: share of ops answered from the cache
	zipfS         = 1.2
)

type hotInstance struct {
	node    *node
	clients []*httpClient
	reqs    []*request
	seqs    [][]int32 // per client: the op sequence as indices into reqs
}

// hotSequence draws n ops of the 60/20/20 schedule/batch/spgemm mix, each
// with a Zipf-distributed class of its kind.
func hotSequence(rng *rand.Rand, n, classes, batches, pairs int) []int32 {
	zc := rand.NewZipf(rng, zipfS, 1, uint64(classes-1))
	zb := rand.NewZipf(rng, zipfS, 1, uint64(batches-1))
	zp := rand.NewZipf(rng, zipfS, 1, uint64(pairs-1))
	seq := make([]int32, n)
	for i := range seq {
		switch u := rng.Float64(); {
		case u < 0.6:
			seq[i] = int32(zc.Uint64())
		case u < 0.8:
			seq[i] = int32(classes + int(zb.Uint64()))
		default:
			seq[i] = int32(classes + batches + int(zp.Uint64()))
		}
	}
	return seq
}

// hotRequests builds the request table: schedule classes, then batch
// bodies, then spgemm pairs.
func hotRequests(seed int64, p params) (reqs []*request, classes, batches, pairs int, err error) {
	classes, batches, pairs = p.of(hotClasses), p.of(hotBatches), p.of(hotPairs)
	seen := map[string]bool{}
	shapes, err := distinctShapes("hot/classes", streamRNG(seed, "hot/classes"), classes, 1<<10, 32<<10, seen)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	for _, mx := range shapes {
		reqs = append(reqs, scheduleRequest(mx, ""))
	}
	pool, err := distinctShapes("hot/items", streamRNG(seed, "hot/items"), p.of(hotItemPool), 300, 1<<10, seen)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	// Which items share a batch is part of the structure: same for every seed.
	zi := rand.NewZipf(streamRNG(0, "hot/batches"), zipfS, 1, uint64(len(pool)-1))
	for b := 0; b < batches; b++ {
		items := make([]matrix, hotBatchItems)
		for i := range items {
			items[i] = pool[zi.Uint64()]
		}
		reqs = append(reqs, batchRequest(items))
	}
	prs, err := distinctPairs("hot/pairs", streamRNG(seed, "hot/pairs"), pairs, 4<<10, 50<<10)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	for _, pr := range prs {
		reqs = append(reqs, spgemmRequest(pr, ""))
	}
	return reqs, classes, batches, pairs, nil
}

func setupHot(seed int64, p params) (instance, error) {
	reqs, classes, batches, pairs, err := hotRequests(seed, p)
	if err != nil {
		return nil, err
	}
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	h := &hotInstance{node: startNode("n1", ln, nil), reqs: reqs}
	for c := 0; c < numClients(); c++ {
		h.clients = append(h.clients, newHTTPClient())
		h.seqs = append(h.seqs, hotSequence(streamRNG(seed, fmt.Sprintf("hot/seq/%d", c)), 1<<15, classes, batches, pairs))
	}
	// Warm every class: the first contact decides and records the answer
	// every later reply must repeat.
	for ref, rq := range reqs {
		if o := send(h.clients[0], h.node.url, rq, ref, true); o.err != "" {
			h.Close()
			return nil, fmt.Errorf("serve_hot warm-up of request %d: %s", ref, o.err)
		}
	}
	return h, nil
}

func (h *hotInstance) Clients() int { return len(h.clients) }

func (h *hotInstance) Do(client, i int) op {
	seq := h.seqs[client]
	ref := int(seq[i%len(seq)])
	return send(h.clients[client], h.node.url, h.reqs[ref], ref, false)
}

func (h *hotInstance) Guards(w *window) error {
	cached := 0
	for i := range w.ops {
		if w.ops[i].source == 0 {
			cached++
		}
	}
	if share := float64(cached) / float64(len(w.ops)); share < hotMinCache {
		return fmt.Errorf("serve_hot: only %.4f of ops were answered from the cache, want >= %.2f", share, hotMinCache)
	}
	return nil
}

func (h *hotInstance) Close() {
	for _, c := range h.clients {
		c.close()
	}
	h.node.close()
}

func (h *hotInstance) Counters() serverCounters { return h.node.counters() }

func (h *hotInstance) Layers(tr *tracer, w *window, out metricSet) error {
	rp := newReplayer(tr)
	rp.handler = func(*op) http.Handler { return h.node.box }
	return servingLayers(rp, w, h.reqs, []*node{h.node}, out)
}
