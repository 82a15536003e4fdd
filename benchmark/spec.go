package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metric is one reported value with the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// specMetric is one metric's entry in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec mirrors BENCHMARK.json, the contract the gate reads.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent
// (the driver runs from the checkout root, the tests from benchmark/) and
// returns it with the directory it was found in: the checkout root.
func loadSpec() (*spec, string, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return nil, "", fmt.Errorf("%s: %w", filepath.Join(dir, "BENCHMARK.json"), err)
		}
		return &s, dir, nil
	}
	return nil, "", firstErr
}

// checkNames verifies that got holds exactly the names want lists: a
// metric the contract names but the run did not emit, or the reverse, is a
// harness bug and must not pass as a result.
func checkNames(got metricSet, want []specMetric) error {
	var missing, extra []string
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		g, ok := got[m.Name]
		if !ok {
			missing = append(missing, m.Name)
		} else if g.Unit != m.Unit {
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		return fmt.Errorf("metrics differ from BENCHMARK.json: missing %v, unlisted %v", missing, extra)
	}
	return nil
}

// perLayerMetrics are the per-layer metrics this harness emits, in
// BENCHMARK.json's order; a test holds the list equal to the file. (The
// end-to-end list lives in the file alone: every run checks what it
// emitted against it.)
var perLayerMetrics = expandLayers()

func expandLayers() []specMetric {
	var out []specMetric
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, specMetric{Name: n, Unit: unit, Better: better})
		}
	}
	each := func(prefix string, members ...string) []string {
		names := make([]string, len(members))
		for i, m := range members {
			names[i] = prefix + "." + m
		}
		return names
	}
	formats := []string{"DEN", "CSR", "COO", "ELL", "DIA"}
	endpoints := []string{"schedule", "batch", "spgemm"}

	add("lower", "us", "dataset.parse_us")
	add("higher", "MB/s", "dataset.parse_mb_per_s")
	add("lower", "us", "dataset.extract_us")
	add("lower", "us", each("sparse.build_us", formats...)...)
	add("lower", "ns", each("sparse.smsv_ns_per_nnz", formats...)...)
	add("lower", "count", "sparse.smsv_calls", "sparse.smsv_nnz")
	add("lower", "us", each("spgemm.multiply_us", "gustavson", "outer", "inner")...)
	add("lower", "us", "spgemm.estimate_us")
	add("lower", "ms", "core.choose_ms.empirical", "core.choose_ms.hybrid")
	add("lower", "us", "core.choose_us.history", "core.choose_us.predict")
	add("lower", "ms", "core.choose_ms.spgemm")
	add("lower", "count", "core.candidates_measured")
	add("lower", "ratio", "core.sched_overhead_share")
	add("higher", "ratio", "core.oracle_match_share")
	add("lower", "ratio", "core.regret_ratio")
	add("lower", "ns", "learn.predict_ns", "learn.predict_pair_ns")
	add("lower", "ms", "learn.train_ms")
	add("lower", "us", "learn.model_load_us")
	add("lower", "us", each("serve.handler_us", endpoints...)...)
	add("lower", "us", "serve.decode_us", "serve.encode_us")
	add("lower", "ns", "serve.key_ns", "serve.cache_get_ns", "serve.batch_item_ns")
	add("lower", "us", "serve.self_us")
	add("lower", "ms", "serve.new_server_ms")
	add("lower", "ms", each("serve.endpoint_p50_ms", endpoints...)...)
	add("higher", "ratio", each("serve.source_share", sourceNames[:]...)...)
	add("higher", "count", "serve.status_2xx")
	add("lower", "count", "serve.status_429", "serve.status_5xx", "serve.degraded", "serve.measurements")
	add("lower", "ns", "cluster.route_ns")
	add("lower", "ms", "cluster.local_p50_ms", "cluster.forwarded_p50_ms")
	add("lower", "us", "cluster.hop_us")
	add("lower", "ratio", "cluster.forward_share")
	add("lower", "count", "cluster.forward_fallbacks")
	add("higher", "count", "cluster.repl_enqueued")
	add("lower", "count", "cluster.repl_dropped")
	add("lower", "us", "cluster.repl_apply_us")
	add("lower", "ms", "cluster.model_push_ms")
	add("lower", "ns", "online.store_add_ns")
	add("higher", "count", "online.harvested")
	add("lower", "ms", "online.step_ms")
	add("lower", "ms", "telemetry.scrape_ms")
	add("lower", "us", "telemetry.trace_fetch_us")
	add("lower", "ms", each("svm.train_ms", svmDatasets...)...)
	add("lower", "count", "svm.iterations")
	add("lower", "ms", "svm.fixed_csr_ms")
	add("lower", "ns", "exec.dispatch_ns")
	add("higher", "ratio", "exec.occupancy_share")
	add("lower", "us", "client.rtt_overhead_us")
	add("lower", "KB", "client.alloc_kb_per_op", "client.body_kb_p50")
	add("lower", "MB", "process.peak_rss_mb", "process.heap_live_mb")
	add("lower", "count", "process.gc_cycles")
	add("lower", "ms", "process.gc_pause_ms")
	add("lower", "ratio", "harness.trace_overhead_share")
	return out
}

// zeroLayers starts a traced run's metrics: every per-layer metric at 0,
// which is what a layer the workload does not exercise reports.
func zeroLayers() metricSet {
	out := metricSet{}
	for _, m := range perLayerMetrics {
		out.set(m.Name, 0, m.Unit, 0)
	}
	return out
}
