package main

import (
	"fmt"
	"math"
	"sort"
)

// Workload names. They are permanent: BENCHMARK.json, the README and every
// later before/after comparison refer to them.
const (
	wlBulk  = "serve_bulk_closed"
	wlPoint = "serve_point_open"
	wlInfer = "fullbatch_infer"
	wlTrain = "fullbatch_train"
)

// Workload bits for metricSpec.on.
const (
	onBulk = 1 << iota
	onPoint
	onInfer
	onTrain
	onServe = onBulk | onPoint
	onFull  = onInfer | onTrain
	onAll   = onServe | onFull
)

type workloadSpec struct {
	name string
	bit  int
	why  string
}

var workloads = []workloadSpec{
	{wlBulk, onBulk, "Closed loop over real HTTP, 64 uniform vertices per request: each request seals a full batch, so time is codec + sample + gather + forward, and sharing tricks (dedupe, caching) must show nothing."},
	{wlPoint, onPoint, "Open loop at a fixed Poisson rate, one Zipf-skewed vertex per request through Server.Infer: small duplicate-heavy batches formed by linger, so queueing and per-request cost dominate."},
	{wlInfer, onInfer, "Back-to-back Combined full-batch inference on a working set beyond the LLC: all time is kernels/compress/tensor/sched while sampler and serve plane idle; the control for serve-side changes."},
	{wlTrain, onTrain, "Full-batch training epochs on the heavy-tailed twitter profile with locality order: transposed aggregation, TransA/TransB GEMMs and the optimizer step, where a forward-only gain can cost backward."},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec describes one reported metric. End-to-end metrics carry the
// regression bound BENCHMARK.json fixes; per-layer metrics carry the set of
// workloads that exercise the layer (the others report 0: the layer did no
// work there) and whether the value is a count that must repeat exactly.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
	on     int
	exact  bool
}

var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, on: onAll},
	{name: "vertices_per_s", unit: "1/s", better: "higher", bound: 0.15, on: onAll},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.15, on: onAll},
	{name: "latency_tail_ms", unit: "ms", better: "lower", bound: 0.25, on: onAll},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.15, on: onAll},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10, on: onAll},
}

var perLayer = []metricSpec{
	{name: "graph.generate_s", unit: "s", better: "lower", on: onAll},
	{name: "graph.edges", unit: "count", better: "lower", on: onAll, exact: true},

	{name: "sparse.factors_ms", unit: "ms", better: "lower", on: onFull},
	{name: "sparse.spmm_l1_ms", unit: "ms", better: "lower", on: onFull},

	{name: "locality.reorder_ms", unit: "ms", better: "lower", on: onTrain},
	{name: "locality.hit_rate_gain", unit: "share", better: "higher", on: onTrain, exact: true},

	{name: "compress.from_dense_ms", unit: "ms", better: "lower", on: onFull},
	{name: "compress.traffic_ratio", unit: "ratio", better: "lower", on: onFull, exact: true},

	{name: "kernels.agg_l0_ms", unit: "ms", better: "lower", on: onFull},
	{name: "kernels.agg_l1_ms", unit: "ms", better: "lower", on: onFull},
	{name: "kernels.agg_l1_compressed_ms", unit: "ms", better: "lower", on: onFull},
	{name: "kernels.agg_medges_per_s", unit: "Medges/s", better: "higher", on: onFull},
	{name: "kernels.agg_gbps_computed", unit: "GB/s", better: "higher", on: onFull},
	{name: "kernels.agg_bw_share", unit: "share", better: "higher", on: onFull},

	{name: "tensor.gemm_l0_ms", unit: "ms", better: "lower", on: onFull},
	{name: "tensor.gemm_l1_ms", unit: "ms", better: "lower", on: onFull},
	{name: "tensor.gemm_gflops", unit: "GFLOP/s", better: "higher", on: onFull},
	{name: "tensor.gemm_block_gflops", unit: "GFLOP/s", better: "higher", on: onServe},
	{name: "tensor.gemm_transa_ms", unit: "ms", better: "lower", on: onTrain},
	{name: "tensor.gemm_transb_ms", unit: "ms", better: "lower", on: onTrain},

	{name: "sched.dispatch_ns_per_chunk", unit: "ns", better: "lower", on: onAll},
	{name: "sched.imbalance_twitter", unit: "ratio", better: "lower", on: onTrain},

	{name: "gnn.forward_fused_ms", unit: "ms", better: "lower", on: onFull},
	{name: "gnn.forward_aggregate_ms", unit: "ms", better: "lower", on: onInfer},
	{name: "gnn.forward_update_ms", unit: "ms", better: "lower", on: onInfer},
	{name: "gnn.backward_ms", unit: "ms", better: "lower", on: onTrain},
	{name: "gnn.epoch_other_ms", unit: "ms", better: "lower", on: onTrain},

	{name: "gnn.sample_us_per_batch", unit: "us", better: "lower", on: onServe},
	{name: "gnn.sample_ns_per_edge", unit: "ns", better: "lower", on: onServe},
	{name: "gnn.gather_us_per_batch", unit: "us", better: "lower", on: onServe},
	{name: "gnn.sampled_forward_us_per_batch", unit: "us", better: "lower", on: onServe},
	{name: "gnn.block_src_per_vertex", unit: "count", better: "lower", on: onServe, exact: true},
	{name: "gnn.block_edges_per_vertex", unit: "count", better: "lower", on: onServe, exact: true},
	{name: "gnn.dup_vertex_share", unit: "share", better: "higher", on: onServe, exact: true},
	{name: "gnn.stage_residual_share", unit: "share", better: "lower", on: onServe},

	{name: "serve.infer_direct_us_v1", unit: "us", better: "lower", on: onServe},
	{name: "serve.http_rtt_us_v1", unit: "us", better: "lower", on: onServe},
	{name: "serve.http_overhead_us_v1", unit: "us", better: "lower", on: onServe},
	{name: "serve.http_overhead_us_v64", unit: "us", better: "lower", on: onServe},
	{name: "serve.batches", unit: "count", better: "lower", on: onServe},
	{name: "serve.vertices_per_batch", unit: "count", better: "higher", on: onServe},
	{name: "serve.queue_wait_p50_ms", unit: "ms", better: "lower", on: onServe},
	{name: "serve.queue_wait_p99_ms", unit: "ms", better: "lower", on: onServe},
	{name: "serve.batch_exec_p50_ms", unit: "ms", better: "lower", on: onServe},
	{name: "serve.busy_share", unit: "share", better: "lower", on: onServe},
	{name: "serve.shed_share", unit: "share", better: "lower", on: onServe},
	{name: "serve.expired_share", unit: "share", better: "lower", on: onServe},
	{name: "serve.degraded_share", unit: "share", better: "lower", on: onServe},
	{name: "serve.retries", unit: "count", better: "lower", on: onServe},

	{name: "telemetry.span_ns", unit: "ns", better: "lower", on: onServe},
	{name: "telemetry.trace_us_per_request", unit: "us", better: "lower", on: onServe},

	{name: "obsrv.flightrec_record_ns", unit: "ns", better: "lower", on: onServe},
	{name: "obsrv.scrape_ms", unit: "ms", better: "lower", on: onServe},

	{name: "simgnn.infer_cycles_distgnn", unit: "cycles", better: "lower", on: onInfer, exact: true},
	{name: "simgnn.infer_cycles_combined", unit: "cycles", better: "lower", on: onInfer, exact: true},
	{name: "simgnn.infer_cycles_fused_dma", unit: "cycles", better: "lower", on: onInfer, exact: true},
	{name: "memsim.dram_lines_combined", unit: "count", better: "lower", on: onInfer, exact: true},
	{name: "perf.memory_bound_share_distgnn", unit: "share", better: "lower", on: onInfer, exact: true},

	{name: "runtime.alloc_kb_per_op", unit: "KB", better: "lower", on: onAll},
	{name: "runtime.mallocs_per_op", unit: "count", better: "lower", on: onAll},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", on: onAll},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", on: onAll},

	{name: "host.nproc", unit: "count", better: "higher", on: onAll, exact: true},
	{name: "host.llc_mb", unit: "MB", better: "higher", on: onAll, exact: true},
	{name: "host.stream_triad_gbps", unit: "GB/s", better: "higher", on: onAll},

	{name: "bench.generator_late_p99_ms", unit: "ms", better: "lower", on: onPoint},
	{name: "bench.samples", unit: "count", better: "higher", on: onAll},
	{name: "bench.trace_overhead_share", unit: "share", better: "lower", on: onAll},
}

// result collects the metrics one run emits. Every name must come from the
// spec tables and be set exactly once; finish reports departures, so a
// metric that silently stops being measured fails the run instead of
// vanishing from the report.
type result struct {
	vals  map[string]float64
	notes map[string]string
	errs  []string
}

func newResult() *result {
	return &result{vals: map[string]float64{}, notes: map[string]string{}}
}

// set records one metric. note is free text printed beside the value
// (sample counts, the percentile used, array sizes).
func (r *result) set(name string, v float64, note string) {
	if _, dup := r.vals[name]; dup {
		r.errs = append(r.errs, fmt.Sprintf("metric %s emitted twice", name))
	}
	r.vals[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// finish checks the emitted set against specs for the workload with the given
// bit: metrics of exercised layers must be present and finite, metrics of
// layers the workload bypasses must not have been measured and are filled
// with 0, and nothing outside specs may appear.
func (r *result) finish(specs []metricSpec, bit int) error {
	known := map[string]bool{}
	for _, s := range specs {
		known[s.name] = true
		v, ok := r.vals[s.name]
		switch {
		case s.on&bit == 0 && ok:
			r.errs = append(r.errs, fmt.Sprintf("metric %s measured on a workload that bypasses its layer", s.name))
		case s.on&bit == 0:
			r.vals[s.name] = 0
			r.notes[s.name] = "layer not exercised by this workload"
		case !ok:
			r.errs = append(r.errs, fmt.Sprintf("metric %s not emitted", s.name))
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.errs = append(r.errs, fmt.Sprintf("metric %s is %v", s.name, v))
		}
	}
	for name := range r.vals {
		if !known[name] {
			r.errs = append(r.errs, fmt.Sprintf("metric %s is not in the spec", name))
		}
	}
	if len(r.errs) > 0 {
		sort.Strings(r.errs)
		return fmt.Errorf("metric registry: %v", r.errs)
	}
	return nil
}
