package main

// metricDef mirrors one entry of BENCHMARK.json; a unit test keeps the two
// in step. Bound is only set on end-to-end metrics.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics. Every workload reports every one of
// them from its untraced run:
//
//   - setup_s: wall time to bring the system to the state where
//     measurement starts, the median of the repeats (13 or more, each from
//     a collected heap). Batch: generate and survey the dataset. Serving:
//     load the artifact (cut it, for the router), construct the server(s)
//     and answer the first /readyz over the socket. Fixture training is
//     excluded (per-layer fixture.train_s).
//   - op_p01_ms: first-percentile latency of the workload's headline
//     operation over the window, as the caller sees it: one Pipeline.Run
//     (batch, where five runs make it the fastest), GET /v1/edge over the
//     socket (serve_read, router_read), one acknowledged wait:true mutation
//     (serve_write). The shared build box only ever adds time to an
//     operation, so the fast end is what the code costs and repeats within
//     1-7% where the median moves by 13-32% (README, "Which latency is
//     gated"); median, tail and the other kinds are printed and reported as
//     e2e.* and client.*.
//   - allocs_per_op, alloc_kb_per_op: heap objects and kilobytes the
//     workload process allocated during the window (load generator
//     included) divided by the operations completed; an operation is a
//     pipeline run or an HTTP request. Allocation drives GC work and
//     latency tails, and the counts repeat to a fraction of a percent.
//   - peak_rss_mb: VmHWM of the workload process at the end of
//     measurement. Serving fixtures are trained in a child process, so the
//     figure is what loading and serving need, not what training needed.
//   - macro_f1: macro-F1 of the labels the workload produced (batch) or
//     serves (the fixture's model) on edges with valid ground truth that
//     were not revealed to training.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p01_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "macro_f1", Unit: "ratio", Better: "higher", Bound: 0.02},
}

// perLayer are the numbers of single layers, taken on the traced run. A
// layer a workload does not call reports 0: no work done, no time busy.
// The README's layer table says which end-to-end metric each should move.
var perLayer = []metricDef{
	// Wall-clock figures of the whole workload, from the span-free part of
	// the traced run: headline operation at p10 and p50, p10 over the mix,
	// window / operations.
	{Name: "e2e.op_p10_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.mix_p10_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.mean_op_ms", Unit: "ms", Better: "lower"},
	// Batch stages (spans around the staged pipeline) and their kernels.
	{Name: "wechat.generate_s", Unit: "s", Better: "lower"},
	{Name: "core.divide_s", Unit: "s", Better: "lower"},
	{Name: "core.divide_allocs", Unit: "count", Better: "lower"},
	{Name: "graph.ego_extract_s", Unit: "s", Better: "lower"},
	{Name: "community.detect_s", Unit: "s", Better: "lower"},
	{Name: "community.egos_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.train_classifier_s", Unit: "s", Better: "lower"},
	{Name: "gbdt.train_s", Unit: "s", Better: "lower"},
	{Name: "gbdt.rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "nn.fit_s", Unit: "s", Better: "lower"},
	{Name: "nn.samples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.classify_communities_s", Unit: "s", Better: "lower"},
	{Name: "core.train_combiner_s", Unit: "s", Better: "lower"},
	{Name: "logreg.train_s", Unit: "s", Better: "lower"},
	{Name: "logreg.rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.predict_edges_s", Unit: "s", Better: "lower"},
	{Name: "core.ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "core.stage_sum_s", Unit: "s", Better: "lower"},
	{Name: "tensor.gemm_logreg_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm_conv_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "run.allocs", Unit: "count", Better: "lower"},
	{Name: "run.alloc_mb", Unit: "MB", Better: "lower"},
	// Set-up of the serving workloads.
	{Name: "fixture.train_s", Unit: "s", Better: "lower"},
	{Name: "artifact.load_s", Unit: "s", Better: "lower"},
	{Name: "artifact.bytes", Unit: "bytes", Better: "lower"},
	{Name: "artifact.cut_shards_s", Unit: "s", Better: "lower"},
	{Name: "serve.coldstart_s", Unit: "s", Better: "lower"},
	// Read path: direct call, handler without a socket, client over one.
	{Name: "core.edge_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.handler_edge_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_communities_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_classify_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_classify_miss_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "wire.edge_overhead_us", Unit: "us", Better: "lower"},
	{Name: "client.read_rps", Unit: "1/s", Better: "higher"},
	{Name: "client.edge_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.edge_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.classify_hit_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.classify_miss_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.classify_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.communities_p50_us", Unit: "us", Better: "lower"},
	// Router.
	{Name: "ring.owner_ns", Unit: "ns", Better: "lower"},
	{Name: "router.handler_edge_us", Unit: "us", Better: "lower"},
	{Name: "router.handler_classify_us", Unit: "us", Better: "lower"},
	{Name: "router.shard_calls_per_request", Unit: "ratio", Better: "lower"},
	{Name: "router.hedges", Unit: "count", Better: "lower"},
	{Name: "router.retries", Unit: "count", Better: "lower"},
	// Write path.
	{Name: "client.mutation_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.mutation_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.cycle_ms", Unit: "ms", Better: "lower"},
	{Name: "core.apply_mutations_ms", Unit: "ms", Better: "lower"},
	{Name: "core.dirty_nodes_per_epoch", Unit: "count", Better: "lower"},
	{Name: "core.dirty_edges_per_epoch", Unit: "count", Better: "lower"},
	{Name: "core.seeded_ego_share", Unit: "ratio", Better: "higher"},
	{Name: "graph.overlay_compact_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "serve.mutate_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "serve.checkpoints", Unit: "count", Better: "lower"},
	{Name: "serve.recover_s", Unit: "s", Better: "lower"},
	{Name: "wal.replayed_records", Unit: "count", Better: "lower"},
	// (traced wall - untraced wall) / untraced wall of the same operations.
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// workloadDef names a workload and says why it exists (BENCHMARK.json's
// "why").
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(runConfig) (*report, error)
}
