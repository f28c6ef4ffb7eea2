package main

// The benchmark's declaration: workloads, end-to-end metrics with their
// regression bounds, and per-layer metrics.  BENCHMARK.json at the repo root
// repeats these tables for the driver; bench_test.go fails when the two
// drift apart.  Later issues name a claim as "metric X on workload Y" using
// exactly these names.

// RunSeconds is the timed-phase length the driver passes as --seconds
// (BENCHMARK.json's run_seconds).
const RunSeconds = 12

// MetricDecl declares one metric.  Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry none.
type MetricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// WorkloadDecl names one workload and records why it exists.
type WorkloadDecl struct {
	Name string
	Why  string
}

// Workload names.  Metrics are always reported per workload.
const (
	SingleRank  = "single-rank"
	Mesh240FFT  = "mesh-240-fft"
	Mesh240Conv = "mesh-240-conv"
	ServeCold   = "serve-cold"
	ServeHot    = "serve-hot"
)

// Workloads lists the benchmark's workloads in run order.
var Workloads = []WorkloadDecl{
	{SingleRank, "one rank, FFT filter and balanced physics: all host time is kernel arithmetic; the plain single-process baseline"},
	{Mesh240FFT, "the paper's optimised code on the 8x30 mesh: 240 goroutine ranks, sim mailboxes, comm collectives and the balancer dominate"},
	{Mesh240Conv, "the paper's original code on 8x30: ring-convolution filter, unbalanced physics; catches an FFT-path gain that costs the other path"},
	{ServeCold, "gateway to server, every request a distinct key: parse, admission, core.Run, frame encode and disk-tier write; the cache is bypassed"},
	{ServeHot, "gateway to server over a pre-filled cache, Zipf 1.2: no simulation runs, all time is routing, lookup and cached-frame replay"},
}

// EndToEnd lists the metrics a user of the system sees; every workload
// reports all of them from a run with tracing off.
var EndToEnd = []MetricDecl{
	{"op_ms_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// PerLayer lists the single-layer metrics a traced run reports.  The prefix
// before the first dot is the package the number belongs to (load and trace
// are the benchmark's own client and recorder).
var PerLayer = []MetricDecl{
	{"load.self_ms_p50", "ms", "lower", 0},
	{"load.req_ms_p99", "ms", "lower", 0},

	{"gateway.self_ms_p50", "ms", "lower", 0},
	{"gateway.attempts_per_req", "ratio", "lower", 0},
	{"gateway.retries", "count", "lower", 0},
	{"gateway.hedges", "count", "lower", 0},

	{"server.self_ms_p50", "ms", "lower", 0},
	{"server.hit_ms_p50", "ms", "lower", 0},
	{"server.queue_wait_ms_p50", "ms", "lower", 0},
	{"server.hit_allocs", "count", "lower", 0},
	{"server.hits", "count", "higher", 0},
	{"server.misses", "count", "lower", 0},
	{"server.coalesced", "count", "lower", 0},
	{"server.disk_hits", "count", "lower", 0},
	{"server.shed", "count", "lower", 0},
	{"server.runs", "count", "lower", 0},
	{"server.jobkey_us", "us", "lower", 0},

	{"frame.encode_us", "us", "lower", 0},
	{"frame.parse_ns", "ns", "lower", 0},
	{"frame.store_put_us", "us", "lower", 0},
	{"frame.store_get_us", "us", "lower", 0},
	{"frame.response_bytes", "B", "lower", 0},

	{"core.run_ms_p50", "ms", "lower", 0},
	{"core.run_s_p75", "s", "lower", 0},
	{"core.configkey_us", "us", "lower", 0},
	{"core.parse_us", "us", "lower", 0},
	{"core.host_us_per_msg", "us", "lower", 0},
	{"core.achieved_mflops", "Mflop/s", "higher", 0},
	{"core.parallel_overhead_ratio", "ratio", "lower", 0},
	{"core.virtual_s_per_day", "s", "lower", 0},
	{"core.filter_share_dyn", "ratio", "lower", 0},
	{"core.msgs_per_step", "count", "lower", 0},
	{"core.bytes_per_step", "B", "lower", 0},
	{"core.max_wait_share", "ratio", "lower", 0},

	{"sim.spawn_us_per_rank", "us", "lower", 0},
	{"sim.pingpong_ns_per_msg", "ns", "lower", 0},
	{"sim.ring240_ns_per_msg", "ns", "lower", 0},
	{"sim.compute_ns", "ns", "lower", 0},

	{"comm.allreduce240_us", "us", "lower", 0},
	{"comm.alltoallv30_us", "us", "lower", 0},
	{"comm.allgatherv30_us", "us", "lower", 0},
	{"comm.allreduce_allocs", "count", "lower", 0},

	{"grid.exchange240_us", "us", "lower", 0},
	{"grid.exchange_allocs", "count", "lower", 0},
	{"grid.gather_ms", "ms", "lower", 0},

	{"dynamics.step_ms", "ms", "lower", 0},
	{"dynamics.ns_per_point", "ns", "lower", 0},

	{"filter.fft_row_ns", "ns", "lower", 0},
	{"filter.conv_row_ns", "ns", "lower", 0},
	{"filter.sequential_ms", "ms", "lower", 0},
	{"filter.lines_per_step", "count", "lower", 0},
	{"filter.apply240_fft_ms", "ms", "lower", 0},
	{"filter.apply240_conv_ms", "ms", "lower", 0},

	{"fft.real144_ns", "ns", "lower", 0},
	{"fft.complex144_ns", "ns", "lower", 0},
	{"fft.mflops", "Mflop/s", "higher", 0},

	{"physics.column_ns", "ns", "lower", 0},
	{"physics.step_ms", "ms", "lower", 0},
	{"physics.step240_ms", "ms", "lower", 0},
	{"physics.step240_allocs", "count", "lower", 0},
	{"physics.imbalance_before_pct", "%", "lower", 0},
	{"physics.imbalance_after_pct", "%", "lower", 0},

	{"loadbalance.pairwise240_us", "us", "lower", 0},
	{"loadbalance.planrows_us", "us", "lower", 0},

	{"history.encode_ms", "ms", "lower", 0},
	{"history.read_ms", "ms", "lower", 0},
	{"history.checkpoint_bytes", "B", "lower", 0},

	{"workload.generate_ms", "ms", "lower", 0},
	{"workload.distinct_keys", "count", "higher", 0},

	{"roofline.predict_us", "us", "lower", 0},
	{"roofline.residual_pct", "%", "lower", 0},

	{"experiments.fig1_ms", "ms", "lower", 0},
	{"experiments.fig1_allocs", "count", "lower", 0},

	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// workloadDecl returns the declaration of a workload name.
func workloadDecl(name string) (WorkloadDecl, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return WorkloadDecl{}, false
}

// metricDecl returns the declaration of a metric name, end-to-end or
// per-layer.
func metricDecl(name string) (MetricDecl, bool) {
	for _, list := range [][]MetricDecl{EndToEnd, PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return MetricDecl{}, false
}
