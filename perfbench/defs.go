package main

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports. README.md gives the
// end-to-end metric and workload each one should move.
var perLayer = []metricDef{
	{"server.req_write_ms", "ms", "lower"},
	{"server.ttfb_ms", "ms", "lower"},
	{"server.body_read_ms", "ms", "lower"},
	{"server.json_decode_ms", "ms", "lower"},
	{"server.json_encode_ms", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.coalesced_avg", "requests", "higher"},
	{"server.shed", "count", "lower"},
	{"server.errors", "count", "lower"},
	{"server.engine_share", "ratio", "lower"},
	{"backend.digest_ms", "ms", "lower"},
	{"backend.plan_build_ms", "ms", "lower"},
	{"backend.nas_plan_build_ms", "ms", "lower"},
	{"backend.nas_setup_share", "ratio", "lower"},
	{"backend.run_ms", "ms", "lower"},
	{"backend.reduce_ms", "ms", "lower"},
	{"backend.run_ns_per_elem", "ns", "lower"},
	{"backend.reduce_ns_per_elem", "ns", "lower"},
	{"backend.bytes_per_elem", "B/elem-computed", "lower"},
	{"backend.roofline_fraction", "ratio", "higher"},
	{"backend.allocs_per_op", "allocs", "lower"},
	{"backend.inc.update_ns", "ns", "lower"},
	{"backend.inc.query_ns", "ns", "lower"},
	{"backend.inc.reduce_label_ns", "ns", "lower"},
	{"backend.inc.refresh_ms", "ms", "lower"},
	{"backend.inc.reruns_per_txn", "count/txn", "lower"},
	{"backend.inc.fenwick_updates", "count/txn", "higher"},
	{"backend.inc.fenwick_queries", "count/txn", "higher"},
	{"backend.inc.rebuilds", "count/txn", "lower"},
	{"core.memprobe_ms", "ms", "lower"},
	{"core.stream_gbps", "GB/s", "higher"},
	{"core.compute_ms", "ms", "lower"},
	{"core.oneshot_allocs_per_op", "allocs", "lower"},
	{"core.oneshot_alloc_mb_per_op", "MB", "lower"},
	{"intsort.rank_overhead_ms", "ms", "lower"},
	{"trace.ops_ratio", "ratio", "higher"},
}
