package main

// metricDef describes one reported metric. BENCHMARK.json lists the same
// metrics, in the same order, with the same units; a test keeps the two
// in step.
type metricDef struct {
	name, unit, better string
	// moves names, for a per-layer metric, the end-to-end metric it should
	// move and the workload where it should move it.
	moves string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. ok_ratio is 1 - error_ratio and fresh_read_ratio is
// 1 - stale_ratio, so that none of them is 0 on a correct run.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", ""},
	{"read_p50_us", "us", "lower", ""},
	{"read_p99_us", "us", "lower", ""},
	{"ok_ratio", "fraction", "higher", ""},
	{"fresh_read_ratio", "fraction", "higher", ""},
	{"heap_mb", "MiB", "lower", ""},
	{"setup_s", "s", "lower", ""},
}

// perLayer are the traced run's metrics. A metric of a layer the workload
// does not reach reads 0.
var perLayer = []metricDef{
	{"sig.hash_ns_per_op", "ns", "lower", "read_p50_us, ops_per_s on local-warm"},
	{"sig.hashed_bytes_per_op", "B", "lower", "read_p50_us, ops_per_s on local-warm"},
	{"core.fast_hit_ratio", "fraction", "higher", "read_p50_us on local-warm"},
	{"core.dlht_misses_per_op", "count", "lower", "read_p50_us on local-warm"},
	{"core.pcc_misses_per_op", "count", "lower", "read_p50_us on local-warm"},
	{"core.shortcut_resumes_per_op", "count", "higher", "read_p50_us on local-churn"},
	{"core.child_hops_per_op", "count", "higher", "read_p50_us on local-churn"},
	{"core.admission_deferred_per_op", "count", "lower", "read_p50_us on local-churn"},
	{"dircache.stat_ns", "ns", "lower", "read_p50_us on local-warm and local-churn"},
	{"vfs.slow_walk_ratio", "fraction", "lower", "read_p50_us on local-churn"},
	{"vfs.components_per_slow_walk", "count", "lower", "read_p50_us on local-churn"},
	{"vfs.retry_walks_per_op", "count", "lower", "read_p50_us on local-churn"},
	{"vfs.fs_lookups_per_op", "count", "lower", "ops_per_s, read_p99_us on local-churn"},
	{"vfs.evictions_per_op", "count", "lower", "ops_per_s, read_p99_us on local-churn"},
	{"vfs.evictions_per_fs_lookup", "ratio", "lower", "ops_per_s, read_p99_us on local-churn"},
	{"vfs.bulk_populations_per_scan", "count", "higher", "read_p50_us on local-churn"},
	{"vfs.seq_bumps_per_write", "count", "lower", "write_p50_us on local-churn"},
	{"vfs.batch_shootdowns_per_write", "count", "higher", "write_p50_us on local-churn"},
	{"write_p50_us", "us", "lower", "end to end on local-churn and tier-rw, untraced half of the run"},
	{"write_p99_us", "us", "lower", "end to end on local-churn and tier-rw, untraced half of the run"},
	{"slab.live_slots", "count", "lower", "heap_mb on local-churn"},
	{"slab.limbo_slots", "count", "lower", "heap_mb, write_p50_us on local-churn"},
	{"slab.reclaimed_per_write", "count", "higher", "heap_mb, write_p50_us on local-churn"},
	{"runtime.gc_pause_max_ms", "ms", "lower", "read_p99_us on local-churn"},
	{"runtime.gc_cycles_per_s", "1/s", "lower", "read_p99_us on local-churn"},
	{"ninep.walk_rpc_ns", "ns", "lower", "read_p50_us on wire-walk"},
	{"ninep.stat_rpc_ns", "ns", "lower", "read_p50_us on wire-walk"},
	{"ninep.clunk_rpc_ns", "ns", "lower", "read_p50_us on wire-walk"},
	{"ninep.kernel_walk_ns", "ns", "lower", "read_p50_us on wire-walk"},
	{"ninep.wire_tax_ratio", "ratio", "lower", "read_p50_us on wire-walk"},
	{"ninep.codec_ns_per_msg", "ns", "lower", "read_p50_us on wire-walk"},
	{"ninep.rpcs_per_op", "count", "lower", "ops_per_s on wire-walk"},
	{"ninep.bytes_per_op", "B", "lower", "ops_per_s on wire-walk"},
	{"ninep.errors_per_op", "count", "lower", "ops_per_s on wire-walk"},
	{"shard.route_self_ns", "ns", "lower", "read_p50_us on tier-rw"},
	{"shard.owner_stat_ns", "ns", "lower", "read_p50_us on tier-rw"},
	{"shard.pump_ns_per_op", "ns", "lower", "ops_per_s on tier-rw"},
	{"shard.invalidate_ns", "ns", "lower", "ops_per_s on tier-rw"},
	{"shard.published_per_write", "count", "lower", "write_p50_us, ops_per_s on tier-rw"},
	{"shard.applied_per_write", "count", "lower", "write_p50_us, ops_per_s on tier-rw"},
	{"shard.fallbacks", "count", "lower", "write_p50_us, ops_per_s on tier-rw"},
	{"shard.lag_max", "count", "lower", "fresh_read_ratio on tier-rw"},
	{"shard.stale_after_converge", "count", "lower", "fresh_read_ratio on tier-rw"},
	{"bench.trace_overhead", "fraction", "lower", "none: the share of ops_per_s that tracing costs"},
}
