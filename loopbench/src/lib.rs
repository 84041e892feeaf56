//! End-to-end benchmark of the Centralium operational loop — intent,
//! compile, sequenced RPA waves over a `ControlTransport`, convergence,
//! health check — timed layer by layer from outside the program.
//!
//! See `NOTES.md` beside this crate for the workloads, every metric and the
//! layer → end-to-end predictions.

pub mod episode;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod workloads;

/// The end-to-end metrics of `BENCHMARK.json`, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("episode_s", "s"),
    ("events_per_s", "1/s"),
    ("live_kb_per_device", "KiB"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of `BENCHMARK.json`. Every time among them is
/// measured on every workload; a count or ratio of a layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_ms", "ms"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.phase.pre_us", "us"),
    ("simnet.phase.work_us", "us"),
    ("simnet.phase.merge_us", "us"),
    ("span.simnet.converge.self_ms", "ms"),
    ("span.simnet.window.pre.self_ms", "ms"),
    ("span.simnet.window.merge.self_ms", "ms"),
    ("span.rpa.evaluate.self_ms", "ms"),
    ("fib.apply_ns_per_change", "ns"),
    ("trace.unattributed_ms", "ms"),
    ("simnet.events", "count"),
    ("simnet.phase.windows", "count"),
    ("simnet.phase.inline_windows", "count"),
    ("simnet.shard.dispatches", "count"),
    ("simnet.dispatch_ratio", "ratio"),
    ("simnet.window.jobs.p50", "count"),
    ("simnet.batches_delivered", "count"),
    ("simnet.updates_coalesced", "count"),
    ("simnet.max_batch_size", "count"),
    ("simnet.coalesce_ratio", "ratio"),
    ("simnet.batch.routes.p50", "count"),
    ("mem.event_queue_hwm", "count"),
    ("mem.event_queue_bytes", "bytes"),
    ("simnet.rpa_scoped_reevals", "count"),
    ("simnet.rpa_full_reevals", "count"),
    ("simnet.rpa_scoped_ratio", "ratio"),
    ("simnet.announcements", "count"),
    ("simnet.withdrawals", "count"),
    ("simnet.messages_delivered", "count"),
    ("bgp.decisions", "count"),
    ("bgp.best_path_changes", "count"),
    ("bgp.decision_useful_ratio", "ratio"),
    ("bgp.canonical_routes", "count"),
    ("bgp.peer_refs", "count"),
    ("bgp.fan_in", "ratio"),
    ("mem.adj_rib_in_bytes", "bytes"),
    ("mem.adj_rib_out_bytes", "bytes"),
    ("bgp.attr_clone_bytes", "bytes"),
    ("rpa.cache_hits", "count"),
    ("rpa.cache_misses", "count"),
    ("rpa.cache_hit_ratio", "ratio"),
    ("rpa.eval_fallbacks", "count"),
    ("rpa.installs", "count"),
    ("rpa.removals", "count"),
    ("fib.entries", "count"),
    ("fib.nexthop_groups_total", "count"),
    ("fib.changes", "count"),
    ("ctl.calls", "count"),
    ("ctl.waves", "count"),
    ("ctl.issued_ops", "count"),
    ("ctl.nonbarrier_share", "ratio"),
    ("core.rpc_retries", "count"),
    ("reconcile.rounds", "count"),
    ("health.checks", "count"),
    ("health.failures", "count"),
    ("rpc.calls_per_cycle", "count"),
    ("transport.tcp.retries", "count"),
    ("transport.tcp.circuit_open", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.spans_dropped", "count"),
];
