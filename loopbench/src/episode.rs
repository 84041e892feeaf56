//! Pieces every workload shares: the metric table, the output checks, the
//! timed phases of an episode, and the FIB digest, diff and replay.

use crate::stats::{percentile, ratio, Fnv};
use centralium_bgp::{FibEntry, Prefix};
use centralium_simnet::fib::Fib;
use centralium_simnet::{ConvergenceReport, SimNet, SimTime};
use centralium_telemetry::span;
use centralium_telemetry::MetricsSnapshot;
use centralium_topology::DeviceId;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One measured value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value, with all its digits.
    pub value: f64,
    /// Its unit (`s`, `ms`, `count`, `ratio`, ...).
    pub unit: &'static str,
}

/// Metrics by name.
pub type Metrics = BTreeMap<String, Metric>;

/// Insert `name = value unit`.
pub fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.insert(name.into(), Metric { value, unit });
}

/// Per-name median over a list of per-episode metric tables. A name missing
/// from some episodes takes the median of the episodes that have it.
pub fn median_metrics(episodes: &[Metrics]) -> Metrics {
    let mut values: BTreeMap<&str, (Vec<f64>, &'static str)> = BTreeMap::new();
    for ep in episodes {
        for (name, m) in ep {
            values
                .entry(name.as_str())
                .or_insert_with(|| (Vec::new(), m.unit))
                .0
                .push(m.value);
        }
    }
    values
        .into_iter()
        .map(|(name, (v, unit))| {
            let value = percentile(&v, 0.5).expect("non-empty by construction");
            (name.to_string(), Metric { value, unit })
        })
        .collect()
}

/// Output checks: every operation the run attempts, and the ones that
/// failed, with a reason each.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted: barriers, deployments, removals and output
    /// comparisons.
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one operation; record `what` when it did not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Count one comparison of `got` against the reference value `want`.
    pub fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, want: &T, got: &T) {
        self.check(want == got, || {
            format!("{what} differs from its reference: {got:?} vs {want:?}")
        });
    }
}

/// Host and simulated cost of one phase of an episode.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase name (`cold`, `rpa_fleet`, `deploy`, `bounce_down`, ...).
    pub name: &'static str,
    /// Host seconds from the trigger to quiescence.
    pub host_s: f64,
    /// Simulated events processed.
    pub events: u64,
    /// Simulated µs from the trigger to quiescence.
    pub sim_us: SimTime,
}

/// Run one convergence barrier, checking that it converged.
fn barrier(net: &mut SimNet, checks: &mut Checks, phase: &str) -> ConvergenceReport {
    let report = {
        let _sp = span::span("bench", "simnet.run_until_quiescent");
        net.run_until_quiescent()
    };
    checks.check(report.converged, || {
        format!(
            "{phase}: barrier hit the event cap after {} events",
            report.events_processed
        )
    });
    report
}

/// Trigger a phase with `trigger`, then run the barrier; time both.
pub fn phase(
    net: &mut SimNet,
    checks: &mut Checks,
    name: &'static str,
    trigger: impl FnOnce(&mut SimNet),
) -> PhaseStat {
    let sim_start = net.now();
    let started = Instant::now();
    trigger(net);
    let report = barrier(net, checks, name);
    PhaseStat {
        name,
        host_s: started.elapsed().as_secs_f64(),
        events: report.events_processed,
        sim_us: report.finished_at.saturating_sub(sim_start),
    }
}

/// Episode-level end-to-end figures derived from its phases.
pub fn phase_metrics(phases: &[PhaseStat], m: &mut Metrics) {
    let host: f64 = phases.iter().map(|p| p.host_s).sum();
    let events: u64 = phases.iter().map(|p| p.events).sum();
    let sim: SimTime = phases.iter().map(|p| p.sim_us).sum();
    put(m, "episode_s", host, "s");
    put(m, "events_per_s", ratio(events as f64, host), "1/s");
    put(m, "sim_converge_ms", sim as f64 / 1e3, "sim_ms");
    put(m, "simnet.events", events as f64, "count");
    for p in phases {
        put(
            m,
            format!("simnet.converge_ms.{}", p.name),
            p.host_s * 1e3,
            "ms",
        );
        put(
            m,
            format!("simnet.events.{}", p.name),
            p.events as f64,
            "count",
        );
        put(
            m,
            format!("simnet.sim_us.{}", p.name),
            p.sim_us as f64,
            "sim_us",
        );
    }
}

/// Digest of every device's FIB entries, in device order. Equal digests
/// mean equal forwarding state.
pub fn fib_digest(net: &SimNet) -> u64 {
    let _sp = span::span("bench", "fib.digest");
    let mut h = Fnv::default();
    for id in net.device_ids() {
        let dev = net.device(id).expect("listed device exists");
        write!(h, "{id:?}").expect("hashing cannot fail");
        for e in dev.fib.entries() {
            write!(h, "{e:?}").expect("hashing cannot fail");
        }
    }
    h.finish()
}

/// Installed FIB entries over all devices.
pub fn fib_entries(net: &SimNet) -> u64 {
    net.device_ids()
        .into_iter()
        .map(|id| net.device(id).expect("listed device exists").fib.len() as u64)
        .sum()
}

/// One device's FIB changes in a phase, as [`Fib::apply`] takes them.
pub type FibDelta = Vec<(Prefix, Option<FibEntry>)>;

/// Records the FIB changes of each phase (snapshot diffs) and replays them
/// through the public [`Fib::apply`], timing only the applies. Used in the
/// traced run: the snapshots cost time the untraced run does not pay.
pub struct FibRecorder {
    initial: BTreeMap<DeviceId, Vec<FibEntry>>,
    last: BTreeMap<DeviceId, Vec<FibEntry>>,
    capacity: BTreeMap<DeviceId, usize>,
    /// Per phase: its name and the per-device deltas.
    phases: Vec<(&'static str, BTreeMap<DeviceId, FibDelta>)>,
}

impl FibRecorder {
    /// Start recording from the net's current FIBs.
    pub fn start(net: &SimNet) -> Self {
        let _sp = span::span("bench", "fib.snapshot");
        let capacity = net
            .device_ids()
            .into_iter()
            .map(|id| (id, net.device(id).expect("listed").fib.capacity()))
            .collect();
        let initial = net.fib_snapshot();
        FibRecorder {
            last: initial.clone(),
            initial,
            capacity,
            phases: Vec::new(),
        }
    }

    /// Close a phase: diff the net's FIBs against the previous snapshot.
    pub fn mark(&mut self, net: &SimNet, name: &'static str) {
        let _sp = span::span("bench", "fib.snapshot");
        let now = net.fib_snapshot();
        let mut deltas = BTreeMap::new();
        for (id, after) in &now {
            let before = self.last.get(id).map(Vec::as_slice).unwrap_or(&[]);
            let delta = diff(before, after);
            if !delta.is_empty() {
                deltas.insert(*id, delta);
            }
        }
        self.phases.push((name, deltas));
        self.last = now;
    }

    /// Changes recorded per phase.
    pub fn changes(&self) -> Vec<(&'static str, u64)> {
        self.phases
            .iter()
            .map(|(name, d)| (*name, d.values().map(|v| v.len() as u64).sum()))
            .collect()
    }

    /// Replay every phase's deltas into fresh FIBs seeded with the first
    /// snapshot. Returns the ns spent in `Fib::apply`, the changes applied,
    /// and whether the replayed tables equal the last snapshot.
    pub fn replay(&self) -> (u64, u64, bool) {
        let _sp = span::span("bench", "fib.replay");
        let mut fibs: BTreeMap<DeviceId, Fib> = BTreeMap::new();
        for (id, cap) in &self.capacity {
            let mut fib = Fib::new(*cap);
            let seed: FibDelta = self
                .initial
                .get(id)
                .into_iter()
                .flatten()
                .map(|e| (e.prefix, Some(e.clone())))
                .collect();
            fib.apply(seed);
            fibs.insert(*id, fib);
        }
        let mut ns = 0u64;
        let mut changes = 0u64;
        for (_, deltas) in &self.phases {
            for (id, delta) in deltas {
                let fib = fibs.get_mut(id).expect("device present at start");
                changes += delta.len() as u64;
                let batch = delta.clone();
                let started = Instant::now();
                fib.apply(std::hint::black_box(batch));
                ns += started.elapsed().as_nanos() as u64;
            }
        }
        let same = fibs.iter().all(|(id, fib)| {
            let replayed: Vec<&FibEntry> = fib.entries().collect();
            let live: Vec<&FibEntry> = self.last.get(id).into_iter().flatten().collect();
            replayed == live
        });
        (ns, changes, same)
    }
}

/// Close phase `name` on `rec`, when recording.
pub fn mark(rec: &mut Option<FibRecorder>, net: &SimNet, name: &'static str) {
    if let Some(r) = rec {
        r.mark(net, name);
    }
}

fn diff(before: &[FibEntry], after: &[FibEntry]) -> FibDelta {
    let old: BTreeMap<Prefix, &FibEntry> = before.iter().map(|e| (e.prefix, e)).collect();
    let new: BTreeMap<Prefix, &FibEntry> = after.iter().map(|e| (e.prefix, e)).collect();
    let mut out = FibDelta::new();
    for (p, e) in &new {
        if old.get(p) != Some(e) {
            out.push((*p, Some((*e).clone())));
        }
    }
    for p in old.keys() {
        if !new.contains_key(p) {
            out.push((*p, None));
        }
    }
    out
}

/// Per-layer figures read from the program's own telemetry registry.
pub fn registry_metrics(s: &MetricsSnapshot, m: &mut Metrics) {
    let c = |name: &str| s.counter(name) as f64;
    let g = |name: &str| s.gauge(name).max(0) as f64;
    for name in [
        "simnet.phase.windows",
        "simnet.phase.inline_windows",
        "simnet.shard.dispatches",
        "simnet.batches_delivered",
        "simnet.updates_coalesced",
        "simnet.rpa_scoped_reevals",
        "simnet.rpa_full_reevals",
        "simnet.announcements",
        "simnet.withdrawals",
        "simnet.messages_delivered",
        "bgp.decisions",
        "bgp.best_path_changes",
        "rpa.cache_hits",
        "rpa.cache_misses",
        "rpa.eval_fallbacks",
        "rpa.installs",
        "rpa.removals",
        "core.rpc_retries",
        "reconcile.rounds",
        "health.checks",
        "health.failures",
    ] {
        put(m, name, c(name), "count");
    }
    for name in [
        "simnet.phase.pre_us",
        "simnet.phase.work_us",
        "simnet.phase.merge_us",
    ] {
        put(m, name, c(name), "us");
    }
    for name in [
        "simnet.max_batch_size",
        "mem.event_queue_hwm",
        "bgp.canonical_routes",
        "bgp.peer_refs",
        "fib.nexthop_groups_total",
    ] {
        put(m, name, g(name), "count");
    }
    for name in [
        "mem.event_queue_bytes",
        "mem.adj_rib_in_bytes",
        "mem.adj_rib_out_bytes",
    ] {
        put(m, name, g(name), "bytes");
    }
    let windows = c("simnet.phase.windows");
    put(
        m,
        "simnet.dispatch_ratio",
        ratio(c("simnet.shard.dispatches"), windows),
        "ratio",
    );
    let coalesced = c("simnet.updates_coalesced");
    put(
        m,
        "simnet.coalesce_ratio",
        ratio(coalesced, coalesced + c("simnet.batches_delivered")),
        "ratio",
    );
    let scoped = c("simnet.rpa_scoped_reevals");
    put(
        m,
        "simnet.rpa_scoped_ratio",
        ratio(scoped, scoped + c("simnet.rpa_full_reevals")),
        "ratio",
    );
    put(
        m,
        "bgp.decision_useful_ratio",
        ratio(c("bgp.best_path_changes"), c("bgp.decisions")),
        "ratio",
    );
    put(
        m,
        "bgp.fan_in",
        ratio(g("bgp.peer_refs"), g("bgp.canonical_routes")),
        "ratio",
    );
    let hits = c("rpa.cache_hits");
    put(
        m,
        "rpa.cache_hit_ratio",
        ratio(hits, hits + c("rpa.cache_misses")),
        "ratio",
    );
    for (name, unit) in [
        ("simnet.worker.busy_ns", "ns"),
        ("simnet.worker.idle_ns", "ns"),
    ] {
        let total = s
            .log_histogram(name)
            .and_then(|h| h.mean().map(|mean| mean * h.count() as f64))
            .unwrap_or(0.0);
        put(m, name, total, unit);
    }
    for (name, q, unit) in [
        ("simnet.window.jobs", 0.5, "count"),
        ("simnet.batch.routes", 0.5, "count"),
    ] {
        let v = s
            .log_histogram(name)
            .and_then(|h| h.percentile(q))
            .unwrap_or(0);
        put(m, format!("{name}.p50"), v as f64, unit);
    }
    for (name, unit) in [
        ("rpa.eval_us", "us"),
        ("simnet.prefix_convergence_ms", "sim_ms"),
    ] {
        if let Some(h) = s.histogram(name) {
            for (q, tag) in [(0.5, "p50"), (0.99, "p99"), (1.0, "max")] {
                if let Some(v) = bucket_quantile(&h.bounds, &h.counts, q) {
                    put(m, format!("{name}.{tag}"), v, unit);
                }
            }
        }
    }
}

/// The `q`-quantile of a bucketed histogram, resolved to the upper bound of
/// the bucket holding it (the last finite bound for the overflow bucket).
/// `None` when the histogram is empty.
pub fn bucket_quantile(bounds: &[f64], counts: &[u64], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (i, &n) in counts.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return bounds.get(i).or(bounds.last()).copied();
        }
    }
    bounds.last().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_quantile_edges() {
        let bounds = [1.0, 10.0, 100.0];
        assert_eq!(bucket_quantile(&bounds, &[0, 0, 0, 0], 0.5), None);
        assert_eq!(bucket_quantile(&bounds, &[1, 0, 0, 0], 0.5), Some(1.0));
        assert_eq!(bucket_quantile(&bounds, &[1, 1, 0, 0], 1.0), Some(10.0));
        assert_eq!(bucket_quantile(&bounds, &[0, 0, 0, 3], 0.5), Some(100.0));
        assert_eq!(bucket_quantile(&[], &[2], 0.5), None);
    }

    #[test]
    fn median_metrics_takes_per_name_medians() {
        let mut a = Metrics::new();
        put(&mut a, "x", 1.0, "s");
        put(&mut a, "y", 5.0, "count");
        let mut b = Metrics::new();
        put(&mut b, "x", 3.0, "s");
        let mut c = Metrics::new();
        put(&mut c, "x", 2.0, "s");
        let m = median_metrics(&[a, b, c]);
        assert_eq!(m["x"].value, 2.0);
        assert_eq!(m["y"].value, 5.0);
        assert!(median_metrics(&[]).is_empty());
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.same("digest", &1u64, &2u64);
        assert_eq!(c.attempted, 2);
        assert_eq!(c.failures.len(), 1);
    }
}
