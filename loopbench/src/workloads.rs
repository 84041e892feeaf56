//! The three workloads. Each run measures episodes (or, for `control-tcp`,
//! deploy+remove cycles) until its time is up, checks every output, and
//! reports per-name medians over them.
//!
//! A traced run measures its first half untraced and its second half with
//! span tracing on; the ratio of the two medians is the tracing overhead,
//! and only the traced half feeds the span table.

use crate::episode::{
    fib_digest, fib_entries, mark, median_metrics, phase, phase_metrics, put, registry_metrics,
    Checks, FibRecorder, Metrics, PhaseStat,
};
use crate::spans::{self_times, SpanStat};
use crate::stats::{percentile, ratio, Rng};
use crate::timed::{CallLog, Timed};
use centralium_bench::alloc::live_heap_bytes;
use centralium_bench::tier::{peak_rss_bytes, reset_peak_rss, TierSpec};
use centralium_bgp::attrs::{attr_clone_bytes, well_known};
use centralium_bgp::Prefix;
use centralium_core::apps::path_equalization::equalize_on_layers;
use centralium_core::health::{HealthCheck, TrafficProbe};
use centralium_core::{
    deploy_intent_over, remove_intent_over, AgentServer, ControlTransport, DeployOptions,
    DeploymentReport, DeploymentStrategy, InProcessTransport, RoutingIntent, SwitchAgent,
    TcpTransport,
};
use centralium_nsdb::ReplicatedNsdb;
use centralium_rpa::{
    Destination, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature, RpaDocument,
};
use centralium_simnet::{ManagementPlane, SimConfig, SimNet};
use centralium_telemetry::span::{self, SpanRecord};
use centralium_telemetry::MetricsSnapshot;
use centralium_topology::{DeviceId, FabricIndex, Layer};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The workloads, by the names later changes refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `xl` fabric, one prefix: per-event cost.
    FabricChurn,
    /// `large` fabric, 4 rack /24s per ToR, the controller loop over
    /// loopback TCP: per-route cost.
    TableMigration,
    /// `large` fabric, one prefix, deploy+remove over loopback TCP: the
    /// service plane. Not in `BENCHMARK.json` (see `NOTES.md`).
    ControlTcp,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [
        Workload::FabricChurn,
        Workload::TableMigration,
        Workload::ControlTcp,
    ];

    /// The workloads `BENCHMARK.json` lists. `control-tcp`'s host time swings
    /// too far with the host's load to be gated; it is run by hand.
    pub const BENCHMARKED: [Workload; 2] = [Workload::FabricChurn, Workload::TableMigration];

    /// Resolve a workload name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricChurn => "fabric-churn",
            Workload::TableMigration => "table-migration",
            Workload::ControlTcp => "control-tcp",
        }
    }

    /// The fabric tier the workload is defined on.
    pub fn default_tier(self) -> &'static str {
        match self {
            Workload::FabricChurn => "xl",
            Workload::TableMigration | Workload::ControlTcp => "large",
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Fabric tier name (see `TierSpec::by_name`); tests use `tiny`.
    pub tier: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Worker threads of the convergence engine: the core count of the host the
/// benchmark was defined on, so that the pool really dispatches.
pub const WORKERS: usize = 2;

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Output checks.
    pub checks: Checks,
    /// Every metric, end-to-end and per layer.
    pub metrics: Metrics,
    /// Digest of the final FIBs (equal across episodes by check).
    pub digest: u64,
    /// Episodes (or cycles) measured untraced and traced.
    pub episodes: (usize, usize),
    /// Layer-coverage evidence: statement and whether it held.
    pub coverage: Vec<(&'static str, bool)>,
    /// Span table of the traced half, by `category.name`.
    pub spans: BTreeMap<String, SpanStat>,
    /// Spans of the first traced episode, for the Chrome trace.
    pub trace_records: Vec<SpanRecord>,
    /// Per-episode values of every host-seconds metric of the untraced
    /// episodes, in run order: the distribution behind each median.
    pub samples: BTreeMap<String, Vec<f64>>,
}

/// The host-seconds metrics of each episode, by name.
fn seconds_samples(episodes: &[&Metrics]) -> BTreeMap<String, Vec<f64>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for ep in episodes {
        for (name, m) in ep.iter() {
            if m.unit == "s" {
                out.entry(name.clone()).or_default().push(m.value);
            }
        }
    }
    out
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let spec =
        TierSpec::by_name(&cfg.tier).ok_or_else(|| format!("unknown tier '{}'", cfg.tier))?;
    span::set_tracing(false);
    span::drain();
    let mut out = match cfg.workload {
        Workload::FabricChurn => run_episodes(cfg, |checks, _| fabric_churn(&spec, cfg, checks)),
        Workload::TableMigration => run_episodes(cfg, |checks, reference| {
            table_migration(&spec, cfg, checks, !reference)
        }),
        Workload::ControlTcp => control_tcp(&spec, cfg),
    };
    // Episode workloads report the median per-episode peak where the
    // kernel can reset the high-water mark; otherwise the process peak.
    if !out.metrics.contains_key("peak_rss_mb") {
        put(&mut out.metrics, "peak_rss_mb", peak_rss_mb(), "MiB");
    }
    put(
        &mut out.metrics,
        "trace.spans_dropped",
        span::dropped() as f64,
        "count",
    );
    let m = &out.metrics;
    let get = |name: &str| m.get(name).map_or(f64::NAN, |x| x.value);
    out.coverage = match cfg.workload {
        Workload::FabricChurn => vec![("max_batch_size == 1", get("simnet.max_batch_size") == 1.0)],
        Workload::TableMigration => vec![
            ("max_batch_size > 1", get("simnet.max_batch_size") > 1.0),
            ("shard.dispatches > 0", get("simnet.shard.dispatches") > 0.0),
            ("rpa.cache_hit_ratio > 0", get("rpa.cache_hit_ratio") > 0.0),
            ("rpc.calls_per_cycle > 0", get("rpc.calls_per_cycle") > 0.0),
        ],
        Workload::ControlTcp => vec![(
            "non-barrier ctl.* time > half of operation wall",
            get("ctl.nonbarrier_share") > 0.5,
        )],
    };
    Ok(out)
}

/// One episode's figures, output digest and comparison keys.
struct EpisodeOut {
    metrics: Metrics,
    digest: u64,
    wall_s: f64,
}

/// Run the reference episode, untimed, then measure episodes until the time
/// is up: at least two untraced ones, and in a traced run at least one
/// traced one. A new episode starts only if the median episode so far still
/// fits in the remaining time. Every measured episode must land the
/// reference's FIB digest, event count and simulated time. The closure's
/// flag marks the reference episode: `table-migration` runs it in-process,
/// so the comparison is its TCP ≡ in-process oracle; on `fabric-churn` it
/// is a warm-up.
fn run_episodes(
    cfg: &RunConfig,
    mut episode: impl FnMut(&mut Checks, bool) -> EpisodeOut,
) -> RunOutput {
    let mut out = RunOutput::default();
    let key = |ep: &EpisodeOut| {
        (
            ep.digest,
            ep.metrics["simnet.events"].value,
            ep.metrics["sim_converge_ms"].value,
        )
    };
    let first = key(&episode(&mut out.checks, true));
    let started = Instant::now();
    let mut plain: Vec<Metrics> = Vec::new();
    let mut traced: Vec<Metrics> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let tracing = cfg.trace && plain.len() >= 2 && elapsed >= cfg.seconds / 2.0;
        let need_more = plain.len() < 2 || (cfg.trace && traced.is_empty());
        let next = percentile(&walls, 0.5).unwrap_or(0.0);
        if !need_more && elapsed + next > cfg.seconds {
            break;
        }
        let peak_reset = reset_peak_rss();
        span::set_tracing(tracing);
        let mut ep = episode(&mut out.checks, false);
        span::set_tracing(false);
        if peak_reset {
            put(&mut ep.metrics, "peak_rss_mb", peak_rss_mb(), "MiB");
        }
        let key = key(&ep);
        out.checks.same("FIB digest", &first.0, &key.0);
        out.checks.same("event count", &first.1, &key.1);
        out.checks.same("sim_converge_ms", &first.2, &key.2);
        out.digest = ep.digest;
        walls.push(ep.wall_s);
        if tracing {
            traced.push(ep.metrics);
        } else {
            plain.push(ep.metrics);
        }
    }
    out.episodes = (plain.len(), traced.len());
    out.samples = seconds_samples(&plain.iter().collect::<Vec<_>>());
    out.metrics = median_metrics(&plain);
    if cfg.trace {
        let traced_med = median_metrics(&traced);
        let overhead = ratio(
            traced_med["episode_s"].value,
            out.metrics["episode_s"].value,
        );
        out.metrics = traced_med;
        put(&mut out.metrics, "trace.overhead_ratio", overhead, "ratio");
        finish_trace(&mut out, traced.len());
    }
    out
}

/// Drain the spans of the traced half, fold them into the span table and
/// per-layer metrics, normalised per traced episode.
fn finish_trace(out: &mut RunOutput, traced: usize) {
    let records = span::drain();
    // The first traced episode: its set-up span, when it has one, through
    // the end of its episode span.
    let first_root = |name: &str| records.iter().find(|r| r.cat == "bench" && r.name == name);
    if let Some(ep) = first_root("run.episode") {
        let from = first_root("run.setup").map_or(ep.start_ns, |s| s.start_ns.min(ep.start_ns));
        let to = ep.start_ns + ep.dur_ns;
        out.trace_records = records
            .iter()
            .filter(|r| (from..=to).contains(&r.start_ns))
            .cloned()
            .collect();
    }
    let table = self_times(&records);
    let per = traced.max(1) as f64;
    let m = &mut out.metrics;
    let stat = |name: &str| table.get(name).copied().unwrap_or_default();
    let converge = stat("simnet.converge");
    let events = m.get("simnet.events").map_or(0.0, |x| x.value);
    put(
        m,
        "simnet.ns_per_event",
        ratio(converge.total_ns as f64 / per, events),
        "ns",
    );
    let mut root_self = 0u64;
    let mut root_total = 0u64;
    for (name, s) in &table {
        if name.starts_with("bench.run.") {
            root_self += s.self_ns;
            root_total += s.total_ns;
        }
    }
    put(
        m,
        "trace.unattributed_ms",
        root_self as f64 / 1e6 / per,
        "ms",
    );
    put(
        m,
        "trace.unattributed_share",
        ratio(root_self as f64, root_total as f64),
        "ratio",
    );
    for (name, s) in &table {
        put(
            m,
            format!("span.{name}.self_ms"),
            s.self_ns as f64 / 1e6 / per,
            "ms",
        );
        put(
            m,
            format!("span.{name}.count"),
            s.count as f64 / per,
            "count",
        );
    }
    out.spans = table;
}

fn peak_rss_mb() -> f64 {
    peak_rss_bytes().unwrap_or(0) as f64 / (1u64 << 20) as f64
}

/// Jitter seed of the simulator. On `table-migration` the FSW bounce
/// path-hunts over 512 routes, and its work swings about threefold with the
/// jitter seed (1.0 to 3.7 host seconds), so that workload keeps one jitter
/// seed and draws its prefixes and probes from `--seed`. The other
/// workloads' work barely depends on jitter, so `--seed` sets it.
fn sim_seed(cfg: &RunConfig) -> u64 {
    match cfg.workload {
        Workload::TableMigration => MIGRATION_SIM_SEED,
        Workload::FabricChurn | Workload::ControlTcp => cfg.seed,
    }
}

fn config(seed: u64) -> SimConfig {
    SimConfig::builder().seed(seed).workers(WORKERS).build()
}

/// Build the topology and the emulator and bring every session up: the
/// set-up every workload times as `setup_s`. Done `repeats` times, keeping
/// the last fabric, so that a cheap set-up still gets a steady median.
fn setup(
    spec: &TierSpec,
    cfg: &RunConfig,
    repeats: usize,
    m: &mut Metrics,
) -> (SimNet, FabricIndex) {
    let mut samples = Vec::new();
    let mut built = None;
    for _ in 0..repeats.max(1) {
        drop(built.take());
        let mut once = Metrics::new();
        built = Some(setup_once(spec, cfg, &mut once));
        samples.push(once);
    }
    m.extend(median_metrics(&samples));
    built.expect("at least one set-up")
}

fn setup_once(spec: &TierSpec, cfg: &RunConfig, m: &mut Metrics) -> (SimNet, FabricIndex) {
    let started = Instant::now();
    let (topo, idx, _) = {
        let _sp = span::span("bench", "topology.build");
        spec.build()
    };
    put(
        m,
        "topology.build_ms",
        started.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let mut net = {
        let _sp = span::span("bench", "simnet.new");
        SimNet::new(topo, config(sim_seed(cfg)))
    };
    {
        let _sp = span::span("bench", "simnet.establish_all");
        net.establish_all();
    }
    put(m, "setup_s", started.elapsed().as_secs_f64(), "s");
    (net, idx)
}

fn equalize_doc() -> RpaDocument {
    RpaDocument::PathSelection(PathSelectionRpa::single(
        "equalize",
        PathSelectionStatement::select(
            Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
            vec![PathSet::new("all", PathSignature::any())],
        ),
    ))
}

/// Simulated one-way RPC latency of the fleet RPA push.
const RPC_US: u64 = 300;

fn originate_default(net: &mut SimNet, idx: &FabricIndex) {
    let _sp = span::span("bench", "simnet.originate");
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
}

/// Figures every episode reports after its phases.
fn close_episode(net: &SimNet, phases: &[PhaseStat], clone0: u64, m: &mut Metrics) -> u64 {
    let devices = net.device_ids().len().max(1) as f64;
    put(
        m,
        "live_kb_per_device",
        live_heap_bytes() as f64 / 1024.0 / devices,
        "KiB",
    );
    phase_metrics(phases, m);
    put(m, "cold_start_s", phases[0].host_s, "s");
    registry_metrics(&net.telemetry().metrics().snapshot(), m);
    put(
        m,
        "bgp.attr_clone_bytes",
        (attr_clone_bytes() - clone0) as f64,
        "bytes",
    );
    put(m, "fib.entries", fib_entries(net) as f64, "count");
    fib_digest(net)
}

fn fib_metrics(rec: Option<FibRecorder>, checks: &mut Checks, m: &mut Metrics) {
    let Some(rec) = rec else { return };
    let mut total = 0;
    for (name, n) in rec.changes() {
        put(m, format!("fib.changes.{name}"), n as f64, "count");
        total += n;
    }
    put(m, "fib.changes", total as f64, "count");
    let (ns, changes, same) = rec.replay();
    checks.check(same, || {
        "replayed FIB deltas differ from the live FIBs".into()
    });
    put(
        m,
        "fib.apply_ns_per_change",
        ratio(ns as f64, changes as f64),
        "ns",
    );
}

/// `fabric-churn`: fresh `xl` fabric, cold start on the default route, the
/// equalize RPA pushed to every spine, one aggregation switch bounced.
fn fabric_churn(spec: &TierSpec, cfg: &RunConfig, checks: &mut Checks) -> EpisodeOut {
    let wall = Instant::now();
    let mut m = Metrics::new();
    let (mut net, idx) = {
        let _sp = span::span("bench", "run.setup");
        setup(spec, cfg, 1, &mut m)
    };
    let root = span::span("bench", "run.episode");
    let mut rec = span::tracing_enabled().then(|| FibRecorder::start(&net));
    let clone0 = attr_clone_bytes();
    let bounce = idx.fsw[0][0];
    let spines: Vec<DeviceId> = idx.ssw.iter().flatten().copied().collect();
    let mut phases = Vec::new();
    phases.push(phase(&mut net, checks, "cold", |n| {
        originate_default(n, &idx)
    }));
    mark(&mut rec, &net, "cold");
    phases.push(phase(&mut net, checks, "rpa_fleet", |n| {
        let _sp = span::span("bench", "simnet.deploy_rpa");
        for &s in &spines {
            n.deploy_rpa(s, equalize_doc(), RPC_US);
        }
    }));
    mark(&mut rec, &net, "rpa_fleet");
    phases.push(phase(&mut net, checks, "bounce_down", |n| {
        let _sp = span::span("bench", "simnet.device_down");
        n.device_down(bounce)
    }));
    mark(&mut rec, &net, "bounce_down");
    phases.push(phase(&mut net, checks, "bounce_up", |n| {
        let _sp = span::span("bench", "simnet.device_up");
        n.device_up(bounce)
    }));
    mark(&mut rec, &net, "bounce_up");
    let digest = close_episode(&net, &phases, clone0, &mut m);
    put(&mut m, "deploy_s", phases[1].host_s, "s");
    put(&mut m, "bounce_s", phases[2].host_s + phases[3].host_s, "s");
    fib_metrics(rec, checks, &mut m);
    drop(root);
    {
        let _sp = span::span("bench", "run.teardown");
        drop(net);
    }
    EpisodeOut {
        metrics: m,
        digest,
        wall_s: wall.elapsed().as_secs_f64(),
    }
}

/// Set-ups per `table-migration` episode: one takes milliseconds, and a
/// run holds only a few episodes.
const MIGRATION_SETUPS: usize = 9;

/// The fixed jitter seed of `table-migration` (see [`sim_seed`]).
const MIGRATION_SIM_SEED: u64 = 7;

/// Rack /24s per ToR in `table-migration`.
const RACK_PREFIXES_PER_TOR: usize = 4;

/// `k` distinct rack /24s in 10/8 per ToR, drawn from the seed.
fn rack_prefixes(idx: &FabricIndex, seed: u64, k: usize) -> Vec<(DeviceId, Prefix)> {
    let mut rng = Rng::new(seed, 2);
    let mut used = BTreeSet::new();
    let mut out = Vec::new();
    for &tor in idx.rsw.iter().flatten() {
        for _ in 0..k {
            let prefix = loop {
                let p = Prefix::new(0x0A00_0000 | ((rng.next_u64() as u32 & 0xFFFF) << 8), 24);
                if used.insert(p) {
                    break p;
                }
            };
            out.push((tor, prefix));
        }
    }
    out
}

/// A probe toward `dest` from one ToR per pod, drawn by `rng`.
fn probe_check(idx: &FabricIndex, dest: Prefix, rng: &mut Rng) -> HealthCheck {
    HealthCheck {
        probe: Some(TrafficProbe {
            sources: idx
                .rsw
                .iter()
                .map(|pod| pod[rng.below(pod.len())])
                .collect(),
            dest,
            gbps_each: 1.0,
        }),
        ..HealthCheck::default()
    }
}

/// Record one controller operation: check its outcome, and return its
/// simulated duration.
fn check_op(
    checks: &mut Checks,
    what: &str,
    result: &Result<DeploymentReport, centralium_core::DeployError>,
) -> u64 {
    match result {
        Ok(report) => {
            checks.check(report.post_health.passed(), || {
                format!(
                    "{what}: post-check failed: {:?}",
                    report.post_health.failures
                )
            });
            report.sim_duration()
        }
        Err(e) => {
            checks.check(false, || format!("{what}: {e}"));
            0
        }
    }
}

/// Controller-layer figures over the operations of one episode or cycle.
fn ctl_metrics(log: &CallLog, op_wall_s: f64, reports: &[&DeploymentReport], m: &mut Metrics) {
    for (name, method) in &log.methods {
        put(m, format!("ctl.{name}.calls"), method.calls as f64, "count");
        put(
            m,
            format!("ctl.{name}.ms"),
            method.total_ns() as f64 / 1e6,
            "ms",
        );
    }
    let call_ns = log.total_ns() as f64;
    let non_barrier: f64 = log.non_barrier_samples().iter().sum::<u64>() as f64;
    put(m, "ctl.calls", log.calls() as f64, "count");
    put(m, "ctl.errors", log.errors() as f64, "count");
    put(m, "ctl.self_ms", (op_wall_s * 1e9 - call_ns) / 1e6, "ms");
    put(
        m,
        "ctl.nonbarrier_share",
        ratio(non_barrier, op_wall_s * 1e9),
        "ratio",
    );
    put(
        m,
        "ctl.generation_ms",
        reports
            .iter()
            .map(|r| r.generation_time.as_secs_f64() * 1e3)
            .sum(),
        "ms",
    );
    put(
        m,
        "ctl.waves",
        reports.iter().map(|r| r.phases.len()).sum::<usize>() as f64,
        "count",
    );
    put(
        m,
        "ctl.issued_ops",
        reports.iter().map(|r| r.issued_ops.len()).sum::<usize>() as f64,
        "count",
    );
    latency_metrics(&log.non_barrier_samples(), "rpc_p50_us", "rpc_p99_us", m);
}

/// `table-migration`: fresh `large` fabric with 4 rack /24s per ToR; cold
/// start, then the controller loop (deploy the rack-prefix equalization
/// with probe checks), an FSW bounce, and the removal. The controller
/// operations run over loopback TCP, or in-process when `over_tcp` is
/// false.
fn table_migration(
    spec: &TierSpec,
    cfg: &RunConfig,
    checks: &mut Checks,
    over_tcp: bool,
) -> EpisodeOut {
    let wall = Instant::now();
    let mut m = Metrics::new();
    let (mut net, idx, agent) = {
        let _sp = span::span("bench", "run.setup");
        let (net, idx) = setup(spec, cfg, MIGRATION_SETUPS, &mut m);
        let agent = SwitchAgent::new(ManagementPlane::compute(net.topology(), idx.rsw[0][0]));
        (net, idx, agent)
    };
    let root = span::span("bench", "run.episode");
    let mut rec = span::tracing_enabled().then(|| FibRecorder::start(&net));
    let clone0 = attr_clone_bytes();
    let racks = rack_prefixes(&idx, cfg.seed, RACK_PREFIXES_PER_TOR);
    let mut rng = Rng::new(cfg.seed, 3);
    let bounce = idx.fsw[0][0];
    let mut mig = Migration {
        nsdb: ReplicatedNsdb::new(2),
        intent: equalize_on_layers(
            well_known::RACK_PREFIX,
            Layer::Rsw,
            vec![Layer::Fsw, Layer::Ssw],
        ),
        opts: DeployOptions::new(Layer::Rsw, DeploymentStrategy::SafeOrder),
        check: probe_check(&idx, racks[rng.below(racks.len())].1, &mut rng),
    };
    let mut log = CallLog::default();
    let mut tcp = TcpTotals::default();

    let mut phases = Vec::new();
    phases.push(phase(&mut net, checks, "cold", |n| {
        originate_default(n, &idx);
        let _sp = span::span("bench", "simnet.originate");
        for &(tor, p) in &racks {
            n.originate(tor, p, [well_known::RACK_PREFIX]);
        }
    }));
    mark(&mut rec, &net, "cold");
    let ((mut net, agent), deploy, deploy_phase) = migration_op(
        (net, agent),
        over_tcp.then_some(&mut tcp),
        &mut mig,
        Op::Deploy,
        &mut log,
    );
    let deploy_sim = check_op(checks, "deploy", &deploy);
    phases.push(PhaseStat {
        sim_us: deploy_sim,
        ..deploy_phase
    });
    mark(&mut rec, &net, "deploy");
    phases.push(phase(&mut net, checks, "bounce_down", |n| {
        let _sp = span::span("bench", "simnet.device_down");
        n.device_down(bounce)
    }));
    mark(&mut rec, &net, "bounce_down");
    phases.push(phase(&mut net, checks, "bounce_up", |n| {
        let _sp = span::span("bench", "simnet.device_up");
        n.device_up(bounce)
    }));
    mark(&mut rec, &net, "bounce_up");
    let ((net, _agent), remove, remove_phase) = migration_op(
        (net, agent),
        over_tcp.then_some(&mut tcp),
        &mut mig,
        Op::Remove,
        &mut log,
    );
    let remove_sim = check_op(checks, "remove", &remove);
    phases.push(PhaseStat {
        sim_us: remove_sim,
        ..remove_phase
    });
    mark(&mut rec, &net, "remove");

    let digest = close_episode(&net, &phases, clone0, &mut m);
    put(&mut m, "deploy_s", phases[1].host_s, "s");
    put(&mut m, "bounce_s", phases[2].host_s + phases[3].host_s, "s");
    put(&mut m, "remove_s", phases[4].host_s, "s");
    let reports: Vec<&DeploymentReport> = [&deploy, &remove].into_iter().flatten().collect();
    ctl_metrics(&log, phases[1].host_s + phases[4].host_s, &reports, &mut m);
    if over_tcp {
        rpc_metrics(&log, 1.0, &tcp, &mut m);
    }
    fib_metrics(rec, checks, &mut m);
    drop(root);
    {
        let _sp = span::span("bench", "run.teardown");
        drop(net);
    }
    EpisodeOut {
        metrics: m,
        digest,
        wall_s: wall.elapsed().as_secs_f64(),
    }
}

/// A `table-migration` controller operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Deploy,
    Remove,
}

/// The controller side of a `table-migration` episode: the deployment it
/// adds and removes, its probe check, and the NSDB it publishes to.
struct Migration {
    nsdb: ReplicatedNsdb,
    intent: RoutingIntent,
    opts: DeployOptions,
    check: HealthCheck,
}

impl Migration {
    fn run<T: ControlTransport>(&mut self, op: Op, tr: &mut T) -> OpResult {
        match op {
            Op::Deploy => {
                let _sp = span::span("bench", "core.deploy_intent_over");
                deploy_intent_over(
                    &mut self.nsdb,
                    tr,
                    &self.intent,
                    &self.opts,
                    &self.check,
                    &self.check,
                )
            }
            Op::Remove => {
                let _sp = span::span("bench", "core.remove_intent_over");
                remove_intent_over(&mut self.nsdb, tr, &self.intent, &self.opts, &self.check)
            }
        }
    }
}

/// Run one `table-migration` controller operation. With `tcp`, the fabric
/// is served on loopback for the operation and the controller connects to
/// it afresh, as `deploy --connect` does; the host time runs from the
/// connect to the end of the operation. Without, the operation runs over a
/// timed in-process transport.
fn migration_op(
    (mut net, mut agent): (SimNet, SwitchAgent),
    tcp: Option<&mut TcpTotals>,
    mig: &mut Migration,
    op: Op,
    log: &mut CallLog,
) -> ((SimNet, SwitchAgent), OpResult, PhaseStat) {
    let name = match op {
        Op::Deploy => "deploy",
        Op::Remove => "remove",
    };
    let Some(tcp) = tcp else {
        let (result, stat) = controller_op(&mut net, &mut agent, log, name, |tr| mig.run(op, tr));
        return ((net, agent), result, stat);
    };
    let server = {
        let _sp = span::span("bench", "serve.bind");
        AgentServer::bind("127.0.0.1:0", net, agent).expect("bind a loopback port")
    };
    let events = log.barrier_events;
    let (result, host_s) = tcp_op(&server.local_addr().to_string(), log, tcp, |tr| {
        mig.run(op, tr)
    });
    let stat = PhaseStat {
        name,
        host_s,
        events: log.barrier_events - events,
        sim_us: 0,
    };
    let fabric = {
        let _sp = span::span("bench", "serve.shutdown");
        server.shutdown()
    };
    (fabric, result, stat)
}

/// Run one controller operation over a timed in-process transport.
fn controller_op<R>(
    net: &mut SimNet,
    agent: &mut SwitchAgent,
    log: &mut CallLog,
    name: &'static str,
    op: impl FnOnce(&mut Timed<InProcessTransport<'_>>) -> R,
) -> (R, PhaseStat) {
    let started = Instant::now();
    let mut tr = Timed::new(InProcessTransport::new(net, agent));
    let result = op(&mut tr);
    let host_s = started.elapsed().as_secs_f64();
    let calls = tr.into_log();
    let events = calls.barrier_events;
    log.merge(calls);
    (
        result,
        PhaseStat {
            name,
            host_s,
            events,
            sim_us: 0,
        },
    )
}

/// Set-ups per `control-tcp` run. Each builds, cold-starts and binds a
/// fresh fabric; the median is `setup_s`, and the last one serves the loop.
const TCP_SETUPS: usize = 25;

/// A cold-started fabric behind a loopback [`AgentServer`].
struct Served {
    server: AgentServer,
    telemetry: centralium_telemetry::Telemetry,
    idx: FabricIndex,
    devices: usize,
    /// FIB digest after cold start: every deploy+remove cycle restores it.
    digest: u64,
}

/// Set up a fabric, cold-start it on the default route, and bind it. The
/// set-up time covers all three.
fn serve_fabric(spec: &TierSpec, cfg: &RunConfig, checks: &mut Checks, m: &mut Metrics) -> Served {
    let _sp = span::span("bench", "run.setup");
    let started = Instant::now();
    let (mut net, idx) = setup_once(spec, cfg, m);
    let cold = phase(&mut net, checks, "cold", |n| originate_default(n, &idx));
    put(m, "cold_start_s", cold.host_s, "s");
    let agent = SwitchAgent::new(ManagementPlane::compute(net.topology(), idx.rsw[0][0]));
    let telemetry = net.telemetry().clone();
    let devices = net.device_ids().len();
    let digest_started = Instant::now();
    let digest = fib_digest(&net);
    let digest_s = digest_started.elapsed().as_secs_f64();
    let server = {
        let _sp = span::span("bench", "serve.bind");
        AgentServer::bind("127.0.0.1:0", net, agent).expect("bind a loopback port")
    };
    put(
        m,
        "setup_s",
        started.elapsed().as_secs_f64() - digest_s,
        "s",
    );
    Served {
        server,
        telemetry,
        idx,
        devices,
        digest,
    }
}

/// The deployment every `control-tcp` cycle adds and removes.
fn tcp_intent() -> (RoutingIntent, DeployOptions) {
    (
        equalize_on_layers(
            well_known::BACKBONE_DEFAULT_ROUTE,
            Layer::Backbone,
            vec![Layer::Fsw, Layer::Ssw],
        ),
        DeployOptions::new(Layer::Backbone, DeploymentStrategy::SafeOrder),
    )
}

type OpResult = Result<DeploymentReport, centralium_core::DeployError>;

/// Per-cycle figures of `control-tcp` and its in-process replay.
struct Cycle {
    metrics: Metrics,
    log: CallLog,
    /// What must match the first cycle: barrier events and issued ops.
    key: (u64, usize),
    sims: (u64, u64),
}

fn cycle_metrics(
    checks: &mut Checks,
    deploy: (OpResult, f64),
    remove: (OpResult, f64),
    log: CallLog,
) -> Cycle {
    let (deploy, deploy_s) = deploy;
    let (remove, remove_s) = remove;
    let deploy_sim = check_op(checks, "deploy", &deploy);
    let remove_sim = check_op(checks, "remove", &remove);
    let mut m = Metrics::new();
    let host = deploy_s + remove_s;
    put(&mut m, "deploy_s", deploy_s, "s");
    put(&mut m, "remove_s", remove_s, "s");
    put(&mut m, "episode_s", host, "s");
    put(
        &mut m,
        "events_per_s",
        ratio(log.barrier_events as f64, host),
        "1/s",
    );
    put(&mut m, "simnet.events", log.barrier_events as f64, "count");
    put(
        &mut m,
        "sim_converge_ms",
        (deploy_sim + remove_sim) as f64 / 1e3,
        "sim_ms",
    );
    let reports: Vec<&DeploymentReport> = [&deploy, &remove].into_iter().flatten().collect();
    ctl_metrics(&log, host, &reports, &mut m);
    let ops = reports.iter().map(|r| r.issued_ops.len()).sum();
    Cycle {
        metrics: m,
        key: (log.barrier_events, ops),
        sims: (deploy_sim, remove_sim),
        log,
    }
}

/// Connection-level figures of the TCP client, over the operations measured.
#[derive(Default)]
struct TcpTotals {
    connect_us: Vec<f64>,
    retries: u64,
    circuit_open: u64,
}

/// One controller operation over a fresh TCP connection, as `deploy
/// --connect` runs it. The host time includes connecting.
fn tcp_op(
    addr: &str,
    log: &mut CallLog,
    tcp: &mut TcpTotals,
    op: impl FnOnce(&mut Timed<TcpTransport>) -> OpResult,
) -> (OpResult, f64) {
    let started = Instant::now();
    let connected = {
        let _sp = span::span("bench", "rpc.connect");
        TcpTransport::connect(addr)
    };
    tcp.connect_us.push(started.elapsed().as_secs_f64() * 1e6);
    let result = match connected {
        Err(e) => Err(centralium_core::DeployError::Internal(e)),
        Ok(t) => {
            let mut tr = Timed::new(t);
            let result = op(&mut tr);
            let s = tr.telemetry().metrics().snapshot();
            tcp.retries += s.counter("transport.tcp.retries");
            tcp.circuit_open += s.counter("transport.tcp.circuit_open");
            log.merge(tr.into_log());
            result
        }
    };
    (result, started.elapsed().as_secs_f64())
}

/// `control-tcp`: a closed loop of one client. Each cycle connects and
/// deploys the default-route equalization, then connects and removes it.
fn control_tcp(spec: &TierSpec, cfg: &RunConfig) -> RunOutput {
    let mut out = RunOutput::default();
    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..TCP_SETUPS {
        if let Some(prev) = served.take() {
            let Served { server, .. } = prev;
            drop(server.shutdown());
        }
        let mut m = Metrics::new();
        served = Some(serve_fabric(spec, cfg, &mut out.checks, &mut m));
        setups.push(m);
    }
    let served = served.expect("at least one set-up");
    let addr = served.server.local_addr().to_string();
    let (intent, opts) = tcp_intent();
    let check = probe_check(&served.idx, Prefix::DEFAULT, &mut Rng::new(cfg.seed, 3));
    let mut nsdb = ReplicatedNsdb::new(2);

    let started = Instant::now();
    let mut plain: Vec<Cycle> = Vec::new();
    let mut traced: Vec<Cycle> = Vec::new();
    let mut tcp = TcpTotals::default();
    let mut before_traced: Option<MetricsSnapshot> = None;
    let mut clone0 = attr_clone_bytes();
    // The quiescent footprint is read after the second cycle, so that it
    // does not depend on how many cycles the host managed; what the
    // untraced loop accumulates after that is reported as growth per cycle
    // (the traced half also accumulates span records).
    let mut live_after_two = 0;
    let mut live_untraced_end = 0;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let need_more = plain.len() < 2 || (cfg.trace && traced.is_empty());
        let next = percentile(
            &plain
                .iter()
                .map(|c| c.metrics["episode_s"].value)
                .collect::<Vec<_>>(),
            0.5,
        )
        .unwrap_or(0.0);
        if !need_more && elapsed + next > cfg.seconds {
            break;
        }
        let tracing = cfg.trace && plain.len() >= 2 && elapsed >= cfg.seconds / 2.0;
        if tracing && before_traced.is_none() {
            live_untraced_end = live_heap_bytes();
            before_traced = Some(served.telemetry.metrics().snapshot());
            clone0 = attr_clone_bytes();
        }
        span::set_tracing(tracing);
        let root = span::span("bench", "run.episode");
        let mut log = CallLog::default();
        let deploy = tcp_op(&addr, &mut log, &mut tcp, |tr| {
            let _sp = span::span("bench", "core.deploy_intent_over");
            deploy_intent_over(&mut nsdb, tr, &intent, &opts, &check, &check)
        });
        let remove = tcp_op(&addr, &mut log, &mut tcp, |tr| {
            let _sp = span::span("bench", "core.remove_intent_over");
            remove_intent_over(&mut nsdb, tr, &intent, &opts, &check)
        });
        drop(root);
        span::set_tracing(false);
        let cycle = cycle_metrics(&mut out.checks, deploy, remove, log);
        if let Some(first) = plain.first() {
            out.checks
                .same("barrier events per cycle", &first.key.0, &cycle.key.0);
            out.checks
                .same("issued ops per cycle", &first.key.1, &cycle.key.1);
        }
        if tracing {
            traced.push(cycle);
        } else {
            plain.push(cycle);
        }
        if plain.len() + traced.len() == 2 {
            live_after_two = live_heap_bytes();
        }
    }
    if !cfg.trace {
        live_untraced_end = live_heap_bytes();
    }
    let after = served.telemetry.metrics().snapshot();
    let clone_bytes = attr_clone_bytes() - clone0;
    let Served {
        server,
        devices,
        digest: cold_digest,
        ..
    } = served;
    let (net, _agent) = server.shutdown();
    let digest = fib_digest(&net);
    let entries = fib_entries(&net);
    out.checks.check(digest == cold_digest, || {
        format!("FIBs after deploy+remove cycles {digest:#018x} differ from cold start {cold_digest:#018x}")
    });
    out.digest = digest;
    drop(net);

    out.samples = seconds_samples(&plain.iter().map(|c| &c.metrics).collect::<Vec<_>>());
    out.samples
        .extend(seconds_samples(&setups.iter().collect::<Vec<_>>()));
    let cycles = if cfg.trace { &traced } else { &plain };
    let mut m = median_metrics(&cycles.iter().map(|c| c.metrics.clone()).collect::<Vec<_>>());
    for (name, v) in median_metrics(&setups) {
        m.insert(name, v);
    }
    let n = cycles.len() as f64;
    let mut log = CallLog::default();
    for c in cycles {
        log.merge(c.log.clone());
    }
    rpc_metrics(&log, n, &tcp, &mut m);
    put(
        &mut m,
        "live_kb_per_device",
        live_after_two as f64 / 1024.0 / devices.max(1) as f64,
        "KiB",
    );
    put(
        &mut m,
        "mem.live_growth_per_cycle_bytes",
        ratio(
            live_untraced_end as f64 - live_after_two as f64,
            plain.len().saturating_sub(2) as f64,
        ),
        "bytes",
    );
    let cycle_s = m["episode_s"].value;
    put(&mut m, "cycles_per_s", ratio(1.0, cycle_s), "1/s");
    out.episodes = (plain.len(), traced.len());
    if cfg.trace {
        let plain_s = median_metrics(&plain.iter().map(|c| c.metrics.clone()).collect::<Vec<_>>())
            ["episode_s"]
            .value;
        put(
            &mut m,
            "trace.overhead_ratio",
            ratio(cycle_s, plain_s),
            "ratio",
        );
        let mut diff = after.diff(before_traced.as_ref().expect("a traced cycle ran"));
        diff.gauges = after.gauges.clone();
        let mut reg = Metrics::new();
        registry_metrics(&diff, &mut reg);
        for (name, metric) in reg {
            let per_cycle = diff.counters.contains_key(&name);
            let value = if per_cycle {
                metric.value / n
            } else {
                metric.value
            };
            put(&mut m, name, value, metric.unit);
        }
        put(
            &mut m,
            "bgp.attr_clone_bytes",
            clone_bytes as f64 / n,
            "bytes",
        );
        put(&mut m, "fib.entries", entries as f64, "count");
        out.metrics = m;
        finish_trace(&mut out, traced.len());
        let all: Vec<&Cycle> = plain.iter().chain(&traced).collect();
        in_process_oracle(spec, cfg, &all, digest, &mut out);
    } else {
        out.metrics = m;
    }
    out
}

/// Per-method RPC latencies and connection figures of the measured cycles.
fn rpc_metrics(log: &CallLog, cycles: f64, tcp: &TcpTotals, m: &mut Metrics) {
    for (name, method) in &log.methods {
        latency_metrics(
            &method.samples_ns,
            &format!("rpc.{name}.p50_us"),
            &format!("rpc.{name}.p99_us"),
            m,
        );
    }
    latency_metrics(&log.non_barrier_samples(), "rpc_p50_us", "rpc_p99_us", m);
    put(
        m,
        "rpc.calls_per_cycle",
        ratio(log.calls() as f64, cycles),
        "count",
    );
    let fetch: Vec<f64> = log
        .first_topology_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    if let Some(v) = percentile(&fetch, 0.5) {
        put(m, "rpc.topology_fetch_ms", v, "ms");
    }
    if let Some(v) = percentile(&tcp.connect_us, 0.5) {
        put(m, "rpc.connect_us", v, "us");
    }
    put(m, "transport.tcp.retries", tcp.retries as f64, "count");
    put(
        m,
        "transport.tcp.circuit_open",
        tcp.circuit_open as f64,
        "count",
    );
}

/// The median and 99th percentile of call latencies given in ns, in µs.
fn latency_metrics(samples_ns: &[u64], p50: &str, p99: &str, m: &mut Metrics) {
    let us: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    for (q, name) in [(0.5, p50), (0.99, p99)] {
        if let Some(v) = percentile(&us, q) {
            put(m, name, v, "us");
        }
    }
}

/// The TCP ≡ in-process oracle of the traced run: replay the run's cycles
/// through `InProcessTransport` on an identically set-up fabric. Final FIBs,
/// barrier events and simulated durations must match the TCP run. The
/// replay also captures the FIB deltas of one cycle for the `Fib::apply`
/// replay, and times the in-process cycles for `rpc.overhead_ratio`.
fn in_process_oracle(
    spec: &TierSpec,
    cfg: &RunConfig,
    tcp: &[&Cycle],
    tcp_digest: u64,
    out: &mut RunOutput,
) {
    let checks = &mut out.checks;
    let mut m = Metrics::new();
    let (mut net, idx) = setup_once(spec, cfg, &mut m);
    let mut rec = FibRecorder::start(&net);
    phase(&mut net, checks, "cold", |n| originate_default(n, &idx));
    rec.mark(&net, "cold");
    let mut agent = SwitchAgent::new(ManagementPlane::compute(net.topology(), idx.rsw[0][0]));
    let (intent, opts) = tcp_intent();
    let check = probe_check(&idx, Prefix::DEFAULT, &mut Rng::new(cfg.seed, 3));
    let mut nsdb = ReplicatedNsdb::new(2);
    let mut host = Vec::new();
    for (i, want) in tcp.iter().enumerate() {
        let mut log = CallLog::default();
        let (deploy, d) = controller_op(&mut net, &mut agent, &mut log, "deploy", |tr| {
            deploy_intent_over(&mut nsdb, tr, &intent, &opts, &check, &check)
        });
        if i == 0 {
            rec.mark(&net, "deploy");
        }
        let (remove, r) = controller_op(&mut net, &mut agent, &mut log, "remove", |tr| {
            remove_intent_over(&mut nsdb, tr, &intent, &opts, &check)
        });
        if i == 0 {
            rec.mark(&net, "remove");
        }
        host.push(d.host_s + r.host_s);
        let cycle = cycle_metrics(checks, (deploy, d.host_s), (remove, r.host_s), log);
        checks.same(
            "in-process barrier events (TCP oracle)",
            &want.key.0,
            &cycle.key.0,
        );
        checks.same(
            "in-process simulated durations (TCP oracle)",
            &want.sims,
            &cycle.sims,
        );
    }
    let digest = fib_digest(&net);
    checks.same(
        "in-process final FIB digest (TCP oracle)",
        &tcp_digest,
        &digest,
    );
    fib_metrics(Some(rec), checks, &mut out.metrics);
    let tcp_s: Vec<f64> = tcp.iter().map(|c| c.metrics["episode_s"].value).collect();
    put(
        &mut out.metrics,
        "rpc.overhead_ratio",
        ratio(
            percentile(&tcp_s, 0.5).unwrap_or(0.0),
            percentile(&host, 0.5).unwrap_or(0.0),
        ),
        "ratio",
    );
}
