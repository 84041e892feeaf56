//! Deep-profiling diagnosis for the windowed convergence engine: *why* is
//! the speedup what it is?
//!
//! `bench_convergence` measures; this tool explains. Each fabric runs the
//! same episode story (cold start + SSW-fleet equalize RPA + FADU bounce)
//! three ways — untraced serial and untraced parallel for honest medians,
//! then one traced parallel run with span tracing enabled for the
//! diagnosis — and prints where the time went: the per-window job-count
//! distribution, worker busy-vs-idle utilization, the serial
//! pre/work/merge phase split, per-event latency percentiles, and the
//! top-10 hottest devices and widest-held prefixes. The epilogue is an
//! explicit verdict line answering "why is speedup < 1.0" (or confirming
//! the win).
//!
//! ```text
//! perf_report [--tiny] [--fabric T1,T2,...] [--iters N] [--workers N]
//!             [--json FILE] [--trace-out FILE] [--baseline FILE]
//! ```
//!
//! `--fabric` names an explicit tier list (`tiny`/`default`/`large`/`2k`/
//! `xl`/`xxl`); the scale tiers report the arena and calendar-queue footprint
//! gauges plus process peak RSS alongside the usual diagnosis.
//!
//! `--trace-out` writes the traced runs as one Chrome Trace Event file
//! (open in `chrome://tracing` or Perfetto). `--baseline FILE` is the CI
//! overhead gate: the **untraced** serial median must stay within 2% of
//! the committed `BENCH_convergence.json` serial median (plus a quarter
//! millisecond of absolute slack to absorb clock noise on sub-10ms
//! fabrics), proving the always-compiled instrumentation costs nothing
//! when disabled.

use centralium_bench::args::BenchArgs;
use centralium_bench::episode;
use centralium_bench::stats::percentile;
use centralium_bench::tier::{parse_tier_list, peak_rss_bytes, reset_peak_rss, TierSpec};
use centralium_simnet::{SimConfig, SimNet};
use centralium_telemetry::{span, MetricsSnapshot};
use serde_json::json;
use std::process::ExitCode;
use std::time::Instant;

const SEED: u64 = 7;
const DEFAULT_ITERS: usize = 3;
const DEFAULT_WORKERS: usize = 8;

/// Overhead gate: untraced serial wall vs the committed baseline.
const MAX_OVERHEAD: f64 = 0.02;
/// Absolute slack for the overhead gate, in milliseconds.
const OVERHEAD_SLACK_MS: f64 = 0.25;

/// The shared episode ([`episode::run`]), returning its wall time in ms
/// (everything after topology construction) and the converged network for
/// post-hoc inspection.
fn measure(spec: &TierSpec, workers: usize) -> (f64, SimNet) {
    let (topo, idx, _) = spec.build();
    let mut net = SimNet::new(
        topo,
        SimConfig::builder().seed(SEED).workers(workers).build(),
    );
    let start = Instant::now();
    episode::run(&mut net, &idx, |net| {
        net.run_until_quiescent()
            .expect_converged()
            .events_processed
    });
    (start.elapsed().as_secs_f64() * 1e3, net)
}

/// Top-10 devices by traced busy time, as `(label, busy_ns)`.
fn hottest_devices(snap: &MetricsSnapshot) -> Vec<(String, u64)> {
    let mut hot: Vec<(String, u64)> = snap
        .counters
        .iter()
        .filter(|(k, v)| k.starts_with("simnet.device.") && k.ends_with(".busy_ns") && **v > 0)
        .map(|(k, v)| {
            (
                k.trim_start_matches("simnet.device.")
                    .trim_end_matches(".busy_ns")
                    .to_string(),
                *v,
            )
        })
        .collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    hot.truncate(10);
    hot
}

/// Top-10 prefixes by fabric-wide Adj-RIB-In occupancy (how many stored
/// routes the fabric holds for each), as `(prefix, routes)`.
fn widest_prefixes(net: &SimNet) -> Vec<(String, u64)> {
    let mut by_prefix: std::collections::BTreeMap<String, u64> = Default::default();
    for id in net.device_ids() {
        let dev = net.device(id).expect("listed device exists");
        for prefix in dev.daemon.known_prefixes() {
            *by_prefix.entry(prefix.to_string()).or_default() +=
                dev.daemon.rib_in_count(prefix) as u64;
        }
    }
    let mut top: Vec<(String, u64)> = by_prefix.into_iter().collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    top.truncate(10);
    top
}

/// One fabric's diagnosis, printed and returned as the JSON row.
struct Diagnosis {
    row: serde_json::Value,
    serial_median: f64,
}

fn diagnose(label: &str, spec: &TierSpec, iters: usize, workers: usize) -> Diagnosis {
    let devices = spec.devices();
    println!("fabric '{label}' ({devices} devices), {workers} workers, {iters} iters:");
    // Collapse the process-lifetime RSS high-water mark so this fabric's
    // peak reading does not inherit an earlier (larger) fabric's.
    reset_peak_rss();

    // Untraced medians: the honest speedup and the overhead-gate sample.
    let serial_walls: Vec<f64> = (0..iters).map(|_| measure(spec, 1).0).collect();
    let par_walls: Vec<f64> = (0..iters).map(|_| measure(spec, workers).0).collect();
    let serial_median = percentile(&serial_walls, 50.0);
    let par_median = percentile(&par_walls, 50.0);
    let speedup = if par_median > 0.0 {
        serial_median / par_median
    } else {
        0.0
    };
    println!(
        "  untraced: serial {serial_median:.2}ms, {workers} workers {par_median:.2}ms \
         => speedup {speedup:.2}x"
    );

    // One traced parallel run for the breakdown.
    span::set_tracing(true);
    let (traced_wall, net) = measure(spec, workers);
    span::set_tracing(false);
    let snap = net.telemetry().metrics().snapshot();
    println!("  traced:   {workers} workers {traced_wall:.2}ms (tracing overhead included)");

    let windows = snap.counter("simnet.phase.windows");
    let inline = snap.counter("simnet.phase.inline_windows");
    let (pre, work, merge) = (
        snap.counter("simnet.phase.pre_us"),
        snap.counter("simnet.phase.work_us"),
        snap.counter("simnet.phase.merge_us"),
    );
    let phase_total = (pre + work + merge).max(1) as f64;

    println!(
        "  phases:   pre {pre}us ({:.0}%) / work {work}us ({:.0}%) / merge {merge}us ({:.0}%)",
        100.0 * pre as f64 / phase_total,
        100.0 * work as f64 / phase_total,
        100.0 * merge as f64 / phase_total,
    );

    let jobs = snap
        .log_histogram("simnet.window.jobs")
        .cloned()
        .unwrap_or_default();
    let job_buckets = jobs.nonzero_buckets();
    println!(
        "  windows:  {windows} total, {inline} inline ({:.0}%); jobs/window p50<={} p99<={} max<={}",
        100.0 * inline as f64 / windows.max(1) as f64,
        jobs.percentile(0.5).unwrap_or(0),
        jobs.percentile(0.99).unwrap_or(0),
        jobs.percentile(1.0).unwrap_or(0),
    );
    if !job_buckets.is_empty() {
        let dist: Vec<String> = job_buckets
            .iter()
            .map(|(upper, count)| format!("<={upper}:{count}"))
            .collect();
        println!("  window-size distribution: {}", dist.join("  "));
    }

    let dispatches = snap.counter("simnet.shard.dispatches");
    let shard_count = snap.gauge("simnet.shard.count");
    let shard_jobs = snap
        .log_histogram("simnet.shard.jobs")
        .cloned()
        .unwrap_or_default();
    if dispatches > 0 {
        println!(
            "  shards:   {shard_count} shards, {dispatches} pool dispatches; \
             jobs/busy-shard p50<={} p99<={}",
            shard_jobs.percentile(0.5).unwrap_or(0),
            shard_jobs.percentile(0.99).unwrap_or(0),
        );
    } else {
        println!("  shards:   {shard_count} shards, 0 pool dispatches (every window inline)");
    }

    let busy = snap
        .log_histogram("simnet.worker.busy_ns")
        .cloned()
        .unwrap_or_default();
    let idle = snap
        .log_histogram("simnet.worker.idle_ns")
        .cloned()
        .unwrap_or_default();
    let (busy_ns, idle_ns) = (busy.sum as f64, idle.sum as f64);
    let utilization = if busy_ns + idle_ns > 0.0 {
        busy_ns / (busy_ns + idle_ns)
    } else {
        0.0
    };
    println!(
        "  workers:  utilization {:.1}% (busy {:.2}ms, idle {:.2}ms over {} worker-windows)",
        100.0 * utilization,
        busy_ns / 1e6,
        idle_ns / 1e6,
        busy.count(),
    );

    let latency = snap
        .log_histogram("simnet.event.latency_ns")
        .cloned()
        .unwrap_or_default();
    if let (Some(mean), Some(p50), Some(p99)) = (
        latency.mean(),
        latency.percentile(0.5),
        latency.percentile(0.99),
    ) {
        println!(
            "  events:   {} traced, latency mean={mean:.0}ns p50<={p50}ns p99<={p99}ns",
            latency.count()
        );
    }

    let hot = hottest_devices(&snap);
    if !hot.is_empty() {
        let line: Vec<String> = hot
            .iter()
            .map(|(d, ns)| format!("{d}:{:.2}ms", *ns as f64 / 1e6))
            .collect();
        println!("  hottest devices: {}", line.join("  "));
    }
    let wide = widest_prefixes(&net);
    if !wide.is_empty() {
        let line: Vec<String> = wide
            .iter()
            .map(|(p, n)| format!("{p}:{n} routes"))
            .collect();
        println!("  widest prefixes: {}", line.join("  "));
    }
    let peak_rss = peak_rss_bytes().unwrap_or(0);
    println!(
        "  memory:   adj-rib-in {} KB / adj-rib-out {} KB \
         ({} canonical routes fanned to {} peer refs), \
         interner {} paths / {} community sets, \
         event-queue HWM {} ({} KB buckets), device arenas {} KB, \
         process peak RSS {:.1} MB",
        snap.gauge("mem.adj_rib_in_bytes") / 1024,
        snap.gauge("mem.adj_rib_out_bytes") / 1024,
        snap.gauge("bgp.canonical_routes"),
        snap.gauge("bgp.peer_refs"),
        snap.gauge("mem.interner.as_paths"),
        snap.gauge("mem.interner.community_sets"),
        snap.gauge("mem.event_queue_hwm"),
        snap.gauge("mem.event_queue_bytes") / 1024,
        snap.gauge("mem.device_arena_bytes") / 1024,
        peak_rss as f64 / (1024.0 * 1024.0),
    );

    // The point of the exercise: say *why*.
    let verdict = if speedup >= 1.0 {
        if busy_ns + idle_ns > 0.0 {
            format!(
                "speedup {speedup:.2}x: the windowed engine wins at this size \
                 (workers {:.0}% busy)",
                100.0 * utilization
            )
        } else {
            format!(
                "speedup {speedup:.2}x with every window inline: the win comes \
                 from window batching, not threads"
            )
        }
    } else {
        let mut reasons = Vec::new();
        if inline * 2 > windows.max(1) {
            reasons.push(format!(
                "{:.0}% of windows ran inline — too few jobs per window to cover \
                 the pool dispatch handoff",
                100.0 * inline as f64 / windows.max(1) as f64
            ));
        }
        if utilization < 0.5 && busy_ns + idle_ns > 0.0 {
            reasons.push(format!(
                "workers only {:.0}% busy — handoff latency and jagged per-shard \
                 job sizes leave workers waiting",
                100.0 * utilization
            ));
        }
        if (pre + merge) as f64 > work as f64 {
            reasons.push(format!(
                "serial pre+merge phases take {:.0}% of windowed time — Amdahl bound",
                100.0 * (pre + merge) as f64 / phase_total
            ));
        }
        if reasons.is_empty() {
            reasons.push(format!(
                "per-window job counts are small (p50<={}) — parallelism cannot \
                 amortize coordination",
                jobs.percentile(0.5).unwrap_or(0)
            ));
        }
        format!("speedup {speedup:.2}x < 1.0 because {}", reasons.join("; "))
    };
    println!("  verdict:  {verdict}\n");

    let row = json!({
        "fabric": label,
        "devices": devices,
        "workers": workers,
        "iters": iters,
        "serial_median_ms": serial_median,
        "parallel_median_ms": par_median,
        "speedup": speedup,
        "traced_wall_ms": traced_wall,
        "windows": windows,
        "inline_windows": inline,
        "shard_count": shard_count,
        "shard_dispatches": dispatches,
        "shard_jobs_buckets": shard_jobs.nonzero_buckets(),
        "phase_pre_us": pre,
        "phase_work_us": work,
        "phase_merge_us": merge,
        "worker_utilization": utilization,
        "worker_busy_ns": busy.sum,
        "worker_idle_ns": idle.sum,
        "window_jobs_buckets": job_buckets,
        "batch_routes_buckets": snap
            .log_histogram("simnet.batch.routes")
            .cloned()
            .unwrap_or_default()
            .nonzero_buckets(),
        "event_latency": {
            "count": latency.count(),
            "mean_ns": latency.mean().unwrap_or(0.0),
            "p50_ns": latency.percentile(0.5).unwrap_or(0),
            "p99_ns": latency.percentile(0.99).unwrap_or(0),
        },
        "hottest_devices": hot,
        "widest_prefixes": wide,
        "mem": {
            "adj_rib_in_bytes": snap.gauge("mem.adj_rib_in_bytes"),
            "adj_rib_out_bytes": snap.gauge("mem.adj_rib_out_bytes"),
            "canonical_routes": snap.gauge("bgp.canonical_routes"),
            "peer_refs": snap.gauge("bgp.peer_refs"),
            "interner_as_paths": snap.gauge("mem.interner.as_paths"),
            "interner_community_sets": snap.gauge("mem.interner.community_sets"),
            "event_queue_hwm": snap.gauge("mem.event_queue_hwm"),
            "event_queue_bytes": snap.gauge("mem.event_queue_bytes"),
            "device_arena_bytes": snap.gauge("mem.device_arena_bytes"),
            "peak_rss_bytes": peak_rss,
        },
        "verdict": verdict,
    });
    Diagnosis { row, serial_median }
}

/// The CI overhead gate: this run's untraced one-worker median vs the
/// committed `bench_convergence` baseline's one-worker windows row, within
/// [`MAX_OVERHEAD`] plus [`OVERHEAD_SLACK_MS`]. Fabrics missing on either
/// side are skipped.
fn overhead_gate(path: &str, measured: &[(String, f64)]) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let baseline: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let base_serial = |label: &str| -> Option<f64> {
        let fabric = baseline
            .get("fabrics")?
            .as_array()?
            .iter()
            .find(|f| f.get("fabric").and_then(|v| v.as_str()) == Some(label))?;
        episode::baseline_row(fabric, "windows")?
            .get("median_wall_ms")?
            .as_f64()
    };
    let mut lines = Vec::new();
    for (label, now) in measured {
        let Some(base) = base_serial(label) else {
            lines.push(format!(
                "overhead '{label}': no baseline serial sample, skipped"
            ));
            continue;
        };
        let limit = base * (1.0 + MAX_OVERHEAD) + OVERHEAD_SLACK_MS;
        if *now > limit {
            return Err(format!(
                "fabric '{label}' profiling-disabled serial wall {now:.2}ms exceeds \
                 {:.0}% overhead gate over baseline {base:.2}ms (limit {limit:.2}ms)",
                MAX_OVERHEAD * 100.0,
            ));
        }
        lines.push(format!(
            "overhead '{label}': serial wall {base:.2}ms -> {now:.2}ms, \
             within {:.0}% gate",
            MAX_OVERHEAD * 100.0,
        ));
    }
    Ok(lines)
}

fn main() -> ExitCode {
    let args = match BenchArgs::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let iters = args
        .get_u64("iters")
        .unwrap_or(None)
        .map(|n| n.max(1) as usize)
        .unwrap_or(DEFAULT_ITERS);
    let workers = args
        .get_u64("workers")
        .unwrap_or(None)
        .map(|n| n.max(2) as usize)
        .unwrap_or(DEFAULT_WORKERS);
    let fabrics: Vec<(String, TierSpec)> = match args.get_str("fabric") {
        Ok(Some(list)) => match parse_tier_list(&list) {
            Ok(tiers) => tiers,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        Ok(None) if args.has_flag("tiny") => {
            vec![(
                "tiny".into(),
                TierSpec::by_name("tiny").expect("known tier"),
            )]
        }
        Ok(None) => ["tiny", "default", "large"]
            .iter()
            .map(|n| (n.to_string(), TierSpec::by_name(n).expect("known tier")))
            .collect(),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("Convergence profiler report: seed {SEED}");
    println!("episode: cold start + SSW-fleet equalize RPA + FADU bounce\n");
    span::set_tracing(false);
    span::drain(); // discard anything a prior in-process run left behind

    let mut rows = Vec::new();
    let mut serial_medians = Vec::new();
    for (label, spec) in &fabrics {
        let d = diagnose(label, spec, iters, workers);
        serial_medians.push((label.to_string(), d.serial_median));
        rows.push(d.row);
    }

    if let Ok(Some(path)) = args.get_str("trace-out") {
        let records = span::drain();
        let write = std::fs::File::create(&path)
            .map_err(|e| format!("creating {path}: {e}"))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                span::export_chrome_trace(&records, &mut w)
                    .and_then(|()| std::io::Write::flush(&mut w))
                    .map_err(|e| format!("writing {path}: {e}"))
            });
        if let Err(e) = write {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "trace: {} spans written to {path}; open in chrome://tracing or ui.perfetto.dev",
            records.len()
        );
    }

    if let Ok(Some(path)) = args.get_str("json") {
        let doc = json!({ "seed": SEED, "fabrics": rows });
        match serde_json::to_string_pretty(&doc) {
            Ok(text) => {
                if let Err(e) = std::fs::write(&path, text + "\n") {
                    eprintln!("error: writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {path}");
            }
            Err(e) => {
                eprintln!("error: serializing report: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Ok(Some(path)) = args.get_str("baseline") {
        match overhead_gate(&path, &serial_medians) {
            Ok(lines) => {
                for line in lines {
                    println!("{line}");
                }
            }
            Err(e) => {
                eprintln!("error: overhead gate: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
