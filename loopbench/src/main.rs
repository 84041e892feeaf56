//! `loopbench`: run one workload of the end-to-end benchmark and print every
//! metric by name with its unit; the last line is the JSON result.
//!
//! ```text
//! loopbench --workload <fabric-churn|table-migration|control-tcp>
//!           --seed N --seconds S --trace <0|1>
//!           [--out DIR]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `NOTES.md`). Full results, and in a traced run a Chrome trace
//! of the first traced episode, are written under `--out`
//! (`loopbench-out` by default).

use centralium_bench::alloc::CountingAlloc;
use centralium_loopbench::episode::{Metric, Metrics};
use centralium_loopbench::workloads::{run, RunConfig, RunOutput, Workload, WORKERS};
use centralium_loopbench::{END_TO_END, PER_LAYER};
use centralium_telemetry::span;
use serde_json::{json, Map, Value};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = "loopbench-out".to_string();
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("not a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--out" => out = value,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn metric_json(m: &Metric) -> Value {
    json!({"value": m.value, "unit": m.unit})
}

/// The metrics of the result line: exactly the listed ones. A listed count
/// or ratio the workload does not produce reads 0; a listed time must have
/// been measured.
fn listed(metrics: &Metrics, list: &[(&str, &'static str)]) -> Result<Map, String> {
    let mut out = Map::new();
    for &(name, unit) in list {
        let m = match metrics.get(name) {
            Some(m) => *m,
            None if matches!(unit, "count" | "ratio" | "bytes") => Metric { value: 0.0, unit },
            None => return Err(format!("metric {name} was not measured")),
        };
        if m.unit != unit {
            return Err(format!("metric {name} has unit {} not {unit}", m.unit));
        }
        out.insert(name.to_string(), metric_json(&m));
    }
    Ok(out)
}

fn write_files(args: &Args, tier: &str, host_cores: usize, out: &RunOutput) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let stem = format!(
        "{}/{}-seed{}-trace{}",
        args.out,
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let spans: Map = out
        .spans
        .iter()
        .map(|(name, s)| {
            (
                name.clone(),
                json!({"count": s.count, "total_ns": s.total_ns, "self_ns": s.self_ns}),
            )
        })
        .collect();
    let doc = json!({
        "workload": args.workload.name(),
        "tier": tier,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": WORKERS,
        "host_cores": host_cores,
        "episodes_untraced": out.episodes.0,
        "episodes_traced": out.episodes.1,
        "fib_digest": format!("{:#018x}", out.digest),
        "attempted": out.checks.attempted,
        "failures": out.checks.failures,
        "coverage": out.coverage.iter().map(|(what, held)| json!({"check": what, "holds": held})).collect::<Vec<_>>(),
        "metrics": out.metrics.iter().map(|(k, m)| (k.clone(), metric_json(m))).collect::<Map>(),
        "spans": spans,
        "samples": out.samples,
    });
    std::fs::write(
        format!("{stem}.json"),
        serde_json::to_string_pretty(&doc).expect("encode"),
    )?;
    if args.trace {
        let mut buf = Vec::new();
        span::export_chrome_trace(&out.trace_records, &mut buf)?;
        std::fs::write(format!("{stem}.trace.json"), buf)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let tier = args.workload.default_tier();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunConfig {
        workload: args.workload,
        tier: tier.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let out = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "loopbench workload={} tier={tier} seed={} workers={} host_cores={host_cores} trace={} episodes={}+{}",
        args.workload.name(),
        args.seed,
        WORKERS,
        u8::from(args.trace),
        out.episodes.0,
        out.episodes.1,
    );
    println!("digest {} {:#018x}", args.workload.name(), out.digest);
    let failed = out.checks.failures.len() as u64;
    for f in &out.checks.failures {
        println!("check FAILED: {f}");
    }
    println!(
        "metric ops_failed_ratio {} ratio",
        failed as f64 / out.checks.attempted.max(1) as f64
    );
    for (name, m) in &out.metrics {
        println!("metric {name} {} {}", m.value, m.unit);
    }
    for (what, held) in &out.coverage {
        println!("coverage {}: {what} holds={held}", args.workload.name());
    }
    if args.trace {
        println!("span name count total_ms self_ms");
        for (name, s) in &out.spans {
            println!(
                "span {name} {} {:.3} {:.3}",
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
    }
    if let Err(e) = write_files(&args, tier, host_cores, &out) {
        eprintln!("error: writing results under {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = match listed(&out.metrics, list) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = json!({
        "correct": failed == 0,
        "attempted": out.checks.attempted,
        "failed": failed,
        "metrics": metrics,
    });
    println!("{}", serde_json::to_string(&result).expect("encode"));
    ExitCode::SUCCESS
}
