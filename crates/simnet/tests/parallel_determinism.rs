//! Bit-exact equivalence of every worker count with the event-at-a-time
//! reference.
//!
//! Each scenario runs a full migration-style episode — convergence under
//! message faults and RPC chaos, RPA deploy/remove, drain/undrain and
//! device down/up — and reduces the end state to a text snapshot: every
//! device's FIB and installed RPA documents, the trace statistics, the
//! convergence report, and the deterministic telemetry counters (including
//! the signature-cache hit/miss totals). The snapshot for `--workers N`
//! must equal the one a `step()` loop produces byte for byte, and so must
//! the provenance and journal logs when they are recorded.
//!
//! Wall-clock phase timings (`simnet.phase.*`) are intentionally excluded:
//! they measure host time, not simulated behaviour.

use centralium_bgp::attrs::well_known;
use centralium_bgp::Prefix;
use centralium_rpa::{
    Destination, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature, RouteFilterRpa,
    RpaDocument,
};
use centralium_simnet::{ChaosPlan, FaultPlan, SimConfig, SimNet};
use centralium_telemetry::Telemetry;
use centralium_topology::{build_fabric, FabricSpec};
use std::fmt::Write;

/// Telemetry counters that must match between engines. Phase timings are
/// wall-clock and excluded by construction.
const DETERMINISTIC_COUNTERS: &[&str] = &[
    "rpa.cache_hits",
    "rpa.cache_misses",
    "simnet.rpc_dropped",
    "simnet.rpc_duplicated",
    "simnet.agent_restarts",
    "simnet.messages_delivered",
    "simnet.messages_dropped",
    "simnet.session_events",
    "simnet.rpa_operations",
];

fn equalize_doc(name: &str) -> RpaDocument {
    RpaDocument::PathSelection(PathSelectionRpa::single(
        name,
        PathSelectionStatement::select(
            Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
            vec![PathSet::new("all", PathSignature::any())],
        ),
    ))
}

/// How a scenario drives the event queue.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// `while net.step() {}`: the event-at-a-time reference.
    Steps,
    /// `run_until_quiescent` at this worker count, auto dispatch gate.
    Workers(usize),
    /// `run_until_quiescent` with every non-empty window dispatched to a
    /// pool of this many workers.
    Pooled(usize),
}

/// Which optional logs a scenario records into its snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Record {
    Nothing,
    Provenance,
    /// The journal, plus provenance to cross-check its time stamps.
    JournalAndProvenance,
}

/// Converge under `drive`, returning `(events, finished_at)`.
fn converge(net: &mut SimNet, drive: Drive) -> (u64, u64) {
    let mut steps = 0;
    if matches!(drive, Drive::Steps) {
        while net.step() {
            steps += 1;
        }
    }
    // After a step loop this only runs the quiescence bookkeeping.
    let r = net.run_until_quiescent().expect_converged();
    (steps + r.events_processed, r.finished_at)
}

/// Run the full episode and reduce the end state to a comparable snapshot.
fn scenario(seed: u64, drive: Drive, handshake: bool, record: Record) -> String {
    let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
    let mut cfg = SimConfig::builder()
        .seed(seed)
        .handshake_sessions(handshake)
        .fault(FaultPlan {
            drop_probability: 0.1,
            max_extra_delay_us: 150,
        });
    cfg = match drive {
        Drive::Steps => cfg.workers(1),
        Drive::Workers(n) => cfg.workers(n),
        Drive::Pooled(n) => cfg.workers(n).min_dispatch_jobs(0),
    };
    let mut net = SimNet::new(topo, cfg.build());
    if record == Record::JournalAndProvenance {
        net.set_telemetry(Telemetry::with_journal(1 << 16));
    }
    let log = (record != Record::Nothing).then(|| net.trace_provenance(Prefix::DEFAULT));
    net.set_chaos(ChaosPlan {
        rpc_loss: 0.2,
        rpc_duplicate: 0.2,
        agent_crash: 0.1,
        ..ChaosPlan::new(seed)
    });
    net.establish_all();
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    let mut events = 0;
    let mut finished = 0;
    let mut run = |net: &mut SimNet| {
        let (n, at) = converge(net, drive);
        events += n;
        finished = at;
    };
    run(&mut net);

    // RPA churn on every SSW of grid 0: deploy the equalize document, then
    // remove it from one device (chaos may drop or duplicate either RPC —
    // deterministically per seed).
    for &ssw in &idx.ssw[0] {
        net.deploy_rpa(ssw, equalize_doc("equalize"), 300);
    }
    net.deploy_rpa(
        idx.ssw[0][0],
        RpaDocument::RouteFilter(RouteFilterRpa {
            name: "filter-nothing".into(),
            statements: vec![],
        }),
        300,
    );
    run(&mut net);
    net.remove_rpa(idx.ssw[0][0], "equalize", 300);
    run(&mut net);

    // Maintenance churn: drain/undrain one FADU, bounce one FAUU.
    net.drain_device(idx.fadu[0][0]);
    run(&mut net);
    net.undrain_device(idx.fadu[0][0]);
    net.device_down(idx.fauu[0][0]);
    run(&mut net);
    net.device_up(idx.fauu[0][0]);
    run(&mut net);

    let mut s = String::new();
    writeln!(s, "events={events} finished_at={finished}").unwrap();
    writeln!(s, "stats={:?}", net.stats()).unwrap();
    let snap = net.telemetry().metrics().snapshot();
    for name in DETERMINISTIC_COUNTERS {
        writeln!(s, "{name}={}", snap.counter(name)).unwrap();
    }
    for id in net.device_ids() {
        let dev = net.device(id).unwrap();
        writeln!(
            s,
            "{id} fib={:?} installed={:?}",
            dev.fib,
            dev.engine.installed()
        )
        .unwrap();
    }
    let mut jsonl = Vec::new();
    if let Some(log) = log {
        log.export_jsonl(&mut jsonl).unwrap();
    }
    if let Some(journal) = net.telemetry().journal() {
        assert_eq!(
            journal.dropped(),
            0,
            "journal ring too small for the episode"
        );
        journal.export_jsonl(&mut jsonl).unwrap();
    }
    s.push_str(&String::from_utf8(jsonl).unwrap());
    s
}

#[test]
fn parallel_matches_serial_across_chaos_seeds() {
    for seed in [7u64, 21, 1337] {
        let reference = scenario(seed, Drive::Steps, false, Record::Nothing);
        for workers in [1usize, 2, 4, 8] {
            let windowed = scenario(seed, Drive::Workers(workers), false, Record::Nothing);
            assert_eq!(
                reference, windowed,
                "seed {seed}: {workers}-worker run diverged from the step() loop"
            );
        }
    }
}

#[test]
fn handshake_sessions_exercise_the_control_path() {
    // OPEN/NOTIFICATION exchanges route through Work::Ctl in the worker
    // phase; they must replay identically too.
    for seed in [7u64, 21, 1337] {
        let reference = scenario(seed, Drive::Steps, true, Record::Nothing);
        for drive in [Drive::Workers(1), Drive::Workers(4)] {
            assert_eq!(
                reference,
                scenario(seed, drive, true, Record::Nothing),
                "seed {seed}: handshake-mode {drive:?} run diverged from the step() loop"
            );
        }
    }
}

#[test]
fn auto_worker_count_is_deterministic() {
    // `parallel_workers: 0` sizes the pool from the host's core count; the
    // result must not depend on however many workers that happens to be.
    assert_eq!(
        scenario(7, Drive::Steps, false, Record::Nothing),
        scenario(7, Drive::Workers(0), false, Record::Nothing)
    );
}

#[test]
fn provenance_is_identical_at_every_worker_count() {
    // Records are buffered per window job and appended in pop order, so the
    // JSONL — sequence numbers included — must not depend on the engine.
    for seed in [7u64, 21, 1337] {
        let reference = scenario(seed, Drive::Steps, false, Record::Provenance);
        assert!(
            reference.contains("\"kind\":\"fib_delta\""),
            "seed {seed}: the episode recorded no FIB deltas"
        );
        for drive in [Drive::Workers(1), Drive::Pooled(4)] {
            assert_eq!(
                reference,
                scenario(seed, drive, false, Record::Provenance),
                "seed {seed}: {drive:?} provenance diverged from the step() loop"
            );
        }
    }
}

/// Check journal stamps against provenance, whose times come from the
/// event rather than the shared telemetry clock: every journaled decision
/// that gained or lost the traced prefix's path must have a provenance
/// decision flip on the same device at the same time. Returns how many
/// decisions were checked.
fn journal_stamps_match_provenance(snapshot: &str) -> usize {
    let rows: Vec<serde::Value> = snapshot
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    let field = |r: &serde::Value, path: &[&str]| {
        path.iter()
            .try_fold(r, |v, key| v.get(key))
            .unwrap_or_else(|| panic!("{path:?} missing in {r:?}"))
            .clone()
    };
    let flips: Vec<(u64, u64)> = rows
        .iter()
        .filter(|r| field(r, &["kind"]).as_str() == Some("decision_flip"))
        .map(|r| {
            let dev = field(r, &["device"]).as_u64().unwrap();
            (dev, field(r, &["time_us"]).as_u64().unwrap())
        })
        .collect();
    let mut checked = 0;
    for r in &rows {
        if field(r, &["kind"]).as_str() != Some("BgpDecision")
            || field(r, &["fields", "had_path"]) == field(r, &["fields", "has_path"])
        {
            continue;
        }
        let dev = field(r, &["fields", "device"]).as_str().unwrap()[1..]
            .parse()
            .unwrap();
        let t = field(r, &["t_us"]).as_u64().unwrap();
        assert!(flips.contains(&(dev, t)), "journal stamp off: {r:?}");
        checked += 1;
    }
    checked
}

#[test]
fn journal_is_identical_at_every_worker_count() {
    // With the journal on every window holds one event, so device-side
    // journal stamps match the step() loop's, and both match the event
    // times provenance records.
    for seed in [7u64, 21] {
        let reference = scenario(seed, Drive::Steps, false, Record::JournalAndProvenance);
        assert!(
            journal_stamps_match_provenance(&reference) > 10,
            "seed {seed}: too few journaled decisions to check"
        );
        assert_eq!(
            reference,
            scenario(seed, Drive::Pooled(4), false, Record::JournalAndProvenance),
            "seed {seed}: pooled journal diverged from the step() loop"
        );
    }
}

#[test]
fn run_until_matches_a_step_loop_to_the_deadline() {
    fn fib_digest(net: &SimNet) -> String {
        let mut s = String::new();
        for id in net.device_ids() {
            writeln!(s, "{id} {:?}", net.device(id).unwrap().fib).unwrap();
        }
        s
    }
    let build = |cfg: SimConfig| {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let mut net = SimNet::new(topo, cfg);
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net
    };
    for seed in [7u64, 21, 1337] {
        // The reference trajectory: FIB digest and clock after every step.
        let mut reference = build(SimConfig::builder().seed(seed).build());
        let mut trail = vec![(reference.now(), fib_digest(&reference))];
        while reference.step() {
            trail.push((reference.now(), fib_digest(&reference)));
        }
        let end = trail.last().unwrap().0;
        assert!(trail.len() > 20, "seed {seed}: too short to cut");
        for cfg in [
            SimConfig::builder().seed(seed).workers(1).build(),
            SimConfig::builder()
                .seed(seed)
                .workers(4)
                .min_dispatch_jobs(0)
                .build(),
        ] {
            let mut net = build(cfg);
            let mut events = 0;
            // Deadlines that cut through windows, plus one past the end.
            for deadline in (0..=end + 137).step_by(137) {
                events += net.run_until(deadline);
                // Steps taken by the reference with time <= deadline.
                let expected = trail[1..].iter().filter(|(t, _)| *t <= deadline).count();
                assert_eq!(events, expected as u64, "seed {seed} deadline {deadline}");
                let (t, digest) = &trail[expected];
                assert_eq!(
                    net.now(),
                    deadline.max(*t),
                    "seed {seed} deadline {deadline}"
                );
                assert_eq!(
                    &fib_digest(&net),
                    digest,
                    "seed {seed}: FIBs at {deadline} differ from the step() loop"
                );
            }
            assert_eq!(net.pending_events(), 0);
        }
    }
}

#[test]
fn signature_cache_counters_match_and_are_exercised() {
    // The equalize RPA evaluates path signatures on every reconvergence;
    // interned attribute ids must make those evaluations cache-hit, and the
    // per-device caches must see identical sequences under every drive.
    let run = |drive| {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let workers = match drive {
            Drive::Workers(n) => n,
            _ => 1,
        };
        let mut net = SimNet::new(topo, SimConfig::builder().seed(7).workers(workers).build());
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        converge(&mut net, drive);
        for grid in &idx.ssw {
            for &ssw in grid {
                net.deploy_rpa(ssw, equalize_doc("equalize"), 300);
            }
        }
        converge(&mut net, drive);
        // Bounce a FAUU so the RPA devices re-evaluate signatures over
        // already-seen attribute ids.
        net.device_down(idx.fauu[0][0]);
        converge(&mut net, drive);
        net.device_up(idx.fauu[0][0]);
        converge(&mut net, drive);
        let snap = net.telemetry().metrics().snapshot();
        (
            snap.counter("rpa.cache_hits"),
            snap.counter("rpa.cache_misses"),
        )
    };
    let reference = run(Drive::Steps);
    assert_eq!(
        reference,
        run(Drive::Workers(4)),
        "cache traffic must match across drives"
    );
    assert!(
        reference.0 > 0,
        "signature cache saw no hits: {reference:?}"
    );
    assert!(
        reference.0 >= reference.1,
        "re-evaluations should mostly hit the cache: {reference:?}"
    );
}
