//! The benchmark's own tests, at `tiny` scale.

use centralium_bench::scenarios::converged_fabric;
use centralium_bgp::attrs::well_known;
use centralium_bgp::FibEntry;
use centralium_core::apps::path_equalization::equalize_on_layers;
use centralium_core::{
    deploy_intent_over, AgentServer, DeployOptions, DeploymentStrategy, HealthCheck,
    InProcessTransport, SwitchAgent, TcpTransport,
};
use centralium_loopbench::timed::Timed;
use centralium_loopbench::workloads::{run, RunConfig, Workload};
use centralium_loopbench::{END_TO_END, PER_LAYER};
use centralium_nsdb::ReplicatedNsdb;
use centralium_simnet::{ManagementPlane, SimNet};
use centralium_topology::{DeviceId, FabricSpec, Layer};
use std::collections::BTreeMap;

fn tiny(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        tier: "tiny".into(),
        seed: 5,
        seconds: 0.3,
        trace,
    }
}

// One test drives every run: span tracing is process-global, so traced
// runs must not overlap.
#[test]
fn every_workload_runs_and_passes_its_checks_at_tiny_scale() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(&tiny(workload, trace)).expect("tiny tier exists");
            let name = workload.name();
            assert!(
                out.checks.failures.is_empty(),
                "{name} trace={trace}: {:?}",
                out.checks.failures
            );
            assert!(out.checks.attempted > 0, "{name}: nothing checked");
            assert!(out.episodes.0 >= 2, "{name}: first-episode comparison ran");
            assert_ne!(out.digest, 0, "{name}: digest printed");
            for (metric, unit) in END_TO_END {
                let m = out
                    .metrics
                    .get(*metric)
                    .unwrap_or_else(|| panic!("{name}: {metric}"));
                assert_eq!(m.unit, *unit, "{name}: {metric}");
                if !metric.starts_with("live_kb") {
                    // The live-heap counter reads 0 without the binary's
                    // counting allocator; every other figure is measured.
                    assert!(m.value > 0.0, "{name}: {metric} = {}", m.value);
                }
            }
            if trace {
                assert!(out.episodes.1 >= 1, "{name}: traced half ran");
                for (metric, unit) in PER_LAYER {
                    if let Some(m) = out.metrics.get(*metric) {
                        assert_eq!(m.unit, *unit, "{name}: {metric}");
                    } else {
                        assert!(
                            matches!(*unit, "count" | "ratio" | "bytes"),
                            "{name}: time {metric} not measured"
                        );
                    }
                }
                assert!(!out.spans.is_empty() && !out.trace_records.is_empty());
                assert!(out.metrics["trace.overhead_ratio"].value > 0.0);
            }
        }
    }
}

#[test]
fn workload_seed_fixes_the_outputs() {
    let a = run(&tiny(Workload::TableMigration, false)).unwrap();
    let b = run(&tiny(Workload::TableMigration, false)).unwrap();
    assert_eq!(a.digest, b.digest);
    assert_eq!(
        a.metrics["sim_converge_ms"].value,
        b.metrics["sim_converge_ms"].value
    );
}

type Fibs = BTreeMap<DeviceId, Vec<FibEntry>>;

fn deploy_tiny(wrap: bool, tcp: bool) -> Fibs {
    let fab = converged_fabric(&FabricSpec::tiny(), 77);
    let mut net: SimNet = fab.net;
    let mut agent = SwitchAgent::new(ManagementPlane::compute(net.topology(), fab.idx.rsw[0][0]));
    let intent = equalize_on_layers(
        well_known::BACKBONE_DEFAULT_ROUTE,
        Layer::Backbone,
        vec![Layer::Fsw, Layer::Ssw],
    );
    let opts = DeployOptions::new(Layer::Backbone, DeploymentStrategy::SafeOrder);
    let check = HealthCheck::default();
    let mut nsdb = ReplicatedNsdb::new(2);
    if tcp {
        let server = AgentServer::bind("127.0.0.1:0", net, agent).expect("bind");
        let t = TcpTransport::connect(&server.local_addr().to_string()).expect("connect");
        let result = if wrap {
            let mut timed = Timed::new(t);
            let r = deploy_intent_over(&mut nsdb, &mut timed, &intent, &opts, &check, &check);
            let log = timed.into_log();
            assert_eq!(log.first_topology_ns.len(), 1, "one fetch per connection");
            assert!(log.calls() > 0 && log.errors() == 0);
            r
        } else {
            let mut t = t;
            deploy_intent_over(&mut nsdb, &mut t, &intent, &opts, &check, &check)
        };
        result.expect("deploy");
        let (net, _) = server.shutdown();
        return net.fib_snapshot();
    }
    let tr = InProcessTransport::new(&mut net, &mut agent);
    if wrap {
        let mut timed = Timed::new(tr);
        deploy_intent_over(&mut nsdb, &mut timed, &intent, &opts, &check, &check).expect("deploy");
        let log = timed.into_log();
        assert!(log.methods["run_until_quiescent"].calls > 0);
        assert!(log.barrier_events > 0);
    } else {
        let mut tr = tr;
        deploy_intent_over(&mut nsdb, &mut tr, &intent, &opts, &check, &check).expect("deploy");
    }
    net.fib_snapshot()
}

#[test]
fn timed_decorator_changes_no_fib() {
    let reference = deploy_tiny(false, false);
    assert_eq!(deploy_tiny(true, false), reference, "wrapped in-process");
    assert_eq!(deploy_tiny(false, true), reference, "unwrapped TCP");
    assert_eq!(deploy_tiny(true, true), reference, "wrapped TCP");
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String)> = doc
            .get(key)
            .and_then(|v| v.as_array())
            .expect("a list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = list
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours, "{key}");
    }
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::BENCHMARKED.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}
