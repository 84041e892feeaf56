//! Lifecycle tests for the persistent sharded worker pool.
//!
//! The determinism oracle in `parallel_determinism.rs` compares engines
//! under the *auto* dispatch gate, which on a small host may keep every
//! window inline. These tests force every non-empty window through the pool
//! (`min_dispatch_jobs: 0`) so the dispatch path itself — channel handoff,
//! shard → worker assignment, result collection, reuse across repeated
//! convergence calls, shutdown on drop, panic propagation — is exercised
//! regardless of the machine the suite runs on.

use centralium_bgp::attrs::well_known;
use centralium_bgp::Prefix;
use centralium_rpa::{
    Destination, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature, RpaDocument,
};
use centralium_simnet::{SimConfig, SimNet, WorkerPool};
use centralium_topology::{build_fabric, FabricSpec};
use std::fmt::Write;

fn equalize_doc(name: &str) -> RpaDocument {
    RpaDocument::PathSelection(PathSelectionRpa::single(
        name,
        PathSelectionStatement::select(
            Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
            vec![PathSet::new("all", PathSignature::any())],
        ),
    ))
}

/// Build a network whose every non-empty window dispatches to the pool.
fn forced_net(
    seed: u64,
    workers: usize,
    shards: usize,
) -> (SimNet, centralium_topology::FabricIndex) {
    let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
    let cfg = SimConfig::builder()
        .seed(seed)
        .workers(workers)
        .shards(shards)
        .min_dispatch_jobs(0)
        .build();
    (SimNet::new(topo, cfg), idx)
}

/// A reference network with the identical scenario configuration, to be
/// driven by a `step()` loop.
fn reference_net(seed: u64) -> (SimNet, centralium_topology::FabricIndex) {
    let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
    (
        SimNet::new(topo, SimConfig::builder().seed(seed).build()),
        idx,
    )
}

/// Converge: by a `step()` loop (the event-at-a-time reference) or by
/// `run_until_quiescent` windows. Returns `(events, finished_at)`.
fn converge(net: &mut SimNet, steps: bool) -> (u64, u64) {
    let mut n = 0;
    if steps {
        while net.step() {
            n += 1;
        }
    }
    let r = net.run_until_quiescent().expect_converged();
    (n + r.events_processed, r.finished_at)
}

/// One churn episode: originate defaults, converge, RPA deploy/remove,
/// bounce a device. Multiple convergence barriers per episode, so a
/// pooled engine reuses its parked workers across them.
fn episode(net: &mut SimNet, idx: &centralium_topology::FabricIndex, steps: bool) -> String {
    net.establish_all();
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    let mut events = 0;
    let mut finished = 0;
    let mut run = |net: &mut SimNet| {
        let (n, at) = converge(net, steps);
        events += n;
        finished = at;
    };
    run(net);
    for &ssw in &idx.ssw[0] {
        net.deploy_rpa(ssw, equalize_doc("equalize"), 300);
    }
    run(net);
    net.remove_rpa(idx.ssw[0][0], "equalize", 300);
    run(net);
    net.device_down(idx.fauu[0][0]);
    run(net);
    net.device_up(idx.fauu[0][0]);
    run(net);

    let mut s = String::new();
    writeln!(s, "events={events} finished_at={finished}").unwrap();
    writeln!(s, "stats={:?}", net.stats()).unwrap();
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
    s
}

#[test]
fn forced_dispatch_matches_serial_across_seeds_and_workers() {
    for seed in [7u64, 21, 1337] {
        let (mut net, idx) = reference_net(seed);
        let reference = episode(&mut net, &idx, true);
        for workers in [1usize, 2, 4] {
            let (mut net, idx) = forced_net(seed, workers, 0);
            assert_eq!(
                reference,
                episode(&mut net, &idx, false),
                "seed {seed}: forced-dispatch {workers}-worker run diverged from the step() loop"
            );
        }
    }
}

#[test]
fn shard_count_is_purely_a_scheduling_knob() {
    // More shards than workers, fewer shards than workers, one shard, and
    // absurdly many: the shard → worker fold must never change behaviour.
    let (mut net, idx) = reference_net(7);
    let reference = episode(&mut net, &idx, true);
    for shards in [1usize, 2, 3, 8, 64] {
        let (mut net, idx) = forced_net(7, 4, shards);
        assert_eq!(
            reference,
            episode(&mut net, &idx, false),
            "shards={shards}: run diverged from the step() loop"
        );
    }
}

#[test]
fn reused_pool_stays_deterministic_across_repeated_convergences() {
    // Two identical pooled networks driven through extra churn cycles after
    // the first episode: every cycle reuses the same parked workers, and
    // the pooled net must stay in lockstep with the step() loop reference
    // the whole way.
    let (mut reference, ridx) = reference_net(21);
    let (mut a, aidx) = forced_net(21, 4, 0);
    episode(&mut reference, &ridx, true);
    episode(&mut a, &aidx, false);
    for cycle in 0..5 {
        let churn = |net: &mut SimNet, idx: &centralium_topology::FabricIndex, steps| {
            net.device_down(idx.fadu[0][0]);
            let down = converge(net, steps);
            net.device_up(idx.fadu[0][0]);
            let up = converge(net, steps);
            let mut s = format!("down={down:?} up={up:?}\n");
            for id in net.device_ids() {
                writeln!(s, "{id} fib={:?}", net.device(id).unwrap().fib).unwrap();
            }
            s
        };
        assert_eq!(
            churn(&mut reference, &ridx, true),
            churn(&mut a, &aidx, false),
            "cycle {cycle}: reused pool diverged from the step() loop"
        );
    }
}

#[test]
fn dropping_the_network_joins_pool_workers() {
    // A network that dispatched work holds a live pool; dropping it must
    // shut the workers down and join them (a leak or deadlock here would
    // hang the test binary, not just fail the assertion).
    let (mut net, idx) = forced_net(7, 4, 0);
    episode(&mut net, &idx, false);
    drop(net);
}

#[test]
fn worker_panic_is_contained_and_propagated() {
    // The pool contract the engine's unwind path relies on: a panicking job
    // surfaces as an `Err` carrying the payload, sibling jobs in the same
    // dispatch still complete, and the pool remains usable afterwards.
    let mut pool: WorkerPool<u64, u64> = WorkerPool::new(4, |n| {
        if n == 13 {
            panic!("unlucky window");
        }
        n * 2
    });
    let results = pool.dispatch((0..8u64).map(|n| (n as usize, n + 20)).collect());
    assert!(results.iter().all(|r| r.is_ok()));
    let mixed = pool.dispatch(vec![(0, 13), (1, 1), (2, 2), (3, 3)]);
    assert_eq!(mixed.iter().filter(|r| r.is_err()).count(), 1);
    let payload = mixed.into_iter().find_map(Result::err).unwrap();
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("unlucky window")
    );
    // Workers survive a panic: the same pool keeps serving dispatches.
    let again = pool.dispatch(vec![(0, 5), (1, 6), (2, 7), (3, 8)]);
    assert_eq!(
        again.into_iter().map(|r| r.unwrap()).sum::<u64>(),
        (5 + 6 + 7 + 8) * 2
    );
}
