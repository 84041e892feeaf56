//! The convergence episode `bench_convergence` and `perf_report` time:
//! cold start on the backbone default route, an equalize RPA deployed to
//! every SSW, and a bounce of one aggregation device.

use centralium_bgp::attrs::well_known;
use centralium_bgp::Prefix;
use centralium_rpa::{
    Destination, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature, RpaDocument,
};
use centralium_simnet::SimNet;
use centralium_topology::FabricIndex;
use serde_json::Value;

/// Management-RPC latency of the RPA deployment, in µs.
pub const RPC_US: u64 = 300;

/// The path-equalization RPA the episode deploys to every SSW.
pub fn equalize_doc() -> RpaDocument {
    RpaDocument::PathSelection(PathSelectionRpa::single(
        "equalize",
        PathSelectionStatement::select(
            Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
            vec![PathSet::new("all", PathSignature::any())],
        ),
    ))
}

/// Run the episode on a freshly wired `net`, calling `converge` at each of
/// its four barriers and returning the sum of what it returns (the events
/// processed). The bounced device is FADU-0/0 on the five-layer tiers and
/// the first pod's plane-0 aggregation switch on the three-tier scale
/// tiers, which have no FADU layer.
pub fn run(
    net: &mut SimNet,
    idx: &FabricIndex,
    mut converge: impl FnMut(&mut SimNet) -> u64,
) -> u64 {
    net.establish_all();
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    let mut events = converge(net);
    for grid in &idx.ssw {
        for &ssw in grid {
            net.deploy_rpa(ssw, equalize_doc(), RPC_US);
        }
    }
    events += converge(net);
    let bounce = idx
        .fadu
        .first()
        .and_then(|g| g.first())
        .or_else(|| idx.fsw.first().and_then(|p| p.first()))
        .copied()
        .expect("fabric has a FADU or aggregation device to bounce");
    net.device_down(bounce);
    events += converge(net);
    net.device_up(bounce);
    events + converge(net)
}

/// The `workers: 1` row of `drive` (`"per_event"` or `"windows"`) in one
/// fabric of a `bench_convergence` report. Reports written before rows
/// carried a drive have a single `workers: 1` row, which then ran the
/// per-event engine; it answers for either drive.
pub fn baseline_row<'a>(fabric: &'a Value, drive: &str) -> Option<&'a Value> {
    fabric.get("results")?.as_array()?.iter().find(|r| {
        r.get("workers").and_then(Value::as_u64) == Some(1)
            && r.get("drive").is_none_or(|d| d.as_str() == Some(drive))
    })
}
