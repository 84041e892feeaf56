//! Soundness of the change-gated decision output.
//!
//! The RIB-driven entry points (`handle_update`, `peer_down`, `peer_up`,
//! `originate`, `withdraw_origin`) run the export fan-out only for decisions
//! that changed what a prefix advertises, and mark a prefix FIB-dirty only
//! when its FIB projection changed. After any sequence of them:
//!
//! - a forced re-export (`reevaluate_all`) has nothing left to send, i.e.
//!   the gated Adj-RIB-Out already equals the desired state of every
//!   session;
//! - applying every drained FIB change to a copy of the FIB leaves it equal
//!   to a full `fib()` snapshot.

use centralium_bgp::{
    Action, BgpDaemon, DaemonConfig, FibEntry, MatchExpr, PathAttributes, PeerConfig, PeerId,
    Policy, PolicyRule, Prefix, RibPolicy, Route, Selection, UpdateMessage,
};
use centralium_topology::Asn;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const OWN_ASN: u32 = 1;

fn prefixes() -> [Prefix; 4] {
    [
        Prefix::new(0x0A00_0000, 24),
        Prefix::new(0x0A00_0100, 24),
        Prefix::new(0x0A00_0200, 24),
        Prefix::new(0x0A00_0300, 24),
    ]
}

/// `(session, remote ASN, link capacity in Gbps)`.
const PEERS: [(u64, u32, f64); 4] = [(10, 2, 10.0), (20, 3, 40.0), (30, 4, 100.0), (40, 5, 100.0)];

/// Fixed RPA-style hooks: every hook kind the decision process consults
/// is active on some prefix. Static verdicts, so the RIB-driven entry
/// points never change an export input behind the daemon's back.
struct Hooks;

impl RibPolicy for Hooks {
    fn permit_ingress(&self, peer: PeerId, prefix: Prefix, _route: &Route) -> bool {
        !(peer == PeerId(30) && prefix == prefixes()[3])
    }

    fn permit_egress(&self, peer: PeerId, prefix: Prefix, _route: &Route) -> bool {
        !(peer == PeerId(20) && prefix == prefixes()[1])
    }

    fn select_paths(&self, prefix: Prefix, candidates: &[Route]) -> Option<Selection> {
        (prefix == prefixes()[0] && candidates.len() >= 2).then(|| Selection::all(candidates.len()))
    }

    fn native_min_nexthop(&self, prefix: Prefix) -> Option<(usize, bool)> {
        if prefix == prefixes()[2] {
            Some((2, true))
        } else if prefix == prefixes()[3] {
            Some((2, false))
        } else {
            None
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Announce {
        peer: usize,
        prefix: usize,
        path: u8,
        bw: u8,
    },
    Withdraw {
        peer: usize,
        prefix: usize,
    },
    PeerDown(usize),
    PeerUp(usize),
    Originate {
        prefix: usize,
        bw: u8,
    },
    WithdrawOrigin(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..9, 0usize..4, 0usize..4, 0u8..4, 0u8..4), 1..40).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(kind, peer, prefix, path, bw)| match kind {
                    0..=2 => Op::Announce {
                        peer,
                        prefix,
                        path,
                        bw,
                    },
                    3 => Op::Withdraw { peer, prefix },
                    4 => Op::PeerDown(peer),
                    5 => Op::PeerUp(peer),
                    6 | 7 => Op::Originate { prefix, bw },
                    _ => Op::WithdrawOrigin(prefix),
                })
                .collect()
        },
    )
}

fn bandwidth(bw: u8) -> Option<f64> {
    [None, Some(10.0), Some(40.0), Some(100.0)][bw as usize]
}

/// An announcement as `PEERS[peer]` would send it: its own ASN first, then
/// a path whose length varies with `path`; `path == 3` carries our ASN, so
/// loop prevention turns it into an implicit withdrawal.
fn announcement(peer: usize, prefix: Prefix, path: u8, bw: u8) -> UpdateMessage {
    let mut asns = vec![PEERS[peer].1];
    match path {
        0 => {}
        1 => asns.push(100),
        2 => asns.extend([100, 101]),
        _ => asns.extend([OWN_ASN, 100]),
    }
    let mut attrs = PathAttributes::default();
    for asn in asns.iter().rev() {
        attrs.prepend(Asn(*asn), 1);
    }
    attrs.link_bandwidth_gbps = bandwidth(bw);
    UpdateMessage::announce(prefix, attrs)
}

fn speaker(wcmp_advertise: bool) -> BgpDaemon {
    let mut cfg = DaemonConfig::fabric(Asn(OWN_ASN));
    cfg.wcmp_advertise = wcmp_advertise;
    let mut d = BgpDaemon::new(cfg);
    let p = prefixes();
    for (i, (id, asn, capacity)) in PEERS.into_iter().enumerate() {
        let mut pc = PeerConfig::open(PeerId(id), Asn(asn), capacity);
        if i == 2 {
            pc.import = Arc::new(Policy::accept_all().rule(PolicyRule::accept(
                MatchExpr::exact(p[2]),
                vec![Action::SetLocalPref(200)],
            )));
        }
        if i == 3 {
            pc.export = Arc::new(Policy::accept_all().rule(PolicyRule::accept(
                MatchExpr::exact(p[1]),
                vec![Action::Prepend(Asn(OWN_ASN), 2)],
            )));
        }
        d.add_peer(pc);
        d.peer_up(PeerId(id), &Hooks);
    }
    d
}

fn apply(d: &mut BgpDaemon, op: Op) -> Vec<(PeerId, UpdateMessage)> {
    let p = prefixes();
    let peer = |i: usize| PeerId(PEERS[i].0);
    match op {
        Op::Announce {
            peer: i,
            prefix,
            path,
            bw,
        } => d.handle_update(peer(i), announcement(i, p[prefix], path, bw), &Hooks),
        Op::Withdraw { peer: i, prefix } => {
            d.handle_update(peer(i), UpdateMessage::withdraw(p[prefix]), &Hooks)
        }
        Op::PeerDown(i) => d.peer_down(peer(i), &Hooks),
        Op::PeerUp(i) => d.peer_up(peer(i), &Hooks),
        Op::Originate { prefix, bw } => {
            let attrs = PathAttributes {
                link_bandwidth_gbps: bandwidth(bw),
                ..Default::default()
            };
            d.originate(p[prefix], attrs, &Hooks)
        }
        Op::WithdrawOrigin(prefix) => d.withdraw_origin(p[prefix], &Hooks),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn gated_output_equals_forced_reexport_and_fib_deltas_are_complete(ops in arb_ops()) {
        for wcmp_advertise in [false, true] {
            let mut d = speaker(wcmp_advertise);
            // The host FIB: one full sync, then deltas only.
            let mut fib: BTreeMap<Prefix, FibEntry> =
                d.fib().into_iter().map(|e| (e.prefix, e)).collect();
            d.mark_fib_synced();
            for (step, op) in ops.iter().enumerate() {
                apply(&mut d, *op);
                for (prefix, entry) in d.take_fib_changes() {
                    match entry {
                        Some(e) => fib.insert(prefix, e),
                        None => fib.remove(&prefix),
                    };
                }
                prop_assert_eq!(
                    fib.values().cloned().collect::<Vec<_>>(),
                    d.fib(),
                    "FIB deltas incomplete after step {} ({:?}), wcmp_advertise={}",
                    step,
                    op,
                    wcmp_advertise
                );
                let forced = d.clone().reevaluate_all(&Hooks);
                prop_assert!(
                    forced.is_empty(),
                    "forced re-export after step {} ({:?}), wcmp_advertise={} still sends {:?}",
                    step,
                    op,
                    wcmp_advertise,
                    forced
                );
            }
        }
    }
}
