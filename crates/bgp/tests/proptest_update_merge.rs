//! `UpdateMessage::merge` against the per-prefix reference it replaced.
//!
//! The oracle below is the original merge: for each incoming withdrawal and
//! then each incoming announcement, scan both vectors. It is quadratic, but
//! its result defines the last-writer-wins semantics — content *and* order —
//! that the linear merge must reproduce on any input, including duplicate
//! prefixes inside one message and prefixes both withdrawn and announced.

use centralium_bgp::{PathAttributes, Prefix, UpdateMessage};
use proptest::prelude::*;
use std::sync::Arc;

fn oracle_merge(into: &mut UpdateMessage, other: UpdateMessage) {
    for p in other.withdrawn {
        into.announced.retain(|(ap, _)| *ap != p);
        if !into.withdrawn.contains(&p) {
            into.withdrawn.push(p);
        }
    }
    for (p, attrs) in other.announced {
        into.withdrawn.retain(|wp| *wp != p);
        into.announced.retain(|(ap, _)| *ap != p);
        into.announced.push((p, attrs));
    }
}

/// A small prefix pool, so duplicates and withdraw/announce overlaps are
/// the common case rather than the rare one.
fn prefix(i: u8) -> Prefix {
    Prefix::new(0x0A00_0000 | (u32::from(i) << 8), 24)
}

/// A message over the pool. Every announcement carries a distinct
/// local-pref, so the comparison also tells *which* duplicate survived.
fn arb_message(tag: u32) -> impl Strategy<Value = UpdateMessage> {
    (
        proptest::collection::vec(0u8..5, 0..7),
        proptest::collection::vec(0u8..5, 0..7),
    )
        .prop_map(move |(withdrawn, announced)| UpdateMessage {
            withdrawn: withdrawn.into_iter().map(prefix).collect(),
            announced: announced
                .into_iter()
                .enumerate()
                .map(|(i, p)| {
                    let attrs = PathAttributes {
                        local_pref: tag + i as u32,
                        ..Default::default()
                    };
                    (prefix(p), Arc::new(attrs))
                })
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn linear_merge_matches_oracle(
        base in arb_message(100),
        first in arb_message(200),
        second in arb_message(300),
    ) {
        let mut linear = base.clone();
        let mut oracle = base;
        for other in [first, second] {
            linear.merge(other.clone());
            oracle_merge(&mut oracle, other);
            prop_assert_eq!(&linear, &oracle);
        }
    }
}

#[test]
fn oracle_cases_cover_duplicates_and_withdraw_announce_overlap() {
    // prefix(1) is announced twice and also withdrawn in one message;
    // prefix(2) is withdrawn twice; the base already withdraws prefix(3).
    let announce = |p: u8, local_pref: u32| {
        let attrs = PathAttributes {
            local_pref,
            ..Default::default()
        };
        (prefix(p), Arc::new(attrs))
    };
    let base = UpdateMessage {
        withdrawn: vec![prefix(3), prefix(1)],
        announced: vec![announce(0, 1), announce(2, 2)],
    };
    let other = UpdateMessage {
        withdrawn: vec![prefix(2), prefix(1), prefix(2), prefix(3), prefix(4)],
        announced: vec![announce(1, 10), announce(0, 11), announce(1, 12)],
    };
    let mut linear = base.clone();
    linear.merge(other.clone());
    let mut oracle = base;
    oracle_merge(&mut oracle, other);
    assert_eq!(linear, oracle);
    assert_eq!(linear.withdrawn, vec![prefix(3), prefix(2), prefix(4)]);
    assert_eq!(linear.announced, vec![announce(0, 11), announce(1, 12)]);
}
