//! Per-span-name aggregation of drained trace records: count, total time
//! and self time, where self time is a span's duration minus the part of
//! it that its child spans cover.
//!
//! Spans carry no parent id, so the tree is rebuilt per recording thread
//! from the intervals: RAII guards on one thread nest properly, so a span's
//! parent is the innermost earlier span on the same thread still open at
//! its start. Spans of different threads never nest: a pool worker's or the
//! agent server's spans run beside the coordinator's, not inside them.

use centralium_telemetry::span::SpanRecord;
use std::collections::BTreeMap;

/// Aggregate timing of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their durations minus child coverage, ns.
    pub self_ns: u64,
}

/// Aggregate `records` by `category.name`. The self times of one thread's spans add
/// up to the time its top-level spans cover.
pub fn self_times(records: &[SpanRecord]) -> BTreeMap<String, SpanStat> {
    let mut by_tid: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for r in records {
        by_tid.entry(r.tid).or_default().push(r);
    }
    let mut out: BTreeMap<String, SpanStat> = BTreeMap::new();
    for spans in by_tid.values_mut() {
        // Parents first: earlier start, and on a tie the longer span.
        spans.sort_by_key(|r| (r.start_ns, std::cmp::Reverse(r.dur_ns)));
        let mut child_ns = vec![0u64; spans.len()];
        // Indices of the spans enclosing the current one, innermost last.
        let mut open: Vec<usize> = Vec::new();
        for (i, r) in spans.iter().enumerate() {
            while let Some(&top) = open.last() {
                if end(spans[top]) <= r.start_ns {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = open.last() {
                let covered = end(r).min(end(spans[parent])) - r.start_ns;
                child_ns[parent] += covered;
            }
            open.push(i);
        }
        for (r, child) in spans.iter().zip(child_ns) {
            let stat = out.entry(format!("{}.{}", r.cat, r.name)).or_default();
            stat.count += 1;
            stat.total_ns += r.dur_ns;
            stat.self_ns += r.dur_ns.saturating_sub(child);
        }
    }
    out
}

fn end(r: &SpanRecord) -> u64 {
    r.start_ns + r.dur_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn rec(name: &'static str, tid: u64, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name: Cow::Borrowed(name),
            cat: "t",
            start_ns,
            dur_ns,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn empty_input_has_no_stats() {
        assert!(self_times(&[]).is_empty());
    }

    #[test]
    fn nested_tree_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let recs = [
            rec("root", 1, 0, 100),
            rec("a", 1, 10, 30),
            rec("a1", 1, 15, 10),
            rec("b", 1, 50, 40),
        ];
        let s = self_times(&recs);
        assert_eq!(s["t.root"].self_ns, 100 - 30 - 40);
        assert_eq!(s["t.a"].self_ns, 30 - 10);
        assert_eq!(s["t.a1"].self_ns, 10);
        assert_eq!(s["t.b"].self_ns, 40);
        let sum: u64 = s.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100, "self times tile the root");
    }

    #[test]
    fn repeated_names_aggregate_and_siblings_touching_do_not_nest() {
        // Two back-to-back "x" spans: the second starts where the first ends.
        let recs = [
            rec("root", 1, 0, 50),
            rec("x", 1, 0, 20),
            rec("x", 1, 20, 20),
        ];
        let s = self_times(&recs);
        assert_eq!(s["t.x"].count, 2);
        assert_eq!(s["t.x"].total_ns, 40);
        assert_eq!(s["t.x"].self_ns, 40);
        assert_eq!(s["t.root"].self_ns, 10);
    }

    #[test]
    fn other_threads_never_count_as_children() {
        let recs = [rec("coord", 1, 0, 100), rec("worker", 2, 10, 50)];
        let s = self_times(&recs);
        assert_eq!(s["t.coord"].self_ns, 100);
        assert_eq!(s["t.worker"].self_ns, 50);
    }

    #[test]
    fn equal_start_puts_the_longer_span_outside() {
        let recs = [rec("inner", 1, 5, 10), rec("outer", 1, 5, 30)];
        let s = self_times(&recs);
        assert_eq!(s["t.outer"].self_ns, 20);
        assert_eq!(s["t.inner"].self_ns, 10);
    }

    #[test]
    fn child_overrunning_its_parent_is_clamped() {
        // Clock skew can leave a child ending after its parent; only the
        // overlap counts against the parent, which never goes negative.
        let recs = [rec("p", 1, 0, 10), rec("c", 1, 5, 20)];
        let s = self_times(&recs);
        assert_eq!(s["t.p"].self_ns, 5);
        assert_eq!(s["t.c"].self_ns, 20);
    }
}
