#![warn(missing_docs)]

//! # centralium-bench
//!
//! Shared experiment infrastructure for regenerating every table and figure
//! of the Centralium paper's evaluation (§6), plus the §3 pathology
//! scenarios and the §5.3 interoperability ablations.
//!
//! * [`scenarios`] — purpose-built topologies: the Figure 5 EB/UU/DU
//!   explosion rig, the Figure 9 dissemination-loop sixpack, the Figure 10
//!   sequencing rig, and converged standard fabrics;
//! * [`stats`] — percentiles and CDF rendering for the measurement bins;
//! * [`report`] — plain-text table/series printers shared by the `bin/`
//!   regenerators, one binary per paper artifact (see DESIGN.md's index);
//! * [`args`] — the tiny flag parser behind the regenerators' chaos/smoke
//!   options (`--chaos-seed`, `--rpc-loss`, `--tiny`, `--json FILE`);
//! * [`tier`] — the named fabric tiers (`tiny` … `xxl`) shared by
//!   `bench_convergence` and `perf_report`, plus the peak-RSS probe;
//! * [`episode`] — the convergence episode both of those time, and the
//!   baseline-row lookup their gates share;
//! * [`alloc`] — the counting global allocator behind the live-heap
//!   footprint readings (installed per binary, not by this library).

pub mod alloc;
pub mod args;
pub mod episode;
pub mod report;
pub mod scenarios;
pub mod stats;
pub mod tier;
