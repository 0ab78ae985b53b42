#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # vlt-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§7), each
//! producing a [`vlt_stats::Experiment`] record plus an ASCII table, all
//! listed in [`experiments::ALL`]. One runner drives that table:
//!
//! ```text
//! cargo run -p vlt-bench --release -- fig1   # one experiment
//! cargo run -p vlt-bench --release -- all    # every experiment, in order
//! ```
//!
//! Every experiment writes `results/<id>.json` with measured *and* paper
//! values, which EXPERIMENTS.md summarizes. The tools `vladvise`, `vlprof`
//! and `vlregress` are separate binaries with their own flags.

pub mod experiments;
pub mod harness;

pub use harness::{results_dir, run_built, run_suite_parallel, RunSpec, SuiteError};
