//! # ibp-analysis — experiment drivers for every table and figure
//!
//! Reproduction harness for the paper's evaluation. [`catalog::EXHIBITS`]
//! is the one table of exhibits behind `ibpower exhibits <name>`; each
//! entry runs on a shared [`SweepEngine`], writes its JSON (and SVGs)
//! and returns its rendered text:
//!
//! | exhibit | name | computed in |
//! |---|---|---|
//! | Table II (simulation parameters) | `table2` | `ibp_network::SimParams` |
//! | Table I (idle-interval distribution) | `table1` | [`exhibits`] |
//! | Table III (chosen GT + hit rate) | `table3` | [`exhibits`], [`gt_select`] |
//! | Table IV (PPA overheads) | `table4` | [`exhibits`] |
//! | Figs. 7–9 (savings + slowdown per displacement) | `fig7`–`fig9` | [`exhibits`] |
//! | Fig. 10 (GT sweep) | `fig10` | [`exhibits`], [`gt_select`] |
//! | Generation × sleep-depth frontier | `generation_frontier` | [`generation`] |
//! | Extension studies | `ablation`, `deepsleep`, `weak_scaling`, `robustness`, `fault_tolerance` | [`extensions`] |
//!
//! `all` runs every entry but the extension studies and writes
//! `summary.txt`. [`paper_ref`] holds the published values so the
//! exhibits print ours-vs-paper columns.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod exhibits;
pub mod experiment;
pub mod extensions;
pub mod generation;
pub mod gt_select;
pub mod output;
pub mod paper_ref;
pub mod report;
pub mod svg;
pub mod sweep;

pub use exhibits::{fig10, figure, table1, table3, table4, ExhibitGrid};
pub use experiment::{
    make_trace, make_trace_scaled, run, run_on_trace, run_runtime_only, run_runtime_only_jobs,
    run_with_baseline, run_with_baseline_jobs, RunConfig, RunResult,
};
pub use generation::{
    generation_frontier, render_generation_frontier, GenerationFrontierRow, FRONTIER_GENERATIONS,
};
pub use gt_select::{choose_gt, select, sweep, GtPoint, GT_GRID_US};
pub use output::OutputDir;
pub use report::Table;
pub use sweep::{CellCtx, CellKey, SweepEngine, SweepOptions, SweepStats};
