//! # bench
//!
//! Experiment harness for the traffic-reshaping reproduction.
//!
//! Every table and figure of the paper's evaluation section has a runner here
//! that regenerates its rows/series from the synthetic substrate:
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | Fig. 1 (packet-size PDFs)            | [`figures::figure1`] |
//! | Fig. 4 (OR by size ranges on BT)     | [`figures::figure4`] |
//! | Fig. 5 (OR by size modulo on BT)     | [`figures::figure5`] |
//! | Table I (per-interface features)     | [`tables::table1`] |
//! | Table II (accuracy, W = 5 s)         | [`tables::table2`] |
//! | Table III (accuracy, W = 60 s)       | [`tables::table3`] |
//! | Table IV (false positives)           | [`tables::table4`] |
//! | Table V (accuracy vs. interface count) | [`tables::table5`] |
//! | Table VI (efficiency comparison)     | [`tables::table6`] |
//! | §V-A (power analysis / TPC)          | [`power::power_analysis`] |
//! | §V-C (reshaping + morphing)          | [`tables::combined_defense`] |
//! | Ablations (scheduler flavour, interface count) | [`ablation`] |
//! | Streaming scenarios (long sessions, multi-station) | [`streaming`] |
//!
//! The `experiments` binary prints all of them. Performance is measured by
//! the repository benchmark, `perfbench/` (declared in `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod corpus;
pub mod figures;
pub mod pipeline;
pub mod power;
pub mod report;
pub mod scenario;
pub mod streaming;
pub mod tables;

pub use corpus::ExperimentConfig;
pub use pipeline::DefenseKind;
pub use scenario::{
    run_scenario, CompiledScenario, DefenseSpec, Scenario, ScenarioReport, ScenarioSpec,
};
pub use streaming::{
    Executor, ExecutorStats, FrozenScorer, StationRun, WindowScorer, WINDOW_BATCH,
};
