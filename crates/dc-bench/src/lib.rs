//! # dc-bench
//!
//! Experiment harness reproducing every table and figure of the DynamicC
//! paper's evaluation (§7) on the synthetic stand-ins for its datasets.
//!
//! The library part of this crate hosts the shared *scenario* machinery —
//! which dataset family to generate, which similarity graph and objective to
//! use, how to replay a dynamic workload through every competing method and
//! time each round — and the `experiments` binary plus the Criterion benches
//! are thin drivers over it.  Default scales are laptop-sized; every scenario
//! accepts a scale factor so larger runs only need a flag.  End-to-end
//! serving performance of the production stack is measured by the separate
//! `stackbench` package, not here.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod scenario;
pub mod telemetry;

pub use scenario::{DatasetFamily, MethodKind, RoundResult, RunSummary, Scenario, ScenarioConfig};
pub use telemetry::{
    run_telemetry_overhead_gate, run_telemetry_smoke, TelemetryOverheadResult, TelemetrySmokeResult,
};
