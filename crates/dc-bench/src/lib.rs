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
//! accepts a scale factor so larger runs only need a flag.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod durability;
pub mod pipeline;
pub mod scenario;
pub mod serving;
pub mod shard_quality;
pub mod sharding;
pub mod telemetry;

pub use durability::{durability_results_to_json, run_durability_bench, DurabilityScenarioResult};
pub use pipeline::{
    pipeline_results_to_json, run_pipeline_bench, PipelineRunResult, PipelineScenarioResult,
};
pub use scenario::{DatasetFamily, MethodKind, RoundResult, RunSummary, Scenario, ScenarioConfig};
pub use serving::{run_dynamic_serving_bench, serving_results_to_json, ServingScenarioResult};
pub use shard_quality::{
    run_refined_throughput_bench, run_shard_quality_bench, shard_quality_results_to_json,
    RefineRoundDiag, RefinedThroughputResult, RefinedThroughputRun, ShardQualityRunResult,
    ShardQualityScenarioResult,
};
pub use sharding::{
    run_sharding_bench, sharding_results_to_json, ShardingRunResult, ShardingScenarioResult,
};
pub use telemetry::{
    run_telemetry_overhead_gate, run_telemetry_smoke, TelemetryOverheadResult, TelemetrySmokeResult,
};
