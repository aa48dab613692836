//! # dc-core — DynamicC
//!
//! The paper's primary contribution: a machine-learning-augmented dynamic
//! clustering system that learns, from historical cluster evolution, whether
//! a cluster is about to **merge** or **split** when the database changes,
//! and uses those predictions — verified against the clustering objective —
//! to update the clustering without re-running the batch algorithm.
//!
//! The lifecycle mirrors the paper exactly:
//!
//! 1. **Training phase** (§4, §5).  The underlying batch algorithm keeps
//!    answering re-clustering requests while DynamicC observes: each round's
//!    difference between the old and new clustering is converted into
//!    merge/split evolution steps ([`dc_evolution::derive_transformation`]),
//!    turned into per-cluster feature vectors, balanced with weighted
//!    negative samples, and appended to bounded training buffers
//!    ([`models::ModelPair`]).  Fitting the two classifiers and selecting
//!    the recall-first thresholds happens in [`DynamicC::retrain`].
//! 2. **Serving phase** (§6).  [`DynamicC`] implements
//!    [`dc_baselines::IncrementalClusterer`]: initial processing places new
//!    and updated objects into singleton clusters, then the merge algorithm
//!    (Algorithm 1, [`merge`]) and the split algorithm (Algorithm 2,
//!    [`split`]) alternate until a fixed point (Algorithm 3, [`dynamic`]).
//!    Every change proposed by a model is verified against the objective
//!    function before it is applied, so false positives cost one evaluation
//!    and never harm quality.
//! 3. **Continual learning** (§5.3, §8).  New rounds can keep being
//!    observed (e.g. whenever the batch algorithm is run occasionally to
//!    establish a quality baseline), old examples age out of the buffers,
//!    and [`DynamicC::retrain`] refreshes the models and thresholds.
//! 4. **Serving at scale** ([`engine`]).  The persistent [`Engine`] owns the
//!    similarity graph, the clustering, and the incrementally maintained
//!    cluster aggregates across rounds, so a steady-state round performs no
//!    full O(E) aggregate rebuild at all — `apply_round(batch)` folds the
//!    operations into all three states at O(degree) per operation and then
//!    runs Algorithm 3 against the maintained aggregate, scoped to the
//!    dirty closure of the round's changes.
//! 5. **Sharded serving** ([`shard`]).  One engine type, [`shard::Sharded`],
//!    partitions the live objects across N ≥ 1 shards by their blocking
//!    keys (`dc_similarity::ShardRouter`) and serves each round's
//!    sub-batches in parallel on a scoped-thread pool.  Its shard kind is
//!    its one parameter: [`ShardedEngine`] serves in-memory engines, and
//!    one shard is bit-identical to the unsharded [`Engine`].
//! 6. **Durable serving** ([`durable`]).  [`ShardedDurableEngine`] serves
//!    [`DurableEngine`] shards, each wrapping its engine with `dc-storage`'s
//!    write-ahead log and snapshot subsystem: rounds are logged before they
//!    are applied, global checkpoints bound recovery replay, and recovery
//!    to the min-committed round is bit-identical to a never-restarted run.
//!    A durable single engine is the one-shard case.
//! 7. **Cross-shard refinement** ([`refine`]).  After the parallel per-shard
//!    rounds, a deterministic pass recovers the cross-shard similarity
//!    edges the partition dropped and repairs the merged
//!    clustering by running the trained merge/split passes — making
//!    multi-shard serving quality-equivalent to the unsharded engine instead
//!    of silently lossy.  The refined view is an [`Engine`] over a global
//!    mirror graph plus an owner map, so its repair is the engine's own
//!    scoped round: each shard pair's cross edges are computed once per
//!    pair lifetime, and the merge/split fixed point is restricted to the
//!    dirty closure of the round's changes.  For objectives whose
//!    accept/reject decisions depend on the global score (declared via
//!    [`dc_objective::DecisionLocality`]), recorded rejection validity
//!    intervals keep the restricted fixed point decision-identical to a
//!    full repair.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub(crate) mod dirty;
pub mod durable;
pub mod dynamic;
pub mod engine;
pub mod merge;
pub mod models;
pub mod pipeline;
pub mod refine;
pub mod shard;
pub mod split;
pub mod trainer;

pub use config::{DynamicCConfig, DynamicCStats};
pub use durable::{DurabilityOptions, DurableEngine, RecoveryReport};
pub use dynamic::DynamicC;
pub use engine::{Engine, RoundReport};
pub use models::ModelPair;
pub use pipeline::{
    AdaptiveBatcher, PipelineError, PipelineOptions, PipelineReport, PipelinedEngine,
};
pub use refine::RefineReport;
pub use shard::{
    ShardConfigError, ShardedDurableEngine, ShardedEngine, ShardedRecoveryReport,
    ShardedRoundReport,
};
pub use trainer::{train_on_workload, RoundObservation, TrainingReport};

pub use dc_storage::StorageError;
