//! The adapter: every call the end-to-end runs make into the serving stack
//! goes through this file, so reshaping the engine types edits one place.
//!
//! The production front door is `ShardedDurableEngine::open` at
//! [`SHARDS`] shards with cross-shard refinement and group commit on, with
//! the worker pool capped at [`MAX_THREADS`], driven by a
//! `PipelinedEngine`.

use crate::workload::{Kind, Trained};
use dc_core::{
    DurabilityOptions, DynamicC, PipelineError, PipelineOptions, PipelineReport, PipelinedEngine,
    ShardedDurableEngine, ShardedRecoveryReport, ShardedRoundReport, StorageError,
};
use dc_similarity::{GraphConfig, ShardRouter, SimilarityGraph};
use dc_types::{BinCodec, Clustering, ObjectId, Operation, OperationBatch, Record};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// Shard count of the served configuration.
pub const SHARDS: usize = 2;

/// Worker-thread cap of the engine's pool: the benchmark machine's core
/// count, so the pool never oversubscribes.
pub const MAX_THREADS: usize = 2;

/// Operations per client request on the request-driven workloads.
pub const REQUEST_OPS: usize = 4;

/// Round size of the burst workload.
pub const BURST_ROUND_OPS: usize = 64;

/// Rounds between automatic checkpoints: every 8 rounds of 64 ops on the
/// burst workload, every 64 small rounds on the access workloads.  The same
/// policy holds for every rung that logs.
pub fn checkpoint_every(kind: Kind) -> usize {
    match kind {
        Kind::LinkageBurst => 8,
        Kind::AccessRequests | Kind::AccessStream => 64,
    }
}

fn durability(kind: Kind) -> DurabilityOptions {
    DurabilityOptions {
        checkpoint_every_rounds: checkpoint_every(kind),
        group_commit: true,
    }
}

/// Pipeline options for driving `kind`.  Burst and request rounds are
/// pinned to a fixed size with an unbounded formation deadline, so the
/// client alone decides the round boundaries; the stream workload runs the
/// default adaptive batcher.
pub fn pipeline_options(kind: Kind, record_batches: bool) -> PipelineOptions {
    let base = match kind {
        Kind::LinkageBurst => fixed_rounds(BURST_ROUND_OPS),
        Kind::AccessRequests => fixed_rounds(REQUEST_OPS),
        Kind::AccessStream => PipelineOptions::default(),
    };
    PipelineOptions {
        record_batches,
        ..base
    }
}

/// Fixed-size rounds that close only when full or at a flush barrier.
pub fn fixed_rounds(ops: usize) -> PipelineOptions {
    PipelineOptions {
        max_batch_delay: Duration::from_secs(3600),
        ..PipelineOptions::fixed(ops)
    }
}

fn router(config: &GraphConfig) -> ShardRouter {
    ShardRouter::for_config(SHARDS, config)
}

/// Open a fresh engine directory seeded with the trained state.
pub fn open_fresh(
    dir: &Path,
    kind: Kind,
    trained: Trained,
) -> Result<ShardedDurableEngine, String> {
    let Trained {
        graph,
        clustering,
        dynamicc,
    } = trained;
    let config = graph.config().clone();
    let (engine, report) = ShardedDurableEngine::open(
        dir,
        router(&config),
        config,
        dynamicc,
        durability(kind),
        move || (graph, clustering),
    )
    .map_err(|e| format!("open {}: {e}", dir.display()))?;
    if report.recovered {
        return Err(format!("{} was not empty", dir.display()));
    }
    Ok(engine.with_max_threads(MAX_THREADS))
}

/// Reopen an existing engine directory (crash recovery).
pub fn reopen(
    dir: &Path,
    kind: Kind,
    dynamicc: DynamicC,
) -> Result<(ShardedDurableEngine, ShardedRecoveryReport), String> {
    let config = kind.graph_config();
    let empty = SimilarityGraph::empty(kind.graph_config());
    let (engine, report) = ShardedDurableEngine::open(
        dir,
        router(&config),
        config,
        dynamicc,
        durability(kind),
        move || (empty, Clustering::new()),
    )
    .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
    if !report.recovered {
        return Err(format!("{} held no durable state", dir.display()));
    }
    Ok((engine.with_max_threads(MAX_THREADS), report))
}

/// Serve one round synchronously (the ladder's durable rung).
pub fn apply_round(
    engine: &mut ShardedDurableEngine,
    batch: &OperationBatch,
) -> Result<ShardedRoundReport, StorageError> {
    engine.apply_round(batch)
}

/// Start pipelined serving.
pub fn start(engine: ShardedDurableEngine, options: PipelineOptions) -> PipelinedEngine {
    PipelinedEngine::start(engine, options)
}

/// Admit one operation.
pub fn submit(pipe: &PipelinedEngine, op: Operation) -> Result<(), PipelineError> {
    pipe.submit(op)
}

/// Block until everything submitted is durable, applied and refined.
pub fn flush(pipe: &PipelinedEngine) -> Result<(), PipelineError> {
    pipe.flush()
}

/// Drain and hand the engine back.
pub fn close(
    pipe: PipelinedEngine,
) -> Result<(ShardedDurableEngine, PipelineReport), PipelineError> {
    pipe.close()
}

/// Abandon the pipeline without draining (a simulated crash).
pub fn kill(pipe: PipelinedEngine) {
    pipe.kill();
}

/// Everything recovery must reproduce bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// Encoded merged (per-shard) clustering.
    pub merged: Vec<u8>,
    /// Encoded refined clustering.
    pub refined: Vec<u8>,
    /// Rounds served over the engine's lifetime.
    pub rounds: usize,
    /// Per-shard similarity comparisons (restart-exact).
    pub shard_comparisons: u64,
    /// Cross-shard edges recovered by refinement.
    pub cross_edges: usize,
    /// Merges and splits applied on the shards.
    pub merges_splits: (usize, usize),
}

/// Capture the engine's state.
pub fn state(engine: &ShardedDurableEngine) -> State {
    let stats = engine.stats();
    State {
        merged: engine.merged_clustering().encode_to_vec(),
        refined: engine.refined_clustering().encode_to_vec(),
        rounds: engine.rounds_served(),
        shard_comparisons: engine.shard_comparisons(),
        cross_edges: engine.cross_shard_edges_recovered(),
        merges_splits: (stats.merges_applied, stats.splits_applied),
    }
}

/// Rounds served over the engine's lifetime.
pub fn rounds_served(engine: &ShardedDurableEngine) -> usize {
    engine.rounds_served()
}

/// The refined clustering users read.
pub fn refined(engine: &ShardedDurableEngine) -> Clustering {
    engine.refined_clustering()
}

/// Every live object's record, across shards.
pub fn live_records(engine: &ShardedDurableEngine) -> BTreeMap<ObjectId, Record> {
    let mut out = BTreeMap::new();
    for shard in engine.shards() {
        let graph = shard.engine().graph();
        for id in graph.object_ids() {
            if let Some(record) = graph.record(id) {
                out.insert(id, record.clone());
            }
        }
    }
    out
}
