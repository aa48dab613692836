//! Drain-state bit-identity for the pipelined ingestion front-end.
//!
//! The headline invariant of `dc_core::pipeline`: a [`PipelinedEngine`]
//! that admits a workload op-by-op — batches formed by the coordinator,
//! rounds group-committed with one fsync, refinement overlapped with shard
//! apply — must, after drain, hold **bit-identical** state to a synchronous
//! [`ShardedDurableEngine`] serving the same batches: merged clustering,
//! refined clustering, [`DynamicCStats`], per-shard comparison counters,
//! and the recovered-after-reopen state.
//!
//! Round boundaries are made deterministic with flush barriers: each
//! workload snapshot's ops are submitted and flushed, so pipelined round
//! `i+1` holds exactly snapshot `i`'s batch, which the synchronous
//! reference replays verbatim.

use dc_core::{DurabilityOptions, PipelineOptions, PipelinedEngine, ShardedDurableEngine};
use dc_datagen::fixtures::small_febrl_workload;
use dc_datagen::DynamicWorkload;
use dc_objective::{DbIndexObjective, ObjectiveFunction};
use dc_similarity::ShardRouter;
use dc_types::OperationBatch;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{assert_clusterings_identical, TempDir};

const TRAIN_ROUNDS: usize = 2;

/// The non-empty serve batches: the pipeline never commits an empty round
/// (a flush with nothing pending is a no-op), so the reference sequence is
/// the non-empty batches only.
fn serve_batches(
    workload: &DynamicWorkload,
    objective: Arc<dyn ObjectiveFunction>,
) -> Vec<OperationBatch> {
    let (_, _, serve, _) = common::trained_setup(
        workload,
        || dc_similarity::GraphConfig::textual_febrl(0.6),
        objective,
        TRAIN_ROUNDS,
    );
    serve
        .into_iter()
        .map(|s| s.batch)
        .filter(|b| !b.is_empty())
        .collect()
}

/// Open a sharded durable engine at `dir`, bootstrapping the deterministic
/// trained state on first open and refusing to bootstrap on recovery.
fn open_engine(
    dir: &Path,
    n_shards: usize,
    workload: &DynamicWorkload,
    objective: Arc<dyn ObjectiveFunction>,
    options: DurabilityOptions,
) -> (ShardedDurableEngine, dc_core::ShardedRecoveryReport) {
    let (graph, previous, _, dynamicc) = common::trained_setup(
        workload,
        || dc_similarity::GraphConfig::textual_febrl(0.6),
        objective,
        TRAIN_ROUNDS,
    );
    let router = ShardRouter::for_config(n_shards, graph.config());
    let config = graph.config().clone();
    ShardedDurableEngine::open(dir, router, config, dynamicc, options, move || {
        (graph, previous)
    })
    .expect("open")
}

/// Flush-barrier options: an effectively unbounded batch target and a long
/// formation deadline, so every flush-delimited segment becomes exactly one
/// round regardless of scheduling.
fn barrier_options() -> PipelineOptions {
    PipelineOptions {
        max_batch_delay: Duration::from_secs(30),
        record_batches: true,
        ..PipelineOptions::fixed(1_000_000)
    }
}

/// Submit each batch op-by-op followed by a flush barrier, so pipelined
/// round `i+1` holds exactly `batches[i]`.
fn submit_rounds(pipe: &PipelinedEngine, batches: &[OperationBatch]) {
    for batch in batches {
        for op in batch.iter() {
            pipe.submit(op.clone()).expect("submit");
        }
        pipe.flush().expect("flush");
    }
}

#[test]
fn pipelined_drain_is_bit_identical_to_synchronous_engine() {
    let workload = small_febrl_workload();
    let objective: Arc<dyn ObjectiveFunction> = Arc::new(DbIndexObjective);
    let batches = serve_batches(&workload, objective.clone());
    assert!(batches.len() >= 3, "fixture must serve several rounds");
    let total_ops: usize = batches.iter().map(OperationBatch::len).sum();

    // Exercise the pipelined checkpoint path too (it waits for refine
    // catch-up before snapshotting).
    let options = DurabilityOptions {
        checkpoint_every_rounds: 2,
        group_commit: false,
    };

    // Pipelined run.
    let tmp_pipe = TempDir::new("pipe-equivalence");
    let report = {
        let (engine, open_report) =
            open_engine(tmp_pipe.path(), 4, &workload, objective.clone(), options);
        assert!(!open_report.recovered);
        let pipe = PipelinedEngine::start(engine, barrier_options());
        submit_rounds(&pipe, &batches);
        let (engine, report) = pipe.close().expect("clean close");

        // Round structure: one round per flush-delimited segment, holding
        // exactly that segment's ops in admission order.
        assert_eq!(report.rounds_committed, batches.len() as u64);
        assert_eq!(report.ops_committed, total_ops as u64);
        assert_eq!(report.op_latencies_ns.len(), total_ops);
        assert_eq!(
            report.recorded_batches.as_deref(),
            Some(&batches[..]),
            "recorded rounds must be exactly the flush-delimited segments"
        );
        assert_eq!(engine.rounds_served(), batches.len());
        report
        // The reassembled engine is dropped here — a clean kill.
    };

    // Synchronous reference over the same batches.
    let tmp_sync = TempDir::new("sync-reference");
    let (mut reference, _) = open_engine(tmp_sync.path(), 4, &workload, objective.clone(), options);
    for batch in report.recorded_batches.as_deref().unwrap() {
        reference.apply_round(batch).expect("reference round");
    }

    // Reopen the pipelined directory: recovered state must be bit-identical
    // to the synchronous reference.
    let (recovered, recovery) = open_engine(tmp_pipe.path(), 4, &workload, objective, options);
    assert!(recovery.recovered);
    assert_eq!(recovery.committed_round, batches.len() as u64);
    assert_eq!(recovery.rolled_back_rounds, 0, "clean close loses nothing");
    assert_eq!(recovered.rounds_served(), reference.rounds_served());
    assert_clusterings_identical(
        &recovered.merged_clustering(),
        &reference.merged_clustering(),
        "recovered merged",
    );
    assert_clusterings_identical(
        &recovered.refined_clustering(),
        &reference.refined_clustering(),
        "recovered refined",
    );
    assert_eq!(recovered.stats(), reference.stats(), "stats diverged");
    assert_eq!(
        recovered.shard_comparisons(),
        reference.shard_comparisons(),
        "per-shard similarity work diverged"
    );
}

#[test]
fn single_shard_pipeline_drains_identically() {
    let workload = small_febrl_workload();
    let objective: Arc<dyn ObjectiveFunction> = Arc::new(DbIndexObjective);
    let batches = serve_batches(&workload, objective.clone());
    let options = DurabilityOptions {
        checkpoint_every_rounds: 2,
        group_commit: false,
    };

    let tmp_pipe = TempDir::new("pipe-single");
    {
        let (engine, _) = open_engine(tmp_pipe.path(), 1, &workload, objective.clone(), options);
        let pipe = PipelinedEngine::start(engine, barrier_options());
        submit_rounds(&pipe, &batches);
        let (engine, report) = pipe.close().expect("clean close");
        assert_eq!(report.rounds_committed, batches.len() as u64);
        assert_eq!(engine.rounds_served(), batches.len());
        assert_eq!(
            report.overlap_stalls, 0,
            "one shard has no refine worker to stall on"
        );
    }

    let tmp_sync = TempDir::new("sync-single");
    let (mut reference, _) = open_engine(tmp_sync.path(), 1, &workload, objective.clone(), options);
    for batch in &batches {
        reference.apply_round(batch).expect("reference round");
    }

    let (recovered, recovery) = open_engine(tmp_pipe.path(), 1, &workload, objective, options);
    assert!(recovery.recovered);
    assert_eq!(recovery.healed_rounds, 0, "one shard never heals");
    assert_clusterings_identical(
        &recovered.merged_clustering(),
        &reference.merged_clustering(),
        "single-shard merged",
    );
    assert_eq!(recovered.stats(), reference.stats());
}

/// Backpressure never loses or reorders work: a two-slot admission queue
/// with free-running (adaptive, no barriers) batch formation still commits
/// every op exactly once, and the recorded rounds replayed synchronously
/// land on bit-identical state.
#[test]
fn tiny_admission_queue_applies_backpressure_without_loss() {
    let workload = small_febrl_workload();
    let objective: Arc<dyn ObjectiveFunction> = Arc::new(DbIndexObjective);
    let batches = serve_batches(&workload, objective.clone());
    let total_ops: usize = batches.iter().map(OperationBatch::len).sum();
    let options = DurabilityOptions {
        checkpoint_every_rounds: 0,
        group_commit: false,
    };

    let tmp_pipe = TempDir::new("pipe-backpressure");
    let (engine, _) = open_engine(tmp_pipe.path(), 2, &workload, objective.clone(), options);
    let pipe = PipelinedEngine::start(
        engine,
        PipelineOptions {
            queue_capacity: 2,
            min_batch_ops: 1,
            max_batch_ops: 8,
            initial_batch_ops: 4,
            max_batch_delay: Duration::from_millis(1),
            record_batches: true,
            ..PipelineOptions::default()
        },
    );
    for batch in &batches {
        for op in batch.iter() {
            pipe.submit(op.clone()).expect("submit");
        }
    }
    let (engine, report) = pipe.close().expect("clean close");
    assert_eq!(report.ops_committed, total_ops as u64);
    let recorded = report.recorded_batches.expect("recording on");
    assert_eq!(
        recorded.iter().map(OperationBatch::len).sum::<usize>(),
        total_ops,
        "every admitted op lands in exactly one round"
    );
    let submitted_order: Vec<_> = batches.iter().flat_map(|b| b.iter().cloned()).collect();
    let committed_order: Vec<_> = recorded.iter().flat_map(|b| b.iter().cloned()).collect();
    assert_eq!(
        submitted_order, committed_order,
        "admission order preserved"
    );

    // Replaying the formed rounds synchronously reproduces the state.
    let tmp_sync = TempDir::new("sync-backpressure");
    let (mut reference, _) = open_engine(tmp_sync.path(), 2, &workload, objective, options);
    for batch in &recorded {
        reference.apply_round(batch).expect("reference round");
    }
    assert_clusterings_identical(
        &engine.merged_clustering(),
        &reference.merged_clustering(),
        "backpressure merged",
    );
    assert_clusterings_identical(
        &engine.refined_clustering(),
        &reference.refined_clustering(),
        "backpressure refined",
    );
    assert_eq!(engine.stats(), reference.stats());
}

/// `kill` abandons in-flight work without blocking, and everything that was
/// flushed before the kill is durably committed and reopenable.
#[test]
fn killed_pipeline_leaves_a_committed_reopenable_state() {
    let workload = small_febrl_workload();
    let objective: Arc<dyn ObjectiveFunction> = Arc::new(DbIndexObjective);
    let batches = serve_batches(&workload, objective.clone());
    let options = DurabilityOptions {
        checkpoint_every_rounds: 0,
        group_commit: false,
    };
    let tmp = TempDir::new("pipe-closed");
    let (engine, _) = open_engine(tmp.path(), 2, &workload, objective, options);
    let pipe = PipelinedEngine::start(engine, barrier_options());
    let op = batches[0].iter().next().expect("non-empty batch").clone();
    pipe.submit(op.clone()).expect("submit while open");
    pipe.flush().expect("flush while open");
    pipe.kill();
    // The engine value is consumed by kill; a fresh start over the same dir
    // proves the killed pipeline left a committed, reopenable state.
    let (engine, report) = open_engine(
        tmp.path(),
        2,
        &workload,
        Arc::new(DbIndexObjective),
        options,
    );
    assert!(report.recovered);
    assert_eq!(
        engine.rounds_served(),
        1,
        "the flushed round survived the kill"
    );
}

/// Coalescing is exact: ops submitted one at a time into a fixed-size
/// batcher whose formation deadline never fires commit as full `K`-op
/// rounds — one group commit per `K` ops — with only the final round
/// (closed by `close`) allowed to be short.
#[test]
fn fixed_batcher_coalesces_single_op_submissions_into_full_rounds() {
    const K: usize = 16;
    let workload = small_febrl_workload();
    let objective: Arc<dyn ObjectiveFunction> = Arc::new(DbIndexObjective);
    let batches = serve_batches(&workload, objective.clone());
    let ops: Vec<_> = batches.iter().flat_map(|b| b.iter().cloned()).collect();
    assert!(ops.len() > 2 * K, "fixture must fill several rounds");
    let options = DurabilityOptions {
        checkpoint_every_rounds: 0,
        group_commit: true,
    };

    let tmp = TempDir::new("pipe-coalesce");
    let (engine, _) = open_engine(tmp.path(), 2, &workload, objective, options);
    let pipe = PipelinedEngine::start(
        engine,
        PipelineOptions {
            max_batch_delay: Duration::from_secs(3600),
            record_batches: true,
            ..PipelineOptions::fixed(K)
        },
    );
    for op in &ops {
        pipe.submit(op.clone()).expect("submit");
    }
    let (engine, report) = pipe.close().expect("clean close");

    assert_eq!(report.rounds_committed, ops.len().div_ceil(K) as u64);
    assert_eq!(report.ops_committed, ops.len() as u64);
    assert_eq!(engine.rounds_served() as u64, report.rounds_committed);
    let recorded = report.recorded_batches.expect("recording on");
    assert_eq!(recorded.len() as u64, report.rounds_committed);
    let (last, full) = recorded.split_last().expect("at least one round");
    for (i, batch) in full.iter().enumerate() {
        assert_eq!(batch.len(), K, "round {} is not a full {K}-op round", i + 1);
    }
    assert_eq!(last.len(), ops.len() - K * full.len(), "final round");
    let committed: Vec<_> = recorded.iter().flat_map(|b| b.iter().cloned()).collect();
    assert_eq!(committed, ops, "admission order preserved");
}
