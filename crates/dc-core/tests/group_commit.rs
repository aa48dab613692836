//! Group-commit schedule and crash-stage tests for the pipelined front-end.
//!
//! Two things are pinned here.  First, the **fsync schedule**: with N
//! shards, a classic round costs N per-shard WAL fsyncs plus one refine-WAL
//! fsync (N+1), while a group-committed round costs exactly **one** fsync —
//! synchronous or pipelined alike, since both commit through the same step
//! — observed through the `storage.fsync_count` telemetry counter.  Second, **stage-boundary
//! crashes**: a round interrupted between its staged (nosync) shard appends
//! and the group fsync is rolled back everywhere, a round interrupted after
//! the group fsync but before the shard tails reached disk is healed from
//! the group-commit log, and in neither case does a partially-committed
//! round survive reopen.
//!
//! Crash simulation note: an in-process kill cannot lose page-cache bytes,
//! so "the fsync never happened" is modelled by tearing the tail frame off
//! the relevant WAL segment after close — exactly the prefix an OS crash
//! would have left.

use dc_core::{
    DurabilityOptions, PipelineOptions, PipelinedEngine, ShardedDurableEngine,
    ShardedRecoveryReport,
};
use dc_datagen::fixtures::small_febrl_workload;
use dc_datagen::DynamicWorkload;
use dc_objective::{DbIndexObjective, ObjectiveFunction};
use dc_similarity::{GraphConfig, ShardRouter};
use dc_storage::wal::list_segments;
use dc_types::OperationBatch;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{assert_clusterings_identical, TempDir};

const TRAIN_ROUNDS: usize = 2;
const N_SHARDS: usize = 4;

fn serve_batches(
    workload: &DynamicWorkload,
    objective: Arc<dyn ObjectiveFunction>,
) -> Vec<OperationBatch> {
    let (_, _, serve, _) = common::trained_setup(
        workload,
        || GraphConfig::textual_febrl(0.6),
        objective,
        TRAIN_ROUNDS,
    );
    serve
        .into_iter()
        .map(|s| s.batch)
        .filter(|b| !b.is_empty())
        .collect()
}

fn open_engine(
    dir: &Path,
    n_shards: usize,
    workload: &DynamicWorkload,
    objective: Arc<dyn ObjectiveFunction>,
    options: DurabilityOptions,
) -> (ShardedDurableEngine, ShardedRecoveryReport) {
    let (graph, previous, _, dynamicc) = common::trained_setup(
        workload,
        || GraphConfig::textual_febrl(0.6),
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

/// One flush-delimited pipelined round per batch (see
/// `pipeline_equivalence.rs` for why these options force that shape).
fn barrier_options() -> PipelineOptions {
    PipelineOptions {
        max_batch_delay: Duration::from_secs(30),
        record_batches: false,
        ..PipelineOptions::fixed(1_000_000)
    }
}

/// Serve `batches` through a pipelined engine over `dir` and close cleanly.
fn pipelined_serve(
    dir: &Path,
    workload: &DynamicWorkload,
    objective: Arc<dyn ObjectiveFunction>,
    options: DurabilityOptions,
    batches: &[OperationBatch],
) {
    let (engine, report) = open_engine(dir, N_SHARDS, workload, objective, options);
    assert!(!report.recovered, "must start fresh");
    let pipe = PipelinedEngine::start(engine, barrier_options());
    for batch in batches {
        for op in batch.iter() {
            pipe.submit(op.clone()).expect("submit");
        }
        pipe.flush().expect("flush");
    }
    let (engine, report) = pipe.close().expect("clean close");
    assert_eq!(report.rounds_committed, batches.len() as u64);
    drop(engine);
}

/// Synchronous reference: a fresh engine at `dir` after applying `batches`.
fn sync_reference(
    dir: &Path,
    workload: &DynamicWorkload,
    objective: Arc<dyn ObjectiveFunction>,
    options: DurabilityOptions,
    batches: &[OperationBatch],
) -> ShardedDurableEngine {
    let (mut engine, _) = open_engine(dir, N_SHARDS, workload, objective, options);
    for batch in batches {
        engine.apply_round(batch).expect("reference round");
    }
    engine
}

/// Tear the final frame off the newest WAL segment under `state_dir`,
/// modelling an fsync that never reached that file before the crash.
fn tear_wal_tail(state_dir: &Path) {
    let (_, seg_path) = list_segments(state_dir)
        .expect("list segments")
        .pop()
        .expect("segment");
    let len = std::fs::metadata(&seg_path).expect("metadata").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&seg_path)
        .expect("open segment");
    file.set_len(len - 3).expect("truncate");
}

/// The per-round fsync schedule, pinned by telemetry: K classic rounds —
/// synchronous or pipelined — cost K×(N+1) fsyncs; K group-committed rounds
/// cost exactly K; at N=1 both modes cost exactly K.  (Counters are thread-local; the pipelined engine's
/// worker deltas merge back into this thread at `close`.)
#[test]
fn group_commit_fsyncs_once_per_round_instead_of_once_per_shard() {
    let workload = small_febrl_workload();
    let objective: Arc<dyn ObjectiveFunction> = Arc::new(DbIndexObjective);
    let batches = serve_batches(&workload, objective.clone());
    let k = batches.len() as u64;
    assert!(k >= 2);
    let reg = dc_telemetry::registry();
    reg.set_enabled(true);

    // No checkpoints: every fsync in the serve window belongs to a round.
    let classic = DurabilityOptions {
        checkpoint_every_rounds: 0,
        group_commit: false,
    };
    let grouped = DurabilityOptions {
        checkpoint_every_rounds: 0,
        group_commit: true,
    };

    // Classic synchronous rounds: N shard-WAL fsyncs + 1 refine-WAL fsync.
    let tmp = TempDir::new("fsync-classic");
    let (mut engine, _) = open_engine(tmp.path(), N_SHARDS, &workload, objective.clone(), classic);
    let before = reg.counter("storage.fsync_count");
    for batch in &batches {
        engine.apply_round(batch).expect("round");
    }
    assert_eq!(
        reg.counter("storage.fsync_count") - before,
        k * (N_SHARDS as u64 + 1),
        "classic rounds fsync every shard WAL plus the refine WAL"
    );
    drop(engine);

    // Synchronous group commit: one fsync per round.
    let tmp = TempDir::new("fsync-grouped");
    let (mut engine, _) = open_engine(tmp.path(), N_SHARDS, &workload, objective.clone(), grouped);
    let before = reg.counter("storage.fsync_count");
    for batch in &batches {
        engine.apply_round(batch).expect("round");
    }
    assert_eq!(
        reg.counter("storage.fsync_count") - before,
        k,
        "group commit seals a round with a single refine-WAL fsync"
    );
    drop(engine);

    // Pipelined: identical schedule, one group fsync per committed round.
    let tmp = TempDir::new("fsync-pipelined");
    let (engine, _) = open_engine(tmp.path(), N_SHARDS, &workload, objective.clone(), grouped);
    let before = reg.counter("storage.fsync_count");
    let pipe = PipelinedEngine::start(engine, barrier_options());
    for batch in &batches {
        for op in batch.iter() {
            pipe.submit(op.clone()).expect("submit");
        }
        pipe.flush().expect("flush");
    }
    let (engine, report) = pipe.close().expect("clean close");
    assert_eq!(report.rounds_committed, k);
    assert_eq!(
        reg.counter("storage.fsync_count") - before,
        k,
        "pipelined rounds group-commit with one fsync each"
    );
    drop(engine);

    // Pipelined with group commit off: the pipeline commits through the
    // same step as the synchronous engine, so it honours the flag.
    let tmp = TempDir::new("fsync-pipelined-classic");
    let (engine, _) = open_engine(tmp.path(), N_SHARDS, &workload, objective.clone(), classic);
    let before = reg.counter("storage.fsync_count");
    let pipe = PipelinedEngine::start(engine, barrier_options());
    for batch in &batches {
        for op in batch.iter() {
            pipe.submit(op.clone()).expect("submit");
        }
        pipe.flush().expect("flush");
    }
    let (engine, report) = pipe.close().expect("clean close");
    assert_eq!(report.rounds_committed, k);
    assert_eq!(
        reg.counter("storage.fsync_count") - before,
        k * (N_SHARDS as u64 + 1),
        "pipelined classic rounds fsync every shard WAL plus the refine WAL"
    );
    drop(engine);

    // One shard: no refine WAL, so both modes seal on the shard's own WAL.
    for (name, options) in [
        ("fsync-solo-classic", classic),
        ("fsync-solo-grouped", grouped),
    ] {
        let tmp = TempDir::new(name);
        let (mut engine, _) = open_engine(tmp.path(), 1, &workload, objective.clone(), options);
        let before = reg.counter("storage.fsync_count");
        for batch in &batches {
            engine.apply_round(batch).expect("round");
        }
        assert_eq!(
            reg.counter("storage.fsync_count") - before,
            k,
            "{name}: a one-shard round costs exactly one fsync"
        );
        drop(engine);
    }
    reg.set_enabled(false);
}

/// Crash between the staged shard appends and the group fsync: the shard
/// WALs hold the round but the group-commit log does not, so the round was
/// never acknowledged and every shard rolls it back on reopen.
#[test]
fn torn_group_commit_log_rolls_the_staged_round_back_everywhere() {
    let workload = small_febrl_workload();
    let objective: Arc<dyn ObjectiveFunction> = Arc::new(DbIndexObjective);
    let batches = serve_batches(&workload, objective.clone());
    assert!(batches.len() >= 2);
    let options = DurabilityOptions {
        checkpoint_every_rounds: 0,
        group_commit: true,
    };
    let committed = batches.len() - 1;

    let tmp = TempDir::new("torn-group-log");
    pipelined_serve(tmp.path(), &workload, objective.clone(), options, &batches);
    tear_wal_tail(&tmp.path().join("refine"));

    let (mut engine, report) =
        open_engine(tmp.path(), N_SHARDS, &workload, objective.clone(), options);
    assert!(report.recovered);
    assert!(report.dropped_torn_tail, "the torn tail must be detected");
    assert_eq!(
        report.committed_round, committed as u64,
        "the final round's group fsync never landed"
    );
    assert_eq!(
        report.rolled_back_rounds, 1,
        "every shard discards its staged copy of the uncommitted round"
    );
    assert_eq!(report.healed_rounds, 0);
    assert_eq!(engine.rounds_served(), committed);

    let tmp_ref = TempDir::new("torn-group-log-ref");
    let reference = sync_reference(
        tmp_ref.path(),
        &workload,
        objective.clone(),
        options,
        &batches[..committed],
    );
    assert_clusterings_identical(
        &engine.merged_clustering(),
        &reference.merged_clustering(),
        "rolled-back merged",
    );
    assert_clusterings_identical(
        &engine.refined_clustering(),
        &reference.refined_clustering(),
        "rolled-back refined",
    );
    assert_eq!(engine.stats(), reference.stats());

    // Re-serving the lost round converges on the full-workload state.
    let tmp_full = TempDir::new("torn-group-log-full");
    let full = sync_reference(tmp_full.path(), &workload, objective, options, &batches);
    engine
        .apply_round(&batches[committed])
        .expect("re-serve the rolled-back round");
    assert_clusterings_identical(
        &engine.merged_clustering(),
        &full.merged_clustering(),
        "re-served merged",
    );
    assert_eq!(engine.stats(), full.stats());
}

/// Crash after the group fsync but before the shard WAL tails reached disk:
/// the group-commit log holds the round, so the lagging shards are healed by
/// replaying their sub-batches from it — the acknowledged round survives.
#[test]
fn torn_shard_tails_are_healed_from_the_group_commit_log() {
    let workload = small_febrl_workload();
    let objective: Arc<dyn ObjectiveFunction> = Arc::new(DbIndexObjective);
    let batches = serve_batches(&workload, objective.clone());
    let options = DurabilityOptions {
        checkpoint_every_rounds: 0,
        group_commit: true,
    };

    let tmp = TempDir::new("torn-shard-tails");
    pipelined_serve(tmp.path(), &workload, objective.clone(), options, &batches);
    // Two of the four shards lose their (staged, never individually
    // fsynced) tail frame; the group-commit log is intact.
    tear_wal_tail(&tmp.path().join("shard-001"));
    tear_wal_tail(&tmp.path().join("shard-003"));

    let (engine, report) = open_engine(tmp.path(), N_SHARDS, &workload, objective.clone(), options);
    assert!(report.recovered);
    assert!(report.dropped_torn_tail);
    assert_eq!(
        report.committed_round,
        batches.len() as u64,
        "the group fsync landed, so the round is committed"
    );
    assert_eq!(report.rolled_back_rounds, 0, "nothing is rolled back");
    assert_eq!(
        report.healed_rounds, 2,
        "two lagging shards each replay one round from the group-commit log"
    );
    assert_eq!(engine.rounds_served(), batches.len());

    let tmp_ref = TempDir::new("torn-shard-tails-ref");
    let reference = sync_reference(tmp_ref.path(), &workload, objective, options, &batches);
    assert_clusterings_identical(
        &engine.merged_clustering(),
        &reference.merged_clustering(),
        "healed merged",
    );
    assert_clusterings_identical(
        &engine.refined_clustering(),
        &reference.refined_clustering(),
        "healed refined",
    );
    assert_eq!(engine.stats(), reference.stats());
    assert_eq!(engine.shard_comparisons(), reference.shard_comparisons());
}

/// Mixed crash: the group-commit log *and* one shard lose their tails.  The
/// torn group log caps the committed round, the torn shard is already at
/// that round, and the intact shards roll back — everyone converges on the
/// last acknowledged round with nothing to heal.
#[test]
fn mixed_torn_tails_converge_on_the_last_acknowledged_round() {
    let workload = small_febrl_workload();
    let objective: Arc<dyn ObjectiveFunction> = Arc::new(DbIndexObjective);
    let batches = serve_batches(&workload, objective.clone());
    assert!(batches.len() >= 2);
    let options = DurabilityOptions {
        checkpoint_every_rounds: 0,
        group_commit: true,
    };
    let committed = batches.len() - 1;

    let tmp = TempDir::new("mixed-torn");
    pipelined_serve(tmp.path(), &workload, objective.clone(), options, &batches);
    tear_wal_tail(&tmp.path().join("refine"));
    tear_wal_tail(&tmp.path().join("shard-002"));

    let (engine, report) = open_engine(tmp.path(), N_SHARDS, &workload, objective.clone(), options);
    assert!(report.recovered);
    assert!(report.dropped_torn_tail);
    assert_eq!(report.committed_round, committed as u64);
    assert_eq!(
        report.rolled_back_rounds, 1,
        "the intact shards discard the unacknowledged round"
    );
    assert_eq!(
        report.healed_rounds, 0,
        "no shard is behind the commit point"
    );
    assert_eq!(engine.rounds_served(), committed);

    let tmp_ref = TempDir::new("mixed-torn-ref");
    let reference = sync_reference(
        tmp_ref.path(),
        &workload,
        objective,
        options,
        &batches[..committed],
    );
    assert_clusterings_identical(
        &engine.merged_clustering(),
        &reference.merged_clustering(),
        "mixed-crash merged",
    );
    assert_clusterings_identical(
        &engine.refined_clustering(),
        &reference.refined_clustering(),
        "mixed-crash refined",
    );
    assert_eq!(engine.stats(), reference.stats());
}
