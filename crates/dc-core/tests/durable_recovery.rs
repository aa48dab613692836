//! Recovery-equivalence regression tests for the durable serving path.
//!
//! The invariant under test: a [`DurableEngine`] that is killed and reopened
//! between (every pair of) rounds produces **bit-identical** clusterings —
//! down to the cluster ids — and bit-identical [`DynamicCStats`] counters to
//! an [`Engine`] that served the same workload without ever restarting.
//! Checked on both fixture families (textual Febrl + DB-index objective,
//! numeric Access + correlation objective), with checkpoints landing both on
//! and off the kill points, and with recovery required to perform **zero**
//! full O(E) aggregate builds (the snapshot restores the maintained
//! aggregates bit-for-bit instead of rebuilding them).

use dc_core::{DurabilityOptions, DurableEngine, DynamicC, Engine, RoundReport};
use dc_datagen::fixtures::{small_access_workload, small_febrl_workload};
use dc_datagen::DynamicWorkload;
use dc_objective::{CorrelationObjective, DbIndexObjective, ObjectiveFunction};
use dc_similarity::{BuildCounter, GraphConfig, SimilarityGraph};
use dc_types::{Clustering, Snapshot};
use std::sync::Arc;

mod common;
use common::{assert_clusterings_identical, TempDir};

const TRAIN_ROUNDS: usize = 2;

/// Deterministically build the graph over the training prefix and train a
/// DynamicC on it — called repeatedly to model independent process starts
/// that all load "the same trained model".
fn trained_setup(
    workload: &DynamicWorkload,
    graph_config: impl Fn() -> GraphConfig,
    objective: Arc<dyn ObjectiveFunction>,
) -> (SimilarityGraph, Clustering, Vec<Snapshot>, DynamicC) {
    common::trained_setup(workload, graph_config, objective, TRAIN_ROUNDS)
}

/// Serve every round through an uninterrupted engine, then again through a
/// durable engine that is killed and reopened around every single round, and
/// require the two runs to be indistinguishable.
fn check_recovery_equivalence(
    tag: &str,
    workload: &DynamicWorkload,
    graph_config: impl Fn() -> GraphConfig + Copy,
    objective: Arc<dyn ObjectiveFunction>,
    options: DurabilityOptions,
) {
    // Reference: never restarted.
    let (graph, previous, serve, dynamicc) =
        trained_setup(workload, graph_config, objective.clone());
    let mut uninterrupted = Engine::new(graph, previous, dynamicc);
    let mut expected_reports: Vec<RoundReport> = Vec::new();
    let mut expected_clusterings: Vec<Clustering> = Vec::new();
    for snapshot in &serve {
        expected_reports.push(uninterrupted.apply_round(&snapshot.batch));
        expected_clusterings.push(uninterrupted.clustering().clone());
    }

    // Durable twin: a fresh process for every round.  Each reopen must
    // replay exactly the rounds the killed process had served since its
    // last checkpoint — the snapshot covers the rest.
    let tmp = TempDir::new(tag);
    let dir = tmp.path();
    let mut tail_at_kill = {
        let (graph, previous, _, dynamicc) =
            trained_setup(workload, graph_config, objective.clone());
        let config = graph.config().clone();
        let (engine, report) =
            DurableEngine::open(dir, config, dynamicc, options, move || (graph, previous)).unwrap();
        assert!(!report.recovered, "{tag}: first open must be fresh");
        engine.rounds_since_checkpoint()
    };
    for (i, snapshot) in serve.iter().enumerate() {
        // Every reopen is a simulated crash recovery: a new process with the
        // same config and the same deterministically trained models.
        let (graph, _, _, dynamicc) = trained_setup(workload, graph_config, objective.clone());
        let config = graph.config().clone();
        let ((mut engine, report), recovery_builds) = BuildCounter::scope(|| {
            DurableEngine::open(dir, config, dynamicc, options, || {
                unreachable!("recovery must not bootstrap")
            })
            .unwrap()
        });
        assert!(report.recovered, "{tag}: round {i}: open must recover");
        assert_eq!(
            recovery_builds, 0,
            "{tag}: round {i}: recovery must not rebuild aggregates"
        );
        assert_eq!(engine.rounds_served(), i, "{tag}: round {i}: resume point");
        assert_eq!(
            report.replayed_rounds as u64, tail_at_kill,
            "{tag}: round {i}: recovery must replay exactly the tail since the last checkpoint"
        );

        let round_report = engine.apply_round(&snapshot.batch).unwrap();
        assert_eq!(
            round_report, expected_reports[i],
            "{tag}: round {i}: report diverged"
        );
        assert_clusterings_identical(
            engine.clustering(),
            &expected_clusterings[i],
            &format!("{tag}: round {i}"),
        );
        tail_at_kill = engine.rounds_since_checkpoint();
        if options.checkpoint_every_rounds > 0 {
            assert!(
                tail_at_kill < options.checkpoint_every_rounds as u64,
                "{tag}: round {i}: automatic checkpoints must bound the replay tail"
            );
        }
        // Killed here: `engine` is dropped without any shutdown hook.
    }

    // Final state: one more recovery, then compare everything.
    let (graph, _, _, dynamicc) = trained_setup(workload, graph_config, objective.clone());
    let config = graph.config().clone();
    let (engine, report) = DurableEngine::open(dir, config, dynamicc, options, || {
        unreachable!("recovery must not bootstrap")
    })
    .unwrap();
    assert!(report.recovered);
    assert_eq!(engine.rounds_served(), serve.len());
    assert_eq!(
        report.replayed_rounds as u64, tail_at_kill,
        "{tag}: final replay"
    );
    assert_clusterings_identical(
        engine.clustering(),
        uninterrupted.clustering(),
        &format!("{tag}: final"),
    );
    assert_eq!(
        engine.stats(),
        uninterrupted.stats(),
        "{tag}: DynamicCStats diverged across restarts"
    );
    assert_eq!(
        engine.engine().graph().comparisons(),
        uninterrupted.graph().comparisons(),
        "{tag}: similarity work counters diverged"
    );
}

#[test]
fn febrl_dbindex_recovery_is_bit_identical_with_checkpoints_on_kill_points() {
    check_recovery_equivalence(
        "febrl-ckpt2",
        &small_febrl_workload(),
        || GraphConfig::textual_febrl(0.6),
        Arc::new(DbIndexObjective),
        DurabilityOptions {
            checkpoint_every_rounds: 2,
            group_commit: false,
        },
    );
}

#[test]
fn febrl_dbindex_recovery_is_bit_identical_replaying_the_whole_log() {
    // No automatic checkpoints: every recovery replays every round from the
    // initial snapshot.
    check_recovery_equivalence(
        "febrl-replay",
        &small_febrl_workload(),
        || GraphConfig::textual_febrl(0.6),
        Arc::new(DbIndexObjective),
        DurabilityOptions {
            checkpoint_every_rounds: 0,
            group_commit: false,
        },
    );
}

#[test]
fn access_correlation_recovery_is_bit_identical() {
    check_recovery_equivalence(
        "access",
        &small_access_workload(),
        || GraphConfig::numeric_euclidean(1.8, 4.0, 3, 0.25),
        Arc::new(CorrelationObjective),
        DurabilityOptions {
            checkpoint_every_rounds: 1,
            group_commit: false,
        },
    );
}

#[test]
fn manual_checkpoint_prunes_the_log_and_survives_recovery() {
    let workload = small_febrl_workload();
    let graph_config = || GraphConfig::textual_febrl(0.6);
    let objective: Arc<dyn ObjectiveFunction> = Arc::new(DbIndexObjective);
    let tmp = TempDir::new("manual-ckpt");
    let dir = tmp.path();

    let (graph, previous, serve, dynamicc) =
        trained_setup(&workload, graph_config, objective.clone());
    let config = graph.config().clone();
    let options = DurabilityOptions {
        checkpoint_every_rounds: 0,
        group_commit: false,
    };
    let (mut engine, _) =
        DurableEngine::open(dir, config, dynamicc, options, move || (graph, previous)).unwrap();
    for snapshot in &serve {
        engine.apply_round(&snapshot.batch).unwrap();
    }
    assert_eq!(engine.rounds_since_checkpoint(), serve.len() as u64);
    let round = engine.checkpoint().unwrap();
    assert_eq!(round, serve.len() as u64);
    assert_eq!(engine.rounds_since_checkpoint(), 0);
    // Exactly one snapshot and one (fresh, empty) segment remain.
    assert_eq!(engine.artifact_paths().unwrap().len(), 2);
    let final_clustering = engine.clustering().clone();
    let final_stats = *engine.stats();
    drop(engine);

    let (graph, _, _, dynamicc) = trained_setup(&workload, graph_config, objective);
    let config = graph.config().clone();
    let (engine, report) = DurableEngine::open(dir, config, dynamicc, options, || {
        unreachable!("recovery must not bootstrap")
    })
    .unwrap();
    assert!(report.recovered);
    assert_eq!(report.snapshot_round, serve.len() as u64);
    assert_eq!(
        report.replayed_rounds, 0,
        "post-checkpoint recovery replays nothing"
    );
    assert_clusterings_identical(engine.clustering(), &final_clustering, "manual checkpoint");
    assert_eq!(engine.stats(), &final_stats);
}
