//! End-to-end equivalence regression tests for the incremental-aggregates
//! serving path.
//!
//! Three facts are locked down on the canned `dc_datagen::fixtures`
//! workloads:
//!
//! 1. serving with the aggregate-reusing objective hooks produces the
//!    *identical* clustering and `DynamicCStats` counters as serving with the
//!    rebuild-per-delta slow path ([`SlowPathObjective`]);
//! 2. the persistent [`Engine`] round loop produces the identical clustering
//!    and applied merges and splits as the stateless `DynamicC::recluster`
//!    on both objective families, with **zero** full aggregate builds per
//!    round (recluster itself performs exactly one) and, thanks to its
//!    scoped passes, no more objective evaluations or rejections;
//! 3. the served clustering and counters are pinned as golden values, so any
//!    behavioural drift in the serving path fails loudly.

mod common;

use dc_baselines::IncrementalClusterer;
use dc_batch::{BatchClusterer, HillClimbing};
use dc_core::{train_on_workload, DynamicC, DynamicCStats, Engine};
use dc_datagen::fixtures::{small_access_workload, small_febrl_workload};
use dc_datagen::DynamicWorkload;
use dc_objective::{CorrelationObjective, DbIndexObjective, ObjectiveFunction, SlowPathObjective};
use dc_similarity::{BuildCounter, GraphConfig, SimilarityGraph};
use dc_types::{Clustering, Operation, OperationBatch, Snapshot};
use std::sync::Arc;

const TRAIN_ROUNDS: usize = 2;

/// Build the graph up to the end of the training prefix, train a DynamicC
/// with the given verification objective on it, and return everything needed
/// to serve the remaining snapshots.
fn trained_setup(
    objective: Arc<dyn ObjectiveFunction>,
) -> (SimilarityGraph, Clustering, Vec<Snapshot>, DynamicC) {
    let workload = small_febrl_workload();
    let mut graph = SimilarityGraph::build(GraphConfig::textual_febrl(0.6), &workload.initial);
    let batch = HillClimbing::with_objective(Arc::new(DbIndexObjective));
    let initial = batch.cluster(&graph).clustering;
    let mut dynamicc = DynamicC::with_objective(objective);
    let (train, serve) = workload.snapshots.split_at(TRAIN_ROUNDS);
    let report = train_on_workload(&mut dynamicc, &mut graph, &initial, train, &batch);
    let previous = report.final_clustering(&initial);
    (graph, previous, serve.to_vec(), dynamicc)
}

/// Serve every remaining snapshot through `DynamicC::recluster`, returning
/// the per-round clusterings and the full-build count consumed while
/// serving.
fn serve_all(
    graph: &mut SimilarityGraph,
    mut previous: Clustering,
    serve: &[Snapshot],
    dynamicc: &mut DynamicC,
) -> (Vec<Clustering>, u64) {
    BuildCounter::scope(|| {
        let mut produced = Vec::new();
        for snapshot in serve {
            graph.apply_batch(&snapshot.batch);
            let result = dynamicc.recluster(graph, &previous, &snapshot.batch);
            result.check_invariants().unwrap();
            produced.push(result.clone());
            previous = result;
        }
        produced
    })
}

#[test]
fn fast_and_slow_objective_paths_produce_identical_clusterings_and_stats() {
    let (mut fast_graph, fast_prev, serve, mut fast) = trained_setup(Arc::new(DbIndexObjective));
    let (mut slow_graph, slow_prev, _, mut slow) =
        trained_setup(Arc::new(SlowPathObjective::new(Arc::new(DbIndexObjective))));

    let fast_stats_before = *fast.stats();
    let slow_stats_before = *slow.stats();
    assert_eq!(
        fast_stats_before, slow_stats_before,
        "identical training must produce identical pre-serving stats"
    );

    let (fast_rounds, fast_builds) = serve_all(&mut fast_graph, fast_prev, &serve, &mut fast);
    let (slow_rounds, slow_builds) = serve_all(&mut slow_graph, slow_prev, &serve, &mut slow);

    for (i, (f, s)) in fast_rounds.iter().zip(&slow_rounds).enumerate() {
        assert!(
            f.delta(s).is_unchanged(),
            "round {i}: fast and slow paths diverged"
        );
    }
    assert_eq!(
        fast.stats(),
        slow.stats(),
        "verification counters must not depend on the aggregate fast path"
    );

    // The whole point: one O(E) build per round on the fast path, and at
    // least 5x that on the rebuild-per-delta slow path.
    assert_eq!(
        fast_builds,
        serve.len() as u64,
        "recluster must perform exactly one full aggregate build per round"
    );
    assert!(
        slow_builds >= 5 * fast_builds,
        "slow path performed {slow_builds} builds vs {fast_builds} fast — expected >= 5x"
    );
}

/// The work and outcome counters of a span of serving, as field-wise
/// differences of two cumulative snapshots.
fn stats_delta(before: &DynamicCStats, after: &DynamicCStats) -> [u64; 5] {
    [
        (after.merges_applied - before.merges_applied) as u64,
        (after.splits_applied - before.splits_applied) as u64,
        after.objective_evaluations - before.objective_evaluations,
        (after.merges_rejected - before.merges_rejected) as u64,
        (after.splits_rejected - before.splits_rejected) as u64,
    ]
}

/// Serve the held-out rounds through the [`Engine`]'s scoped round loop and,
/// side by side, through the stateless `DynamicC::recluster` — the unscoped
/// oracle that re-verifies every cluster — and require, round by round,
/// identical clusterings and applied merges and splits, with the engine
/// doing at most the oracle's evaluations and rejections.  In at least one
/// round it must do strictly fewer evaluations, or it is not scoped at all.
fn check_engine_matches_recluster(
    tag: &str,
    workload: &DynamicWorkload,
    graph_config: impl Fn() -> GraphConfig + Copy,
    objective: Arc<dyn ObjectiveFunction>,
) {
    let (mut graph_a, prev_a, serve, mut via_recluster) =
        common::trained_setup(workload, graph_config, objective.clone(), TRAIN_ROUNDS);
    let (graph_b, prev_b, _, via_engine) =
        common::trained_setup(workload, graph_config, objective, TRAIN_ROUNDS);

    // The workload's rounds, then three small ones after them: an empty
    // round, and one object removed and added back — rounds whose dirty
    // closure is a sliver of the clustering.
    let mut rounds: Vec<OperationBatch> = serve.iter().map(|s| s.batch.clone()).collect();
    let id = graph_b.object_ids()[0];
    let record = graph_b.record(id).unwrap().clone();
    rounds.push(OperationBatch::new());
    rounds.push(OperationBatch::from_ops(vec![Operation::Remove { id }]));
    rounds.push(OperationBatch::from_ops(vec![Operation::Add {
        id,
        record,
    }]));

    let mut engine = Engine::new(graph_b, prev_b, via_engine);
    let mut previous = prev_a;
    let mut saw_fewer_evaluations = false;
    for (i, batch) in rounds.iter().enumerate() {
        let oracle_before = *via_recluster.stats();
        graph_a.apply_batch(batch);
        let expected = via_recluster.recluster(&graph_a, &previous, batch);
        let oracle = stats_delta(&oracle_before, via_recluster.stats());

        let engine_before = *engine.stats();
        let report = engine.apply_round(batch);
        let scoped = stats_delta(&engine_before, engine.stats());

        assert!(
            engine.clustering().delta(&expected).is_unchanged(),
            "{tag}: round {i}: engine and recluster diverged"
        );
        assert_eq!(
            report.full_aggregate_builds, 0,
            "{tag}: round {i}: the engine must not rebuild aggregates"
        );
        assert_eq!(report.objects, expected.object_count());
        assert_eq!(report.clusters, expected.cluster_count());
        assert_eq!(
            scoped[..2],
            oracle[..2],
            "{tag}: round {i}: merges and splits applied"
        );
        for (field, (s, o)) in ["evaluations", "merge rejections", "split rejections"]
            .iter()
            .zip(scoped[2..].iter().zip(&oracle[2..]))
        {
            assert!(s <= o, "{tag}: round {i}: scoped {field} {s} > oracle {o}");
        }
        saw_fewer_evaluations |= scoped[2] < oracle[2];
        previous = expected;
    }
    assert!(
        saw_fewer_evaluations,
        "{tag}: the engine never evaluated less than the unscoped oracle"
    );
    assert_eq!(engine.rounds_served(), rounds.len());
}

#[test]
fn engine_rounds_match_recluster_exactly() {
    check_engine_matches_recluster(
        "febrl",
        &small_febrl_workload(),
        || GraphConfig::textual_febrl(0.6),
        Arc::new(DbIndexObjective),
    );
    check_engine_matches_recluster(
        "access",
        &small_access_workload(),
        || GraphConfig::numeric_euclidean(1.8, 4.0, 3, 0.25),
        Arc::new(CorrelationObjective),
    );
}

#[test]
fn served_clustering_and_counters_match_golden_values() {
    // Run the full train-then-serve pipeline twice and require bit-identical
    // outcomes (determinism), then pin the outcome itself.
    let mut finals = Vec::new();
    for _ in 0..2 {
        let (mut graph, previous, serve, mut dynamicc) = trained_setup(Arc::new(DbIndexObjective));
        let (rounds, _) = serve_all(&mut graph, previous, &serve, &mut dynamicc);
        finals.push((rounds.last().unwrap().clone(), *dynamicc.stats()));
    }
    let (ref final_a, stats_a) = finals[0];
    let (ref final_b, stats_b) = finals[1];
    assert!(
        final_a.delta(final_b).is_unchanged(),
        "non-deterministic serving"
    );
    assert_eq!(stats_a, stats_b, "non-deterministic counters");

    // Golden values for the small Febrl fixture (seed 3, threshold 0.6,
    // 2 training + 3 served rounds).  These pin the *behaviour* of the
    // serving path: a change here means the refactor changed what DynamicC
    // does, not just how fast it does it.
    assert_eq!(final_a.object_count(), 193, "golden: served objects");
    assert_eq!(final_a.cluster_count(), 71, "golden: served clusters");
    assert_eq!(stats_a.observed_rounds, 2, "golden: observed rounds");
    assert_eq!(stats_a.merges_applied, 94, "golden: merges applied");
    assert_eq!(stats_a.merges_rejected, 2, "golden: merges rejected");
    assert_eq!(stats_a.splits_applied, 1, "golden: splits applied");
    assert_eq!(stats_a.splits_rejected, 920, "golden: splits rejected");
    assert_eq!(stats_a.merge_candidates, 172, "golden: merge candidates");
    assert_eq!(stats_a.split_candidates, 349, "golden: split candidates");
    assert_eq!(
        stats_a.objective_evaluations, 1017,
        "golden: objective evaluations"
    );
}
