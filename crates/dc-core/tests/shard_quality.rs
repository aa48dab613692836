//! Pair-level quality equivalence of sharded vs unsharded serving.
//!
//! The whole point of the cross-shard refinement pass (`dc_core::refine`):
//! at N > 1 the *merged* per-shard clustering silently loses the pairs whose
//! records route to different shards, but the *refined* clustering must be
//! pair-for-pair identical to what the unsharded [`Engine`] produces on the
//! same workload — under exact blocking there is no information the sharded
//! engine lacks, so any remaining gap is a bug, not a trade-off.
//!
//! Pinned here with `dc_eval::pair_counts` on both fixture families
//! (textual Febrl + DB-index, numeric Access + correlation), for N ∈ {2, 4},
//! after **every** served round:
//!
//! * post-refinement: the pair sets are **bit-equal** (zero pairs on either
//!   side of the disagreement counts — stronger than F1 within 1e-9);
//! * the recovered cross-shard edge count equals the number of unsharded
//!   graph edges whose endpoints the sharded engine places in different
//!   shards;
//! * pre-refinement: the merged clustering's recall against the unsharded
//!   engine never exceeds the refined one's (refinement only closes the
//!   gap), and across the whole workload the partition demonstrably *had* a
//!   gap to close (otherwise this test would be vacuous).

use dc_core::{Engine, ShardedEngine};
use dc_datagen::fixtures::{small_access_workload, small_febrl_workload};
use dc_datagen::DynamicWorkload;
use dc_eval::pair_counts;
use dc_objective::{CorrelationObjective, DbIndexObjective, ObjectiveFunction};
use dc_similarity::{GraphConfig, ShardRouter, TokenBlocking};
use std::sync::Arc;

mod common;

const TRAIN_ROUNDS: usize = 2;

/// Febrl under **exact** token blocking (no stop-word cutoff), so blocking
/// semantics do not depend on shard size and the sharded engine provably has
/// the same information as the unsharded one.
fn exact_febrl_config() -> GraphConfig {
    GraphConfig::new(
        Box::new(dc_similarity::measures::CompositeMeasure::febrl_default()),
        Box::new(TokenBlocking::new(0)),
        0.6,
    )
}

fn check_refinement_closes_the_gap(
    tag: &str,
    n_shards: usize,
    workload: &DynamicWorkload,
    graph_config: impl Fn() -> GraphConfig + Copy,
    objective: Arc<dyn ObjectiveFunction>,
) {
    let (graph_a, prev_a, serve, dynamicc_a) =
        common::trained_setup(workload, graph_config, objective.clone(), TRAIN_ROUNDS);
    let (graph_b, prev_b, _, dynamicc_b) =
        common::trained_setup(workload, graph_config, objective, TRAIN_ROUNDS);

    let mut unsharded = Engine::new(graph_a, prev_a, dynamicc_a);
    let router = ShardRouter::for_config(n_shards, graph_b.config());
    let mut sharded =
        ShardedEngine::new(router, graph_b, prev_b, dynamicc_b).expect("valid shard config");

    let mut gap_rounds = 0usize;
    for (i, snapshot) in serve.iter().enumerate() {
        let context = format!("{tag}: {n_shards} shards: round {i}");
        unsharded.apply_round(&snapshot.batch);
        sharded.apply_round(&snapshot.batch);

        let reference = unsharded.clustering();
        let refined = sharded.refined_clustering();
        refined.check_invariants().unwrap();
        let post = pair_counts(&refined, reference);
        assert_eq!(
            (post.together_result_only, post.together_reference_only),
            (0, 0),
            "{context}: refined pair sets must be bit-equal to the unsharded \
             engine's (F1 = {})",
            post.f1()
        );
        assert!((post.f1() - 1.0).abs() < 1e-9, "{context}");

        // The recovered cross edges are exactly the unsharded graph's edges
        // whose endpoints the sharded engine places in different shards.
        let expected_cross = unsharded
            .graph()
            .edges()
            .filter(|&(a, b, _)| sharded.shard_of(a) != sharded.shard_of(b))
            .count();
        assert_eq!(
            sharded.cross_shard_edges_recovered(),
            expected_cross,
            "{context}: recovered cross-shard edge count"
        );
        assert_eq!(
            sharded
                .last_refine_report()
                .expect("refined at N > 1")
                .cross_edges_recovered,
            expected_cross,
            "{context}: refine report's cross-shard edge count"
        );

        let pre = pair_counts(&sharded.merged_clustering(), reference);
        assert!(
            pre.recall() <= post.recall() + 1e-12,
            "{context}: refinement must not lose pairs the raw merge had"
        );
        if pre.together_reference_only > 0 {
            gap_rounds += 1;
        }
    }
    assert!(
        gap_rounds > 0,
        "{tag}: {n_shards} shards: the partition never dropped a pair, so \
         this workload does not exercise refinement at all"
    );
    assert!(
        sharded.cross_shard_edges_recovered() > 0,
        "{tag}: {n_shards} shards: no cross-shard edge was ever recovered"
    );
}

#[test]
fn refined_sharding_matches_the_unsharded_engine_on_febrl() {
    for n_shards in [2, 4] {
        check_refinement_closes_the_gap(
            "febrl",
            n_shards,
            &small_febrl_workload(),
            exact_febrl_config,
            Arc::new(DbIndexObjective),
        );
    }
}

#[test]
fn refined_sharding_matches_the_unsharded_engine_on_access() {
    for n_shards in [2, 4] {
        check_refinement_closes_the_gap(
            "access",
            n_shards,
            &small_access_workload(),
            || GraphConfig::numeric_euclidean(1.8, 4.0, 3, 0.25),
            Arc::new(CorrelationObjective),
        );
    }
}
