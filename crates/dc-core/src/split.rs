//! The split algorithm (Algorithm 2, §6.3).
//!
//! For every cluster the split model flags, members are ranked by how
//! *different* they are from the rest of the cluster (the split weight of
//! §6.3 — one minus the average similarity to the other members), and the
//! algorithm walks down that ranking looking for the first object whose
//! isolation improves the objective.  Only one object is split out per
//! cluster per pass: the paper argues this is enough because later rounds
//! (and later passes of Algorithm 3) can keep splitting, and most real
//! splits shed a small, poorly attached fragment.

use crate::config::DynamicCStats;
use crate::dirty::PassScope;
use crate::models::ModelPair;
use dc_evolution::split_features;
use dc_objective::{improves, ObjectiveFunction};
use dc_similarity::{ClusterAggregates, SimilarityGraph};
use dc_types::{ClusterId, Clustering, ObjectId};
use std::collections::BTreeSet;

/// One pass of the split algorithm.  Returns `true` when at least one split
/// was applied.
///
/// `agg` is the round's maintained aggregate: candidate features are read
/// from it and every applied split is folded back in via
/// [`ClusterAggregates::apply_split`].  This also removes the historical
/// duplicate build (one aggregate per candidate ranking, discarded and
/// rebuilt per candidate even when the clustering had not changed): the pass
/// performs **zero** full aggregate builds.
///
/// With a `scope` — every [`Engine`](crate::Engine) round — flagged
/// clusters outside the evaluation set are skipped without evaluation: their
/// split rejection from the previous fixed point still stands.  Applied
/// splits grow the evaluation set ([`PassScope::after_split`]).
/// `global_score` mirrors [`crate::merge::merge_pass`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn split_pass(
    graph: &SimilarityGraph,
    clustering: &mut Clustering,
    agg: &mut ClusterAggregates,
    objective: &dyn ObjectiveFunction,
    models: &ModelPair,
    theta_scale: f64,
    stats: &mut DynamicCStats,
    mut scope: Option<&mut PassScope>,
    mut global_score: Option<&mut f64>,
) -> bool {
    // Line 2 of Algorithm 2: clusters the split model flags (singletons can
    // never split, so they are skipped outright).
    let mut candidates: Vec<ClusterId> = Vec::new();
    for cid in clustering.cluster_ids() {
        if clustering.cluster_size(cid) < 2 {
            continue;
        }
        let flagged = match scope.as_mut() {
            Some(s) => s.split_flag(cid, agg, models, theta_scale),
            None => models.predicts_split(&split_features(agg, cid), theta_scale),
        };
        if flagged {
            candidates.push(cid);
        }
    }
    stats.split_candidates += candidates.len();

    let mut changed = false;
    for cid in candidates {
        if !clustering.contains_cluster(cid) || clustering.cluster_size(cid) < 2 {
            continue;
        }
        if let Some(s) = scope.as_ref() {
            let current_score = global_score.as_deref().copied();
            if !s.in_eval(cid) && s.split_rejection_holds(cid, current_score) {
                // Clean candidate: the previous fixed point already rejected
                // every split of this cluster, nothing it reads changed, and
                // (for global-mean objectives) the running score is still
                // inside the proof's validity interval.  A clean candidate
                // whose ceiling the score has drifted past falls through and
                // is evaluated in place, like the full pass would.
                continue;
            }
        }
        // Step 1: rank members by decreasing split weight (most different
        // first) — a per-object edge walk, no aggregate rebuild.
        let ranked = ClusterAggregates::members_by_split_weight(graph, clustering, cid);
        // Steps 2–3: find the first member whose isolation improves the
        // objective and split it out.
        let mut applied = false;
        let mut min_rejected_delta = f64::INFINITY;
        for (oid, _weight) in ranked {
            let part: BTreeSet<ObjectId> = [oid].into_iter().collect();
            stats.objective_evaluations += 1;
            let delta = objective.split_delta_with(agg, graph, clustering, cid, &part);
            if improves(delta) {
                let (part_id, rest_id) = clustering
                    .split(cid, &part)
                    .expect("candidate member of a live cluster");
                agg.apply_split(graph, clustering, cid, part_id, rest_id);
                if let Some(s) = scope.as_mut() {
                    s.after_split(cid, part_id, rest_id, agg);
                }
                if let Some(score) = global_score.as_deref_mut() {
                    *score += delta;
                }
                stats.splits_applied += 1;
                changed = true;
                applied = true;
                break;
            } else {
                stats.splits_rejected += 1;
                min_rejected_delta = min_rejected_delta.min(delta);
            }
        }
        if !applied {
            // Every member's isolation was rejected: for a global-mean
            // objective, record the score ceiling under which the tightest
            // of those rejections provably still holds.
            if let (Some(s), Some(score)) = (scope.as_mut(), global_score.as_deref().copied()) {
                if min_rejected_delta.is_finite() {
                    let ceil = objective.split_rejection_score_ceil(
                        min_rejected_delta,
                        score,
                        clustering.cluster_count(),
                    );
                    s.record_split_rejection(cid, ceil);
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelPair;
    use dc_ml::ModelKind;
    use dc_objective::CorrelationObjective;
    use dc_similarity::fixtures::graph_from_edges;

    fn oid(raw: u64) -> ObjectId {
        ObjectId::new(raw)
    }

    /// An untrained model pair flags every cluster (probability 0.5 at the
    /// default θ of 0.5), which lets the tests focus on the heuristic and
    /// the verification.
    fn permissive_models() -> ModelPair {
        ModelPair::new(ModelKind::LogisticRegression, 10)
    }

    #[test]
    fn the_least_cohesive_member_is_split_out() {
        // Cluster {1,2,3,4}: 1–3 mutually similar, 4 attached by a single
        // weak edge; splitting 4 improves the correlation objective.
        let graph = graph_from_edges(4, &[(1, 2, 0.9), (1, 3, 0.9), (2, 3, 0.9), (3, 4, 0.1)]);
        let mut clustering =
            Clustering::from_groups([vec![oid(1), oid(2), oid(3), oid(4)]]).unwrap();
        let models = permissive_models();
        let mut stats = DynamicCStats::default();
        let mut agg = ClusterAggregates::new(&graph, &clustering);
        let changed = split_pass(
            &graph,
            &mut clustering,
            &mut agg,
            &CorrelationObjective,
            &models,
            1.0,
            &mut stats,
            None,
            None,
        );
        assert!(changed);
        assert_eq!(clustering.cluster_count(), 2);
        assert!(clustering
            .cluster(clustering.cluster_of(oid(4)).unwrap())
            .unwrap()
            .is_singleton());
        assert_eq!(clustering.cluster_of(oid(1)), clustering.cluster_of(oid(3)));
        assert!(stats.splits_applied == 1);
        clustering.check_invariants().unwrap();
    }

    #[test]
    fn cohesive_clusters_are_not_split() {
        let graph = graph_from_edges(3, &[(1, 2, 0.9), (1, 3, 0.9), (2, 3, 0.9)]);
        let mut clustering = Clustering::from_groups([vec![oid(1), oid(2), oid(3)]]).unwrap();
        let models = permissive_models();
        let mut stats = DynamicCStats::default();
        let mut agg = ClusterAggregates::new(&graph, &clustering);
        let changed = split_pass(
            &graph,
            &mut clustering,
            &mut agg,
            &CorrelationObjective,
            &models,
            1.0,
            &mut stats,
            None,
            None,
        );
        assert!(!changed);
        assert_eq!(clustering.cluster_count(), 1);
        assert!(stats.splits_rejected >= 1);
        assert_eq!(stats.splits_applied, 0);
    }

    #[test]
    fn singletons_are_never_candidates() {
        let graph = graph_from_edges(2, &[]);
        let mut clustering = Clustering::singletons((1..=2).map(oid));
        let models = permissive_models();
        let mut stats = DynamicCStats::default();
        let mut agg = ClusterAggregates::new(&graph, &clustering);
        let changed = split_pass(
            &graph,
            &mut clustering,
            &mut agg,
            &CorrelationObjective,
            &models,
            1.0,
            &mut stats,
            None,
            None,
        );
        assert!(!changed);
        assert_eq!(stats.split_candidates, 0);
    }

    #[test]
    fn split_pass_performs_no_full_aggregate_builds() {
        // Regression for the historical duplicate rebuild: the pass used to
        // build one aggregate for candidate collection and another one per
        // candidate ranking.  With the maintained aggregate threaded in, a
        // whole pass must not trigger a single full build.
        let graph = graph_from_edges(4, &[(1, 2, 0.9), (1, 3, 0.9), (2, 3, 0.9), (3, 4, 0.1)]);
        let mut clustering =
            Clustering::from_groups([vec![oid(1), oid(2), oid(3), oid(4)]]).unwrap();
        let models = permissive_models();
        let mut stats = DynamicCStats::default();
        let mut agg = ClusterAggregates::new(&graph, &clustering);
        let (changed, builds) = dc_similarity::BuildCounter::scope(|| {
            split_pass(
                &graph,
                &mut clustering,
                &mut agg,
                &CorrelationObjective,
                &models,
                1.0,
                &mut stats,
                None,
                None,
            )
        });
        assert!(changed);
        assert_eq!(builds, 0, "split_pass must stay on the incremental path");
    }

    #[test]
    fn only_one_object_is_split_per_cluster_per_pass() {
        // Cluster {1,2,3,4}: 1–2 similar, 3 and 4 both unrelated stragglers.
        // A single pass sheds exactly one of them; a second pass sheds the
        // other (Algorithm 3 provides that outer loop).
        let graph = graph_from_edges(4, &[(1, 2, 0.9)]);
        let mut clustering =
            Clustering::from_groups([vec![oid(1), oid(2), oid(3), oid(4)]]).unwrap();
        let models = permissive_models();
        let mut stats = DynamicCStats::default();
        let mut agg = ClusterAggregates::new(&graph, &clustering);
        split_pass(
            &graph,
            &mut clustering,
            &mut agg,
            &CorrelationObjective,
            &models,
            1.0,
            &mut stats,
            None,
            None,
        );
        assert_eq!(clustering.cluster_count(), 2);
        split_pass(
            &graph,
            &mut clustering,
            &mut agg,
            &CorrelationObjective,
            &models,
            1.0,
            &mut stats,
            None,
            None,
        );
        assert_eq!(clustering.cluster_count(), 3);
        assert_eq!(clustering.cluster_of(oid(1)), clustering.cluster_of(oid(2)));
    }
}
