//! The merge algorithm (Algorithm 1, §6.2).
//!
//! The merge model only says *whether* a cluster is likely to merge — not
//! with whom.  Algorithm 1 resolves that: clusters flagged by the model form
//! the candidate set `Cl_merge`; for each candidate the partner chosen is
//! the one whose hypothetical merged cluster is the most *stable* (the
//! lowest probability of merging again, evaluated through the same model on
//! the merged cluster's features); the pair is then verified against the
//! objective function and only applied when the objective improves.
//!
//! Two efficiency refinements from the paper are kept: candidates can only
//! pair with other candidates (the "both sides are predicted to merge"
//! observation that avoids the `O(n²)` pairwise check), and partners are
//! further restricted to clusters that share at least one similarity-graph
//! edge with the candidate — merging edge-less clusters can never improve
//! any of the objectives and would be vetoed by verification anyway.

use crate::config::DynamicCStats;
use crate::dirty::PassScope;
use crate::models::ModelPair;
use dc_evolution::{merge_features, merge_features_of_members};
use dc_objective::{improves, ObjectiveFunction};
use dc_similarity::{ClusterAggregates, SimilarityGraph};
use dc_types::{ClusterId, Clustering, ObjectId};
use std::collections::{BTreeSet, VecDeque};

/// One pass of the merge algorithm.  Returns `true` when at least one merge
/// was applied.
///
/// `agg` is the round's maintained aggregate: the pass reads every feature
/// and candidate neighbourhood from it and folds every applied merge back in
/// via [`ClusterAggregates::apply_merge`], so no candidate triggers a full
/// rebuild.
///
/// With a `scope` — every [`Engine`](crate::Engine) round — the pass walks
/// the *same* candidate queue as the unscoped pass of the stateless
/// `recluster` (the scope's cached flags equal what it would compute), but
/// a dequeued candidate outside the scope's evaluation set is removed
/// without evaluation, replaying the rejection the previous fixed point
/// proved.  Applied merges grow the evaluation set
/// ([`PassScope::after_merge`]), so cascades are chased exactly alike.
/// `global_score` is the running score of a
/// [`dc_objective::DecisionLocality::GlobalMean`] objective (`None`
/// otherwise): clean skips are then gated on the recorded score-validity
/// intervals, and every fully rejected candidate records a fresh one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_pass(
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
    // Line 2 of Algorithm 1: collect the clusters the merge model flags.
    let mut candidates: BTreeSet<ClusterId> = BTreeSet::new();
    for cid in clustering.cluster_ids() {
        let flagged = match scope.as_mut() {
            Some(s) => s.merge_flag(cid, agg, models, theta_scale),
            None => models.predicts_merge(&merge_features(agg, cid), theta_scale),
        };
        if flagged {
            candidates.insert(cid);
        }
    }
    stats.merge_candidates += candidates.len();

    let mut queue: VecDeque<ClusterId> = candidates.iter().copied().collect();
    let mut changed = false;

    // Lines 3–13: repeatedly dequeue a candidate, pick its best partner, and
    // verify the merge against the objective.
    while let Some(cid) = queue.pop_front() {
        if !candidates.contains(&cid) || !clustering.contains_cluster(cid) {
            continue;
        }
        if let Some(s) = scope.as_ref() {
            let current_score = global_score.as_deref().copied();
            if !s.in_eval(cid) && s.merge_rejection_holds(cid, current_score) {
                // Clean candidate: nothing within decision reach changed
                // since the previous fixed point rejected its merges, and —
                // for global-mean objectives — the running score is still
                // inside the rejection's validity interval, so replay that
                // rejection (the full pass would evaluate and remove it here
                // too, with the same set evolution).  A clean candidate
                // whose interval the score has drifted out of falls through
                // and is evaluated in place, exactly like the full pass
                // evaluates it at this queue position.
                candidates.remove(&cid);
                continue;
            }
        }
        // Partners: candidate clusters sharing at least one edge with `cid`.
        // When no neighbouring cluster was flagged (the merge model can be
        // conservative about large, already-cohesive clusters that are about
        // to absorb a newcomer), fall back to all neighbouring clusters —
        // the objective verification below still vetoes unhelpful merges.
        let all_neighbours = agg.neighbour_clusters(cid);
        let mut neighbours: Vec<ClusterId> = all_neighbours
            .iter()
            .copied()
            .filter(|n| candidates.contains(n) && clustering.contains_cluster(*n))
            .collect();
        if neighbours.is_empty() {
            neighbours = all_neighbours
                .into_iter()
                .filter(|n| clustering.contains_cluster(*n))
                .collect();
        }
        if neighbours.is_empty() {
            candidates.remove(&cid);
            continue;
        }

        // Rank partners by the stability of the hypothetical merged cluster:
        // the partner minimizing P(C_new = 1) under the merge model is tried
        // first; if the objective vetoes it, the next most stable partner is
        // tried, so a single misleading candidate cannot starve the merge.
        let members: BTreeSet<ObjectId> = clustering
            .cluster(cid)
            .expect("live candidate")
            .members()
            .clone();
        let mut ranked: Vec<(ClusterId, f64)> = neighbours
            .into_iter()
            .map(|other| {
                let mut merged = members.clone();
                merged.extend(clustering.cluster(other).expect("live candidate").iter());
                let features = merge_features_of_members(graph, clustering, &merged);
                (other, models.merge_probability(&features))
            })
            .collect();
        ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

        let mut applied = false;
        let mut min_rejected_delta = f64::INFINITY;
        for (partner, _) in ranked {
            // Verification: only apply the merge if the objective improves.
            stats.objective_evaluations += 1;
            let delta = objective.merge_delta_with(agg, graph, clustering, cid, partner);
            if improves(delta) {
                let merged = clustering
                    .merge(cid, partner)
                    .expect("both clusters are live");
                agg.apply_merge(cid, partner, merged);
                if let Some(s) = scope.as_mut() {
                    s.after_merge(cid, partner, merged, agg);
                }
                if let Some(score) = global_score.as_deref_mut() {
                    *score += delta;
                }
                candidates.remove(&cid);
                candidates.remove(&partner);
                // The merged cluster may merge again; enqueue it so
                // convergence does not depend on the outer loop alone.
                candidates.insert(merged);
                queue.push_back(merged);
                stats.merges_applied += 1;
                changed = true;
                applied = true;
                break;
            } else {
                stats.merges_rejected += 1;
                min_rejected_delta = min_rejected_delta.min(delta);
            }
        }
        if !applied {
            // Every partner was rejected: for a global-mean objective,
            // record how far the score may drift before the *tightest*
            // rejection (the smallest delta) could flip, so future rounds
            // can replay this proof while it provably still holds.
            if let (Some(s), Some(score)) = (scope.as_mut(), global_score.as_deref().copied()) {
                if min_rejected_delta.is_finite() {
                    let floor = objective.merge_rejection_score_floor(
                        min_rejected_delta,
                        score,
                        clustering.cluster_count(),
                    );
                    s.record_merge_rejection(cid, floor);
                }
            }
            candidates.remove(&cid);
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelPair;
    use dc_evolution::{LabeledExample, TrainingBuffer};
    use dc_ml::ModelKind;
    use dc_objective::CorrelationObjective;
    use dc_similarity::fixtures::graph_from_edges;

    fn oid(raw: u64) -> ObjectId {
        ObjectId::new(raw)
    }

    /// Train a model pair on synthetic data where "high max-inter similarity
    /// ⇒ merge" — the dominant real pattern.  The other features are drawn
    /// from the same ranges for both classes so the learned decision is
    /// driven by the inter-similarity feature, mirroring what the paper
    /// reports about the learned coefficients.
    fn trained_models() -> ModelPair {
        let mut pair = ModelPair::new(ModelKind::LogisticRegression, 1000);
        let mut merge_buf = TrainingBuffer::new(1000);
        let mut split_buf = TrainingBuffer::new(1000);
        for i in 0..60 {
            let j = (i % 10) as f64 / 50.0;
            let f1 = 1.0 - (i % 5) as f64 * 0.05;
            let f3 = 1.0 + (i % 3) as f64;
            let f4 = 1.0 + (i % 4) as f64;
            merge_buf.push(LabeledExample::new(vec![f1, 0.5 + j, f3, f4], true));
            merge_buf.push(LabeledExample::new(
                vec![f1, 0.02 + j / 10.0, f3, f4],
                false,
            ));
            split_buf.push(LabeledExample::new(vec![0.3 - j / 2.0, 0.6, 5.0], true));
            split_buf.push(LabeledExample::new(vec![0.95 - j / 10.0, 0.1, 3.0], false));
        }
        // Transplant the buffers through the public API: absorb a fake round.
        let mut round = dc_evolution::RoundExamples::default();
        for e in merge_buf.iter() {
            if e.label {
                round.merge_positives.push(e.features.clone());
            } else {
                round.merge_negatives_active.push(e.features.clone());
            }
        }
        for e in split_buf.iter() {
            if e.label {
                round.split_positives.push(e.features.clone());
            } else {
                round.split_negatives_active.push(e.features.clone());
            }
        }
        let mut sampler =
            dc_evolution::NegativeSampler::new(dc_evolution::SamplerConfig::default());
        pair.absorb_round(&round, &mut sampler);
        pair.retrain();
        pair
    }

    #[test]
    fn strongly_connected_singletons_are_merged() {
        // Two duplicates with similarity 0.95 sitting in separate singleton
        // clusters must be flagged and merged; the far-away pair with no
        // edges must be left alone.
        let graph = graph_from_edges(4, &[(1, 2, 0.95)]);
        let mut clustering = Clustering::singletons((1..=4).map(oid));
        let models = trained_models();
        let mut stats = DynamicCStats::default();
        let mut agg = ClusterAggregates::new(&graph, &clustering);
        let changed = merge_pass(
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
        assert_eq!(clustering.cluster_of(oid(1)), clustering.cluster_of(oid(2)));
        assert_ne!(clustering.cluster_of(oid(3)), clustering.cluster_of(oid(4)));
        assert!(stats.merges_applied >= 1);
        clustering.check_invariants().unwrap();
    }

    #[test]
    fn objective_verification_vetoes_bad_merges() {
        // The model may flag weakly-linked clusters, but the correlation
        // objective worsens if they merge (similarity 0.2 < 0.5), so the
        // merge must be rejected and counted as such.
        let graph = graph_from_edges(2, &[(1, 2, 0.2)]);
        let mut clustering = Clustering::singletons((1..=2).map(oid));
        let models = trained_models();
        let mut stats = DynamicCStats::default();
        // Force candidate generation by scaling θ down to near zero.
        let mut agg = ClusterAggregates::new(&graph, &clustering);
        let changed = merge_pass(
            &graph,
            &mut clustering,
            &mut agg,
            &CorrelationObjective,
            &models,
            0.01,
            &mut stats,
            None,
            None,
        );
        assert!(!changed);
        assert_eq!(clustering.cluster_count(), 2);
        assert!(stats.merges_rejected >= 1);
        assert_eq!(stats.merges_applied, 0);
    }

    #[test]
    fn chains_of_merges_converge_within_one_pass_queue() {
        // Three mutual duplicates as singletons: the pass should be able to
        // produce the full 3-cluster merge by re-enqueueing merged results.
        let graph = graph_from_edges(3, &[(1, 2, 0.9), (1, 3, 0.9), (2, 3, 0.9)]);
        let mut clustering = Clustering::singletons((1..=3).map(oid));
        let models = trained_models();
        let mut stats = DynamicCStats::default();
        let mut agg = ClusterAggregates::new(&graph, &clustering);
        merge_pass(
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
        assert_eq!(clustering.cluster_count(), 1);
        assert!(stats.merges_applied >= 2);
    }

    #[test]
    fn untrained_models_flag_everything_but_objective_keeps_it_sound() {
        // An untrained pair predicts probability 0.5 ≥ default θ 0.5 for all
        // clusters, so everything is a candidate — verification must still
        // only allow genuinely improving merges.
        let graph = graph_from_edges(4, &[(1, 2, 0.9), (3, 4, 0.1)]);
        let mut clustering = Clustering::singletons((1..=4).map(oid));
        let models = ModelPair::new(ModelKind::LogisticRegression, 10);
        let mut stats = DynamicCStats::default();
        let mut agg = ClusterAggregates::new(&graph, &clustering);
        merge_pass(
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
        assert_eq!(clustering.cluster_of(oid(1)), clustering.cluster_of(oid(2)));
        assert_ne!(clustering.cluster_of(oid(3)), clustering.cluster_of(oid(4)));
    }
}
