//! Davies–Bouldin-style index adapted to sparse similarity graphs.
//!
//! The paper's most challenging workload is DB-index clustering over
//! record-linkage data (§7.1): unlike correlation clustering it has none of
//! the locality/monotonicity properties that specialized incremental methods
//! exploit, which is exactly why a learned dynamic method is attractive.
//!
//! The classical DB index is defined over Euclidean space as the mean over
//! clusters of `max_j (S_i + S_j) / M_ij` (scatter over separation).  Applied
//! verbatim to a record-linkage similarity graph that ratio is degenerate:
//! the all-singletons clustering has zero scatter everywhere and therefore a
//! perfect score of 0, so no batch search seeded from singletons would ever
//! merge anything.  Following the spirit of the record-linkage adaptation the
//! paper cites (Gruenheid et al.), we use a non-degenerate per-cluster
//! badness that keeps both Davies–Bouldin ingredients:
//!
//! * the **scatter** of a cluster, `S_i = 1 − intra_avg(C_i)` — cohesive
//!   clusters have low scatter, singletons have scatter 0;
//! * the **confusability** of a cluster, `T_i = max_j inter_avg(C_i, C_j)` —
//!   the strongest average attraction to any other cluster (0 when the
//!   cluster shares no edge with any other cluster);
//!
//! and scores the clustering as `DB = (1/k) Σ_i (S_i + T_i)`.  Splitting true
//! entities keeps `T_i` high (the duplicates still attract each other),
//! lumping unrelated records keeps `S_i` high, and the correctly resolved
//! clustering minimizes both.  Only cluster pairs that share at least one
//! stored edge are examined, so evaluation is proportional to the number of
//! edges.  Lower is better.
//!
//! This is a substitution: the exact objective used by the original paper is
//! not published, and any DB-index-like objective without
//! locality/monotonicity exercises the same DynamicC code paths.

use crate::traits::{DecisionLocality, ObjectiveFunction, ObjectiveKind};
use dc_similarity::{ClusterAggregates, SimilarityGraph};
use dc_types::{ClusterId, Clustering, ObjectId};
use std::collections::BTreeSet;

/// Similarity-graph Davies–Bouldin-style index (lower is better).
#[derive(Debug, Clone, Copy, Default)]
pub struct DbIndexObjective;

impl DbIndexObjective {
    fn scatter(agg: &ClusterAggregates, cid: ClusterId) -> f64 {
        1.0 - agg.intra_avg(cid)
    }

    /// Per-cluster badness: scatter plus the strongest average attraction to
    /// any neighbouring cluster.
    fn cluster_badness(agg: &ClusterAggregates, cid: ClusterId) -> f64 {
        let scatter = Self::scatter(agg, cid);
        let size = agg.cluster_size(cid) as f64;
        if size == 0.0 {
            return 0.0;
        }
        let mut confusability: f64 = 0.0;
        for (other, sum) in agg.neighbour_cluster_sums(cid) {
            let other_size = agg.cluster_size(other) as f64;
            if other_size == 0.0 {
                continue;
            }
            let inter_avg = sum / (size * other_size);
            confusability = confusability.max(inter_avg);
        }
        scatter + confusability
    }

    /// The index read off materialized aggregates alone.
    fn index_from_aggregates(agg: &ClusterAggregates) -> f64 {
        let k = agg.cluster_count();
        if k == 0 {
            return 0.0;
        }
        let sum: f64 = agg
            .cluster_ids()
            .into_iter()
            .map(|cid| Self::cluster_badness(agg, cid))
            .sum();
        sum / k as f64
    }

    /// A cluster id guaranteed not to collide with any id tracked by `agg`
    /// (`offset` distinguishes several scratch ids in one simulation).
    fn scratch_id(agg: &ClusterAggregates, offset: u64) -> ClusterId {
        let max = agg.max_cluster_id().map_or(0, ClusterId::raw);
        ClusterId::new(max + 1 + offset)
    }
}

impl ObjectiveFunction for DbIndexObjective {
    fn name(&self) -> &'static str {
        "db-index"
    }

    fn kind(&self) -> ObjectiveKind {
        ObjectiveKind::DbIndex
    }

    // The index is a *mean* over clusters, `DB = S / k` with `S` the badness
    // sum: a candidate change's delta couples to the global score through
    // the denominator even when its local badness contribution is frozen.
    // Write the change's exact badness-sum contribution as Δ (the change to
    // `S` from the affected clusters and their neighbours — a pure function
    // of the changed neighbourhood).  Then for a merge (k → k−1):
    //
    //   δ = (S + Δ)/(k−1) − S/k  ⇒  Δ = δ·(k−1) − DB,
    //
    // and at any later state with score DB′ the same merge's delta is
    // `(DB′ + Δ)/(k′−1)`: the rejection `δ′ ≥ −ε` is guaranteed while
    // `DB′ ≥ −Δ = DB − δ·(k−1)` — the floor reported below.  For a split
    // (k → k+1) the algebra mirrors: `Δ = δ·(k+1) + DB`, the later delta is
    // `(Δ − DB′)/(k′+1)`, and the rejection holds while
    // `DB′ ≤ Δ = DB + δ·(k+1)` — the ceiling.  Outside those intervals a
    // drifted mean really can flip the decision (a merge that looked bad at
    // a low mean improves it once the mean is high, and vice versa for
    // splits), which is exactly what incremental repair must re-evaluate.

    fn decision_locality(&self) -> DecisionLocality {
        DecisionLocality::GlobalMean
    }

    fn merge_rejection_score_floor(&self, delta: f64, score: f64, clusters: usize) -> f64 {
        score - delta * (clusters as f64 - 1.0)
    }

    fn split_rejection_score_ceil(&self, delta: f64, score: f64, clusters: usize) -> f64 {
        score + delta * (clusters as f64 + 1.0)
    }

    fn evaluate(&self, graph: &SimilarityGraph, clustering: &Clustering) -> f64 {
        Self::index_from_aggregates(&ClusterAggregates::new(graph, clustering))
    }

    // The index couples clusters through the per-cluster max and the global
    // mean, so the plain deltas fall back to the default trait implementation
    // (clone + re-evaluate).  Evaluation walks only stored edges, which keeps
    // even the fallback affordable; the paper makes the same observation that
    // DB-index has no exploitable locality.  The `_with` variants below
    // recover locality from the *aggregates*: the candidate change is
    // simulated on a cloned aggregate (O(aggregate size), no edge walks, no
    // similarity recomputation) instead of rebuilding from the graph twice.

    fn evaluate_with(
        &self,
        agg: &ClusterAggregates,
        _graph: &SimilarityGraph,
        _clustering: &Clustering,
    ) -> f64 {
        Self::index_from_aggregates(agg)
    }

    fn merge_delta_with(
        &self,
        agg: &ClusterAggregates,
        _graph: &SimilarityGraph,
        _clustering: &Clustering,
        a: ClusterId,
        b: ClusterId,
    ) -> f64 {
        if a == b || !agg.contains_cluster(a) || !agg.contains_cluster(b) {
            return 0.0;
        }
        let before = Self::index_from_aggregates(agg);
        let mut after = agg.clone();
        after.apply_merge(a, b, Self::scratch_id(agg, 0));
        Self::index_from_aggregates(&after) - before
    }

    fn split_delta_with(
        &self,
        agg: &ClusterAggregates,
        graph: &SimilarityGraph,
        clustering: &Clustering,
        cid: ClusterId,
        part: &BTreeSet<ObjectId>,
    ) -> f64 {
        let Some(cluster) = clustering.cluster(cid) else {
            return 0.0;
        };
        if part.is_empty() || part.len() >= cluster.len() {
            return 0.0;
        }
        let rest: BTreeSet<ObjectId> = cluster.members().difference(part).copied().collect();
        let before = Self::index_from_aggregates(agg);
        let mut after = agg.clone();
        let part_id = Self::scratch_id(agg, 0);
        let rest_id = Self::scratch_id(agg, 1);
        after.apply_split_members(graph, clustering, cid, part_id, part, rest_id, &rest);
        Self::index_from_aggregates(&after) - before
    }

    fn move_delta_with(
        &self,
        agg: &ClusterAggregates,
        graph: &SimilarityGraph,
        clustering: &Clustering,
        oid: ObjectId,
        target: ClusterId,
    ) -> f64 {
        let Some(source) = clustering.cluster_of(oid) else {
            return 0.0;
        };
        if source == target || !agg.contains_cluster(target) {
            return 0.0;
        }
        let before = Self::index_from_aggregates(agg);
        let mut after = agg.clone();
        after.apply_move(graph, clustering, oid, source, target);
        Self::index_from_aggregates(&after) - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::ObjectiveFunction;
    use dc_similarity::fixtures::graph_from_edges;
    use dc_types::ObjectId;
    use std::collections::BTreeSet;

    fn oid(raw: u64) -> ObjectId {
        ObjectId::new(raw)
    }

    /// Two clear entities: {1,2,3} mutually similar, {4,5} mutually similar,
    /// and a weak spurious edge between the groups.
    fn two_entity_graph() -> SimilarityGraph {
        graph_from_edges(
            5,
            &[
                (1, 2, 0.95),
                (1, 3, 0.9),
                (2, 3, 0.92),
                (4, 5, 0.88),
                (3, 4, 0.15),
            ],
        )
    }

    fn good_clustering() -> Clustering {
        Clustering::from_groups([vec![oid(1), oid(2), oid(3)], vec![oid(4), oid(5)]]).unwrap()
    }

    #[test]
    fn correct_grouping_beats_everything_in_one_cluster() {
        let g = two_entity_graph();
        let obj = DbIndexObjective;
        let lumped =
            Clustering::from_groups([vec![oid(1), oid(2), oid(3), oid(4), oid(5)]]).unwrap();
        assert!(obj.evaluate(&g, &good_clustering()) < obj.evaluate(&g, &lumped));
    }

    #[test]
    fn correct_grouping_beats_singletons_with_strong_edges() {
        // All-singletons has zero scatter but every duplicate still strongly
        // attracts its twin, so the confusability term dominates.
        let g = two_entity_graph();
        let obj = DbIndexObjective;
        let singles = Clustering::singletons((1..=5).map(oid));
        assert!(obj.evaluate(&g, &good_clustering()) < obj.evaluate(&g, &singles));
    }

    #[test]
    fn score_is_bounded_between_zero_and_two() {
        let g = two_entity_graph();
        let obj = DbIndexObjective;
        for clustering in [
            good_clustering(),
            Clustering::singletons((1..=5).map(oid)),
            Clustering::from_groups([vec![oid(1), oid(2), oid(3), oid(4), oid(5)]]).unwrap(),
        ] {
            let s = obj.evaluate(&g, &clustering);
            assert!((0.0..=2.0).contains(&s), "score {s} out of range");
        }
    }

    #[test]
    fn empty_clustering_scores_zero() {
        let g = two_entity_graph();
        assert_eq!(DbIndexObjective.evaluate(&g, &Clustering::new()), 0.0);
    }

    #[test]
    fn singleton_only_clustering_without_edges_scores_zero() {
        let g = graph_from_edges(3, &[]);
        let singles = Clustering::singletons((1..=3).map(oid));
        assert_eq!(DbIndexObjective.evaluate(&g, &singles), 0.0);
    }

    #[test]
    fn merging_a_true_entity_improves_and_delta_matches_recomputation() {
        let g = two_entity_graph();
        let obj = DbIndexObjective;
        let clustering =
            Clustering::from_groups([vec![oid(1), oid(2)], vec![oid(3)], vec![oid(4), oid(5)]])
                .unwrap();
        let before = obj.evaluate(&g, &clustering);
        let a = clustering.cluster_of(oid(1)).unwrap();
        let b = clustering.cluster_of(oid(3)).unwrap();
        let delta = obj.merge_delta(&g, &clustering, a, b);
        let mut after = clustering.clone();
        after.merge(a, b).unwrap();
        assert!((delta - (obj.evaluate(&g, &after) - before)).abs() < 1e-12);
        assert!(delta < 0.0, "merging a true entity should improve DB-index");
    }

    #[test]
    fn splitting_an_incoherent_cluster_improves_the_index() {
        // {1,2,3,4,5} in one cluster: objects 4,5 barely relate to 1,2,3.
        let g = two_entity_graph();
        let obj = DbIndexObjective;
        let lumped =
            Clustering::from_groups([vec![oid(1), oid(2), oid(3), oid(4), oid(5)]]).unwrap();
        let cid = lumped.cluster_ids()[0];
        let part: BTreeSet<ObjectId> = [oid(4), oid(5)].into_iter().collect();
        let delta = obj.split_delta(&g, &lumped, cid, &part);
        assert!(delta < 0.0);
    }

    #[test]
    fn splitting_a_true_entity_is_not_an_improvement() {
        let g = two_entity_graph();
        let obj = DbIndexObjective;
        let clustering = good_clustering();
        let cid = clustering.cluster_of(oid(1)).unwrap();
        let part: BTreeSet<ObjectId> = [oid(1)].into_iter().collect();
        assert!(obj.split_delta(&g, &clustering, cid, &part) > 0.0);
    }

    #[test]
    fn kind_and_name() {
        assert_eq!(DbIndexObjective.kind(), ObjectiveKind::DbIndex);
        assert_eq!(DbIndexObjective.name(), "db-index");
        assert_eq!(
            DbIndexObjective.decision_locality(),
            crate::traits::DecisionLocality::GlobalMean
        );
    }

    /// The same candidate pair (objects 1, 2 joined by a 0.45 edge, no other
    /// neighbours) embedded in two graphs that differ only in far-away
    /// clusters: incoherent remote pairs push the mean up, cohesive ones
    /// pull it down.  The pair's local badness contribution is identical in
    /// both, so the merge/split decisions flip purely on the global mean —
    /// and the flip point must be the floor/ceiling the objective reports.
    fn pair_with_remote_mean(remote_weight: f64) -> (SimilarityGraph, Clustering) {
        let mut edges = vec![(1, 2, 0.45)];
        for i in 0..8u64 {
            edges.push((3 + 2 * i, 4 + 2 * i, remote_weight));
        }
        let graph = graph_from_edges(18, &edges);
        let mut groups = vec![vec![oid(1)], vec![oid(2)]];
        for i in 0..8u64 {
            groups.push(vec![oid(3 + 2 * i), oid(4 + 2 * i)]);
        }
        (graph, Clustering::from_groups(groups).unwrap())
    }

    #[test]
    fn merge_rejection_floor_marks_where_a_drifted_mean_flips_the_decision() {
        let obj = DbIndexObjective;
        // High mean (remote pairs are incoherent): the merge is rejected.
        let (g_high, c_high) = pair_with_remote_mean(0.55);
        let a = c_high.cluster_of(oid(1)).unwrap();
        let b = c_high.cluster_of(oid(2)).unwrap();
        let score_high = obj.evaluate(&g_high, &c_high);
        let delta_high = obj.merge_delta(&g_high, &c_high, a, b);
        assert!(!crate::improves(delta_high), "rejected at the high mean");
        let floor = obj.merge_rejection_score_floor(delta_high, score_high, c_high.cluster_count());
        assert!(
            score_high >= floor,
            "the proof state is inside its interval"
        );

        // Low mean (remote pairs are cohesive): the identical local merge
        // now improves — and the low score is indeed below the floor.
        let (g_low, c_low) = pair_with_remote_mean(0.95);
        let a = c_low.cluster_of(oid(1)).unwrap();
        let b = c_low.cluster_of(oid(2)).unwrap();
        let score_low = obj.evaluate(&g_low, &c_low);
        let delta_low = obj.merge_delta(&g_low, &c_low, a, b);
        assert!(score_low < floor, "the flipped state is outside the floor");
        assert!(crate::improves(delta_low), "the drifted mean flips it");
    }

    #[test]
    fn split_rejection_ceiling_marks_where_a_drifted_mean_flips_the_decision() {
        let obj = DbIndexObjective;
        let part: BTreeSet<ObjectId> = [oid(1)].into_iter().collect();
        let pair_cluster = |weight: f64| {
            let mut edges = vec![(1, 2, 0.45)];
            for i in 0..8u64 {
                edges.push((3 + 2 * i, 4 + 2 * i, weight));
            }
            let graph = graph_from_edges(18, &edges);
            let mut groups = vec![vec![oid(1), oid(2)]];
            for i in 0..8u64 {
                groups.push(vec![oid(3 + 2 * i), oid(4 + 2 * i)]);
            }
            (graph, Clustering::from_groups(groups).unwrap())
        };

        // Low mean: keeping the weak pair together is still the best option.
        let (g_low, c_low) = pair_cluster(0.95);
        let cid = c_low.cluster_of(oid(1)).unwrap();
        let score_low = obj.evaluate(&g_low, &c_low);
        let delta_low = obj.split_delta(&g_low, &c_low, cid, &part);
        assert!(!crate::improves(delta_low), "rejected at the low mean");
        let ceil = obj.split_rejection_score_ceil(delta_low, score_low, c_low.cluster_count());
        assert!(score_low <= ceil, "the proof state is inside its interval");

        // High mean: the identical local split now improves the mean.
        let (g_high, c_high) = pair_cluster(0.55);
        let cid = c_high.cluster_of(oid(1)).unwrap();
        let score_high = obj.evaluate(&g_high, &c_high);
        let delta_high = obj.split_delta(&g_high, &c_high, cid, &part);
        assert!(
            score_high > ceil,
            "the flipped state is outside the ceiling"
        );
        assert!(crate::improves(delta_high), "the drifted mean flips it");
    }
}
