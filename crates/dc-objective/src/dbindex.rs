//! Davies–Bouldin-style index adapted to sparse similarity graphs.
//!
//! The paper's most challenging workload is DB-index clustering over
//! record-linkage data (§7.1): unlike correlation clustering it is not a sum
//! of independent per-edge terms, so the specialized incremental methods
//! that exploit that structure do not apply, which is exactly why a learned
//! dynamic method is attractive.
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
//! **Locality.**  A merge, split or move changes the badness of only two
//! kinds of cluster: the clusters it replaces or creates, and their
//! neighbour clusters — a neighbour's confusability is a max over *its*
//! neighbours, which include the changed clusters.  Every other badness
//! term keeps its exact bits.  So a delta evaluation builds the change's
//! [`AggregateEdit`] (the after-state of the replaced clusters, computed by
//! the same code that applies it) and re-scores just that neighbourhood:
//! O(neighbourhood), no clone of the aggregate, no whole-index pass.
//!
//! **Exact sum.**  The badness sum `Σ_i (S_i + T_i)` is a correctly-rounded
//! sum ([`ExactSum`]), so it does not depend on summation order.  The
//! current state's exact sum is memoised with the aggregate
//! ([`ClusterAggregates::memo`], rebuilt in O(k) after each mutation); a
//! delta subtracts the neighbourhood's old terms from it and adds the new
//! ones.  The result, `index(after) − index(before)`, is bit-identical to
//! evaluating both states from scratch, and `evaluate` and `evaluate_with`
//! agree bit for bit.
//!
//! This is a substitution: the exact objective used by the original paper is
//! not published, and any DB-index-like objective that is not a sum of
//! independent terms exercises the same DynamicC code paths.

use crate::exact::ExactSum;
use crate::traits::{DecisionLocality, ObjectiveFunction, ObjectiveKind};
use dc_similarity::{AggregateEdit, ClusterAggregates, SimilarityGraph};
use dc_types::{ClusterId, Clustering, ObjectId};
use std::collections::BTreeSet;

/// Similarity-graph Davies–Bouldin-style index (lower is better).
#[derive(Debug, Clone, Copy, Default)]
pub struct DbIndexObjective;

/// The exact badness sum of one aggregate state, memoised with it.
#[derive(Debug)]
struct BadnessSum {
    exact: ExactSum,
    rounded: f64,
}

impl DbIndexObjective {
    /// Per-cluster badness of a cluster with `size` members and intra sum
    /// `intra`: scatter plus the strongest average attraction to any
    /// neighbour, given as `(cross-edge sum, neighbour size)` pairs.  The
    /// neighbours may come in any order: a max of finite values depends on
    /// the order only through the sign of a zero result, which adding the
    /// scatter (never `-0.0`) erases.
    fn badness(size: usize, intra: f64, neighbours: impl Iterator<Item = (f64, usize)>) -> f64 {
        if size == 0 {
            return 0.0;
        }
        let scatter = 1.0 - ClusterAggregates::intra_avg_of_sum(size, intra);
        let size = size as f64;
        let mut confusability: f64 = 0.0;
        for (sum, other_size) in neighbours {
            if other_size == 0 {
                continue;
            }
            let inter_avg = sum / (size * other_size as f64);
            confusability = confusability.max(inter_avg);
        }
        scatter + confusability
    }

    fn cluster_badness(agg: &ClusterAggregates, cid: ClusterId) -> f64 {
        Self::badness(
            agg.cluster_size(cid),
            agg.intra_sum(cid),
            agg.neighbour_cluster_sums(cid)
                .map(|(other, sum)| (sum, agg.cluster_size(other))),
        )
    }

    fn badness_sum(agg: &ClusterAggregates) -> BadnessSum {
        let mut exact = ExactSum::new();
        exact.extend(
            agg.cluster_ids()
                .into_iter()
                .map(|cid| Self::cluster_badness(agg, cid)),
        );
        let rounded = exact.value();
        BadnessSum { exact, rounded }
    }

    /// `agg`'s memoised badness sum, or a fresh one if its memo slot holds
    /// something else.
    fn with_badness_sum<R>(agg: &ClusterAggregates, f: impl FnOnce(&BadnessSum) -> R) -> R {
        match agg.memo(Self::badness_sum) {
            Some(sum) => f(sum),
            None => f(&Self::badness_sum(agg)),
        }
    }

    fn mean(sum: f64, clusters: usize) -> f64 {
        if clusters == 0 {
            0.0
        } else {
            sum / clusters as f64
        }
    }

    /// The index read off materialized aggregates alone.
    fn index_from_aggregates(agg: &ClusterAggregates) -> f64 {
        Self::with_badness_sum(agg, |sum| Self::mean(sum.rounded, agg.cluster_count()))
    }

    /// `index(after) − index(before)` for an edit of `agg`, re-scoring only
    /// the clusters the edit replaces or installs and their neighbours.
    fn edit_delta(agg: &ClusterAggregates, edit: &AggregateEdit) -> f64 {
        let installed = |cid: ClusterId| {
            edit.installed
                .iter()
                .find_map(|(c, parts)| (*c == cid).then_some(parts))
        };
        let touched: BTreeSet<ClusterId> = edit
            .retired
            .iter()
            .copied()
            .chain(edit.installed.iter().map(|(c, _)| *c))
            .collect();
        // Size of a cluster once the edit is applied (0 if it is gone).
        let size_after = |cid: ClusterId| match installed(cid) {
            Some(parts) => parts.size,
            None if touched.contains(&cid) => 0,
            None => agg.cluster_size(cid),
        };

        Self::with_badness_sum(agg, |before| {
            let mut sum = before.exact.clone();
            let mut clusters = agg.cluster_count();
            let mut neighbours: BTreeSet<ClusterId> = BTreeSet::new();
            for &cid in &edit.retired {
                if agg.contains_cluster(cid) {
                    sum.add(-Self::cluster_badness(agg, cid));
                    clusters -= 1;
                }
                neighbours.extend(agg.neighbour_cluster_sums(cid).map(|(x, _)| x));
            }
            for (_, parts) in &edit.installed {
                let cross = parts.inter.iter().map(|(&y, &s)| (s, size_after(y)));
                sum.add(Self::badness(parts.size, parts.intra, cross));
                clusters += 1;
                neighbours.extend(parts.inter.keys().copied());
            }
            // A neighbour keeps its size and intra sum; its cross sums to the
            // touched clusters are replaced by the installed ones (an edit
            // mirrors every installed sum into the neighbour's column).
            for x in neighbours {
                if touched.contains(&x) || !agg.contains_cluster(x) {
                    continue;
                }
                sum.add(-Self::cluster_badness(agg, x));
                let kept = agg
                    .neighbour_cluster_sums(x)
                    .filter(|(y, _)| !touched.contains(y))
                    .map(|(y, s)| (s, agg.cluster_size(y)));
                let changed = edit
                    .installed
                    .iter()
                    .filter_map(|(_, parts)| parts.inter.get(&x).map(|&s| (s, parts.size)));
                sum.add(Self::badness(
                    agg.cluster_size(x),
                    agg.intra_sum(x),
                    kept.chain(changed),
                ));
            }
            Self::mean(sum.value(), clusters) - Self::mean(before.rounded, agg.cluster_count())
        })
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

    // The plain deltas keep the trait defaults (clone the clustering, build
    // its aggregates, evaluate twice): they serve callers that hold no
    // aggregate.  The `_with` variants below are the serving path: each
    // builds the change's edit against the maintained aggregate and
    // re-scores only the changed neighbourhood (see the module docs).

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
        Self::edit_delta(agg, &agg.merge_edit(a, b, Self::scratch_id(agg, 0)))
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
        let (part_id, rest_id) = (Self::scratch_id(agg, 0), Self::scratch_id(agg, 1));
        let edit = agg.split_edit(graph, clustering, cid, part_id, part, rest_id, &rest);
        Self::edit_delta(agg, &edit)
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
        Self::edit_delta(agg, &agg.move_edit(graph, clustering, oid, source, target))
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
