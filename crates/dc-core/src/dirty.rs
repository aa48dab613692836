//! Dirty-set tracking for the scoped Algorithm 3 every [`crate::Engine`]
//! round runs.
//!
//! A full fixed point re-verifies every live cluster each round, so its cost
//! grows with the clustering rather than with the round.  The fix is the
//! paper's own discipline applied to the passes: a round only changes
//! aggregates within O(degree) of the touched objects, so only clusters near
//! those changes can flip a merge/split decision.  Everything else ended the
//! previous round at a rejection fixed point that still stands verbatim.
//! The engine's §6.1 fold records the round's [`DirtySeeds`]; the repair
//! closes them into the evaluation set below.
//!
//! [`PassScope`] carries the two pieces of cross-round state that make the
//! restricted pass both cheap and **decision-identical** to the full one:
//!
//! * a **model-flag cache** — the merge/split model predictions per cluster.
//!   Models are frozen while serving and the features are pure functions of
//!   the maintained aggregates, so a flag stays valid until a round (or an
//!   applied merge/split) touches the cluster's aggregate neighbourhood, at
//!   which point it is invalidated and lazily recomputed.  Candidate
//!   collection therefore sees *exactly* the candidate set the full pass
//!   would compute, without re-deriving features for every live cluster.
//! * the **evaluation set** (`eval`) — the dirty closure: clusters whose
//!   decision inputs may have changed since the previous fixed point.  The
//!   scoped pass walks the full candidate queue (so the candidate-set
//!   evolution and cluster-id allocation order match the full pass), but a
//!   dequeued candidate outside `eval` is removed without evaluation — it
//!   replays the rejection the previous fixed point already proved.  Applied
//!   merges and splits grow `eval` with the affected neighbourhood (out to
//!   two hops, the reach of the partner-ranking features), so in-pass
//!   cascades are chased exactly like the full pass chases them.
//!
//! The closure radii mirror the feature locality: a cluster's own flag reads
//! its aggregate row and its neighbours' sizes (1 hop), and a merge decision
//! ranks partners by hypothetical merged-cluster features (2 hops).  Rounds
//! whose batch touches nothing leave `eval` empty and the pass loop is
//! skipped outright — zero objective evaluations, zero repair work.
//!
//! **Global-mean objectives need one more piece.**  For a sum-decomposable
//! objective ([`DecisionLocality::Local`]) an unchanged neighbourhood really
//! does pin the decision, and the clean-skip above is exact.  But an
//! objective that is a *mean* over clusters (db-index) couples every delta
//! to the global score through the denominator: a rejection proven at one
//! score can flip when the score drifts far enough, even though nothing near
//! the cluster changed.  So alongside the flags, [`PassScope`] records each
//! proven rejection's **score-validity interval** (a merge floor / split
//! ceiling reported by the objective itself).  The scoped passes consult the
//! interval *at the skip site* with the pass's running score: while the
//! score stays inside, the skip replays a rejection that provably still
//! holds; once it leaves, the cluster is evaluated in place exactly like the
//! full pass would evaluate it — so the restricted pass stays
//! decision-identical even under score drift.  The intervals are genuine
//! cross-round decision state and are persisted in every engine snapshot (a
//! recovered run must make the same skip decisions as a never-restarted
//! one); the flags stay derived-only.
//!
//! [`DecisionLocality::Local`]: dc_objective::DecisionLocality

use crate::models::ModelPair;
use dc_evolution::{merge_features, split_features};
use dc_objective::IMPROVEMENT_EPSILON;
use dc_similarity::{ClusterAggregates, SimilarityGraph};
use dc_types::{ClusterId, Clustering, ObjectId};
use std::collections::{BTreeMap, BTreeSet};

/// The dirty seeds one round's §6.1 fold collects: the objects whose
/// cluster's aggregate row the fold may have changed, and the clusters
/// objects left (which stay seeds even after their last member leaves).
#[derive(Debug, Default)]
pub(crate) struct DirtySeeds {
    touched: BTreeSet<ObjectId>,
    clusters: BTreeSet<ClusterId>,
}

impl DirtySeeds {
    /// Record `id` and its current neighbours in `graph` as touched (called
    /// both before and after an operation, so clusters losing *and* gaining
    /// edge mass are captured).
    pub(crate) fn touch(&mut self, graph: &SimilarityGraph, id: ObjectId) {
        self.touched.insert(id);
        self.touched.extend(graph.neighbors(id).map(|(n, _)| n));
    }

    /// Record a cluster an object is about to leave.
    pub(crate) fn seed_cluster(&mut self, cid: ClusterId) {
        self.clusters.insert(cid);
    }

    /// The seed clusters still live after the fold: the recorded ones plus
    /// the post-fold clusters of every touched object.
    pub(crate) fn into_live_clusters(mut self, clustering: &Clustering) -> BTreeSet<ClusterId> {
        self.clusters.extend(
            self.touched
                .iter()
                .filter_map(|&id| clustering.cluster_of(id)),
        );
        self.clusters.retain(|&c| clustering.contains_cluster(c));
        self.clusters
    }
}

/// Cross-round dirty-tracking state threaded through the scoped merge and
/// split passes.  See the module docs for the invariants.
#[derive(Debug, Default)]
pub(crate) struct PassScope {
    /// Clusters whose merge/split decisions must be (re-)evaluated.
    eval: BTreeSet<ClusterId>,
    /// Cached merge-model flags for clusters whose features are unchanged.
    merge_flags: BTreeMap<ClusterId, bool>,
    /// Cached split-model flags (only consulted for clusters of size ≥ 2).
    split_flags: BTreeMap<ClusterId, bool>,
    /// Score floors of proven merge rejections (global-mean objectives): the
    /// rejection of every merge of this cluster is guaranteed while the
    /// current score stays at or above the floor.  Persisted in snapshots.
    merge_floors: BTreeMap<ClusterId, f64>,
    /// Score ceilings of proven split rejections — the mirror image of
    /// `merge_floors`.  Persisted in snapshots.
    split_ceils: BTreeMap<ClusterId, f64>,
}

impl PassScope {
    /// Replace the evaluation set for this round's passes.
    pub(crate) fn set_eval(&mut self, eval: BTreeSet<ClusterId>) {
        self.eval = eval;
    }

    /// Whether `cid`'s decisions must be evaluated (dirty) rather than
    /// replayed from the previous fixed point (clean).
    pub(crate) fn in_eval(&self, cid: ClusterId) -> bool {
        self.eval.contains(&cid)
    }

    /// Drop the cached flags and rejection intervals of one cluster (its
    /// features — and therefore its local delta contributions — may have
    /// changed, so neither the model prediction nor a previously proven
    /// rejection can be trusted).
    pub(crate) fn invalidate(&mut self, cid: ClusterId) {
        self.merge_flags.remove(&cid);
        self.split_flags.remove(&cid);
        self.merge_floors.remove(&cid);
        self.split_ceils.remove(&cid);
    }

    /// Drop every cached flag and rejection interval (the all-dirty
    /// fallback: the following full pass re-proves and re-records
    /// everything it rejects).
    pub(crate) fn clear_flags(&mut self) {
        self.merge_flags.clear();
        self.split_flags.clear();
        self.merge_floors.clear();
        self.split_ceils.clear();
    }

    /// Whether both flags of `cid` are cached (used to find the stale set
    /// for the parallel pre-pass refresh).
    pub(crate) fn has_flags(&self, cid: ClusterId) -> bool {
        self.merge_flags.contains_key(&cid) && self.split_flags.contains_key(&cid)
    }

    /// Record a proven merge rejection's validity floor: every merge of
    /// `cid` is guaranteed rejected while the global score stays at or above
    /// `floor` (and `cid`'s decision neighbourhood is unchanged).  Replaces
    /// any earlier proof.
    pub(crate) fn record_merge_rejection(&mut self, cid: ClusterId, floor: f64) {
        self.merge_floors.insert(cid, floor);
    }

    /// Record a proven split rejection's validity ceiling — the mirror image
    /// of [`PassScope::record_merge_rejection`].
    pub(crate) fn record_split_rejection(&mut self, cid: ClusterId, ceil: f64) {
        self.split_ceils.insert(cid, ceil);
    }

    /// Whether `cid`'s proven merge rejection still holds at the current
    /// global score.  `score` is `None` for sum-decomposable objectives
    /// (rejections hold at any score) and for clusters with no recorded
    /// interval the skip is unconditional: the only evaluated-and-rejected
    /// path that records nothing is the no-partner case, whose outcome does
    /// not depend on the score at all (an unchanged neighbourhood keeps the
    /// partner set empty).  The epsilon guard band makes the check
    /// conservative against the running score's accumulated rounding: a
    /// borderline cluster is re-evaluated rather than skipped, which can
    /// only add work, never change a decision.
    pub(crate) fn merge_rejection_holds(&self, cid: ClusterId, score: Option<f64>) -> bool {
        let Some(score) = score else { return true };
        match self.merge_floors.get(&cid) {
            Some(&floor) => score >= floor + IMPROVEMENT_EPSILON,
            None => true,
        }
    }

    /// Whether `cid`'s proven split rejection still holds at the current
    /// global score — see [`PassScope::merge_rejection_holds`].
    pub(crate) fn split_rejection_holds(&self, cid: ClusterId, score: Option<f64>) -> bool {
        let Some(score) = score else { return true };
        match self.split_ceils.get(&cid) {
            Some(&ceil) => score <= ceil - IMPROVEMENT_EPSILON,
            None => true,
        }
    }

    /// The persisted rejection intervals, for snapshot encoding.
    pub(crate) fn rejection_intervals(
        &self,
    ) -> (&BTreeMap<ClusterId, f64>, &BTreeMap<ClusterId, f64>) {
        (&self.merge_floors, &self.split_ceils)
    }

    /// Rebuild a scope from snapshot-restored rejection intervals (the
    /// flags and the evaluation set are derived state and start empty).
    pub(crate) fn from_rejection_intervals(
        merge_floors: BTreeMap<ClusterId, f64>,
        split_ceils: BTreeMap<ClusterId, f64>,
    ) -> Self {
        PassScope {
            merge_floors,
            split_ceils,
            ..Self::default()
        }
    }

    /// Install externally computed flags (the parallel refresh writes
    /// through this; the values must equal what the lazy path would compute,
    /// which holds because both are the same pure function).
    pub(crate) fn store_flags(&mut self, cid: ClusterId, merge: bool, split: bool) {
        self.merge_flags.insert(cid, merge);
        self.split_flags.insert(cid, split);
    }

    /// The merge-model flag of `cid`, from cache or computed on miss.
    pub(crate) fn merge_flag(
        &mut self,
        cid: ClusterId,
        agg: &ClusterAggregates,
        models: &ModelPair,
        theta_scale: f64,
    ) -> bool {
        if let Some(&f) = self.merge_flags.get(&cid) {
            return f;
        }
        let f = models.predicts_merge(&merge_features(agg, cid), theta_scale);
        self.merge_flags.insert(cid, f);
        f
    }

    /// The split-model flag of `cid`, from cache or computed on miss.  Only
    /// meaningful for clusters of size ≥ 2 (the pass guards that before
    /// consulting the cache, like the full pass guards it before computing
    /// features).
    pub(crate) fn split_flag(
        &mut self,
        cid: ClusterId,
        agg: &ClusterAggregates,
        models: &ModelPair,
        theta_scale: f64,
    ) -> bool {
        if let Some(&f) = self.split_flags.get(&cid) {
            return f;
        }
        let f = models.predicts_split(&split_features(agg, cid), theta_scale);
        self.split_flags.insert(cid, f);
        f
    }

    /// Fold an applied merge into the dirty state: the merged cluster and
    /// its neighbours have new features (invalidate their flags), and every
    /// cluster within two hops of the merged one may rank or verify
    /// differently (grow `eval`).  Call *after* the aggregates absorbed the
    /// merge so the neighbourhood walked here is the post-merge one.
    pub(crate) fn after_merge(
        &mut self,
        a: ClusterId,
        b: ClusterId,
        merged: ClusterId,
        agg: &ClusterAggregates,
    ) {
        self.invalidate(a);
        self.invalidate(b);
        self.eval.remove(&a);
        self.eval.remove(&b);
        self.absorb_new_cluster(merged, agg);
    }

    /// Fold an applied split into the dirty state; the analogue of
    /// [`PassScope::after_merge`], called after
    /// `ClusterAggregates::apply_split`.
    pub(crate) fn after_split(
        &mut self,
        parent: ClusterId,
        part: ClusterId,
        rest: ClusterId,
        agg: &ClusterAggregates,
    ) {
        self.invalidate(parent);
        self.eval.remove(&parent);
        self.absorb_new_cluster(part, agg);
        self.absorb_new_cluster(rest, agg);
    }

    fn absorb_new_cluster(&mut self, cid: ClusterId, agg: &ClusterAggregates) {
        self.invalidate(cid);
        self.eval.insert(cid);
        for n in agg.neighbour_clusters(cid) {
            self.invalidate(n);
            self.eval.insert(n);
            for m in agg.neighbour_clusters(n) {
                self.eval.insert(m);
            }
        }
    }
}

/// Partition the evaluation set into its connected components under the
/// maintained aggregate adjacency (two dirty clusters are connected when
/// they share cross-cluster edge mass) — the independent *repair regions*.
/// Regions are returned with their members in id order, ordered by smallest
/// member id, so region enumeration is a pure function of the set and the
/// adjacency: replay walks the same regions in the same order.
pub(crate) fn repair_regions(
    eval: &BTreeSet<ClusterId>,
    agg: &ClusterAggregates,
) -> Vec<Vec<ClusterId>> {
    let ids: Vec<ClusterId> = eval.iter().copied().collect();
    let index: BTreeMap<ClusterId, usize> =
        ids.iter().enumerate().map(|(i, &cid)| (cid, i)).collect();
    let mut parent: Vec<usize> = (0..ids.len()).collect();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    for (i, &cid) in ids.iter().enumerate() {
        for n in agg.neighbour_clusters(cid) {
            if let Some(&j) = index.get(&n) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    // Union by smaller root index keeps roots deterministic.
                    let (lo, hi) = (ri.min(rj), ri.max(rj));
                    parent[hi] = lo;
                }
            }
        }
    }

    let mut groups: BTreeMap<usize, Vec<ClusterId>> = BTreeMap::new();
    for (i, &cid) in ids.iter().enumerate() {
        groups.entry(find(&mut parent, i)).or_default().push(cid);
    }
    // Roots are the smallest index of their component and `ids` is sorted,
    // so iterating the BTreeMap yields regions ordered by smallest member,
    // each region already in id order.
    groups.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_similarity::fixtures::graph_from_edges;
    use dc_types::{Clustering, ObjectId};

    fn oid(raw: u64) -> ObjectId {
        ObjectId::new(raw)
    }

    #[test]
    fn regions_are_connected_components_in_deterministic_order() {
        // Two components: {1,2} joined by an edge, {4,5} joined by an edge,
        // and 3 isolated.
        let graph = graph_from_edges(5, &[(1, 2, 0.9), (4, 5, 0.8)]);
        let clustering = Clustering::singletons((1..=5).map(oid));
        let agg = ClusterAggregates::new(&graph, &clustering);
        let all: BTreeSet<ClusterId> = clustering.cluster_ids().into_iter().collect();
        let cid_of = |raw: u64| clustering.cluster_of(oid(raw)).unwrap();

        let regions = repair_regions(&all, &agg);
        assert_eq!(regions.len(), 3);
        // Ordered by smallest member; members in id order.
        let expected: Vec<Vec<ClusterId>> = {
            let mut r = vec![
                vec![cid_of(1), cid_of(2)],
                vec![cid_of(3)],
                vec![cid_of(4), cid_of(5)],
            ];
            for g in &mut r {
                g.sort();
            }
            r.sort();
            r
        };
        assert_eq!(regions, expected);

        // Restricting the eval set splits components accordingly.
        let partial: BTreeSet<ClusterId> = [cid_of(1), cid_of(4)].into_iter().collect();
        let regions = repair_regions(&partial, &agg);
        assert_eq!(regions.len(), 2, "neighbours outside the set do not join");
    }

    #[test]
    fn flag_cache_is_invalidated_by_neighbourhood_changes() {
        let graph = graph_from_edges(3, &[(1, 2, 0.9), (2, 3, 0.9)]);
        let clustering = Clustering::singletons((1..=3).map(oid));
        let agg = ClusterAggregates::new(&graph, &clustering);
        let models = ModelPair::new(dc_ml::ModelKind::LogisticRegression, 10);
        let c1 = clustering.cluster_of(oid(1)).unwrap();

        let mut scope = PassScope::default();
        let f = scope.merge_flag(c1, &agg, &models, 1.0);
        assert!(scope.has_flags(c1) || !scope.split_flags.contains_key(&c1));
        assert_eq!(scope.merge_flag(c1, &agg, &models, 1.0), f, "cached");
        scope.invalidate(c1);
        assert!(!scope.merge_flags.contains_key(&c1));
    }

    #[test]
    fn rejection_intervals_gate_skips_and_die_with_invalidation() {
        let c = ClusterId::new(7);
        let mut scope = PassScope::default();

        // No recorded proof and no score dependence: skips unconditionally.
        assert!(scope.merge_rejection_holds(c, None));
        assert!(scope.merge_rejection_holds(c, Some(0.2)));
        assert!(scope.split_rejection_holds(c, Some(0.2)));

        scope.record_merge_rejection(c, 0.3);
        scope.record_split_rejection(c, 0.5);
        // Inside the interval the proof stands, outside it must re-evaluate.
        assert!(scope.merge_rejection_holds(c, Some(0.4)));
        assert!(!scope.merge_rejection_holds(c, Some(0.2)));
        assert!(!scope.merge_rejection_holds(c, Some(0.3)), "guard band");
        assert!(scope.split_rejection_holds(c, Some(0.4)));
        assert!(!scope.split_rejection_holds(c, Some(0.6)));
        // A sum-decomposable objective (no score) never consults intervals.
        assert!(scope.merge_rejection_holds(c, None));

        // Invalidation drops the proofs along with the flags.
        scope.invalidate(c);
        assert!(scope.merge_rejection_holds(c, Some(0.0)));
        assert!(scope.split_rejection_holds(c, Some(9.0)));

        // Restore-from-snapshot carries exactly the recorded intervals.
        let mut scope = PassScope::default();
        scope.record_merge_rejection(c, 0.25);
        let (floors, ceils) = scope.rejection_intervals();
        let restored = PassScope::from_rejection_intervals(floors.clone(), ceils.clone());
        assert!(!restored.merge_rejection_holds(c, Some(0.1)));
        assert!(restored.merge_rejection_holds(c, Some(0.9)));
    }
}
