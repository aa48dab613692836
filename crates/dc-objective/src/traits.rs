//! The [`ObjectiveFunction`] trait and shared helpers.

use dc_similarity::{ClusterAggregates, SimilarityGraph};
use dc_types::{ClusterId, Clustering, ObjectId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Deltas smaller than this (in absolute value) are treated as "no change";
/// an operation must reduce the objective by more than this epsilon to count
/// as an improvement.  This keeps the batch algorithms and the verification
/// step from oscillating on floating-point noise.
pub const IMPROVEMENT_EPSILON: f64 = 1e-9;

/// Whether a delta (`score(after) − score(before)`) is an improvement.
#[inline]
pub fn improves(delta: f64) -> bool {
    delta < -IMPROVEMENT_EPSILON
}

/// Which clustering family an objective belongs to.  Used by the experiment
/// harness to label output and choose dataset defaults; it has no effect on
/// the algorithms themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectiveKind {
    /// Correlation clustering (Eq. 1).
    Correlation,
    /// k-means / within-cluster sum of squares.
    KMeans,
    /// Davies–Bouldin index.
    DbIndex,
    /// Density-consistency cost (DBSCAN verification).
    Density,
}

impl std::fmt::Display for ObjectiveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObjectiveKind::Correlation => write!(f, "correlation"),
            ObjectiveKind::KMeans => write!(f, "k-means"),
            ObjectiveKind::DbIndex => write!(f, "db-index"),
            ObjectiveKind::Density => write!(f, "density"),
        }
    }
}

/// How an objective's accept/reject *decisions* depend on state outside the
/// changed neighbourhood.  Incremental repair (the sharded refiner's
/// dirty-region pass) skips re-evaluating clusters whose neighbourhood did
/// not change; whether that skip is sound depends on this structure:
///
/// * a **sum** objective's delta for a change is a pure function of the
///   changed neighbourhood — a rejection proven once holds until the
///   neighbourhood changes;
/// * a **mean-over-clusters** objective divides a sum by the cluster count,
///   so a change's delta moves with the *global* score even when its local
///   contribution is frozen: a rejection proven at one score can flip when
///   the score drifts far enough, and stays provably valid only within a
///   score interval (see [`ObjectiveFunction::merge_rejection_score_floor`]);
/// * an objective declaring nothing must be treated as having no exploitable
///   structure at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionLocality {
    /// The objective is a sum of per-cluster (or per-edge) terms: every
    /// delta is purely local, so a proven rejection holds at any global
    /// score.  Correlation, k-means, and the density cost are all sums.
    Local,
    /// The objective is a mean of per-cluster terms (`sum / cluster_count`):
    /// deltas couple to the global score through the denominator.  A proven
    /// rejection is valid exactly while the current score stays inside the
    /// interval the `*_rejection_score_*` hooks report.
    GlobalMean,
    /// No structure declared (the default): consumers must re-evaluate
    /// everything every time — incremental repair falls back to a full pass.
    Opaque,
}

impl std::fmt::Display for DecisionLocality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecisionLocality::Local => write!(f, "local"),
            DecisionLocality::GlobalMean => write!(f, "global-mean"),
            DecisionLocality::Opaque => write!(f, "opaque"),
        }
    }
}

/// A clustering cost function: lower is better.
///
/// The default implementations of the delta methods simulate the change on a
/// clone of the clustering and evaluate the objective twice.  That is always
/// correct, and concrete objectives override the deltas with closed-form or
/// locally-recomputed versions where possible (the property tests in each
/// module check the override against the simulated default).
pub trait ObjectiveFunction: Send + Sync {
    /// Human-readable name, used in reports.
    fn name(&self) -> &'static str;

    /// Which family the objective belongs to.
    fn kind(&self) -> ObjectiveKind;

    /// How this objective's accept/reject decisions depend on global state —
    /// see [`DecisionLocality`].  The default is
    /// [`DecisionLocality::Opaque`], which is always sound: consumers that
    /// cache decisions simply cache nothing.  Objectives should declare the
    /// strongest locality they can prove.
    fn decision_locality(&self) -> DecisionLocality {
        DecisionLocality::Opaque
    }

    /// For a [`DecisionLocality::GlobalMean`] objective: the score floor
    /// below which a merge rejection proven at `(delta, score, clusters)`
    /// stops being valid.  The rejection — "no merge of this cluster
    /// improves" — remains guaranteed while the current global score stays
    /// **at or above** the returned floor and the cluster's decision
    /// neighbourhood is unchanged; once the score falls below it, the
    /// decision must be re-evaluated.  `delta` is the *smallest* rejected
    /// merge delta, `score` and `clusters` describe the state the rejection
    /// was proven at.  The default (negative infinity) means "valid at any
    /// score", which is correct for [`DecisionLocality::Local`] objectives
    /// and never consulted for opaque ones.
    fn merge_rejection_score_floor(&self, delta: f64, score: f64, clusters: usize) -> f64 {
        let _ = (delta, score, clusters);
        f64::NEG_INFINITY
    }

    /// For a [`DecisionLocality::GlobalMean`] objective: the score ceiling
    /// above which a split rejection proven at `(delta, score, clusters)`
    /// stops being valid — the mirror image of
    /// [`ObjectiveFunction::merge_rejection_score_floor`].  The rejection
    /// remains guaranteed while the current score stays **at or below** the
    /// returned ceiling.  The default (positive infinity) means "valid at
    /// any score".
    fn split_rejection_score_ceil(&self, delta: f64, score: f64, clusters: usize) -> f64 {
        let _ = (delta, score, clusters);
        f64::INFINITY
    }

    /// Full cost of a clustering (lower is better).
    fn evaluate(&self, graph: &SimilarityGraph, clustering: &Clustering) -> f64;

    /// `score(after) − score(before)` for merging clusters `a` and `b`.
    fn merge_delta(
        &self,
        graph: &SimilarityGraph,
        clustering: &Clustering,
        a: ClusterId,
        b: ClusterId,
    ) -> f64 {
        if a == b || !clustering.contains_cluster(a) || !clustering.contains_cluster(b) {
            return 0.0;
        }
        let before = self.evaluate(graph, clustering);
        let mut after = clustering.clone();
        after.merge(a, b).expect("both clusters exist and differ");
        self.evaluate(graph, &after) - before
    }

    /// `score(after) − score(before)` for splitting `part` out of cluster
    /// `cid` (the remaining members stay together).
    fn split_delta(
        &self,
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
        let before = self.evaluate(graph, clustering);
        let mut after = clustering.clone();
        after.split(cid, part).expect("valid split arguments");
        self.evaluate(graph, &after) - before
    }

    /// `score(after) − score(before)` for moving one object into an existing
    /// target cluster.
    fn move_delta(
        &self,
        graph: &SimilarityGraph,
        clustering: &Clustering,
        oid: ObjectId,
        target: ClusterId,
    ) -> f64 {
        let Some(source) = clustering.cluster_of(oid) else {
            return 0.0;
        };
        if source == target || !clustering.contains_cluster(target) {
            return 0.0;
        }
        let before = self.evaluate(graph, clustering);
        let mut after = clustering.clone();
        after
            .move_object(oid, target)
            .expect("object and target exist");
        self.evaluate(graph, &after) - before
    }

    // ------------------------------------------------------------------
    // Aggregate-reusing hooks
    // ------------------------------------------------------------------
    //
    // The serving path maintains one `ClusterAggregates` incrementally and
    // calls these `_with` variants so that verification does not re-scan the
    // graph.  The defaults ignore the aggregates and fall back to the plain
    // (rebuild-as-needed) implementations, so an objective that cannot
    // exploit the materialized state stays exactly as correct — and exactly
    // as slow — as before.  `agg` must describe `(graph, clustering)`.

    /// Full cost of a clustering given its maintained aggregates.
    fn evaluate_with(
        &self,
        agg: &ClusterAggregates,
        graph: &SimilarityGraph,
        clustering: &Clustering,
    ) -> f64 {
        let _ = agg;
        self.evaluate(graph, clustering)
    }

    /// [`ObjectiveFunction::merge_delta`] given maintained aggregates.
    fn merge_delta_with(
        &self,
        agg: &ClusterAggregates,
        graph: &SimilarityGraph,
        clustering: &Clustering,
        a: ClusterId,
        b: ClusterId,
    ) -> f64 {
        let _ = agg;
        self.merge_delta(graph, clustering, a, b)
    }

    /// [`ObjectiveFunction::split_delta`] given maintained aggregates.
    fn split_delta_with(
        &self,
        agg: &ClusterAggregates,
        graph: &SimilarityGraph,
        clustering: &Clustering,
        cid: ClusterId,
        part: &BTreeSet<ObjectId>,
    ) -> f64 {
        let _ = agg;
        self.split_delta(graph, clustering, cid, part)
    }

    /// [`ObjectiveFunction::move_delta`] given maintained aggregates.
    fn move_delta_with(
        &self,
        agg: &ClusterAggregates,
        graph: &SimilarityGraph,
        clustering: &Clustering,
        oid: ObjectId,
        target: ClusterId,
    ) -> f64 {
        let _ = agg;
        self.move_delta(graph, clustering, oid, target)
    }
}

/// A wrapper that deliberately disables an objective's aggregate-reusing
/// `_with` overrides: every `_with` call falls through the trait defaults to
/// the inner objective's plain (rebuild-as-needed) implementation.
///
/// This is the reference "slow path" used by the equivalence tests: running
/// the same serving code once with the bare objective and once wrapped in
/// `SlowPathObjective` must produce the identical clustering, while the
/// full-build counter quantifies how many O(E) rebuilds the incremental path
/// avoided.
pub struct SlowPathObjective {
    inner: Arc<dyn ObjectiveFunction>,
}

impl SlowPathObjective {
    /// Wrap an objective, hiding its `_with` overrides.
    pub fn new(inner: Arc<dyn ObjectiveFunction>) -> Self {
        SlowPathObjective { inner }
    }
}

impl ObjectiveFunction for SlowPathObjective {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> ObjectiveKind {
        self.inner.kind()
    }

    // Decision structure is a property of the objective's mathematics, not
    // of the fast/slow evaluation path, so the wrapper forwards it: the
    // slow-path equivalence tests must make the same skip/re-evaluate
    // decisions as the wrapped objective.
    fn decision_locality(&self) -> DecisionLocality {
        self.inner.decision_locality()
    }

    fn merge_rejection_score_floor(&self, delta: f64, score: f64, clusters: usize) -> f64 {
        self.inner
            .merge_rejection_score_floor(delta, score, clusters)
    }

    fn split_rejection_score_ceil(&self, delta: f64, score: f64, clusters: usize) -> f64 {
        self.inner
            .split_rejection_score_ceil(delta, score, clusters)
    }

    fn evaluate(&self, graph: &SimilarityGraph, clustering: &Clustering) -> f64 {
        self.inner.evaluate(graph, clustering)
    }

    fn merge_delta(
        &self,
        graph: &SimilarityGraph,
        clustering: &Clustering,
        a: ClusterId,
        b: ClusterId,
    ) -> f64 {
        self.inner.merge_delta(graph, clustering, a, b)
    }

    fn split_delta(
        &self,
        graph: &SimilarityGraph,
        clustering: &Clustering,
        cid: ClusterId,
        part: &BTreeSet<ObjectId>,
    ) -> f64 {
        self.inner.split_delta(graph, clustering, cid, part)
    }

    fn move_delta(
        &self,
        graph: &SimilarityGraph,
        clustering: &Clustering,
        oid: ObjectId,
        target: ClusterId,
    ) -> f64 {
        self.inner.move_delta(graph, clustering, oid, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_threshold() {
        assert!(improves(-1.0));
        assert!(improves(-1e-6));
        assert!(!improves(0.0));
        assert!(!improves(-1e-12));
        assert!(!improves(0.5));
    }

    #[test]
    fn objective_kind_display() {
        assert_eq!(ObjectiveKind::Correlation.to_string(), "correlation");
        assert_eq!(ObjectiveKind::KMeans.to_string(), "k-means");
        assert_eq!(ObjectiveKind::DbIndex.to_string(), "db-index");
        assert_eq!(ObjectiveKind::Density.to_string(), "density");
    }

    #[test]
    fn decision_locality_display() {
        assert_eq!(DecisionLocality::Local.to_string(), "local");
        assert_eq!(DecisionLocality::GlobalMean.to_string(), "global-mean");
        assert_eq!(DecisionLocality::Opaque.to_string(), "opaque");
    }

    /// An objective that declares nothing must be opaque with always-valid
    /// intervals (they are never consulted for opaque objectives, but the
    /// defaults must still be the non-committal ones).
    #[test]
    fn default_locality_is_opaque_with_unbounded_intervals() {
        struct Bare;
        impl ObjectiveFunction for Bare {
            fn name(&self) -> &'static str {
                "bare"
            }
            fn kind(&self) -> ObjectiveKind {
                ObjectiveKind::Correlation
            }
            fn evaluate(&self, _: &SimilarityGraph, _: &Clustering) -> f64 {
                0.0
            }
        }
        assert_eq!(Bare.decision_locality(), DecisionLocality::Opaque);
        assert_eq!(
            Bare.merge_rejection_score_floor(0.1, 0.5, 10),
            f64::NEG_INFINITY
        );
        assert_eq!(Bare.split_rejection_score_ceil(0.1, 0.5, 10), f64::INFINITY);
    }

    #[test]
    fn slow_path_forwards_decision_structure() {
        let inner = Arc::new(crate::DbIndexObjective);
        let slow = SlowPathObjective::new(inner.clone());
        assert_eq!(slow.decision_locality(), inner.decision_locality());
        assert_eq!(
            slow.merge_rejection_score_floor(0.01, 0.2, 50),
            inner.merge_rejection_score_floor(0.01, 0.2, 50)
        );
        assert_eq!(
            slow.split_rejection_score_ceil(0.01, 0.2, 50),
            inner.split_rejection_score_ceil(0.01, 0.2, 50)
        );
    }
}
