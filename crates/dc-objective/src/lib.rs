//! # dc-objective
//!
//! Clustering objective functions with cheap *delta* evaluation.
//!
//! Objective-based clustering methods (§3.2 of the DynamicC paper) score a
//! clustering with an objective function and search for a clustering that
//! minimizes it.  DynamicC relies on the objective in two places:
//!
//! 1. the underlying **batch algorithm** (hill-climbing in the paper) uses it
//!    to pick the best improving change at every step, and
//! 2. DynamicC's **verification step** (§5.4, "Avoiding False Positives")
//!    checks every merge/split the ML model proposes against the objective
//!    and discards changes that do not improve it.
//!
//! Both uses evaluate *candidate changes* far more often than whole
//! clusterings, so the [`ObjectiveFunction`] trait exposes `merge_delta`,
//! `split_delta`, and `move_delta` alongside the full `evaluate`.  Every
//! delta is defined as `score(after) − score(before)` and all objectives are
//! costs: **lower is better**, and a change *improves* the clustering when
//! its delta is negative.
//!
//! Implemented objectives:
//!
//! * [`CorrelationObjective`] — the correlation-clustering disagreement cost
//!   of Eq. 1 / Example 4.1.
//! * [`KMeansObjective`] — within-cluster sum of squared Euclidean distances
//!   to the centroid (the k-means objective; k is enforced by the search
//!   procedure, not the objective).
//! * [`DbIndexObjective`] — a Davies–Bouldin index adapted to sparse
//!   similarity graphs, following the record-linkage adaptation of
//!   Gruenheid et al. that the paper evaluates.
//! * [`DensityObjective`] — a density-consistency cost used to verify
//!   DynamicC's proposals when the underlying algorithm is DBSCAN, which has
//!   no objective function of its own (§7.2.1).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod correlation;
pub mod dbindex;
pub mod density;
pub mod exact;
pub mod kmeans;
pub mod traits;

pub use correlation::CorrelationObjective;
pub use dbindex::DbIndexObjective;
pub use density::DensityObjective;
pub use exact::{exact_sum, ExactSum};
pub use kmeans::KMeansObjective;
pub use traits::{
    improves, DecisionLocality, ObjectiveFunction, ObjectiveKind, SlowPathObjective,
    IMPROVEMENT_EPSILON,
};
