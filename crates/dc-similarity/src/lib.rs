//! # dc-similarity
//!
//! The similarity substrate of the DynamicC reproduction.
//!
//! Every clustering algorithm in the workspace — the batch algorithms, the
//! incremental baselines, and DynamicC itself — consumes pairwise object
//! similarities through a single structure, the sparse [`SimilarityGraph`].
//! This crate provides:
//!
//! * [`measures`] — the similarity measures used by the paper's datasets
//!   (Table 1): Jaccard over tokens, cosine similarity over character
//!   trigrams, normalized Levenshtein, and a Euclidean-distance-derived
//!   similarity for numeric records, plus a weighted composite.
//! * [`text`] — tokenization, character n-grams, and edit distance.
//! * [`profile`] — the per-record [`TextProfile`] (lowercased text, sorted
//!   distinct tokens) the textual measures read, built once per record.
//! * [`blocking`] — sub-quadratic candidate-pair generation (token blocking
//!   for textual data, grid blocking for numeric data) so that building the
//!   similarity graph does not require all `n·(n−1)/2` comparisons.
//! * [`graph`] — the sparse [`SimilarityGraph`] with incremental maintenance
//!   under add / remove / update operations.
//! * [`aggregates`] — the cluster-level quantities the paper's features and
//!   objectives are built from: average intra-cluster similarity, average
//!   inter-cluster similarity between cluster pairs, maximal inter-cluster
//!   similarity, and per-object cohesion weights.  The aggregates are an
//!   owned, materialized structure maintained *incrementally* (O(degree)
//!   per merge / split / move / workload operation) so the serving hot path
//!   never rebuilds them per candidate.
//! * [`router`] — the deterministic [`ShardRouter`] mapping records to
//!   shards via the blocking layer's canonical routing keys, so sharded
//!   serving partitions the objects the same way blocking groups them.
//!   Cross-shard candidate pairs need no index of their own: a graph holding
//!   every live record (the refiner's mirror) finds them through its own
//!   blocking strategy ([`SimilarityGraph::candidate_ids`]).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod aggregates;
pub mod blocking;
pub mod fixtures;
pub mod graph;
pub mod measures;
pub mod persist;
pub mod profile;
pub mod router;
pub mod text;

pub use aggregates::{
    full_build_count, AggregateEdit, AppliedOp, BuildCounter, ClusterAggregates, ClusterParts,
    FULL_BUILDS_COUNTER,
};
pub use blocking::{BlockingStrategy, GridBlocking, TokenBlocking};
pub use graph::{GraphConfig, SimilarityGraph};
pub use measures::{
    CompositeMeasure, EdgeCheck, EuclideanSimilarity, JaccardSimilarity, NormalizedLevenshtein,
    ScreenTally, SimilarityMeasure, TrigramCosine,
};
pub use persist::{AggregatesState, GraphState};
pub use profile::{ProfiledRecord, TextProfile};
pub use router::{RoutedBatch, ShardRouter};
