//! # dc-datagen
//!
//! Synthetic dataset generators and dynamic-workload generation.
//!
//! The paper evaluates on four real-world datasets (Cora, MusicBrainz,
//! Amazon Access Samples, 3D Road Network) plus a Febrl-generated synthetic
//! dataset (Table 1).  Those exact files are not redistributable with this
//! repository, so each is replaced by a generator that produces data with
//! the same *shape*: the same data type (textual record-linkage data with
//! duplicate entities, or numeric point clouds with density structure), the
//! same similarity measure, and configurable scale.  Every generator embeds
//! ground-truth entity labels so clustering quality can also be checked against the truth
//! rather than only against the batch result.
//!
//! * [`textual`] — Febrl-like duplicate-record generation (uniform / poisson
//!   / zipf duplicate-count distributions), Cora-like citation records, and
//!   MusicBrainz-like song records, all with configurable typo corruption.
//! * [`numeric`] — Amazon-Access-like Gaussian mixtures and 3D-Road-like
//!   points along road polylines.
//! * [`workload`] — the dynamic process of §7.2: an initial subset followed
//!   by a sequence of snapshots, each adding, removing, and updating a
//!   configurable fraction of objects (the Figure 5(a) workload mix).
//! * [`vocab`] — the word pools the textual generators draw from.
//! * [`fixtures`] — small canned datasets/workloads, memoized per process,
//!   for tests that just need "some realistic data" without paying
//!   per-test generation.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod fixtures;
pub mod numeric;
pub mod textual;
pub mod vocab;
pub mod workload;

pub use numeric::{AccessLikeGenerator, RoadLikeGenerator};
pub use textual::{
    CoraLikeGenerator, DuplicateDistribution, FebrlLikeGenerator, MusicLikeGenerator,
};
pub use workload::{DynamicWorkload, WorkloadConfig};

use dc_types::{Clustering, Dataset};

/// Build the ground-truth clustering of a generated dataset by grouping
/// objects with the same entity label.  Objects without a label become
/// singletons.
pub fn ground_truth(dataset: &Dataset) -> Clustering {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<u64, Vec<dc_types::ObjectId>> = BTreeMap::new();
    let mut singletons = Vec::new();
    for (id, record) in dataset.iter() {
        match record.entity() {
            Some(e) => groups.entry(e).or_default().push(id),
            None => singletons.push(vec![id]),
        }
    }
    let mut all: Vec<Vec<dc_types::ObjectId>> = groups.into_values().collect();
    all.extend(singletons);
    Clustering::from_groups(all).expect("groups are disjoint by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_types::RecordBuilder;

    #[test]
    fn ground_truth_groups_by_entity_label() {
        let mut ds = Dataset::new();
        ds.insert(RecordBuilder::new().text("t", "a").entity(1).build());
        ds.insert(RecordBuilder::new().text("t", "b").entity(1).build());
        ds.insert(RecordBuilder::new().text("t", "c").entity(2).build());
        ds.insert(RecordBuilder::new().text("t", "d").build());
        let truth = ground_truth(&ds);
        assert_eq!(truth.cluster_count(), 3);
        assert_eq!(truth.object_count(), 4);
        let sizes: Vec<usize> = truth.groups().iter().map(Vec::len).collect();
        assert!(sizes.contains(&2));
    }
}
