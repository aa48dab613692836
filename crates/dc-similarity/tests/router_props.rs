//! Property tests for the [`ShardRouter`] invariants the sharded engine
//! builds on:
//!
//! 1. routing is a **total, stable** function: every record routes, the
//!    result is `< n_shards`, and the same record routes identically across
//!    calls and across arbitrary Add/Update/Remove histories (the router is
//!    stateless);
//! 2. [`ShardRouter::route_batch`]'s sub-batches are a **permutation-free
//!    partition** of the input batch: every operation lands in exactly one
//!    sub-batch, each sub-batch is an order-preserving subsequence of the
//!    input, and the lengths add up;
//! 3. the assignment is **sticky and exclusive**: after any sequence of
//!    batches, every live object is owned by exactly one shard, and every
//!    operation on a live object was sent to its owner.

use dc_similarity::blocking::{GridBlocking, TokenBlocking};
use dc_similarity::ShardRouter;
use dc_types::codec::BinCodec;
use dc_types::{ObjectId, Operation, OperationBatch, Record, RecordBuilder};
use proptest::prelude::*;
use std::collections::BTreeMap;

const VOCAB: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
];

/// A record with 1..=3 vocabulary tokens and a small 2-d vector, so both
/// token and grid routing have key material.
fn record_strategy() -> impl Strategy<Value = Record> {
    (0usize..8, 0usize..8, 0usize..8, 0i64..6, 0i64..6).prop_map(|(a, b, c, x, y)| {
        RecordBuilder::new()
            .text("t", format!("{} {} {}", VOCAB[a], VOCAB[b], VOCAB[c]))
            .vector(vec![x as f64 * 0.7, y as f64 * 0.7])
            .build()
    })
}

#[derive(Debug, Clone)]
enum Op {
    Add(u64, Record),
    Update(u64, Record),
    Remove(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..16, record_strategy()).prop_map(|(id, r)| Op::Add(id, r)),
        (0u64..16, record_strategy()).prop_map(|(id, r)| Op::Update(id, r)),
        (0u64..16).prop_map(Op::Remove),
    ]
}

fn to_operation(op: &Op) -> Operation {
    match op {
        Op::Add(id, record) => Operation::Add {
            id: ObjectId::new(*id),
            record: record.clone(),
        },
        Op::Update(id, record) => Operation::Update {
            id: ObjectId::new(*id),
            record: record.clone(),
        },
        Op::Remove(id) => Operation::Remove {
            id: ObjectId::new(*id),
        },
    }
}

/// Group a flat op sequence into batches of at most 5 operations.
fn to_batches(ops: &[Op]) -> Vec<OperationBatch> {
    ops.chunks(5)
        .map(|chunk| OperationBatch::from_ops(chunk.iter().map(to_operation).collect()))
        .collect()
}

fn routers() -> Vec<(&'static str, ShardRouter)> {
    vec![
        (
            "token-1",
            ShardRouter::new(1, Box::new(TokenBlocking::new(0))),
        ),
        (
            "token-4",
            ShardRouter::new(4, Box::new(TokenBlocking::new(0))),
        ),
        (
            "grid-3",
            ShardRouter::new(3, Box::new(GridBlocking::new(1.0, 2))),
        ),
    ]
}

/// `sub` is an order-preserving subsequence of `full`.
fn is_subsequence(sub: &OperationBatch, full: &OperationBatch) -> bool {
    let mut it = full.iter();
    'outer: for needle in sub.iter() {
        for candidate in it.by_ref() {
            if candidate == needle {
                continue 'outer;
            }
        }
        return false;
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Routing is total, in range, and independent of any mutation history.
    #[test]
    fn routing_is_total_and_stable(records in proptest::collection::vec(record_strategy(), 1..20),
                                   ops in proptest::collection::vec(op_strategy(), 0..40)) {
        for (name, router) in routers() {
            let before: Vec<usize> = records.iter().map(|r| router.route(r)).collect();
            for shard in &before {
                prop_assert!(*shard < router.n_shards(), "{name}: shard out of range");
            }
            // Splitting arbitrary batches through the router must not change
            // what it says about any record (the router is stateless).
            let mut assignment = BTreeMap::new();
            for batch in to_batches(&ops) {
                router.route_batch(&batch, &mut assignment);
            }
            let after: Vec<usize> = records.iter().map(|r| router.route(r)).collect();
            prop_assert_eq!(&before, &after, "{}: routing drifted", name);
            // And a repeated call agrees with itself.
            let again: Vec<usize> = records.iter().map(|r| router.route(r)).collect();
            prop_assert_eq!(&after, &again, "{}: routing is unstable", name);
        }
    }

    /// Sub-batches are a permutation-free partition of the input batch.
    #[test]
    fn split_is_a_permutation_free_partition(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        for (name, router) in routers() {
            let mut assignment = BTreeMap::new();
            for batch in to_batches(&ops) {
                let subs = router.route_batch(&batch, &mut assignment).sub_batches;
                prop_assert_eq!(subs.len(), router.n_shards(), "{}: one sub-batch per shard", name);
                let total: usize = subs.iter().map(OperationBatch::len).sum();
                prop_assert_eq!(total, batch.len(), "{}: operations lost or duplicated", name);
                for sub in &subs {
                    prop_assert!(
                        is_subsequence(sub, &batch),
                        "{name}: sub-batch is not an order-preserving subsequence"
                    );
                }
                // Partition: the multiset union of the sub-batches is the
                // input batch (keyed by the operations' exact wire encoding,
                // since `Operation` is not `Ord`).
                let mut expected: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
                for op in batch.iter() {
                    *expected.entry(op.encode_to_vec()).or_default() += 1;
                }
                let mut actual: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
                for op in subs.iter().flat_map(OperationBatch::iter) {
                    *actual.entry(op.encode_to_vec()).or_default() += 1;
                }
                prop_assert_eq!(&expected, &actual, "{}: not a partition", name);
            }
        }
    }

    /// Every live object is owned by exactly one shard, operations follow
    /// the owner, and the assignment matches a replay of the sub-batches.
    #[test]
    fn assignment_is_sticky_and_exclusive(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        for (name, router) in routers() {
            let mut assignment = BTreeMap::new();
            // Per-shard live sets rebuilt purely from the sub-batches.
            let mut live: Vec<std::collections::BTreeSet<ObjectId>> =
                vec![Default::default(); router.n_shards()];
            for batch in to_batches(&ops) {
                let subs = router.route_batch(&batch, &mut assignment).sub_batches;
                for (shard, sub) in subs.iter().enumerate() {
                    for op in sub.iter() {
                        match op {
                            Operation::Add { id, .. } | Operation::Update { id, .. } => {
                                live[shard].insert(*id);
                            }
                            Operation::Remove { id } => {
                                live[shard].remove(id);
                            }
                        }
                    }
                }
                // The shard-local live sets must be pairwise disjoint and
                // agree exactly with the router's assignment map.
                let mut seen = std::collections::BTreeSet::new();
                for (shard, set) in live.iter().enumerate() {
                    for id in set {
                        prop_assert!(seen.insert(*id), "{name}: {id} lives in two shards");
                        prop_assert_eq!(
                            assignment.get(id).copied(),
                            Some(shard),
                            "{}: assignment disagrees with the sub-batch replay",
                            name
                        );
                    }
                }
                prop_assert_eq!(seen.len(), assignment.len(), "{}: stale assignment entries", name);
            }
        }
    }
}
