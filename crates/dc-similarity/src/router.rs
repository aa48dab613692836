//! Deterministic shard routing over blocking keys.
//!
//! The serving loop is embarrassingly partitionable: a shard is an
//! independent `Engine` over a subset of the objects, and a round is one
//! `apply_round` call per shard.  What makes the partition *useful* is that
//! objects likely to be similar should land in the same shard — which is
//! exactly the grouping the blocking layer already computes.  The
//! [`ShardRouter`] therefore derives each record's shard from the blocking
//! strategy's canonical routing key
//! ([`crate::BlockingStrategy::shard_key`]):
//! token-blocked records route by their smallest token, grid-blocked records
//! by their grid cell, so routing and blocking agree on what "close" means.
//!
//! Routing invariants (property-tested in `tests/router_props.rs`):
//!
//! * **total** — every record routes, and the result is `< n_shards`;
//! * **stable** — the router holds no mutable state, so the same record
//!   routes to the same shard on every call, regardless of what was added,
//!   updated, or removed before;
//! * **sticky per object** — [`ShardRouter::route_batch`] keeps every
//!   operation on a live object in the shard that owns the object, so an
//!   object lives in exactly one shard at all times and sub-batches are a
//!   permutation-free partition of the input batch.
//!
//! With a single shard every operation routes to shard 0 verbatim, which is
//! what makes a one-shard sharded engine bit-identical to an unsharded one.

use crate::blocking::BlockingStrategy;
use crate::graph::GraphConfig;
use dc_types::{ObjectId, Operation, OperationBatch, Record, MAX_SHARDS};
use std::collections::BTreeMap;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the workspace's dependency-free routing hash.
/// Stable across platforms and runs (no per-process seeding).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The fallback routing key used by blocking strategies without a natural
/// key of their own (e.g. exhaustive blocking): a content hash over the
/// record's text and the exact bits of its vector.
pub fn content_shard_key(record: &Record) -> u64 {
    let mut bytes = record.full_text().into_bytes();
    for &x in record.vector() {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// A deterministic, stateless record-to-shard routing function.
pub struct ShardRouter {
    n_shards: usize,
    blocking: Box<dyn BlockingStrategy>,
}

impl Clone for ShardRouter {
    fn clone(&self) -> Self {
        ShardRouter {
            n_shards: self.n_shards,
            blocking: self.blocking.clone_blocking(),
        }
    }
}

impl ShardRouter {
    /// Create a router over `n_shards` shards that derives routing keys from
    /// the given blocking strategy (an unused private copy; the router never
    /// indexes into it).
    pub fn new(n_shards: usize, blocking: Box<dyn BlockingStrategy>) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&n_shards),
            "shard count must be in 1..={MAX_SHARDS}, got {n_shards}"
        );
        let mut blocking = blocking;
        blocking.reset();
        ShardRouter { n_shards, blocking }
    }

    /// Create a router whose routing keys agree with the blocking strategy
    /// of a graph configuration.
    pub fn for_config(n_shards: usize, config: &GraphConfig) -> Self {
        ShardRouter::new(n_shards, config.blocking.clone_blocking())
    }

    /// Number of shards this router distributes over.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Route a record to its shard (total and stable; always `< n_shards`).
    pub fn route(&self, record: &Record) -> usize {
        (self.blocking.shard_key(record) % self.n_shards as u64) as usize
    }

    /// Route an operation on an object whose record is unknown (a remove of
    /// an id that is not currently assigned anywhere): a deterministic hash
    /// of the id.  Whatever shard receives it treats it as a no-op, but the
    /// choice must still be a pure function so replays split identically.
    pub fn route_id(&self, id: ObjectId) -> usize {
        (fnv1a(&id.raw().to_le_bytes()) % self.n_shards as u64) as usize
    }

    /// Split a batch into one sub-batch per shard, maintaining the
    /// object-to-shard assignment as the batch is walked in order:
    ///
    /// * operations on an **assigned** object go to the shard that owns it
    ///   (updates never migrate an object — the owning shard re-places it
    ///   internally, exactly like the unsharded engine treats an update);
    /// * an `Add` of an unassigned id routes by the record's blocking key
    ///   and claims the assignment; an `Update` of an unassigned id is an
    ///   add in disguise (§3.1) and does the same;
    /// * a `Remove` of an assigned id goes to the owning shard and releases
    ///   the assignment; a remove of an unknown id routes by id hash (a
    ///   no-op wherever it lands).
    ///
    /// Each operation is forwarded verbatim to exactly one sub-batch, and
    /// sub-batches preserve the input order, so the sub-batches form a
    /// permutation-free partition of the input.  With one shard, sub-batch 0
    /// *is* the input batch.
    ///
    /// The returned [`RoutedBatch`] also carries the *per-operation routing
    /// report*: the shard each input operation was forwarded to, in input
    /// order.  The cross-shard refinement pass consumes it to replay the
    /// batch against its global view (recording each touched record's
    /// owning shard) without re-deriving the sticky routing decisions.
    pub fn route_batch(
        &self,
        batch: &OperationBatch,
        assignment: &mut BTreeMap<ObjectId, usize>,
    ) -> RoutedBatch {
        let mut out = vec![OperationBatch::new(); self.n_shards];
        let mut op_shards = Vec::with_capacity(batch.len());
        for op in batch.iter() {
            let id = op.object_id();
            let shard = match (op, assignment.get(&id)) {
                (_, Some(&owner)) => owner,
                (Operation::Add { record, .. } | Operation::Update { record, .. }, None) => {
                    self.route(record)
                }
                (Operation::Remove { .. }, None) => self.route_id(id),
            };
            match op {
                Operation::Add { .. } | Operation::Update { .. } => {
                    assignment.insert(id, shard);
                }
                Operation::Remove { .. } => {
                    assignment.remove(&id);
                }
            }
            out[shard].push(op.clone());
            op_shards.push(shard);
        }
        RoutedBatch {
            sub_batches: out,
            op_shards,
        }
    }
}

/// What [`ShardRouter::route_batch`] produced: the per-shard sub-batches and
/// the per-operation routing report.
#[derive(Debug)]
pub struct RoutedBatch {
    /// One sub-batch per shard — a permutation-free partition of the input.
    pub sub_batches: Vec<OperationBatch>,
    /// The shard each input operation was forwarded to, in input order.
    pub op_shards: Vec<usize>,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("n_shards", &self.n_shards)
            .field("key_source", &self.blocking.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::{ExhaustiveBlocking, GridBlocking, TokenBlocking};
    use dc_types::RecordBuilder;

    fn textual(s: &str) -> Record {
        RecordBuilder::new().text("t", s).build()
    }

    fn oid(raw: u64) -> ObjectId {
        ObjectId::new(raw)
    }

    #[test]
    fn fnv1a_is_stable_and_spreads() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"shard"), fnv1a(b"shard"));
    }

    #[test]
    fn token_routing_follows_the_smallest_token() {
        let router = ShardRouter::new(4, Box::new(TokenBlocking::new(0)));
        // Same smallest token -> same shard, independent of the other tokens.
        let a = router.route(&textual("alpha beta"));
        let b = router.route(&textual("alpha zeta omega"));
        assert_eq!(a, b);
        assert!(a < 4);
    }

    #[test]
    fn grid_routing_follows_the_cell() {
        let router = ShardRouter::new(4, Box::new(GridBlocking::new(1.0, 2)));
        let a = router.route(&RecordBuilder::new().vector(vec![0.2, 0.3]).build());
        let b = router.route(&RecordBuilder::new().vector(vec![0.7, 0.9]).build());
        assert_eq!(a, b, "same cell must route together");
    }

    #[test]
    fn one_shard_forwards_the_batch_verbatim() {
        let router = ShardRouter::new(1, Box::new(ExhaustiveBlocking::new()));
        let mut batch = OperationBatch::new();
        batch.push(Operation::Add {
            id: oid(1),
            record: textual("x"),
        });
        batch.push(Operation::Remove { id: oid(9) });
        batch.push(Operation::Update {
            id: oid(1),
            record: textual("y"),
        });
        let mut assignment = BTreeMap::new();
        let subs = router.route_batch(&batch, &mut assignment).sub_batches;
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0], batch);
        assert_eq!(assignment.get(&oid(1)), Some(&0));
    }

    #[test]
    fn operations_stick_to_the_owning_shard() {
        let router = ShardRouter::new(8, Box::new(TokenBlocking::new(0)));
        let mut assignment = BTreeMap::new();
        let mut batch = OperationBatch::new();
        batch.push(Operation::Add {
            id: oid(1),
            record: textual("alpha"),
        });
        let subs = router.route_batch(&batch, &mut assignment).sub_batches;
        let owner = assignment[&oid(1)];
        assert_eq!(subs[owner].len(), 1);

        // An update whose content would route elsewhere stays with the owner.
        let mut batch2 = OperationBatch::new();
        batch2.push(Operation::Update {
            id: oid(1),
            record: textual("zzz completely different"),
        });
        let subs2 = router.route_batch(&batch2, &mut assignment).sub_batches;
        assert_eq!(subs2[owner].len(), 1);
        assert_eq!(assignment[&oid(1)], owner);

        // A remove goes to the owner and releases the assignment.
        let mut batch3 = OperationBatch::new();
        batch3.push(Operation::Remove { id: oid(1) });
        let subs3 = router.route_batch(&batch3, &mut assignment).sub_batches;
        assert_eq!(subs3[owner].len(), 1);
        assert!(!assignment.contains_key(&oid(1)));
    }

    #[test]
    #[should_panic]
    fn zero_shards_are_rejected() {
        ShardRouter::new(0, Box::new(ExhaustiveBlocking::new()));
    }
}
