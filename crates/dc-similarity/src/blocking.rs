//! Candidate-pair generation (blocking).
//!
//! Building a similarity graph by comparing every pair of objects costs
//! `O(n²)` comparisons, which is infeasible for the larger datasets of the
//! paper (3D Road Network has hundreds of thousands of points).  Blocking
//! groups objects into (possibly overlapping) blocks such that objects that
//! could plausibly be similar share at least one block; only pairs within a
//! block are compared.
//!
//! Two strategies are provided, matching the two data families of the paper:
//!
//! * [`TokenBlocking`] — textual records share a block when they share a
//!   token (standard record-linkage blocking).
//! * [`GridBlocking`] — numeric records are bucketed into hypercube cells of
//!   a configurable width; each record is compared against records in its
//!   own and all neighbouring cells, which covers every pair within one cell
//!   width of each other.
//!
//! A strategy only proposes *candidates*: the similarity graph still computes
//! the exact similarity for every candidate pair and applies its threshold.

use dc_types::{Dataset, ObjectId, Record};
use std::collections::{BTreeMap, BTreeSet};

/// A strategy for proposing candidate ids that may be similar to a record.
pub trait BlockingStrategy: Send + Sync + CloneBlocking {
    /// Index a record under its id (called for every live object).
    fn index(&mut self, id: ObjectId, record: &Record);

    /// Remove a record from the index.
    fn unindex(&mut self, id: ObjectId, record: &Record);

    /// Forget every indexed record, returning the strategy to its freshly
    /// constructed state.  [`SimilarityGraph`](crate::SimilarityGraph) calls
    /// this when adopting a configuration, so a config cloned off a live
    /// graph does not smuggle that graph's index into the new one (which
    /// would corrupt candidate generation — e.g. updated objects would stay
    /// findable under their old tokens).
    fn reset(&mut self);

    /// Objects that share at least one block with `record` (may include ids
    /// that are not live any more or the queried id itself; callers filter).
    fn candidates(&self, record: &Record) -> BTreeSet<ObjectId>;

    /// The record's canonical *routing key*: a pure, total function of the
    /// record's content used by [`ShardRouter`](crate::ShardRouter) to pick
    /// a shard.  Strategies derive it from the same key material as their
    /// blocks (the smallest token for [`TokenBlocking`], the grid cell for
    /// [`GridBlocking`]), so records that routing separates would mostly not
    /// have shared a block anyway — routing and blocking agree.
    ///
    /// Records that share a block but not a routing key still land in
    /// different shards.  Cross-shard refinement recovers those pairs with
    /// [`BlockingStrategy::candidates`] over a graph of every live record,
    /// so this single key is all the key material a strategy exposes.
    ///
    /// Must not depend on the strategy's mutable index state: the same
    /// record yields the same key no matter what has been indexed, unindexed
    /// or reset before the call.
    fn shard_key(&self, record: &Record) -> u64 {
        crate::router::content_shard_key(record)
    }

    /// Human-readable name.
    fn name(&self) -> &'static str;
}

crate::measures::clone_boxed_trait! {
    /// Object-safe cloning for boxed blocking strategies, blanket-implemented
    /// for every `Clone` strategy (mirrors
    /// [`CloneMeasure`](crate::measures::CloneMeasure)).
    CloneBlocking::clone_blocking for BlockingStrategy
}

/// Token blocking for textual records.
///
/// Tokens that occur in more than `max_block_size` records are considered
/// stop words and are skipped when *querying* (they would otherwise make the
/// candidate sets quadratic in practice); they are still indexed so the limit
/// can adapt as data grows.
#[derive(Debug, Clone, Default)]
pub struct TokenBlocking {
    blocks: BTreeMap<String, BTreeSet<ObjectId>>,
    max_block_size: usize,
}

impl TokenBlocking {
    /// Create a token-blocking index; `max_block_size = 0` disables the stop
    /// word cutoff.
    pub fn new(max_block_size: usize) -> Self {
        TokenBlocking {
            blocks: BTreeMap::new(),
            max_block_size,
        }
    }

    fn keys(record: &Record) -> Vec<String> {
        crate::text::token_set(&record.full_text())
            .into_iter()
            .collect()
    }

    /// Number of distinct blocks currently indexed.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

impl BlockingStrategy for TokenBlocking {
    fn index(&mut self, id: ObjectId, record: &Record) {
        for key in Self::keys(record) {
            self.blocks.entry(key).or_default().insert(id);
        }
    }

    fn unindex(&mut self, id: ObjectId, record: &Record) {
        for key in Self::keys(record) {
            if let Some(block) = self.blocks.get_mut(&key) {
                block.remove(&id);
                if block.is_empty() {
                    self.blocks.remove(&key);
                }
            }
        }
    }

    fn reset(&mut self) {
        self.blocks.clear();
    }

    fn candidates(&self, record: &Record) -> BTreeSet<ObjectId> {
        let mut out = BTreeSet::new();
        for key in Self::keys(record) {
            if let Some(block) = self.blocks.get(&key) {
                if self.max_block_size > 0 && block.len() > self.max_block_size {
                    continue;
                }
                out.extend(block.iter().copied());
            }
        }
        out
    }

    fn shard_key(&self, record: &Record) -> u64 {
        // The lexicographically smallest token is the record's primary
        // blocking key; records with no tokens all share one key.
        match Self::keys(record).into_iter().min() {
            Some(token) => crate::router::fnv1a(token.as_bytes()),
            None => crate::router::fnv1a(b""),
        }
    }

    fn name(&self) -> &'static str {
        "token-blocking"
    }
}

/// Grid blocking for numeric records.
///
/// Each record's feature vector is quantized to an integer cell; candidate
/// generation returns every record in the same cell or any of the `3^d − 1`
/// neighbouring cells.  With `cell_width` chosen at (or above) the similarity
/// graph's effective distance cutoff this is lossless for that cutoff.
#[derive(Debug, Clone)]
pub struct GridBlocking {
    cell_width: f64,
    cells: BTreeMap<Vec<i64>, BTreeSet<ObjectId>>,
    /// Dimensionality cap: only the first `max_dims` coordinates participate
    /// in the cell key (neighbour enumeration is exponential in dimension).
    max_dims: usize,
}

impl GridBlocking {
    /// Create a grid with the given cell width (must be positive).  Only the
    /// first `max_dims` dimensions of the vectors participate in blocking.
    pub fn new(cell_width: f64, max_dims: usize) -> Self {
        assert!(cell_width > 0.0, "cell width must be positive");
        assert!((1..=6).contains(&max_dims), "max_dims must be in 1..=6");
        GridBlocking {
            cell_width,
            cells: BTreeMap::new(),
            max_dims,
        }
    }

    fn cell_of(&self, record: &Record) -> Vec<i64> {
        record
            .vector()
            .iter()
            .take(self.max_dims)
            .map(|&x| (x / self.cell_width).floor() as i64)
            .collect()
    }

    fn neighbour_cells(cell: &[i64]) -> Vec<Vec<i64>> {
        let mut out = vec![Vec::new()];
        for &coord in cell {
            let mut next = Vec::with_capacity(out.len() * 3);
            for prefix in &out {
                for delta in -1..=1 {
                    let mut cur = prefix.clone();
                    cur.push(coord + delta);
                    next.push(cur);
                }
            }
            out = next;
        }
        out
    }

    /// Number of non-empty cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }
}

impl BlockingStrategy for GridBlocking {
    fn index(&mut self, id: ObjectId, record: &Record) {
        let cell = self.cell_of(record);
        self.cells.entry(cell).or_default().insert(id);
    }

    fn unindex(&mut self, id: ObjectId, record: &Record) {
        let cell = self.cell_of(record);
        if let Some(set) = self.cells.get_mut(&cell) {
            set.remove(&id);
            if set.is_empty() {
                self.cells.remove(&cell);
            }
        }
    }

    fn reset(&mut self) {
        self.cells.clear();
    }

    fn candidates(&self, record: &Record) -> BTreeSet<ObjectId> {
        let cell = self.cell_of(record);
        let mut out = BTreeSet::new();
        for neighbour in Self::neighbour_cells(&cell) {
            if let Some(set) = self.cells.get(&neighbour) {
                out.extend(set.iter().copied());
            }
        }
        out
    }

    fn shard_key(&self, record: &Record) -> u64 {
        let mut bytes = Vec::new();
        for coord in self.cell_of(record) {
            bytes.extend_from_slice(&coord.to_le_bytes());
        }
        crate::router::fnv1a(&bytes)
    }

    fn name(&self) -> &'static str {
        "grid-blocking"
    }
}

/// Exhaustive "blocking" that proposes every indexed object.  Exact but
/// quadratic; useful for small datasets and as a correctness oracle in tests.
#[derive(Debug, Clone, Default)]
pub struct ExhaustiveBlocking {
    all: BTreeSet<ObjectId>,
}

impl ExhaustiveBlocking {
    /// Create an empty exhaustive index.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BlockingStrategy for ExhaustiveBlocking {
    fn index(&mut self, id: ObjectId, _record: &Record) {
        self.all.insert(id);
    }

    fn unindex(&mut self, id: ObjectId, _record: &Record) {
        self.all.remove(&id);
    }

    fn reset(&mut self) {
        self.all.clear();
    }

    fn candidates(&self, _record: &Record) -> BTreeSet<ObjectId> {
        self.all.clone()
    }

    fn name(&self) -> &'static str {
        "exhaustive"
    }
}

/// Index every object of a dataset into a strategy (convenience helper used
/// when building a graph from scratch).
pub fn index_dataset(strategy: &mut dyn BlockingStrategy, dataset: &Dataset) {
    for (id, record) in dataset.iter() {
        strategy.index(id, record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_types::RecordBuilder;

    fn textual(s: &str) -> Record {
        RecordBuilder::new().text("t", s).build()
    }

    fn numeric(v: Vec<f64>) -> Record {
        RecordBuilder::new().vector(v).build()
    }

    fn oid(raw: u64) -> ObjectId {
        ObjectId::new(raw)
    }

    #[test]
    fn token_blocking_links_records_sharing_tokens() {
        let mut b = TokenBlocking::new(0);
        b.index(oid(1), &textual("rock album beatles"));
        b.index(oid(2), &textual("jazz album davis"));
        b.index(oid(3), &textual("rock single stones"));
        let c = b.candidates(&textual("rock compilation"));
        assert!(c.contains(&oid(1)));
        assert!(c.contains(&oid(3)));
        assert!(!c.contains(&oid(2)));
        assert!(b.block_count() >= 6);
    }

    #[test]
    fn token_blocking_unindex_removes_object() {
        let mut b = TokenBlocking::new(0);
        let r = textual("unique marker token");
        b.index(oid(1), &r);
        assert!(b.candidates(&r).contains(&oid(1)));
        b.unindex(oid(1), &r);
        assert!(b.candidates(&r).is_empty());
        assert_eq!(b.block_count(), 0);
    }

    #[test]
    fn token_blocking_skips_oversized_blocks_when_querying() {
        let mut b = TokenBlocking::new(2);
        for i in 0..5 {
            b.index(oid(i), &textual("common"));
        }
        // "common" block has 5 > 2 members, so it is not used for candidates.
        assert!(b.candidates(&textual("common")).is_empty());
        // But rare tokens still work.
        b.index(oid(10), &textual("rare common"));
        let c = b.candidates(&textual("rare"));
        assert_eq!(c.len(), 1);
        assert!(c.contains(&oid(10)));
    }

    #[test]
    fn grid_blocking_returns_same_and_adjacent_cells() {
        let mut g = GridBlocking::new(1.0, 2);
        g.index(oid(1), &numeric(vec![0.1, 0.1]));
        g.index(oid(2), &numeric(vec![0.9, 0.9])); // same cell as (0.1, 0.1)
        g.index(oid(3), &numeric(vec![1.5, 0.5])); // adjacent cell
        g.index(oid(4), &numeric(vec![5.0, 5.0])); // far away
        let c = g.candidates(&numeric(vec![0.2, 0.2]));
        assert!(c.contains(&oid(1)));
        assert!(c.contains(&oid(2)));
        assert!(c.contains(&oid(3)));
        assert!(!c.contains(&oid(4)));
        assert_eq!(g.cell_count(), 3);
    }

    #[test]
    fn grid_blocking_unindex() {
        let mut g = GridBlocking::new(2.0, 3);
        let r = numeric(vec![1.0, 1.0, 1.0]);
        g.index(oid(7), &r);
        assert_eq!(g.cell_count(), 1);
        g.unindex(oid(7), &r);
        assert_eq!(g.cell_count(), 0);
        assert!(g.candidates(&r).is_empty());
    }

    #[test]
    #[should_panic]
    fn grid_blocking_rejects_zero_width() {
        GridBlocking::new(0.0, 2);
    }

    #[test]
    fn grid_neighbour_enumeration_counts() {
        let cells = GridBlocking::neighbour_cells(&[0, 0]);
        assert_eq!(cells.len(), 9);
        let cells = GridBlocking::neighbour_cells(&[1, 2, 3]);
        assert_eq!(cells.len(), 27);
        assert!(cells.contains(&vec![1, 2, 3]));
        assert!(cells.contains(&vec![0, 1, 2]));
        assert!(cells.contains(&vec![2, 3, 4]));
    }

    #[test]
    fn exhaustive_blocking_returns_everything() {
        let mut e = ExhaustiveBlocking::new();
        e.index(oid(1), &textual("a"));
        e.index(oid(2), &numeric(vec![1.0]));
        assert_eq!(e.candidates(&textual("anything")).len(), 2);
        e.unindex(oid(1), &textual("a"));
        assert_eq!(e.candidates(&textual("anything")).len(), 1);
    }

    #[test]
    fn reset_forgets_every_index_entry() {
        let mut b = TokenBlocking::new(0);
        b.index(oid(1), &textual("alpha beta"));
        b.reset();
        assert_eq!(b.block_count(), 0);
        assert!(b.candidates(&textual("alpha")).is_empty());
        let mut g = GridBlocking::new(1.0, 2);
        g.index(oid(1), &numeric(vec![0.5, 0.5]));
        g.reset();
        assert_eq!(g.cell_count(), 0);
        let mut e = ExhaustiveBlocking::new();
        e.index(oid(1), &textual("x"));
        e.reset();
        assert!(e.candidates(&textual("x")).is_empty());
    }

    #[test]
    fn index_dataset_indexes_every_object() {
        let mut ds = Dataset::new();
        ds.insert(textual("x y"));
        ds.insert(textual("y z"));
        let mut b = TokenBlocking::new(0);
        index_dataset(&mut b, &ds);
        assert_eq!(b.candidates(&textual("y")).len(), 2);
    }
}
