//! The sparse similarity graph.
//!
//! The paper represents the relationships between objects as a weighted
//! graph: an edge between two objects carries their similarity score, and the
//! absence of an edge represents non-similarity (Figure 1).  The
//! [`SimilarityGraph`] materializes exactly that: edges are stored only for
//! pairs whose similarity reaches a configurable threshold, and the graph is
//! maintained *incrementally* as objects are added, removed, and updated —
//! which is what makes the dynamic algorithms cheap relative to recomputing
//! all pairwise similarities.
//!
//! The graph owns a copy of each object's [`Record`] so that it can compute
//! similarities for new candidate pairs without holding a borrow of the
//! [`Dataset`].  When the measure reads text, it also keeps the record's
//! [`TextProfile`], built once when the record enters and dropped when it
//! leaves.

use crate::blocking::BlockingStrategy;
use crate::measures::{EdgeCheck, ScreenTally, SimilarityMeasure};
use crate::profile::{ProfiledRecord, TextProfile};
use dc_types::{Dataset, ObjectId, Operation, OperationBatch, Record};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration for building a [`SimilarityGraph`].
#[derive(Clone)]
pub struct GraphConfig {
    /// Pairwise similarity measure.
    pub measure: Box<dyn SimilarityMeasure>,
    /// Candidate-pair generation strategy.
    pub blocking: Box<dyn BlockingStrategy>,
    /// Minimum similarity for an edge to be stored.  Pairs below the
    /// threshold are treated as similarity 0 by every consumer.
    pub edge_threshold: f64,
}

impl GraphConfig {
    /// Create a configuration from its parts.
    pub fn new(
        measure: Box<dyn SimilarityMeasure>,
        blocking: Box<dyn BlockingStrategy>,
        edge_threshold: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&edge_threshold),
            "edge threshold must be in [0, 1]"
        );
        GraphConfig {
            measure,
            blocking,
            edge_threshold,
        }
    }

    /// Token-Jaccard configuration for textual record-linkage datasets
    /// (Cora-like): Jaccard similarity, token blocking, given threshold.
    pub fn textual_jaccard(edge_threshold: f64) -> Self {
        GraphConfig::new(
            Box::new(crate::measures::JaccardSimilarity),
            Box::new(crate::blocking::TokenBlocking::new(256)),
            edge_threshold,
        )
    }

    /// Trigram-cosine configuration for textual datasets (MusicBrainz-like).
    pub fn textual_trigram(edge_threshold: f64) -> Self {
        GraphConfig::new(
            Box::new(crate::measures::TrigramCosine),
            Box::new(crate::blocking::TokenBlocking::new(256)),
            edge_threshold,
        )
    }

    /// Febrl-style composite (Levenshtein + Jaccard) configuration.
    pub fn textual_febrl(edge_threshold: f64) -> Self {
        GraphConfig::new(
            Box::new(crate::measures::CompositeMeasure::febrl_default()),
            Box::new(crate::blocking::TokenBlocking::new(256)),
            edge_threshold,
        )
    }

    /// Euclidean configuration for numeric datasets (Access/Road-like).
    ///
    /// `scale` is the similarity decay scale; `cell_width` the grid-blocking
    /// cell width (typically a small multiple of `scale`); `dims` the number
    /// of leading vector dimensions used for blocking.
    pub fn numeric_euclidean(
        scale: f64,
        cell_width: f64,
        dims: usize,
        edge_threshold: f64,
    ) -> Self {
        GraphConfig::new(
            Box::new(crate::measures::EuclideanSimilarity::new(scale)),
            Box::new(crate::blocking::GridBlocking::new(cell_width, dims)),
            edge_threshold,
        )
    }

    /// Exact (exhaustive) configuration with a caller-supplied measure; used
    /// in tests and for small datasets where blocking recall matters.
    pub fn exhaustive(measure: Box<dyn SimilarityMeasure>, edge_threshold: f64) -> Self {
        GraphConfig::new(
            measure,
            Box::new(crate::blocking::ExhaustiveBlocking::new()),
            edge_threshold,
        )
    }
}

/// A live object: its record and, when the measure reads text, its profile
/// (boxed, so graphs over measures that read no text pay one pointer).
#[derive(Clone)]
struct Entry {
    record: Record,
    profile: Option<Box<TextProfile>>,
}

impl Entry {
    fn profiled(&self) -> ProfiledRecord<'_> {
        ProfiledRecord::new(&self.record, self.profile.as_deref())
    }
}

/// A dynamically maintained, thresholded, undirected similarity graph.
#[derive(Clone)]
pub struct SimilarityGraph {
    config: GraphConfig,
    records: BTreeMap<ObjectId, Entry>,
    /// Symmetric adjacency: `adj[a][b] == adj[b][a] == sim(a, b)`.
    adj: BTreeMap<ObjectId, BTreeMap<ObjectId, f64>>,
    edge_count: usize,
    comparisons: u64,
}

impl SimilarityGraph {
    /// Create an empty graph with the given configuration.
    ///
    /// The configuration's blocking index is reset on adoption: a config
    /// cloned off a live graph (e.g. [`SimilarityGraph::config`]) carries
    /// that graph's index, and inheriting it would corrupt candidate
    /// generation — the empty graph's index must describe the empty graph.
    pub fn empty(mut config: GraphConfig) -> Self {
        config.blocking.reset();
        SimilarityGraph {
            config,
            records: BTreeMap::new(),
            adj: BTreeMap::new(),
            edge_count: 0,
            comparisons: 0,
        }
    }

    /// Build a graph over every object of a dataset.
    pub fn build(config: GraphConfig, dataset: &Dataset) -> Self {
        let mut graph = SimilarityGraph::empty(config);
        for (id, record) in dataset.iter() {
            graph.add_object(id, record.clone());
        }
        graph
    }

    // ------------------------------------------------------------------
    // Read access
    // ------------------------------------------------------------------

    /// Number of objects in the graph.
    pub fn object_count(&self) -> usize {
        self.records.len()
    }

    /// Number of (undirected) edges at or above the threshold.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of pairwise similarity computations performed so far (a cheap
    /// proxy for work done; used by the benchmark harness).
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Whether the object is present.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.records.contains_key(&id)
    }

    /// The stored record of an object.
    pub fn record(&self, id: ObjectId) -> Option<&Record> {
        self.records.get(&id).map(|e| &e.record)
    }

    /// The stored record of an object with its text profile, as the
    /// measure reads it.
    pub fn profiled(&self, id: ObjectId) -> Option<ProfiledRecord<'_>> {
        self.records.get(&id).map(Entry::profiled)
    }

    /// All object ids in the graph, in id order.
    pub fn object_ids(&self) -> Vec<ObjectId> {
        self.records.keys().copied().collect()
    }

    /// Iterate over the neighbours of `id` with their similarity scores.
    /// Objects with no stored edges yield an empty iterator.
    pub fn neighbors(&self, id: ObjectId) -> impl Iterator<Item = (ObjectId, f64)> + '_ {
        self.adj
            .get(&id)
            .into_iter()
            .flat_map(|m| m.iter().map(|(&o, &s)| (o, s)))
    }

    /// Number of neighbours of `id`.
    pub fn degree(&self, id: ObjectId) -> usize {
        self.adj.get(&id).map_or(0, BTreeMap::len)
    }

    /// Stored similarity between two objects (0 when below threshold, when
    /// either object is unknown, or when `a == b`; identical objects do not
    /// need an edge).
    pub fn similarity(&self, a: ObjectId, b: ObjectId) -> f64 {
        if a == b {
            return 0.0;
        }
        self.adj
            .get(&a)
            .and_then(|m| m.get(&b))
            .copied()
            .unwrap_or(0.0)
    }

    /// Compute the similarity of two records with the configured measure
    /// (bypassing the threshold and the stored edges).
    pub fn raw_similarity(&self, a: &Record, b: &Record) -> f64 {
        self.config.measure.similarity(a, b)
    }

    /// Evaluate a pair against the edge threshold with the configured
    /// measure — the exact similarity, or [`EdgeCheck::Screened`] when a
    /// cheap bound rules the edge out.  Counts nothing.
    pub fn check_edge(&self, a: ProfiledRecord<'_>, b: ProfiledRecord<'_>) -> EdgeCheck {
        self.config
            .measure
            .check_edge(a, b, self.config.edge_threshold)
    }

    /// The edge threshold.
    pub fn edge_threshold(&self) -> f64 {
        self.config.edge_threshold
    }

    /// The full configuration (measure, blocking, threshold).  Cloning it
    /// yields a config equivalent to the one the graph was built with —
    /// which is exactly what [`SimilarityGraph::import_state`] needs to
    /// reconstruct a snapshotted graph.
    pub fn config(&self) -> &GraphConfig {
        &self.config
    }

    /// Iterate over every stored edge exactly once, as `(a, b, similarity)`
    /// triples with `a < b`, in lexicographic order.  This is the canonical
    /// edge enumeration used by snapshotting and by consumers that need each
    /// unordered pair once.
    pub fn edges(&self) -> impl Iterator<Item = (ObjectId, ObjectId, f64)> + '_ {
        self.adj.iter().flat_map(|(&a, neigh)| {
            neigh
                .iter()
                .filter(move |(&b, _)| b > a)
                .map(move |(&b, &s)| (a, b, s))
        })
    }

    /// The connected components of the graph (isolated objects form their own
    /// components).  Components are the "natural" candidate entity groups and
    /// are used to identify *active* clusters during negative sampling (§5.3).
    pub fn connected_components(&self) -> Vec<BTreeSet<ObjectId>> {
        let mut visited: BTreeSet<ObjectId> = BTreeSet::new();
        let mut components = Vec::new();
        for &start in self.records.keys() {
            if visited.contains(&start) {
                continue;
            }
            let mut component = BTreeSet::new();
            let mut stack = vec![start];
            while let Some(node) = stack.pop() {
                if !visited.insert(node) {
                    continue;
                }
                component.insert(node);
                if let Some(neigh) = self.adj.get(&node) {
                    for &n in neigh.keys() {
                        if !visited.contains(&n) {
                            stack.push(n);
                        }
                    }
                }
            }
            components.push(component);
        }
        components
    }

    // ------------------------------------------------------------------
    // Incremental maintenance
    // ------------------------------------------------------------------

    /// Add an object and connect it to every candidate whose similarity
    /// reaches the threshold.  Adding an id that already exists replaces it
    /// (equivalent to [`SimilarityGraph::update_object`]).  Returns the live
    /// candidates the record was compared against, in id order — one per
    /// comparison this call counted.
    pub fn add_object(&mut self, id: ObjectId, record: Record) -> Vec<ObjectId> {
        if self.records.contains_key(&id) {
            self.remove_object(id);
        }
        let candidates = self.config.blocking.candidates(&record);
        self.config.blocking.index(id, &record);
        let entry = self.entry(record);
        let threshold = self.config.edge_threshold;
        let mut tally = ScreenTally::default();
        let mut edges: Vec<(ObjectId, f64)> = Vec::new();
        let mut compared = Vec::new();
        for cand in candidates {
            if cand == id {
                continue;
            }
            let Some(other) = self.records.get(&cand) else {
                continue;
            };
            self.comparisons += 1;
            compared.push(cand);
            let check =
                self.config
                    .measure
                    .check_edge(entry.profiled(), other.profiled(), threshold);
            if let Some(sim) = tally.edge(check, threshold) {
                edges.push((cand, sim));
            }
        }
        tally.record();
        self.records.insert(id, entry);
        self.adj.entry(id).or_default();
        for (other, sim) in edges {
            self.adj.entry(id).or_default().insert(other, sim);
            self.adj.entry(other).or_default().insert(id, sim);
            self.edge_count += 1;
        }
        compared
    }

    /// Wrap a record for storage, profiling it when the measure reads text.
    fn entry(&self, record: Record) -> Entry {
        let profile = self
            .config
            .measure
            .reads_text()
            .then(|| Box::new(TextProfile::of(&record)));
        Entry { record, profile }
    }

    /// Remove an object and all of its edges.  Unknown ids are ignored.
    pub fn remove_object(&mut self, id: ObjectId) {
        let Some(Entry { record, .. }) = self.records.remove(&id) else {
            return;
        };
        self.config.blocking.unindex(id, &record);
        if let Some(neighbors) = self.adj.remove(&id) {
            self.edge_count -= neighbors.len();
            for (other, _) in neighbors {
                if let Some(m) = self.adj.get_mut(&other) {
                    m.remove(&id);
                }
            }
        }
    }

    /// Replace an object's record and recompute its edges.
    pub fn update_object(&mut self, id: ObjectId, record: Record) {
        self.add_object(id, record);
    }

    /// Apply one dynamic-workload operation.  Returns the candidates an
    /// added or updated record was compared against (see
    /// [`SimilarityGraph::add_object`]); empty for a removal.
    pub fn apply_operation(&mut self, op: &Operation) -> Vec<ObjectId> {
        match op {
            Operation::Add { id, record } | Operation::Update { id, record } => {
                self.add_object(*id, record.clone())
            }
            Operation::Remove { id } => {
                self.remove_object(*id);
                Vec::new()
            }
        }
    }

    /// Apply every operation of a batch, in order.
    pub fn apply_batch(&mut self, batch: &OperationBatch) {
        for op in batch.iter() {
            self.apply_operation(op);
        }
    }

    /// The candidate ids the blocking strategy would propose for `record`
    /// against the current index — exactly the set
    /// [`SimilarityGraph::add_object`] would compare against (possibly
    /// including dead ids or the queried id itself; callers filter).
    pub fn candidate_ids(&self, record: &Record) -> BTreeSet<ObjectId> {
        self.config.blocking.candidates(record)
    }

    // ------------------------------------------------------------------
    // Mirror maintenance (similarities supplied by the caller)
    // ------------------------------------------------------------------

    /// Install a record **without computing any similarity** and without
    /// touching the comparison counter.  Returns `false` (and does nothing)
    /// when the id is already present.
    ///
    /// This is the *mirror* maintenance hook: the cross-shard refinement
    /// layer keeps a global union graph whose records and edge weights are
    /// copied verbatim from the per-shard graphs (which already paid for the
    /// similarity computations), so the mirror must never recompute or
    /// re-count work.  Pair with [`SimilarityGraph::install_edge`].
    pub fn install_record(&mut self, id: ObjectId, record: Record) -> bool {
        if self.records.contains_key(&id) {
            return false;
        }
        self.restore_record(id, record);
        true
    }

    /// Install an edge with a caller-supplied similarity (both directions),
    /// without computing or counting anything.  Returns `false` when the
    /// edge already exists.  Both endpoints must be present.
    pub fn install_edge(&mut self, a: ObjectId, b: ObjectId, sim: f64) -> bool {
        assert!(
            a != b && self.records.contains_key(&a) && self.records.contains_key(&b),
            "install_edge requires two distinct live endpoints"
        );
        self.restore_edge(a, b, sim)
    }

    // ------------------------------------------------------------------
    // Snapshot restoration (see `persist`)
    // ------------------------------------------------------------------

    /// Install a record without computing any similarity, indexing it into
    /// the blocking strategy.  Returns the previous record if the id was
    /// already present (which import treats as corruption).
    pub(crate) fn restore_record(&mut self, id: ObjectId, record: Record) -> Option<Record> {
        self.config.blocking.index(id, &record);
        self.adj.entry(id).or_default();
        let entry = self.entry(record);
        self.records.insert(id, entry).map(|e| e.record)
    }

    /// Install a stored edge verbatim (both directions).  Returns false when
    /// the edge already exists.
    pub(crate) fn restore_edge(&mut self, a: ObjectId, b: ObjectId, sim: f64) -> bool {
        if self.adj.get(&a).is_some_and(|m| m.contains_key(&b)) {
            return false;
        }
        self.adj.entry(a).or_default().insert(b, sim);
        self.adj.entry(b).or_default().insert(a, sim);
        self.edge_count += 1;
        true
    }

    /// Restore the comparison counter recorded in a snapshot.
    pub(crate) fn restore_comparisons(&mut self, comparisons: u64) {
        self.comparisons = comparisons;
    }
}

impl std::fmt::Debug for SimilarityGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimilarityGraph")
            .field("objects", &self.object_count())
            .field("edges", &self.edge_count())
            .field("threshold", &self.config.edge_threshold)
            .field("measure", &self.config.measure.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_types::RecordBuilder;

    fn oid(raw: u64) -> ObjectId {
        ObjectId::new(raw)
    }

    fn textual(s: &str) -> Record {
        RecordBuilder::new().text("t", s).build()
    }

    fn numeric(v: Vec<f64>) -> Record {
        RecordBuilder::new().vector(v).build()
    }

    fn textual_graph() -> SimilarityGraph {
        let mut ds = Dataset::new();
        ds.insert_with_id(oid(1), textual("dynamic clustering for databases"))
            .unwrap();
        ds.insert_with_id(oid(2), textual("dynamic clustering for streams"))
            .unwrap();
        ds.insert_with_id(oid(3), textual("totally unrelated subject"))
            .unwrap();
        SimilarityGraph::build(GraphConfig::textual_jaccard(0.3), &ds)
    }

    #[test]
    fn build_creates_edges_above_threshold_only() {
        let g = textual_graph();
        assert_eq!(g.object_count(), 3);
        assert!(g.similarity(oid(1), oid(2)) > 0.3);
        assert_eq!(g.similarity(oid(1), oid(3)), 0.0);
        assert_eq!(g.similarity(oid(1), oid(1)), 0.0);
        assert_eq!(g.edge_count(), 1);
        assert!(g.comparisons() > 0);
    }

    #[test]
    fn similarity_is_symmetric_in_storage() {
        let g = textual_graph();
        assert_eq!(g.similarity(oid(1), oid(2)), g.similarity(oid(2), oid(1)));
        assert_eq!(g.degree(oid(1)), 1);
        assert_eq!(g.degree(oid(3)), 0);
    }

    #[test]
    fn add_and_remove_maintain_edges() {
        let mut g = textual_graph();
        g.add_object(oid(4), textual("dynamic clustering approaches"));
        assert!(g.similarity(oid(4), oid(1)) > 0.0);
        assert!(g.similarity(oid(4), oid(2)) > 0.0);
        let edges_before = g.edge_count();
        g.remove_object(oid(4));
        assert!(!g.contains(oid(4)));
        assert_eq!(g.similarity(oid(4), oid(1)), 0.0);
        assert!(g.edge_count() < edges_before);
        // Removing twice is a no-op.
        g.remove_object(oid(4));
        assert_eq!(g.object_count(), 3);
    }

    #[test]
    fn update_recomputes_edges() {
        let mut g = textual_graph();
        assert!(g.similarity(oid(2), oid(1)) > 0.0);
        g.update_object(oid(2), textual("a completely different topic now"));
        assert_eq!(g.similarity(oid(2), oid(1)), 0.0);
        assert_eq!(g.object_count(), 3);
    }

    #[test]
    fn apply_batch_mirrors_dataset_mutations() {
        let mut g = SimilarityGraph::empty(GraphConfig::textual_jaccard(0.2));
        let mut batch = OperationBatch::new();
        batch.push(Operation::Add {
            id: oid(1),
            record: textual("alpha beta"),
        });
        batch.push(Operation::Add {
            id: oid(2),
            record: textual("alpha gamma"),
        });
        batch.push(Operation::Add {
            id: oid(3),
            record: textual("delta epsilon"),
        });
        batch.push(Operation::Update {
            id: oid(3),
            record: textual("alpha epsilon"),
        });
        batch.push(Operation::Remove { id: oid(2) });
        g.apply_batch(&batch);
        assert_eq!(g.object_count(), 2);
        assert!(g.similarity(oid(1), oid(3)) > 0.0);
    }

    #[test]
    fn numeric_graph_with_grid_blocking() {
        let mut ds = Dataset::new();
        ds.insert_with_id(oid(1), numeric(vec![0.0, 0.0])).unwrap();
        ds.insert_with_id(oid(2), numeric(vec![0.2, 0.1])).unwrap();
        ds.insert_with_id(oid(3), numeric(vec![10.0, 10.0]))
            .unwrap();
        let g = SimilarityGraph::build(GraphConfig::numeric_euclidean(1.0, 2.0, 2, 0.4), &ds);
        assert!(g.similarity(oid(1), oid(2)) > 0.4);
        assert_eq!(g.similarity(oid(1), oid(3)), 0.0);
    }

    #[test]
    fn connected_components_partition_objects() {
        let g = textual_graph();
        let comps = g.connected_components();
        assert_eq!(comps.len(), 2);
        let total: usize = comps.iter().map(BTreeSet::len).sum();
        assert_eq!(total, 3);
        let big = comps.iter().find(|c| c.len() == 2).unwrap();
        assert!(big.contains(&oid(1)) && big.contains(&oid(2)));
    }

    #[test]
    fn re_adding_an_existing_id_replaces_it() {
        let mut g = textual_graph();
        g.add_object(oid(3), textual("dynamic clustering for databases too"));
        assert_eq!(g.object_count(), 3);
        assert!(g.similarity(oid(3), oid(1)) > 0.0);
    }

    #[test]
    fn exhaustive_config_compares_all_pairs() {
        let mut ds = Dataset::new();
        for i in 0..5u64 {
            ds.insert_with_id(oid(i), textual(&format!("record {i}")))
                .unwrap();
        }
        let g = SimilarityGraph::build(
            GraphConfig::exhaustive(Box::new(crate::measures::JaccardSimilarity), 0.1),
            &ds,
        );
        // "record" is shared by all pairs.
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    fn debug_format_mentions_measure() {
        let g = textual_graph();
        let s = format!("{g:?}");
        assert!(s.contains("jaccard"));
    }
}
