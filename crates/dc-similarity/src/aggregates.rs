//! Cluster-level similarity aggregates, maintained incrementally.
//!
//! The paper's features (§5.1) and objective functions (§3.2) are all built
//! from a small number of cluster-level aggregates of the similarity graph:
//!
//! * **intra-cluster similarity** — the sum (or average) of the similarities
//!   between members of one cluster;
//! * **inter-cluster similarity** — the sum (or average) of the similarities
//!   between members of two different clusters;
//! * **maximal inter-cluster similarity** — the largest *average*
//!   inter-similarity between a cluster and any other cluster, together with
//!   the identity of that most-similar neighbour;
//! * **object weight** — the average similarity between one object and the
//!   rest of its cluster, which drives the split heuristic of §6.3.
//!
//! [`ClusterAggregates`] *owns* the materialized per-cluster state: intra
//! sums, cluster sizes, and the symmetric per-cluster-pair cross-edge sums.
//! A full build ([`ClusterAggregates::new`]) walks every stored edge once —
//! O(E) — and every structural change afterwards is folded in by a delta
//! update whose cost is proportional to the degree of the touched members:
//!
//! * [`ClusterAggregates::apply_merge`] — O(neighbour clusters of both sides);
//! * [`ClusterAggregates::apply_split`] — O(Σ degree of the split cluster's
//!   members);
//! * [`ClusterAggregates::apply_move`] — O(degree of the moved object +
//!   neighbour clusters of its source and target);
//! * [`ClusterAggregates::apply_op`] — O(degree of the touched object).
//!
//! Merges, splits and moves are computed as an [`AggregateEdit`] first — the
//! full after-state of every cluster the change replaces — and then
//! installed.  The same edit serves objective deltas that must know the
//! after-state without mutating the aggregate ([`ClusterAggregates::merge_edit`],
//! [`ClusterAggregates::split_edit`], [`ClusterAggregates::move_edit`]), so a
//! simulated change and an applied one share their arithmetic bit for bit.
//!
//! This is the invariant the serving path relies on: `merge_pass`,
//! `split_pass`, and the `Engine` round loop thread **one** maintained
//! aggregate through all candidate evaluations instead of rebuilding from
//! scratch per candidate.  [`full_build_count`] counts the O(E) builds per
//! thread so tests and benches can assert the serving path stays on the
//! incremental path.
//!
//! Per-object quantities (cohesion, split weights) depend on one object's
//! edges only; they are exposed as associated functions that walk the graph
//! directly and need no materialized state.

use crate::graph::SimilarityGraph;
use dc_types::{Cluster, ClusterId, Clustering, ObjectId, Operation, OperationBatch};
use std::any::Any;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Cross-edge sums whose absolute value falls below this after a subtraction
/// are treated as zero and pruned: stored edges always have strictly positive
/// similarity, so a residue this small can only be floating-point noise left
/// behind by an incremental update.
const RESIDUE_EPSILON: f64 = 1e-9;

/// What [`ClusterAggregates::apply_op`] did with one operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppliedOp {
    /// Whether the object entered the clustering as a fresh singleton.
    pub isolated: bool,
    /// The live candidates the op's new record was compared against, in id
    /// order (see [`SimilarityGraph::add_object`]); empty for a removal.
    pub compared: Vec<ObjectId>,
}

/// Telemetry counter name under which full O(E) builds are counted.
///
/// The counter is recorded **unconditionally** (telemetry off included) via
/// `dc_telemetry::Registry::add_always`, because equivalence tests and bench
/// gates assert exact build counts without enabling telemetry.  Full builds
/// are O(E)-rare events, so the unconditional count is free by comparison.
pub const FULL_BUILDS_COUNTER: &str = "aggregates.full_builds";

/// Number of full O(E) [`ClusterAggregates::new`] builds performed by the
/// current thread since it started.  Diagnostics for tests and benches: the
/// serving path is expected to build once per round (or never, inside an
/// `Engine`), and this counter is how that contract is enforced.
///
/// Backed by the thread-local [`dc_telemetry`] registry under
/// [`FULL_BUILDS_COUNTER`], so the count also shows up in telemetry
/// snapshots and merges across the sharded engine's worker threads along
/// with every other metric.
pub fn full_build_count() -> u64 {
    dc_telemetry::registry().counter(FULL_BUILDS_COUNTER)
}

/// Scoped access to the full-build diagnostic counter.
///
/// Tests and benches used to bracket code with manual
/// `let before = full_build_count(); ...; full_build_count() - before`
/// arithmetic; [`BuildCounter::scope`] packages that pattern.
///
/// # Thread locality
///
/// The underlying counter is **thread-local**: it counts only the builds
/// performed by the calling thread, which makes count assertions safe under
/// `cargo test`'s parallel test execution.  Two contracts follow:
///
/// 1. the closure must perform its builds *on the calling thread* — builds
///    delegated to other threads are invisible to the scope;
/// 2. a scope never observes builds from concurrently running tests, so the
///    returned delta is exact, not approximate.
pub struct BuildCounter;

impl BuildCounter {
    /// Run `f` and return `(f's result, number of full O(E) aggregate builds
    /// the calling thread performed inside the closure)`.
    pub fn scope<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let before = full_build_count();
        let result = f();
        (result, full_build_count() - before)
    }

    /// Fold builds observed on *worker* threads into the calling thread's
    /// counter.
    ///
    /// Contract 1 above means builds delegated to other threads are
    /// invisible to a [`BuildCounter::scope`] on the spawning thread — a
    /// sharded round that fans `apply_round` calls out to a thread pool
    /// would under-report its builds.  The fix is cooperative: each worker
    /// measures its own builds (its counter starts at whatever it was when
    /// the worker last reported; scoped pools use fresh threads, so a plain
    /// [`full_build_count`] works too) and the spawning thread merges the
    /// returned deltas here, keeping scope-based assertions exact across the
    /// fan-out.
    pub fn merge_from_threads(builds: u64) {
        dc_telemetry::registry().add_always(FULL_BUILDS_COUNTER, builds);
    }
}

/// Materialized cluster-level aggregates for one
/// `(similarity graph, clustering)` pair, maintained incrementally.
///
/// The structure stores, for every live cluster, its size, the sum of its
/// intra-cluster edge similarities, and a map from each neighbouring cluster
/// to the total similarity of the edges crossing into it (kept exactly
/// symmetric).  All read accessors are O(log n) lookups or walks of the
/// materialized maps — no graph edges are touched.
#[derive(Debug, Clone, Default)]
pub struct ClusterAggregates {
    /// Cluster sizes (mirror of the clustering).
    sizes: BTreeMap<ClusterId, usize>,
    /// `Σ sim` over stored intra-cluster edges, per cluster.
    intra: BTreeMap<ClusterId, f64>,
    /// Symmetric cross-edge sums: `inter[a][b] == inter[b][a] == Σ sim` over
    /// stored edges with one endpoint in `a` and the other in `b`.
    inter: BTreeMap<ClusterId, BTreeMap<ClusterId, f64>>,
    /// A value derived from exactly this state (see
    /// [`ClusterAggregates::memo`]); every `&mut self` method drops it.
    memo: OnceLock<Arc<dyn Any + Send + Sync>>,
}

/// The state [`ClusterAggregates`] keeps for one cluster.
#[derive(Debug, Clone)]
pub struct ClusterParts {
    /// Number of members.
    pub size: usize,
    /// `Σ sim` over stored edges between members.
    pub intra: f64,
    /// Cross-edge sums to every neighbouring cluster.
    pub inter: BTreeMap<ClusterId, f64>,
}

/// A merge, split or move computed against an aggregate but not applied:
/// the `retired` clusters leave, and each `installed` cluster (which may
/// reuse a retired id) enters with its complete after-state.  Installing an
/// edit also mirrors every installed cross-edge sum into the neighbour's
/// column, so no other cluster's own sums change.
#[derive(Debug, Clone, Default)]
pub struct AggregateEdit {
    /// Clusters whose current state the change replaces or removes.
    pub retired: Vec<ClusterId>,
    /// Clusters present after the change, with their full state.
    pub installed: Vec<(ClusterId, ClusterParts)>,
}

impl ClusterAggregates {
    /// Full build: walk every stored edge of the graph once — O(E).
    ///
    /// Edges with an unclustered endpoint are ignored, exactly as every
    /// consumer of the aggregates expects.
    pub fn new(graph: &SimilarityGraph, clustering: &Clustering) -> Self {
        dc_telemetry::registry().add_always(FULL_BUILDS_COUNTER, 1);
        let mut agg = ClusterAggregates::default();
        for (cid, cluster) in clustering.iter() {
            agg.sizes.insert(cid, cluster.len());
            agg.intra.insert(cid, 0.0);
            agg.inter.insert(cid, BTreeMap::new());
        }
        // Visit each unordered edge exactly once (b > a) so the symmetric
        // inter entries receive bit-identical sums on both sides.
        for a in clustering.object_ids() {
            let Some(ca) = clustering.cluster_of(a) else {
                continue;
            };
            for (b, sim) in graph.neighbors(a) {
                if b <= a {
                    continue;
                }
                match clustering.cluster_of(b) {
                    Some(cb) if cb == ca => {
                        *agg.intra.entry(ca).or_insert(0.0) += sim;
                    }
                    Some(cb) => {
                        agg.add_inter(ca, cb, sim);
                    }
                    None => {}
                }
            }
        }
        agg
    }

    /// An empty aggregate (the state of an [`ClusterAggregates::new`] over an
    /// empty clustering, without counting as a full build).
    pub fn empty() -> Self {
        ClusterAggregates::default()
    }

    /// Union several aggregates over **disjoint cluster-id sets** into one —
    /// the global view of a sharded engine's per-shard aggregates.
    ///
    /// Deliberately *not* counted as a full build: no graph edge is walked;
    /// the per-cluster sums are copied with their exact bits, which is what
    /// keeps the cross-shard refinement pass's decisions deterministic.
    /// Edges *between* the parts (which no part can know about) are injected
    /// afterwards with [`ClusterAggregates::add_inter_edge`].
    ///
    /// # Panics
    ///
    /// Panics when two parts track the same cluster id.
    pub fn union<'a>(parts: impl IntoIterator<Item = &'a ClusterAggregates>) -> Self {
        let mut out = ClusterAggregates::default();
        for part in parts {
            for (&cid, &size) in &part.sizes {
                assert!(
                    out.sizes.insert(cid, size).is_none(),
                    "cluster {cid} is tracked by more than one aggregate part"
                );
            }
            for (&cid, &sum) in &part.intra {
                out.intra.insert(cid, sum);
            }
            for (&cid, map) in &part.inter {
                out.inter.insert(cid, map.clone());
            }
        }
        out
    }

    /// Fold one stored edge between members of two **distinct, tracked**
    /// clusters into the symmetric cross-edge sums.  The cross-shard
    /// refinement pass uses this to make recovered cross-shard edges visible
    /// to features and objective deltas.
    ///
    /// # Panics
    ///
    /// Panics when `a == b` or either cluster is untracked (a cross-shard
    /// edge always lands between two live clusters of different shards).
    pub fn add_inter_edge(&mut self, a: ClusterId, b: ClusterId, sim: f64) {
        self.memo.take();
        assert!(
            a != b && self.sizes.contains_key(&a) && self.sizes.contains_key(&b),
            "add_inter_edge requires two distinct tracked clusters"
        );
        self.add_inter(a, b, sim);
    }

    // ------------------------------------------------------------------
    // Read access
    // ------------------------------------------------------------------

    /// Number of live clusters.
    pub fn cluster_count(&self) -> usize {
        self.sizes.len()
    }

    /// All live cluster ids in id order.
    pub fn cluster_ids(&self) -> Vec<ClusterId> {
        self.sizes.keys().copied().collect()
    }

    /// Whether the cluster is tracked.
    pub fn contains_cluster(&self, cid: ClusterId) -> bool {
        self.sizes.contains_key(&cid)
    }

    /// The largest tracked cluster id, if any.  Simulation code uses this to
    /// pick scratch ids guaranteed not to collide with live clusters.
    pub fn max_cluster_id(&self) -> Option<ClusterId> {
        self.sizes.last_key_value().map(|(&c, _)| c)
    }

    /// A value derived from exactly this aggregate state, built by `build`
    /// on first use and cached until the next mutation: every `&mut self`
    /// method drops it, so a stale value is never returned.  There is one
    /// slot per aggregate; `None` means it already holds a value of another
    /// type, and the caller computes uncached.
    pub fn memo<T: Any + Send + Sync>(&self, build: impl FnOnce(&Self) -> T) -> Option<&T> {
        let slot = self
            .memo
            .get_or_init(|| Arc::new(build(self)) as Arc<dyn Any + Send + Sync>);
        (**slot).downcast_ref()
    }

    /// Size of cluster `cid` (0 if absent).
    pub fn cluster_size(&self, cid: ClusterId) -> usize {
        self.sizes.get(&cid).copied().unwrap_or(0)
    }

    /// Sum of pairwise similarities between members of the cluster
    /// (`S_intra(C)` of §3.2, in its *sum* form).
    pub fn intra_sum(&self, cid: ClusterId) -> f64 {
        self.intra.get(&cid).copied().unwrap_or(0.0)
    }

    /// Average pairwise similarity inside the cluster.  Singleton clusters
    /// are defined to have cohesion 1 (they cannot be any more cohesive),
    /// which keeps the feature `f1 ∈ [0, 1]` of §5.2 well defined for the
    /// fresh singleton clusters created by initial processing (§6.1).
    /// Unknown clusters score 0.
    pub fn intra_avg(&self, cid: ClusterId) -> f64 {
        let Some(&n) = self.sizes.get(&cid) else {
            return 0.0;
        };
        Self::intra_avg_of_sum(n, self.intra_sum(cid))
    }

    /// Average pairwise similarity of a cluster with `size` members whose
    /// intra sum is `intra`, under the conventions of
    /// [`ClusterAggregates::intra_avg`] (1 for a singleton).
    pub fn intra_avg_of_sum(size: usize, intra: f64) -> f64 {
        if size <= 1 {
            return 1.0;
        }
        let pairs = (size * (size - 1) / 2) as f64;
        intra / pairs
    }

    /// Sum of similarities across two distinct clusters (`S_inter(C, C')`).
    pub fn inter_sum(&self, a: ClusterId, b: ClusterId) -> f64 {
        if a == b {
            return 0.0;
        }
        self.inter
            .get(&a)
            .and_then(|m| m.get(&b))
            .copied()
            .unwrap_or(0.0)
    }

    /// Average similarity across two distinct clusters (sum divided by the
    /// number of cross pairs `|C|·|C'|`).
    pub fn inter_avg(&self, a: ClusterId, b: ClusterId) -> f64 {
        if a == b {
            return 0.0;
        }
        let (Some(&sa), Some(&sb)) = (self.sizes.get(&a), self.sizes.get(&b)) else {
            return 0.0;
        };
        let pairs = (sa * sb) as f64;
        if pairs == 0.0 {
            0.0
        } else {
            self.inter_sum(a, b) / pairs
        }
    }

    /// Per-neighbour-cluster sums of cross-edge similarity for cluster `cid`:
    /// `(neighbour cluster id, Σ sim)` over stored edges leaving the cluster,
    /// in cluster-id order.
    pub fn neighbour_cluster_sums(
        &self,
        cid: ClusterId,
    ) -> impl Iterator<Item = (ClusterId, f64)> + '_ {
        self.inter
            .get(&cid)
            .into_iter()
            .flat_map(|m| m.iter().map(|(&c, &s)| (c, s)))
    }

    /// Clusters that share at least one stored edge with `cid`.
    pub fn neighbour_clusters(&self, cid: ClusterId) -> Vec<ClusterId> {
        self.neighbour_cluster_sums(cid).map(|(c, _)| c).collect()
    }

    /// The maximal *average* inter-similarity between `cid` and any other
    /// cluster, together with the neighbour attaining it (`f2` and the source
    /// of `f4` of §5.2).  Returns `None` when the cluster has no cross edges.
    pub fn max_inter_avg(&self, cid: ClusterId) -> Option<(ClusterId, f64)> {
        let size = self.cluster_size(cid);
        if size == 0 {
            return None;
        }
        let mut best: Option<(ClusterId, f64)> = None;
        for (other, sum) in self.neighbour_cluster_sums(cid) {
            let other_size = self.cluster_size(other);
            if other_size == 0 {
                continue;
            }
            let avg = sum / (size * other_size) as f64;
            match best {
                Some((_, b)) if b >= avg => {}
                _ => best = Some((other, avg)),
            }
        }
        best
    }

    // ------------------------------------------------------------------
    // Structural changes as edits
    // ------------------------------------------------------------------

    /// The current state of cluster `cid` (empty when untracked).
    fn parts(&self, cid: ClusterId) -> ClusterParts {
        ClusterParts {
            size: self.cluster_size(cid),
            intra: self.intra_sum(cid),
            inter: self.inter.get(&cid).cloned().unwrap_or_default(),
        }
    }

    /// The edit merging clusters `a` and `b` into `merged`.
    ///
    /// Cost: O(number of neighbour clusters of `a` and `b`) — no graph edges
    /// are touched, because a merge only re-labels existing sums.
    pub fn merge_edit(&self, a: ClusterId, b: ClusterId, merged: ClusterId) -> AggregateEdit {
        let mut inter: BTreeMap<ClusterId, f64> = BTreeMap::new();
        for (x, s) in self
            .neighbour_cluster_sums(a)
            .chain(self.neighbour_cluster_sums(b))
        {
            if x != a && x != b {
                *inter.entry(x).or_insert(0.0) += s;
            }
        }
        let parts = ClusterParts {
            size: self.cluster_size(a) + self.cluster_size(b),
            intra: self.intra_sum(a) + self.intra_sum(b) + self.inter_sum(a, b),
            inter,
        };
        AggregateEdit {
            retired: vec![a, b],
            installed: vec![(merged, parts)],
        }
    }

    /// The edit splitting cluster `original` into `part_id` (members `part`)
    /// and `rest_id` (members `rest`).  `clustering` may reflect the state
    /// before or after the split: it is consulted only for objects outside
    /// `part ∪ rest`, whose membership a split does not change.  A side with
    /// no members is not installed.
    ///
    /// Cost: O(Σ degree of the split cluster's members).  Both sides are
    /// recomputed fresh from their members' edges, which leaves no residue.
    #[allow(clippy::too_many_arguments)]
    pub fn split_edit(
        &self,
        graph: &SimilarityGraph,
        clustering: &Clustering,
        original: ClusterId,
        part_id: ClusterId,
        part: &BTreeSet<ObjectId>,
        rest_id: ClusterId,
        rest: &BTreeSet<ObjectId>,
    ) -> AggregateEdit {
        let mut intra_part = 0.0;
        let mut cross = 0.0;
        let mut part_out: BTreeMap<ClusterId, f64> = BTreeMap::new();
        for &a in part {
            for (b, sim) in graph.neighbors(a) {
                if part.contains(&b) {
                    if b > a {
                        intra_part += sim;
                    }
                } else if rest.contains(&b) {
                    cross += sim;
                } else if let Some(x) = clustering.cluster_of(b) {
                    *part_out.entry(x).or_insert(0.0) += sim;
                }
            }
        }
        let mut intra_rest = 0.0;
        let mut rest_out: BTreeMap<ClusterId, f64> = BTreeMap::new();
        for &a in rest {
            for (b, sim) in graph.neighbors(a) {
                if rest.contains(&b) {
                    if b > a {
                        intra_rest += sim;
                    }
                } else if !part.contains(&b) {
                    if let Some(x) = clustering.cluster_of(b) {
                        *rest_out.entry(x).or_insert(0.0) += sim;
                    }
                }
            }
        }
        if cross > 0.0 {
            part_out.insert(rest_id, cross);
            rest_out.insert(part_id, cross);
        }
        let sides = [
            (part_id, part.len(), intra_part, part_out),
            (rest_id, rest.len(), intra_rest, rest_out),
        ];
        AggregateEdit {
            retired: vec![original],
            installed: sides
                .into_iter()
                .filter(|&(_, size, _, _)| size > 0)
                .map(|(cid, size, intra, inter)| (cid, ClusterParts { size, intra, inter }))
                .collect(),
        }
    }

    /// The edit moving object `oid` from cluster `from` into cluster `to`.
    /// `clustering` may reflect the state before or after the move: only the
    /// memberships of `oid`'s *neighbours* are consulted, and a move changes
    /// none of them.  If `from` is left empty it is retired, matching
    /// [`Clustering::move_object`].
    ///
    /// Cost: O(degree of `oid` + neighbour clusters of `from` and `to`).
    pub fn move_edit(
        &self,
        graph: &SimilarityGraph,
        clustering: &Clustering,
        oid: ObjectId,
        from: ClusterId,
        to: ClusterId,
    ) -> AggregateEdit {
        if from == to {
            return AggregateEdit::default();
        }
        // Per-neighbour-cluster similarity sums of the moved object.
        let mut sums: BTreeMap<ClusterId, f64> = BTreeMap::new();
        for (n, sim) in graph.neighbors(oid) {
            if n == oid {
                continue;
            }
            if let Some(cn) = clustering.cluster_of(n) {
                *sums.entry(cn).or_insert(0.0) += sim;
            }
        }
        let to_from = sums.get(&from).copied().unwrap_or(0.0);
        let to_to = sums.get(&to).copied().unwrap_or(0.0);
        let mut source = self.parts(from);
        let mut target = self.parts(to);

        // Edges to members of `from` flip intra → cross; edges to members of
        // `to` flip cross → intra; edges to any other cluster X move from
        // `from`'s column to `to`'s.
        source.intra = residue_sub(source.intra, to_from).unwrap_or(0.0);
        target.intra += to_to;
        for (&x, &s) in &sums {
            if x == from || x == to {
                continue;
            }
            sub_sum(&mut source.inter, x, s);
            add_sum(&mut target.inter, x, s);
        }
        sub_sum(&mut source.inter, to, to_to);
        add_sum(&mut source.inter, to, to_from);
        target.size += 1;
        if source.size <= 1 {
            target.inter.remove(&from);
            return AggregateEdit {
                retired: vec![from, to],
                installed: vec![(to, target)],
            };
        }
        match source.inter.get(&to) {
            Some(&s) => target.inter.insert(from, s),
            None => target.inter.remove(&from),
        };
        source.size -= 1;
        AggregateEdit {
            retired: vec![from, to],
            installed: vec![(from, source), (to, target)],
        }
    }

    /// Install an edit: retire its clusters, detaching them from their
    /// neighbours, then insert every installed cluster and mirror its
    /// cross-edge sums into the neighbours' columns.
    fn apply_edit(&mut self, edit: AggregateEdit) {
        self.memo.take();
        for cid in edit.retired {
            self.drop_cluster(cid);
        }
        for (cid, parts) in edit.installed {
            for (&x, &s) in &parts.inter {
                self.inter.entry(x).or_default().insert(cid, s);
            }
            self.sizes.insert(cid, parts.size);
            self.intra.insert(cid, parts.intra);
            self.inter.insert(cid, parts.inter);
        }
    }

    // ------------------------------------------------------------------
    // Incremental maintenance
    // ------------------------------------------------------------------

    /// Fold a merge of clusters `a` and `b` into the new cluster `merged`
    /// (the id returned by [`Clustering::merge`]) into the aggregates.
    ///
    /// Cost: O(number of neighbour clusters of `a` and `b`).
    pub fn apply_merge(&mut self, a: ClusterId, b: ClusterId, merged: ClusterId) {
        let edit = self.merge_edit(a, b, merged);
        self.apply_edit(edit);
    }

    /// Fold a split of cluster `original` into `part_id` and `rest_id` (the
    /// ids returned by [`Clustering::split`]) into the aggregates, reading the
    /// two member sets from the post-split `clustering` (a cluster missing
    /// from it counts as empty).
    ///
    /// Cost: O(Σ degree of the split cluster's members).
    pub fn apply_split(
        &mut self,
        graph: &SimilarityGraph,
        clustering: &Clustering,
        original: ClusterId,
        part_id: ClusterId,
        rest_id: ClusterId,
    ) {
        let none = BTreeSet::new();
        let part = clustering.cluster(part_id).map_or(&none, Cluster::members);
        let rest = clustering.cluster(rest_id).map_or(&none, Cluster::members);
        let edit = self.split_edit(graph, clustering, original, part_id, part, rest_id, rest);
        self.apply_edit(edit);
    }

    /// Fold a move of object `oid` from cluster `from` into cluster `to`
    /// (see [`ClusterAggregates::move_edit`]).
    pub fn apply_move(
        &mut self,
        graph: &SimilarityGraph,
        clustering: &Clustering,
        oid: ObjectId,
        from: ClusterId,
        to: ClusterId,
    ) {
        let edit = self.move_edit(graph, clustering, oid, from, to);
        self.apply_edit(edit);
    }

    /// Attach a freshly clustered object: `oid` must already be present in
    /// both the graph (with its final edges) and the clustering.  Used when
    /// an added or updated object enters the clustering as a singleton, and
    /// when an object joins an existing cluster.
    ///
    /// Cost: O(degree of `oid`).
    pub fn apply_add(&mut self, graph: &SimilarityGraph, clustering: &Clustering, oid: ObjectId) {
        self.memo.take();
        let Some(cid) = clustering.cluster_of(oid) else {
            return;
        };
        let mut to_self = 0.0;
        let mut per: BTreeMap<ClusterId, f64> = BTreeMap::new();
        for (n, sim) in graph.neighbors(oid) {
            if n == oid {
                continue;
            }
            match clustering.cluster_of(n) {
                Some(cn) if cn == cid => to_self += sim,
                Some(cn) => *per.entry(cn).or_insert(0.0) += sim,
                None => {}
            }
        }
        *self.sizes.entry(cid).or_insert(0) += 1;
        *self.intra.entry(cid).or_insert(0.0) += to_self;
        self.inter.entry(cid).or_default();
        for (cn, s) in per {
            self.add_inter(cid, cn, s);
        }
    }

    /// Detach an object that is about to leave the clustering: `oid`'s edges
    /// must still be present in the graph, and `from` is the cluster it is
    /// leaving.  Only the memberships of `oid`'s neighbours are consulted, so
    /// `clustering` may reflect the state before or after the removal.
    ///
    /// Cost: O(degree of `oid`).
    pub fn apply_remove(
        &mut self,
        graph: &SimilarityGraph,
        clustering: &Clustering,
        oid: ObjectId,
        from: ClusterId,
    ) {
        self.memo.take();
        for (n, sim) in graph.neighbors(oid) {
            if n == oid {
                continue;
            }
            match clustering.cluster_of(n) {
                Some(cn) if cn == from => self.sub_intra(from, sim),
                Some(cn) => self.sub_inter(from, cn, sim),
                None => {}
            }
        }
        let remaining = self
            .sizes
            .get(&from)
            .copied()
            .unwrap_or(0)
            .saturating_sub(1);
        if remaining == 0 {
            self.drop_cluster(from);
        } else if let Some(s) = self.sizes.get_mut(&from) {
            *s = remaining;
        }
    }

    /// Apply one round's operations to the graph, the clustering, and the
    /// aggregates in lockstep, mirroring the initial-processing step (§6.1):
    /// see [`ClusterAggregates::apply_op`].  Returns the ids that were newly
    /// isolated (the same contract as `prepare_working_clustering`).
    pub fn apply_batch(
        &mut self,
        graph: &mut SimilarityGraph,
        clustering: &mut Clustering,
        batch: &OperationBatch,
    ) -> Vec<ObjectId> {
        batch
            .iter()
            .filter(|op| self.apply_op(graph, clustering, op).isolated)
            .map(Operation::object_id)
            .collect()
    }

    /// Apply one operation to the graph, the clustering, and the aggregates
    /// in lockstep: an added or updated object enters as a fresh singleton
    /// cluster (a re-added live object keeps its cluster, its edges
    /// replaced), a removed object leaves the clustering, and the change is
    /// folded into the aggregates at O(degree).
    pub fn apply_op(
        &mut self,
        graph: &mut SimilarityGraph,
        clustering: &mut Clustering,
        op: &Operation,
    ) -> AppliedOp {
        self.memo.take();
        let mut applied = AppliedOp::default();
        match op {
            Operation::Add { id, record } => {
                if let Some(cid) = clustering.cluster_of(*id) {
                    // Re-add of a live object: its edges are replaced but —
                    // matching initial processing, which ignores adds of
                    // already-clustered objects — it keeps its cluster.
                    self.apply_remove(graph, clustering, *id, cid);
                    applied.compared = graph.add_object(*id, record.clone());
                    self.apply_add(graph, clustering, *id);
                } else {
                    applied.compared = graph.add_object(*id, record.clone());
                    let _ = clustering.create_cluster([*id]).expect("fresh object");
                    self.apply_add(graph, clustering, *id);
                    applied.isolated = true;
                }
            }
            Operation::Remove { id } => {
                if let Some(cid) = clustering.cluster_of(*id) {
                    self.apply_remove(graph, clustering, *id, cid);
                    clustering.remove_object(*id).expect("object present");
                }
                graph.remove_object(*id);
            }
            Operation::Update { id, record } => {
                if let Some(cid) = clustering.cluster_of(*id) {
                    self.apply_remove(graph, clustering, *id, cid);
                    clustering.remove_object(*id).expect("object present");
                }
                applied.compared = graph.add_object(*id, record.clone());
                let _ = clustering
                    .create_cluster([*id])
                    .expect("object just removed");
                self.apply_add(graph, clustering, *id);
                applied.isolated = true;
            }
        }
        applied
    }

    /// Reassemble an aggregate from validated snapshot parts (see
    /// `persist`).  Deliberately *not* counted as a full build: no graph
    /// edge is touched, and the installed sums keep the exact bits they
    /// were exported with.
    pub(crate) fn from_restored_parts(
        sizes: BTreeMap<ClusterId, usize>,
        intra: BTreeMap<ClusterId, f64>,
        inter: BTreeMap<ClusterId, BTreeMap<ClusterId, f64>>,
    ) -> Self {
        ClusterAggregates {
            sizes,
            intra,
            inter,
            memo: OnceLock::new(),
        }
    }

    // ------------------------------------------------------------------
    // Internal bookkeeping
    // ------------------------------------------------------------------

    fn add_inter(&mut self, a: ClusterId, b: ClusterId, s: f64) {
        if s == 0.0 || a == b {
            return;
        }
        add_sum(self.inter.entry(a).or_default(), b, s);
        add_sum(self.inter.entry(b).or_default(), a, s);
    }

    fn sub_inter(&mut self, a: ClusterId, b: ClusterId, s: f64) {
        if a == b {
            return;
        }
        if let Some(m) = self.inter.get_mut(&a) {
            sub_sum(m, b, s);
        }
        if let Some(m) = self.inter.get_mut(&b) {
            sub_sum(m, a, s);
        }
    }

    fn sub_intra(&mut self, cid: ClusterId, s: f64) {
        if let Some(v) = self.intra.get_mut(&cid) {
            *v = residue_sub(*v, s).unwrap_or(0.0);
        }
    }

    fn drop_cluster(&mut self, cid: ClusterId) {
        self.intra.remove(&cid);
        self.sizes.remove(&cid);
        if let Some(m) = self.inter.remove(&cid) {
            for x in m.keys() {
                if let Some(mx) = self.inter.get_mut(x) {
                    mx.remove(&cid);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Member-set and per-object quantities (direct graph walks)
    // ------------------------------------------------------------------

    /// Sum of pairwise similarities inside an explicit member set (used for
    /// hypothetical clusters that are not part of the clustering yet).
    pub fn intra_sum_of_members(graph: &SimilarityGraph, cluster: &Cluster) -> f64 {
        let mut sum = 0.0;
        for a in cluster.iter() {
            for (b, sim) in graph.neighbors(a) {
                // Count each unordered pair once.
                if b > a && cluster.contains(b) {
                    sum += sim;
                }
            }
        }
        sum
    }

    /// Sum of stored similarities between two explicit member sets, walking
    /// the smaller side's edges (the spot query used when no materialized
    /// state is available for the pair).
    pub fn inter_sum_of_members(graph: &SimilarityGraph, ca: &Cluster, cb: &Cluster) -> f64 {
        let (small, large) = if ca.len() <= cb.len() {
            (ca, cb)
        } else {
            (cb, ca)
        };
        let mut sum = 0.0;
        for o in small.iter() {
            for (n, sim) in graph.neighbors(o) {
                if large.contains(n) {
                    sum += sim;
                }
            }
        }
        sum
    }

    /// Average pairwise similarity inside an explicit member set.
    pub fn intra_avg_of_members(graph: &SimilarityGraph, cluster: &Cluster) -> f64 {
        Self::intra_avg_of_sum(cluster.len(), Self::intra_sum_of_members(graph, cluster))
    }

    /// Average similarity between object `oid` and the *other* members of
    /// cluster `cid`.  Returns 1 when the cluster is a singleton (the object
    /// is trivially cohesive with itself).
    pub fn object_cohesion(
        graph: &SimilarityGraph,
        clustering: &Clustering,
        oid: ObjectId,
        cid: ClusterId,
    ) -> f64 {
        let Some(cluster) = clustering.cluster(cid) else {
            return 0.0;
        };
        let others = cluster.len().saturating_sub(1);
        if others == 0 {
            return 1.0;
        }
        let mut sum = 0.0;
        for (n, sim) in graph.neighbors(oid) {
            if n != oid && cluster.contains(n) {
                sum += sim;
            }
        }
        sum / others as f64
    }

    /// The split-heuristic weight of §6.3: how *different* the object is from
    /// the rest of its cluster, `1 − object_cohesion`.  Larger weight ⇒ split
    /// out first.
    pub fn split_weight(
        graph: &SimilarityGraph,
        clustering: &Clustering,
        oid: ObjectId,
        cid: ClusterId,
    ) -> f64 {
        1.0 - Self::object_cohesion(graph, clustering, oid, cid)
    }

    /// Members of cluster `cid` ranked by decreasing split weight (most
    /// different first), as required by step 1 of the split heuristic.
    pub fn members_by_split_weight(
        graph: &SimilarityGraph,
        clustering: &Clustering,
        cid: ClusterId,
    ) -> Vec<(ObjectId, f64)> {
        let Some(cluster) = clustering.cluster(cid) else {
            return Vec::new();
        };
        let mut weighted: Vec<(ObjectId, f64)> = cluster
            .iter()
            .map(|o| (o, Self::split_weight(graph, clustering, o, cid)))
            .collect();
        weighted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        weighted
    }

    /// Average similarity between one object and every member of a *different*
    /// cluster (used when deciding which cluster a new object should join).
    pub fn object_to_cluster_avg(
        graph: &SimilarityGraph,
        clustering: &Clustering,
        oid: ObjectId,
        cid: ClusterId,
    ) -> f64 {
        let Some(cluster) = clustering.cluster(cid) else {
            return 0.0;
        };
        if cluster.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        for (n, sim) in graph.neighbors(oid) {
            if cluster.contains(n) && n != oid {
                sum += sim;
            }
        }
        let denom = if cluster.contains(oid) {
            cluster.len().saturating_sub(1)
        } else {
            cluster.len()
        };
        if denom == 0 {
            0.0
        } else {
            sum / denom as f64
        }
    }
}

/// `v − s`, or `None` when the difference is a residue below
/// [`RESIDUE_EPSILON`] (which callers prune or clamp to zero).
fn residue_sub(v: f64, s: f64) -> Option<f64> {
    let d = v - s;
    if d.abs() < RESIDUE_EPSILON {
        None
    } else {
        Some(d)
    }
}

/// Add `s` to the cross-edge sum stored under `key` (starting from 0).
fn add_sum(map: &mut BTreeMap<ClusterId, f64>, key: ClusterId, s: f64) {
    if s != 0.0 {
        *map.entry(key).or_insert(0.0) += s;
    }
}

/// Subtract `s` from the cross-edge sum stored under `key`, pruning the
/// entry when only a residue is left.
fn sub_sum(map: &mut BTreeMap<ClusterId, f64>, key: ClusterId, s: f64) {
    if s == 0.0 {
        return;
    }
    if let Some(v) = map.get_mut(&key) {
        match residue_sub(*v, s) {
            Some(d) => *v = d,
            None => {
                map.remove(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphConfig;
    use crate::measures::SimilarityMeasure;
    use dc_types::{Dataset, Record, RecordBuilder};

    fn oid(raw: u64) -> ObjectId {
        ObjectId::new(raw)
    }

    /// Measure that declares two records similar iff they share their "group"
    /// field, with a similarity encoded in the "sim" field (test fixture that
    /// gives exact control over the graph weights).
    #[derive(Debug, Clone, Copy)]
    struct FixtureMeasure;

    impl SimilarityMeasure for FixtureMeasure {
        fn similarity(&self, a: &Record, b: &Record) -> f64 {
            let ga = a.field("group").and_then(|f| f.as_text()).unwrap_or("");
            let gb = b.field("group").and_then(|f| f.as_text()).unwrap_or("");
            if ga == gb && !ga.is_empty() {
                let sa = a.field("sim").and_then(|f| f.as_number()).unwrap_or(1.0);
                let sb = b.field("sim").and_then(|f| f.as_number()).unwrap_or(1.0);
                sa.min(sb)
            } else {
                0.0
            }
        }
        fn name(&self) -> &'static str {
            "fixture"
        }
    }

    fn rec(group: &str, sim: f64) -> Record {
        RecordBuilder::new()
            .text("group", group)
            .number("sim", sim)
            .build()
    }

    /// Builds the Figure 1 "old clustering" scenario:
    /// r1, r2, r3 pairwise similar (0.9); r4, r5 similar (1.0 between them);
    /// clusters C1 = {r1, r2, r3}, C2 = {r4, r5}.
    fn figure1_setup() -> (SimilarityGraph, Clustering) {
        let mut ds = Dataset::new();
        ds.insert_with_id(oid(1), rec("a", 0.9)).unwrap();
        ds.insert_with_id(oid(2), rec("a", 0.9)).unwrap();
        ds.insert_with_id(oid(3), rec("a", 0.9)).unwrap();
        ds.insert_with_id(oid(4), rec("b", 0.8)).unwrap();
        ds.insert_with_id(oid(5), rec("b", 0.8)).unwrap();
        let graph =
            SimilarityGraph::build(GraphConfig::exhaustive(Box::new(FixtureMeasure), 0.1), &ds);
        let clustering =
            Clustering::from_groups([vec![oid(1), oid(2), oid(3)], vec![oid(4), oid(5)]]).unwrap();
        (graph, clustering)
    }

    #[test]
    fn intra_sum_and_avg() {
        let (graph, clustering) = figure1_setup();
        let agg = ClusterAggregates::new(&graph, &clustering);
        let c1 = clustering.cluster_of(oid(1)).unwrap();
        let c2 = clustering.cluster_of(oid(4)).unwrap();
        // C1 has 3 pairs each of similarity 0.9.
        assert!((agg.intra_sum(c1) - 2.7).abs() < 1e-9);
        assert!((agg.intra_avg(c1) - 0.9).abs() < 1e-9);
        // C2 has a single pair of similarity 0.8.
        assert!((agg.intra_sum(c2) - 0.8).abs() < 1e-9);
        assert!((agg.intra_avg(c2) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn singleton_cohesion_is_one() {
        let (graph, _) = figure1_setup();
        let clustering = Clustering::singletons([oid(1), oid(2)]);
        let agg = ClusterAggregates::new(&graph, &clustering);
        let c = clustering.cluster_of(oid(1)).unwrap();
        assert_eq!(agg.intra_avg(c), 1.0);
        assert_eq!(
            ClusterAggregates::object_cohesion(&graph, &clustering, oid(1), c),
            1.0
        );
    }

    #[test]
    fn inter_sum_and_avg_between_disjoint_groups() {
        let (graph, clustering) = figure1_setup();
        let agg = ClusterAggregates::new(&graph, &clustering);
        let c1 = clustering.cluster_of(oid(1)).unwrap();
        let c2 = clustering.cluster_of(oid(4)).unwrap();
        // The fixture gives no cross-group similarity.
        assert_eq!(agg.inter_sum(c1, c2), 0.0);
        assert_eq!(agg.inter_avg(c1, c2), 0.0);
        assert_eq!(agg.inter_sum(c1, c1), 0.0);
        assert!(agg.max_inter_avg(c1).is_none());
    }

    #[test]
    fn inter_and_max_inter_with_cross_edges() {
        // Split group "a" across two clusters so there are cross edges.
        let (graph, _) = figure1_setup();
        let clustering =
            Clustering::from_groups([vec![oid(1), oid(2)], vec![oid(3)], vec![oid(4), oid(5)]])
                .unwrap();
        let agg = ClusterAggregates::new(&graph, &clustering);
        let c12 = clustering.cluster_of(oid(1)).unwrap();
        let c3 = clustering.cluster_of(oid(3)).unwrap();
        // Cross edges: (1,3) and (2,3), each 0.9.
        assert!((agg.inter_sum(c12, c3) - 1.8).abs() < 1e-9);
        assert!((agg.inter_avg(c12, c3) - 0.9).abs() < 1e-9);
        let (best, avg) = agg.max_inter_avg(c3).unwrap();
        assert_eq!(best, c12);
        assert!((avg - 0.9).abs() < 1e-9);
        assert_eq!(agg.neighbour_clusters(c3), vec![c12]);
    }

    #[test]
    fn object_cohesion_and_split_weight_identify_outlier() {
        // Cluster {r1, r2, r3, r4}: r1..r3 mutually similar, r4 unrelated.
        let (graph, _) = figure1_setup();
        let clustering =
            Clustering::from_groups([vec![oid(1), oid(2), oid(3), oid(4)], vec![oid(5)]]).unwrap();
        let big = clustering.cluster_of(oid(1)).unwrap();
        assert!(
            ClusterAggregates::object_cohesion(&graph, &clustering, oid(1), big)
                > ClusterAggregates::object_cohesion(&graph, &clustering, oid(4), big)
        );
        let ranked = ClusterAggregates::members_by_split_weight(&graph, &clustering, big);
        assert_eq!(ranked.first().unwrap().0, oid(4), "outlier ranks first");
        assert!(ranked.first().unwrap().1 > ranked.last().unwrap().1);
    }

    #[test]
    fn object_to_cluster_avg_for_external_object() {
        let (graph, clustering) = figure1_setup();
        let c1 = clustering.cluster_of(oid(1)).unwrap();
        let c2 = clustering.cluster_of(oid(4)).unwrap();
        // r3 belongs to C1, so against C1 it averages over the other 2 members.
        assert!(
            (ClusterAggregates::object_to_cluster_avg(&graph, &clustering, oid(3), c1) - 0.9).abs()
                < 1e-9
        );
        // Against C2 it has no edges.
        assert_eq!(
            ClusterAggregates::object_to_cluster_avg(&graph, &clustering, oid(3), c2),
            0.0
        );
    }

    #[test]
    fn missing_clusters_yield_zeroes() {
        let (graph, clustering) = figure1_setup();
        let agg = ClusterAggregates::new(&graph, &clustering);
        let missing = ClusterId::new(9999);
        assert_eq!(agg.intra_sum(missing), 0.0);
        assert_eq!(agg.intra_avg(missing), 0.0);
        assert_eq!(agg.inter_avg(missing, missing), 0.0);
        assert!(agg.max_inter_avg(missing).is_none());
        assert!(
            ClusterAggregates::members_by_split_weight(&graph, &clustering, missing).is_empty()
        );
    }

    #[test]
    fn hypothetical_member_sets_reuse_static_helpers() {
        let (graph, _) = figure1_setup();
        let hypothetical = Cluster::from_members([oid(1), oid(2), oid(4)]);
        // Only the (1,2) edge exists inside this hypothetical cluster.
        assert!(
            (ClusterAggregates::intra_sum_of_members(&graph, &hypothetical) - 0.9).abs() < 1e-9
        );
        let avg = ClusterAggregates::intra_avg_of_members(&graph, &hypothetical);
        assert!((avg - 0.3).abs() < 1e-9);
        // Member-set inter sum: {1,2} vs {3} crosses the (1,3) and (2,3)
        // edges at 0.9 each.
        let left = Cluster::from_members([oid(1), oid(2)]);
        let right = Cluster::from_members([oid(3)]);
        assert!(
            (ClusterAggregates::inter_sum_of_members(&graph, &left, &right) - 1.8).abs() < 1e-9
        );
    }

    #[test]
    fn apply_merge_matches_rebuild() {
        let (graph, mut clustering) = figure1_setup();
        let mut agg = ClusterAggregates::new(&graph, &clustering);
        let c1 = clustering.cluster_of(oid(1)).unwrap();
        let c2 = clustering.cluster_of(oid(4)).unwrap();
        let merged = clustering.merge(c1, c2).unwrap();
        agg.apply_merge(c1, c2, merged);
        let rebuilt = ClusterAggregates::new(&graph, &clustering);
        assert_eq!(agg.cluster_ids(), rebuilt.cluster_ids());
        assert!((agg.intra_sum(merged) - rebuilt.intra_sum(merged)).abs() < 1e-9);
        assert_eq!(agg.cluster_size(merged), 5);
        assert!(!agg.contains_cluster(c1));
    }

    #[test]
    fn apply_split_matches_rebuild() {
        let (graph, _) = figure1_setup();
        let mut clustering =
            Clustering::from_groups([vec![oid(1), oid(2), oid(3), oid(4), oid(5)]]).unwrap();
        let mut agg = ClusterAggregates::new(&graph, &clustering);
        let big = clustering.cluster_of(oid(1)).unwrap();
        let part: BTreeSet<ObjectId> = [oid(4), oid(5)].into_iter().collect();
        let (p, r) = clustering.split(big, &part).unwrap();
        agg.apply_split(&graph, &clustering, big, p, r);
        let rebuilt = ClusterAggregates::new(&graph, &clustering);
        for cid in rebuilt.cluster_ids() {
            assert!((agg.intra_sum(cid) - rebuilt.intra_sum(cid)).abs() < 1e-9);
            assert_eq!(agg.cluster_size(cid), rebuilt.cluster_size(cid));
        }
        assert_eq!(agg.neighbour_clusters(p), rebuilt.neighbour_clusters(p));
    }

    #[test]
    fn apply_move_matches_rebuild_and_drops_empty_source() {
        let (graph, _) = figure1_setup();
        let mut clustering =
            Clustering::from_groups([vec![oid(1), oid(2)], vec![oid(3)], vec![oid(4), oid(5)]])
                .unwrap();
        let mut agg = ClusterAggregates::new(&graph, &clustering);
        let c12 = clustering.cluster_of(oid(1)).unwrap();
        let c3 = clustering.cluster_of(oid(3)).unwrap();
        clustering.move_object(oid(3), c12).unwrap();
        agg.apply_move(&graph, &clustering, oid(3), c3, c12);
        let rebuilt = ClusterAggregates::new(&graph, &clustering);
        assert!(!agg.contains_cluster(c3), "empty source cluster is dropped");
        for cid in rebuilt.cluster_ids() {
            assert!((agg.intra_sum(cid) - rebuilt.intra_sum(cid)).abs() < 1e-9);
            assert_eq!(agg.cluster_size(cid), rebuilt.cluster_size(cid));
            assert_eq!(agg.neighbour_clusters(cid), rebuilt.neighbour_clusters(cid));
        }
    }

    #[test]
    fn full_build_counter_increments_per_build() {
        let (graph, clustering) = figure1_setup();
        let before = full_build_count();
        let _a = ClusterAggregates::new(&graph, &clustering);
        let _b = ClusterAggregates::new(&graph, &clustering);
        assert_eq!(full_build_count() - before, 2);
        let _c = ClusterAggregates::empty();
        assert_eq!(full_build_count() - before, 2, "empty() is not a build");
    }

    #[test]
    fn build_counter_scope_reports_builds_and_passes_the_result_through() {
        let (graph, clustering) = figure1_setup();
        let (agg, builds) = BuildCounter::scope(|| ClusterAggregates::new(&graph, &clustering));
        assert_eq!(builds, 1);
        assert_eq!(agg.cluster_count(), clustering.cluster_count());
        let ((), builds) = BuildCounter::scope(|| ());
        assert_eq!(builds, 0);
    }

    #[test]
    fn merge_from_threads_makes_worker_builds_visible_to_a_scope() {
        let (graph, clustering) = figure1_setup();
        let ((), builds) = BuildCounter::scope(|| {
            // Two builds on worker threads, one on the calling thread.  The
            // workers' builds land in *their* thread-local counters; without
            // the merge the scope would report 1.
            let worker_builds: u64 = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            let (_agg, builds) =
                                BuildCounter::scope(|| ClusterAggregates::new(&graph, &clustering));
                            builds
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            let _local = ClusterAggregates::new(&graph, &clustering);
            BuildCounter::merge_from_threads(worker_builds);
        });
        assert_eq!(builds, 3, "scope must see worker builds after the merge");
    }
}
