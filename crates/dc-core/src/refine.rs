//! Cross-shard refinement: closing the quality gap of sharded serving.
//!
//! Sharded serving ([`crate::shard`]) partitions the live objects across N
//! independent engines and *drops every cross-shard similarity edge*: the
//! per-shard graphs never compare records that route to different shards, so
//! the merged clustering silently under-merges exactly where blocking says
//! two records could be duplicates.  This module recovers that loss:
//!
//! 1. **Boundary pair exchange.**  A [`BoundaryIndex`] over each record's
//!    *full* block-key set finds the cross-shard candidate pairs the
//!    per-shard graphs cannot see.  Their similarities are computed once,
//!    counted in the sharded engine's global comparison counter, cached, and
//!    maintained incrementally as rounds add, update, and remove records —
//!    turning the old `cross_shard_edges_dropped` loss into the exact
//!    recovered-edge metric (`CrossShardRefiner::cross_edges_recovered`).
//! 2. **Global merge repair.**  The refiner owns a *global serving view*
//!    maintained across rounds, exactly shaped like the unsharded
//!    [`Engine`]'s state:
//!
//!    * a **mirror** — a global union [`SimilarityGraph`] seeded verbatim
//!      from the per-shard graphs' records and edges plus the recovered
//!      cross-shard edges, then maintained by the round fold, which
//!      computes each touched pair against the mirror's own records (the
//!      same weight the owning shard computed, since the measure and the
//!      records are the same);
//!    * the **refined clustering** — seeded by an initial repair of the
//!      partition (merged per-shard clusterings + union aggregates + the
//!      trained passes run globally), then evolved per round exactly like
//!      the unsharded engine evolves its clustering: the batch's operations
//!      are folded in **in their original order** (new/updated objects enter
//!      as fresh singletons, removed objects leave), and then the *same*
//!      trained merge and split passes as the unsharded engine (Algorithm 3
//!      — literally `merge_pass` and `split_pass`) run against the mirror to
//!      a fixed point;
//!    * maintained [`ClusterAggregates`] for `(mirror, refined)`, updated at
//!      O(degree) per operation and folded through every applied merge and
//!      split — the refinement pass performs **zero** full aggregate builds,
//!      at construction or while serving.
//!
//!    Because the refined view sees the same records, the same edges (under
//!    exact blocking), and runs the same algorithm from the same previous
//!    clustering, it converges to the unsharded engine's clustering — the
//!    pair-level equivalence pinned by `tests/shard_quality.rs`.  Repair
//!    merges and splits allocate fresh cluster ids from the reserved refine
//!    namespace (`shard_id_base(MAX_SHARDS - 1)`), so they can never collide
//!    with any per-shard allocation.
//!
//! The per-shard clusterings are never mutated by the repair — each shard
//! keeps serving its own partition, and the refined view is a separate
//! global projection.  For durability, the refined view is genuine state
//! (it evolves with history): [`crate::ShardedDurableEngine`] logs every
//! round's full batch in a dedicated `refine/` directory and snapshots the
//! view at checkpoints, so recovery reloads the snapshot and *replays the
//! same pass deterministically* over the logged tail — restarted and
//! never-restarted runs produce bit-identical refined clusterings and
//! per-round [`RefineReport`]s.  (The cumulative cross-comparison work
//! counter (`CrossShardRefiner::cross_comparisons`) is the one
//! process-scoped quantity: replayed rounds recompute their boundary pairs,
//! which *is* the work the restarted process performed.)

use crate::config::DynamicCStats;
use crate::dirty::{repair_regions, PassScope};
use crate::dynamic::DynamicC;
use crate::engine::Engine;
use crate::merge::{merge_pass, merge_pass_scoped};
use crate::shard::{parallel_map, ShardConfigError};
use crate::split::{split_pass, split_pass_scoped};
use dc_evolution::{merge_features, split_features};
use dc_similarity::persist::{AggregatesState, GraphState};
use dc_similarity::{
    BoundaryIndex, ClusterAggregates, EdgeCheck, ScreenTally, ShardRouter, SimilarityGraph,
};
use dc_types::codec::{BinCodec, ByteReader, ByteWriter, CodecError};
use dc_types::{
    shard_id_base, ClusterId, Clustering, ObjectId, Operation, OperationBatch, MAX_SHARDS,
};
use std::collections::{BTreeMap, BTreeSet};

/// What one cross-shard refinement pass did.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefineReport {
    /// Cross-shard candidate-pair similarities computed by this pass (new or
    /// re-keyed boundary pairs; 0 in steady state when no touched record has
    /// cross-shard block collisions).
    pub boundary_pairs_computed: usize,
    /// Cross-shard edges (similarity at or above the graph threshold)
    /// currently recovered into the refined view — the exact count of edges
    /// the per-shard graphs are missing.
    pub cross_edges_recovered: usize,
    /// Merges applied by the global repair pass this round.
    pub merges_applied: usize,
    /// Merge proposals rejected by the objective check this round.
    pub merges_rejected: usize,
    /// Splits applied by the global repair pass this round.
    pub splits_applied: usize,
    /// Split proposals rejected by the objective check this round.
    pub splits_rejected: usize,
    /// Objective delta evaluations performed by the repair pass.
    pub objective_evaluations: u64,
    /// Clusters in the refined clustering after the pass.
    pub clusters: usize,
    /// Objective score of the refined clustering (lower is better).
    pub score: f64,
    /// Size of the dirty evaluation set the repair was restricted to (the
    /// fixed-point closure of the clusters this round's operations touched).
    /// 0 when the round changed nothing within decision reach — such rounds
    /// skip the pass loop entirely.  Equals the live cluster count when the
    /// repair fell back to a full fixed point (initial build, non-converged
    /// previous round, or diagnostic full-repair mode).
    pub dirty_clusters: usize,
    /// Number of connected repair regions the dirty set decomposed into
    /// (components of the dirty set under the aggregate adjacency).
    pub regions: usize,
    /// Wall-clock nanoseconds the repair pass took (dirty-set closure,
    /// region partitioning, flag refresh, and the pass loop).  Excluded from
    /// `PartialEq`: it is a measurement, not part of the deterministic
    /// outcome, so replayed and never-restarted reports still compare equal.
    pub repair_wall_ns: u64,
}

impl PartialEq for RefineReport {
    fn eq(&self, other: &Self) -> bool {
        self.boundary_pairs_computed == other.boundary_pairs_computed
            && self.cross_edges_recovered == other.cross_edges_recovered
            && self.merges_applied == other.merges_applied
            && self.merges_rejected == other.merges_rejected
            && self.splits_applied == other.splits_applied
            && self.splits_rejected == other.splits_rejected
            && self.objective_evaluations == other.objective_evaluations
            && self.clusters == other.clusters
            && self.score == other.score
            && self.dirty_clusters == other.dirty_clusters
            && self.regions == other.regions
    }
}

/// The cross-shard refinement subsystem of a sharded engine (N > 1 only).
///
/// Owns the boundary index, the recovered cross-edge cache, the global
/// mirror graph, and the refined clustering with its maintained aggregates.
/// The boundary/cross/mirror layers are pure derived state (rebuildable from
/// the per-shard graphs); the refined clustering and its aggregates are
/// history-bearing state that the durable engine snapshots and replays.
pub(crate) struct CrossShardRefiner {
    boundary: BoundaryIndex,
    /// Symmetric adjacency of recovered cross-shard edges (≥ threshold).
    cross: BTreeMap<ObjectId, BTreeMap<ObjectId, f64>>,
    cross_edge_count: usize,
    cross_comparisons: u64,
    /// Global union graph: per-shard records and edges, plus the recovered
    /// cross-shard edges.  Seeded verbatim from the shard graphs; the round
    /// fold recomputes touched pairs against its own records.
    mirror: SimilarityGraph,
    refined: Clustering,
    /// Maintained aggregates for `(mirror, refined)` — carried across
    /// rounds, so the repair performs zero full builds.
    agg: ClusterAggregates,
    /// Cross-round dirty-tracking state: cached model flags plus the current
    /// evaluation set (see [`crate::dirty`]).  Pure derived state — it is
    /// rebuilt lazily after recovery and never persisted.
    scope: PassScope,
    /// Whether the previous repair reached its fixed point within
    /// `max_passes`.  When it did not, the clean-skip induction has no base
    /// case, so the next round falls back to a full repair.  Persisted in
    /// the snapshot so replayed rounds make the same restriction decisions.
    converged: bool,
    /// Diagnostic mode: repair everything every round (the pre-incremental
    /// behaviour).  Equivalence tests and benchmarks use this as the
    /// reference the dirty-region path is compared against.
    full_repair: bool,
    last_report: RefineReport,
}

/// The raw cluster-id value repair allocations start from: the top shard
/// namespace is reserved for the refiner (shard counts are capped one below
/// [`MAX_SHARDS`] by the sharded engines), so repair ids can never collide
/// with a per-shard allocation.
pub(crate) fn refine_id_base() -> u64 {
    shard_id_base(MAX_SHARDS - 1)
}

/// Check that every shard carries the same [`crate::DynamicCConfig`] as
/// shard 0.  The refiner (and the pipelined engine's detached refine worker)
/// read the pass configuration from shard 0 only, so a shard with a divergent
/// config would be silently overridden — reject the construction instead.
pub(crate) fn validate_shard_configs(shards: &[&Engine]) -> Result<(), ShardConfigError> {
    let Some(first) = shards.first() else {
        return Ok(());
    };
    let reference = first.dynamicc().config();
    for (shard, engine) in shards.iter().enumerate().skip(1) {
        if engine.dynamicc().config() != reference {
            return Err(ShardConfigError::MismatchedDynamicCConfig { shard });
        }
    }
    Ok(())
}

impl CrossShardRefiner {
    /// Build the refiner from the current per-shard engines: mirror every
    /// record and intra-shard edge, index every record's block keys, compute
    /// the similarity of every cross-shard candidate pair, and run the
    /// initial repair that seeds the refined view.  `assignment` is the
    /// object-to-shard map the sharded engine maintains.
    ///
    /// Validates at construction that every shard carries an identical
    /// [`crate::DynamicCConfig`]: the refiner reads its pass configuration
    /// (theta scale, pass budget) from shard 0 for the rest of its life, so
    /// a divergent shard would be silently ignored — surfaced here as
    /// [`ShardConfigError::MismatchedDynamicCConfig`] instead.
    pub(crate) fn build(
        router: &ShardRouter,
        shards: &[&Engine],
        assignment: &BTreeMap<ObjectId, usize>,
        max_threads: usize,
    ) -> Result<Self, ShardConfigError> {
        validate_shard_configs(shards)?;
        let mut refiner = Self::derived_state(router, shards, assignment)?;

        // Seed the refined view: merged per-shard clusterings, the union of
        // the per-shard aggregates with the recovered cross edges injected,
        // then the trained passes run globally to a fixed point.
        let mut refined = crate::shard::merge_clusterings(shards.iter().map(|s| s.clustering()));
        refined.set_id_watermark(refine_id_base());
        let mut agg = ClusterAggregates::union(shards.iter().map(|s| s.aggregates()));
        for (&a, nbrs) in &refiner.cross {
            for (&b, &sim) in nbrs {
                if b > a {
                    // A recovered cross edge between objects the merged
                    // per-shard clusterings do not cover means the shard
                    // graphs and clusterings disagree — a typed error, not a
                    // panic (the historical code `expect`ed it).
                    let ca = refined
                        .cluster_of(a)
                        .ok_or(ShardConfigError::UnclusteredObject { id: a })?;
                    let cb = refined
                        .cluster_of(b)
                        .ok_or(ShardConfigError::UnclusteredObject { id: b })?;
                    agg.add_inter_edge(ca, cb, sim);
                }
            }
        }
        refiner.refined = refined;
        refiner.agg = agg;
        let pairs_computed = refiner.cross_comparisons as usize;
        let dynamicc = shards.first().expect("validated non-empty").dynamicc();
        // The initial repair has no previous fixed point to lean on: run it
        // as a full fixed point (seeds = None ⇒ everything is dirty).
        refiner.run_passes(dynamicc, pairs_computed, None, max_threads);
        Ok(refiner)
    }

    /// The derived (rebuildable) layers only: boundary index, cross-edge
    /// cache, and mirror.  The refined clustering and aggregates are left
    /// empty — [`CrossShardRefiner::build`] seeds them with the initial
    /// repair and the durable engine restores them from a snapshot.
    fn derived_state(
        router: &ShardRouter,
        shards: &[&Engine],
        assignment: &BTreeMap<ObjectId, usize>,
    ) -> Result<Self, ShardConfigError> {
        let config = shards
            .first()
            .expect("at least one shard")
            .graph()
            .config()
            .clone();
        let mut refiner = CrossShardRefiner {
            boundary: router.boundary_index(),
            cross: BTreeMap::new(),
            cross_edge_count: 0,
            cross_comparisons: 0,
            mirror: SimilarityGraph::empty(config),
            refined: Clustering::new(),
            agg: ClusterAggregates::empty(),
            scope: PassScope::new(),
            converged: false,
            full_repair: false,
            last_report: RefineReport::default(),
        };

        for (&id, &shard) in assignment {
            // An assignment naming an object its shard's graph does not hold
            // is an inconsistent input pair (the historical code panicked).
            let record = shards[shard]
                .graph()
                .record(id)
                .ok_or(ShardConfigError::AssignedObjectMissing { id, shard })?;
            refiner.mirror.install_record(id, record.clone());
            refiner.boundary.insert(id, shard, record);
        }
        for shard in shards {
            for (a, b, sim) in shard.graph().edges() {
                refiner.mirror.install_edge(a, b, sim);
            }
        }

        // Every cross-shard candidate pair, each computed exactly once.
        let mut pairs: BTreeSet<(ObjectId, ObjectId)> = BTreeSet::new();
        for &id in assignment.keys() {
            for cand in refiner.boundary.cross_shard_candidates(id) {
                pairs.insert((id.min(cand), id.max(cand)));
            }
        }
        let mut tally = ScreenTally::default();
        for (a, b) in pairs {
            refiner.compute_cross_pair(a, b, &mut tally)?;
        }
        tally.record();
        Ok(refiner)
    }

    /// Cumulative cross-shard similarity computations performed by this
    /// process (the boundary-pass share of the sharded engine's global
    /// comparison counter).
    pub(crate) fn cross_comparisons(&self) -> u64 {
        self.cross_comparisons
    }

    /// Cross-shard edges currently recovered into the refined view — exact
    /// across rounds (grows when a round introduces a cross-shard edge,
    /// shrinks when one endpoint is removed or re-keyed apart).
    pub(crate) fn cross_edges_recovered(&self) -> usize {
        self.cross_edge_count
    }

    /// The refined clustering.
    pub(crate) fn refined(&self) -> &Clustering {
        &self.refined
    }

    /// The object-to-shard ownership the refiner currently tracks (the
    /// sticky assignment durable replay re-routes batches from).
    pub(crate) fn shard_map(&self) -> BTreeMap<ObjectId, usize> {
        self.boundary.shard_map()
    }

    /// The report of the most recent refinement pass (the initial repair
    /// right after construction, then one per served round).
    pub(crate) fn last_report(&self) -> RefineReport {
        self.last_report
    }

    /// Compute the similarity of one cross-shard candidate pair and recover
    /// the edge if it reaches the graph threshold.
    ///
    /// Candidate pairs come from the boundary index, which is maintained in
    /// lock-step with the mirror; a candidate the mirror no longer holds is
    /// an internal inconsistency surfaced as a typed error (the historical
    /// code `expect`ed "live record" here).
    fn compute_cross_pair(
        &mut self,
        a: ObjectId,
        b: ObjectId,
        tally: &mut ScreenTally,
    ) -> Result<(), ShardConfigError> {
        let pa = self
            .mirror
            .profiled(a)
            .ok_or(ShardConfigError::MirrorRecordMissing { id: a })?;
        let pb = self
            .mirror
            .profiled(b)
            .ok_or(ShardConfigError::MirrorRecordMissing { id: b })?;
        let check = self.mirror.check_edge(pa, pb);
        self.cross_comparisons += 1;
        if let Some(sim) = tally.edge(check, self.mirror.edge_threshold()) {
            self.cross.entry(a).or_default().insert(b, sim);
            self.cross.entry(b).or_default().insert(a, sim);
            self.cross_edge_count += 1;
            self.mirror.install_edge(a, b, sim);
        }
        Ok(())
    }

    /// Drop a record from the boundary index, the cross-edge cache, and the
    /// mirror.
    fn detach(&mut self, id: ObjectId) {
        self.boundary.remove(id);
        if let Some(nbrs) = self.cross.remove(&id) {
            self.cross_edge_count -= nbrs.len();
            for n in nbrs.keys() {
                if let Some(m) = self.cross.get_mut(n) {
                    m.remove(&id);
                    if m.is_empty() {
                        self.cross.remove(n);
                    }
                }
            }
        }
        self.mirror.remove_object(id);
    }

    /// (Re-)install one record into the derived layers: mirror record and
    /// blocking keys, edges to every mirror candidate, and the cross-edge
    /// cache.
    ///
    /// Every candidate pair is computed against the mirror's *current*
    /// records, which is exactly what the unsharded engine computed at this
    /// position of the batch.  An intra-shard pair gets the weight its
    /// shard's graph computed too (same measure, same records), so the fold
    /// never reads the shard engines: it builds the same mirror, down to the
    /// bit, whether it runs right after the shards applied the round, behind
    /// them on the pipelined refine worker, or during recovery replay.
    ///
    /// The pairs are computed on the scoped pool: the measure is a pure
    /// function of the two records and the serial install below walks the
    /// candidates in their original (sorted) order, so the mirror, the cross
    /// cache, and the comparison counters come out bit-identical at every
    /// thread count.  Without this, the refiner's fold would serialize the
    /// one per-op cost that actually grows with the workload and cap the
    /// sharded engine's refined-mode speedup.
    fn attach(
        &mut self,
        id: ObjectId,
        shard: usize,
        record: &dc_types::Record,
        max_threads: usize,
    ) {
        // Candidates are queried before the record is indexed, matching
        // `SimilarityGraph::add_object` (the unsharded order).
        let candidates = self.mirror.candidate_ids(record);
        self.mirror.install_record(id, record.clone());
        let mut plan = Vec::with_capacity(candidates.len());
        for n in candidates {
            if n == id || !self.mirror.contains(n) {
                continue;
            }
            let n_shard = self
                .boundary
                .shard_of(n)
                .expect("mirror and boundary track the same records");
            plan.push((n, n_shard != shard));
        }

        // Both sides are read from the mirror, profiles included; a side it
        // does not hold has similarity 0.
        let mirror = &self.mirror;
        let this = mirror.profiled(id);
        let computed = parallel_map(&plan, max_threads, |&(n, _)| {
            match this.zip(mirror.profiled(n)) {
                Some((a, b)) => mirror.check_edge(a, b),
                None => EdgeCheck::Exact(0.0),
            }
        });

        let threshold = self.mirror.edge_threshold();
        let mut tally = ScreenTally::default();
        for ((n, cross), check) in plan.into_iter().zip(computed) {
            if cross {
                self.cross_comparisons += 1;
            }
            if let Some(sim) = tally.edge(check, threshold) {
                if cross {
                    self.cross.entry(id).or_default().insert(n, sim);
                    self.cross.entry(n).or_default().insert(id, sim);
                    self.cross_edge_count += 1;
                }
                self.mirror.install_edge(id, n, sim);
            }
        }
        tally.record();
        self.boundary.insert(id, shard, record);
    }

    /// Switch between the incremental dirty-region repair (the default) and
    /// the diagnostic full-repair mode that re-runs the global fixed point
    /// every round.  Both produce the same refined clustering; equivalence
    /// tests and benchmarks rely on this switch for their reference run.
    pub(crate) fn set_full_repair(&mut self, full_repair: bool) {
        self.full_repair = full_repair;
    }

    /// Record `id` and its current mirror neighbours as touched by this
    /// round (called both before a detach and after an attach, so clusters
    /// losing *and* gaining edge mass are captured).
    fn note_touched(&self, id: ObjectId, touched: &mut BTreeSet<ObjectId>) {
        touched.insert(id);
        for (n, _) in self.mirror.neighbors(id) {
            touched.insert(n);
        }
    }

    /// Fold one committed round into the refined view, mimicking the
    /// unsharded engine's round loop: operations are applied **in their
    /// original order** to the mirror, the refined clustering, and the
    /// maintained aggregates (O(degree) each), then Algorithm 3 runs to a
    /// fixed point.  Returns the round's [`RefineReport`].
    ///
    /// This is the refiner's only round entry point: the synchronous sharded
    /// engines, the pipelined refine worker, and recovery replay all call it.
    /// It reads nothing from the shard engines (see
    /// [`CrossShardRefiner::attach`]); the pass configuration is passed
    /// explicitly (all shards carry an identical one — validated at
    /// construction).
    pub(crate) fn fold_round(
        &mut self,
        batch: &OperationBatch,
        op_shards: &[usize],
        dynamicc: &DynamicC,
        max_threads: usize,
    ) -> RefineReport {
        let comparisons_before = self.cross_comparisons;
        // Dirty-seed collection: every aggregate row the fold below mutates
        // belongs to the cluster of an object recorded here — each op's own
        // id, its mirror neighbours before detach and after attach (edges
        // only appear or disappear incident to the op's id), plus the
        // clusters captured at op time (the pre-removal cluster of a removed
        // or updated object survives as a dirty cluster id even after its
        // last member leaves).
        let mut touched: BTreeSet<ObjectId> = BTreeSet::new();
        let mut seeds: BTreeSet<ClusterId> = BTreeSet::new();
        // §6.1 initial processing against the global view, fused with
        // aggregate maintenance — the mirror-backed analogue of
        // `ClusterAggregates::apply_batch`.
        for (op, &shard) in batch.iter().zip(op_shards) {
            match op {
                Operation::Add { id, record } => {
                    self.note_touched(*id, &mut touched);
                    if let Some(cid) = self.refined.cluster_of(*id) {
                        // Re-add of a live object: edges are replaced but it
                        // keeps its cluster, exactly like initial processing.
                        seeds.insert(cid);
                        self.agg.apply_remove(&self.mirror, &self.refined, *id, cid);
                        self.detach(*id);
                        self.attach(*id, shard, record, max_threads);
                        self.agg.apply_add(&self.mirror, &self.refined, *id);
                    } else {
                        self.detach(*id);
                        self.attach(*id, shard, record, max_threads);
                        self.refined
                            .create_cluster([*id])
                            .expect("fresh object enters as a singleton");
                        self.agg.apply_add(&self.mirror, &self.refined, *id);
                    }
                    self.note_touched(*id, &mut touched);
                }
                Operation::Remove { id } => {
                    self.note_touched(*id, &mut touched);
                    if let Some(cid) = self.refined.cluster_of(*id) {
                        seeds.insert(cid);
                        self.agg.apply_remove(&self.mirror, &self.refined, *id, cid);
                        self.refined.remove_object(*id).expect("object present");
                    }
                    self.detach(*id);
                }
                Operation::Update { id, record } => {
                    self.note_touched(*id, &mut touched);
                    if let Some(cid) = self.refined.cluster_of(*id) {
                        seeds.insert(cid);
                        self.agg.apply_remove(&self.mirror, &self.refined, *id, cid);
                        self.refined.remove_object(*id).expect("object present");
                    }
                    self.detach(*id);
                    self.attach(*id, shard, record, max_threads);
                    self.refined
                        .create_cluster([*id])
                        .expect("object just removed");
                    self.agg.apply_add(&self.mirror, &self.refined, *id);
                    self.note_touched(*id, &mut touched);
                }
            }
        }
        // Project the touched objects onto their (post-fold) clusters.
        for &id in &touched {
            if let Some(cid) = self.refined.cluster_of(id) {
                seeds.insert(cid);
            }
        }
        let pairs_computed = (self.cross_comparisons - comparisons_before) as usize;
        self.run_passes(dynamicc, pairs_computed, Some(seeds), max_threads)
    }

    /// §6.4: alternate the trained merge and split passes until a fixed
    /// point, then refresh the report — restricted to the dirty closure of
    /// `seeds` when the incremental bookkeeping can vouch for everything
    /// else, and falling back to the full global fixed point otherwise
    /// (`seeds = None`, a non-converged previous round, or full-repair
    /// mode).
    ///
    /// The restricted and full paths produce the same refined clustering,
    /// the same applied merges/splits, and the same fresh cluster ids: the
    /// scoped passes walk the same candidate queue in the same order and
    /// only skip evaluations whose rejection the previous fixed point
    /// already proved (see [`crate::dirty`]).  What the restriction *does*
    /// change is the amount of work — skipped evaluations are not counted,
    /// so `objective_evaluations` and the rejection counters are ≤ their
    /// full-pass values.
    ///
    /// How much the objective lets the restriction skip is declared by the
    /// objective itself ([`dc_objective::DecisionLocality`]): sum objectives
    /// skip on neighbourhood cleanliness alone; mean objectives additionally
    /// gate every skip on the rejection's score-validity interval, with the
    /// passes tracking the running global score so in-pass drift is seen at
    /// the exact queue position the full pass would see it; objectives that
    /// declare nothing fall back to a full repair every round.
    fn run_passes(
        &mut self,
        dynamicc: &DynamicC,
        pairs_computed: usize,
        seeds: Option<BTreeSet<ClusterId>>,
        max_threads: usize,
    ) -> RefineReport {
        let reg = dc_telemetry::registry();
        let repair_span = reg.span("refine.repair");
        let objective = dynamicc.objective().as_ref();
        let models = dynamicc.models();
        let config = dynamicc.config();
        let locality = objective.decision_locality();
        let mut stats = DynamicCStats::default();

        // Close the seeds into the evaluation set: seeds ∪ N(seeds) have
        // stale model flags (features read the own row plus neighbour
        // sizes), and one more neighbour hop covers the partner-ranking
        // reach of the merge decision.
        let full = self.full_repair
            || !self.converged
            || seeds.is_none()
            || locality == dc_objective::DecisionLocality::Opaque;
        let (eval, stale) = if full {
            let all: BTreeSet<ClusterId> = self.refined.cluster_ids().into_iter().collect();
            (all.clone(), all)
        } else {
            let seeds: BTreeSet<ClusterId> = seeds
                .expect("checked above")
                .into_iter()
                .filter(|c| self.refined.contains_cluster(*c))
                .collect();
            let mut stale = seeds.clone();
            for &c in &seeds {
                stale.extend(self.agg.neighbour_clusters(c));
            }
            let mut eval = stale.clone();
            for &c in &stale {
                eval.extend(self.agg.neighbour_clusters(c));
            }
            (eval, stale)
        };
        if full {
            self.scope.clear_flags();
        } else {
            for &c in &stale {
                self.scope.invalidate(c);
            }
        }

        // Partition the dirty set into independent repair regions and
        // refresh the stale model flags region-parallel.  Flag values are
        // pure functions of the maintained aggregates and the frozen
        // models, so the parallel refresh is deterministic and bit-equal to
        // the lazy in-pass computation it pre-empts.
        let regions = repair_regions(&eval, &self.agg);
        let dirty_clusters = eval.len();
        let region_count = regions.len();
        let missing: Vec<Vec<ClusterId>> = if self.full_repair {
            Vec::new() // The unscoped reference passes never read the cache.
        } else {
            regions
                .iter()
                .map(|region| {
                    region
                        .iter()
                        .copied()
                        .filter(|&c| !self.scope.has_flags(c))
                        .collect()
                })
                .filter(|region: &Vec<ClusterId>| !region.is_empty())
                .collect()
        };
        let agg = &self.agg;
        let refined = &self.refined;
        let theta_scale = config.theta_scale;
        let refreshed = parallel_map(&missing, max_threads, |region| {
            region
                .iter()
                .map(|&cid| {
                    let merge = models.predicts_merge(&merge_features(agg, cid), theta_scale);
                    // Split flags are only consulted for clusters of size
                    // ≥ 2; sizes only change through invalidating events,
                    // so caching `false` for singletons is safe.
                    let split = refined.cluster_size(cid) >= 2
                        && models.predicts_split(&split_features(agg, cid), theta_scale);
                    (cid, merge, split)
                })
                .collect::<Vec<_>>()
        });
        for region in refreshed {
            for (cid, merge, split) in region {
                self.scope.store_flags(cid, merge, split);
            }
        }

        if eval.is_empty() {
            // Nothing within decision reach changed: the previous fixed
            // point still stands verbatim and the pass loop is skipped —
            // zero evaluations, zero repair work.
            self.converged = true;
        } else {
            self.scope.set_eval(eval);
            // For a global-mean objective the scoped passes need the running
            // score: skips are gated on it and rejection intervals are
            // recorded against it.  Re-reading it from the aggregates at
            // every iteration keeps the in-pass `score += delta` tracking
            // from accumulating rounding drift across iterations.  The
            // diagnostic unscoped reference never skips, so it never pays
            // for (or sees) any of this.
            let track_score = !(full && self.full_repair)
                && locality == dc_objective::DecisionLocality::GlobalMean;
            let mut converged = false;
            for _ in 0..config.max_passes {
                let mut score = track_score
                    .then(|| objective.evaluate_with(&self.agg, &self.mirror, &self.refined));
                let merged = if full && self.full_repair {
                    merge_pass(
                        &self.mirror,
                        &mut self.refined,
                        &mut self.agg,
                        objective,
                        models,
                        config.theta_scale,
                        &mut stats,
                    )
                } else {
                    merge_pass_scoped(
                        &self.mirror,
                        &mut self.refined,
                        &mut self.agg,
                        objective,
                        models,
                        config.theta_scale,
                        &mut stats,
                        &mut self.scope,
                        score.as_mut(),
                    )
                };
                let split = if full && self.full_repair {
                    split_pass(
                        &self.mirror,
                        &mut self.refined,
                        &mut self.agg,
                        objective,
                        models,
                        config.theta_scale,
                        &mut stats,
                    )
                } else {
                    split_pass_scoped(
                        &self.mirror,
                        &mut self.refined,
                        &mut self.agg,
                        objective,
                        models,
                        config.theta_scale,
                        &mut stats,
                        &mut self.scope,
                        score.as_mut(),
                    )
                };
                if !merged && !split {
                    converged = true;
                    break;
                }
            }
            self.converged = converged;
        }

        reg.add("refine.boundary_pairs", pairs_computed as u64);
        reg.add("refine.dirty_clusters", dirty_clusters as u64);
        reg.add("refine.regions", region_count as u64);
        let report = RefineReport {
            boundary_pairs_computed: pairs_computed,
            cross_edges_recovered: self.cross_edge_count,
            merges_applied: stats.merges_applied,
            merges_rejected: stats.merges_rejected,
            splits_applied: stats.splits_applied,
            splits_rejected: stats.splits_rejected,
            objective_evaluations: stats.objective_evaluations,
            clusters: self.refined.cluster_count(),
            score: objective.evaluate_with(&self.agg, &self.mirror, &self.refined),
            dirty_clusters,
            regions: region_count,
            // The span's elapsed time feeds the report field even with
            // telemetry off; with it on, the same interval also lands in
            // the `refine.repair` histogram.
            repair_wall_ns: repair_span.finish_ns(),
        };
        self.last_report = report;
        report
    }

    // ------------------------------------------------------------------
    // Durability hooks (see `ShardedDurableEngine`)
    // ------------------------------------------------------------------

    /// Export the history-bearing refine state as an owned value.  The
    /// mirror is included so replayed rounds see the exact global graph the
    /// never-restarted run saw (the per-shard graphs have already advanced
    /// past the snapshot round by the time recovery replays the tail).
    ///
    /// This clones the mirror records and the refined clustering; checkpoint
    /// paths that only need the *bytes* use [`CrossShardRefiner::snapshot_ref`]
    /// instead, which encodes the same state clone-free.  Serving code no
    /// longer calls this — it remains as the owned reference the
    /// byte-equality regression test compares the borrowed encoder against.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn export_state(&self) -> RefineState {
        let (merge_floors, split_ceils) = self.scope.rejection_intervals();
        RefineState {
            mirror: self.mirror.export_state(),
            refined: self.refined.clone(),
            aggregates: self.agg.export_state(),
            assignment: self.boundary.shard_map(),
            converged: self.converged,
            merge_floors: merge_floors.clone(),
            split_ceils: split_ceils.clone(),
        }
    }

    /// A borrowed, write-only view of the refine snapshot: encodes bytes
    /// identical to `self.export_state().encode(..)` without cloning the
    /// mirror's records or the refined clustering.  This is what the
    /// checkpoint path hands to the snapshotter, keeping checkpoint cost at
    /// O(serialized bytes) — the regression test pins zero clustering clones
    /// and zero full aggregate builds across an encode.
    pub(crate) fn snapshot_ref(&self) -> RefineSnapshotRef<'_> {
        RefineSnapshotRef { refiner: self }
    }

    /// Reassemble a refiner from a durable snapshot: the mirror, refined
    /// clustering, and aggregates are restored bit-exactly, and the boundary
    /// index and cross-edge cache are re-derived from the restored mirror.
    /// Cross-pair similarities are *looked up* in the mirror (whose edge
    /// weights are exact); only the counting is process-scoped — see the
    /// module docs.  `graph_config` is the same construction-time input the
    /// durable engine already threads to every shard, and
    /// `state.assignment` records each restored record's owning shard (the
    /// sticky routing history replays are re-routed from).
    pub(crate) fn import_state(
        router: &ShardRouter,
        graph_config: dc_similarity::GraphConfig,
        state: RefineState,
    ) -> Result<Self, CodecError> {
        let mirror = SimilarityGraph::import_state(graph_config, state.mirror)?;
        let agg = ClusterAggregates::import_state(state.aggregates)?;
        let assignment = state.assignment;
        let mut refiner = CrossShardRefiner {
            boundary: router.boundary_index(),
            cross: BTreeMap::new(),
            cross_edge_count: 0,
            cross_comparisons: 0,
            mirror,
            refined: state.refined,
            agg,
            scope: PassScope::from_rejection_intervals(state.merge_floors, state.split_ceils),
            converged: state.converged,
            full_repair: false,
            last_report: RefineReport::default(),
        };
        // Re-derive the boundary index and the cross-edge cache from the
        // restored mirror.  Cross-pair similarities are *looked up* in the
        // mirror (whose edge weights are bit-exact), not recomputed — only
        // sub-threshold pairs (which the mirror does not store) cost a fresh
        // computation.
        for id in refiner.mirror.object_ids() {
            let shard = assignment.get(&id).copied().ok_or_else(|| {
                CodecError::Invalid(format!("restored mirror object {id} is owned by no shard"))
            })?;
            // A corrupt snapshot (or a WAL round referencing a record
            // deleted in the same batch and mis-merged by hand) can name an
            // id the mirror holds no record for — surface that as a typed
            // error instead of panicking mid-recovery.
            let record = refiner
                .mirror
                .record(id)
                .ok_or_else(|| {
                    CodecError::Invalid(format!(
                        "restored mirror names object {id} but holds no record for it"
                    ))
                })?
                .clone();
            refiner.boundary.insert(id, shard, &record);
        }
        if assignment.len() != refiner.mirror.object_count() {
            return Err(CodecError::Invalid(
                "restored assignment names objects absent from the mirror".into(),
            ));
        }
        let mut pairs: BTreeSet<(ObjectId, ObjectId)> = BTreeSet::new();
        for id in refiner.mirror.object_ids() {
            for cand in refiner.boundary.cross_shard_candidates(id) {
                pairs.insert((id.min(cand), id.max(cand)));
            }
        }
        for (a, b) in pairs {
            let sim = refiner.mirror.similarity(a, b);
            refiner.cross_comparisons += 1;
            if sim > 0.0 {
                refiner.cross.entry(a).or_default().insert(b, sim);
                refiner.cross.entry(b).or_default().insert(a, sim);
                refiner.cross_edge_count += 1;
            }
        }
        Ok(refiner)
    }
}

/// Magic prefix of a versioned refine snapshot ("DCRF" little-endian).
/// Version 1 snapshots (PR 5) had no version framing at all — their payload
/// began with the mirror's record count, which cannot collide with this
/// value for any realistic state — so the decoder can tell the two apart
/// and reject v1 with a typed error instead of misparsing it.
const REFINE_SNAPSHOT_MAGIC: u32 = 0x4652_4344; // b"DCRF" read back as bytes
/// Current refine snapshot format version.  v2 added the dirty-tracking
/// `converged` flag, the rejection score-validity intervals of global-mean
/// objectives (and the magic/version framing itself).
const REFINE_SNAPSHOT_VERSION: u8 = 2;

/// The history-bearing refine state a durable snapshot carries.
#[derive(Debug)]
pub(crate) struct RefineState {
    pub(crate) mirror: GraphState,
    pub(crate) refined: Clustering,
    pub(crate) aggregates: AggregatesState,
    /// Object-to-shard ownership at the snapshot round: sticky routing is
    /// history-dependent, so replayed batches must be re-routed from the
    /// exact assignment the original run held.
    pub(crate) assignment: BTreeMap<ObjectId, usize>,
    /// Whether the snapshot round's repair converged — the base case the
    /// incremental restriction leans on.  Persisted so a recovered run makes
    /// the same full-vs-restricted decisions as a never-restarted one.
    pub(crate) converged: bool,
    /// Proven merge-rejection score floors (global-mean objectives only;
    /// empty otherwise).  Genuine decision state: a recovered run must skip
    /// and re-evaluate exactly the clusters a never-restarted one would.
    pub(crate) merge_floors: BTreeMap<ClusterId, f64>,
    /// Proven split-rejection score ceilings — see `merge_floors`.
    pub(crate) split_ceils: BTreeMap<ClusterId, f64>,
}

impl BinCodec for RefineState {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(REFINE_SNAPSHOT_MAGIC);
        w.put_u8(REFINE_SNAPSHOT_VERSION);
        self.mirror.encode(w);
        self.refined.encode(w);
        self.aggregates.encode(w);
        w.put_usize(self.assignment.len());
        for (id, shard) in &self.assignment {
            id.encode(w);
            w.put_usize(*shard);
        }
        w.put_bool(self.converged);
        self.merge_floors.encode(w);
        self.split_ceils.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let magic = r.get_u32()?;
        if magic != REFINE_SNAPSHOT_MAGIC {
            return Err(CodecError::Invalid(format!(
                "refine snapshot has no v2 magic (found 0x{magic:08x}): \
                 this is a v1 (unversioned) snapshot or corrupt data — \
                 re-checkpoint under the writing binary before upgrading, \
                 or rebuild the refined view from the per-shard state"
            )));
        }
        let version = r.get_u8()?;
        if version != REFINE_SNAPSHOT_VERSION {
            return Err(CodecError::Invalid(format!(
                "unsupported refine snapshot version {version} \
                 (this binary reads version {REFINE_SNAPSHOT_VERSION})"
            )));
        }
        let mirror = GraphState::decode(r)?;
        let refined = Clustering::decode(r)?;
        let aggregates = AggregatesState::decode(r)?;
        let count = r.get_length_prefix(16)?;
        let mut assignment = BTreeMap::new();
        for _ in 0..count {
            let id = ObjectId::decode(r)?;
            let shard = r.get_usize()?;
            if assignment.insert(id, shard).is_some() {
                return Err(CodecError::Invalid(format!(
                    "object {id} assigned to more than one shard"
                )));
            }
        }
        let converged = r.get_bool()?;
        let merge_floors = BTreeMap::decode(r)?;
        let split_ceils = BTreeMap::decode(r)?;
        Ok(RefineState {
            mirror,
            refined,
            aggregates,
            assignment,
            converged,
            merge_floors,
            split_ceils,
        })
    }
}

/// A borrowed, encode-only view of a refiner's durable snapshot state.
///
/// Produces bytes identical to encoding [`CrossShardRefiner::export_state`]
/// — same v2 framing, same field order, same element orders (all the
/// underlying walks are over ordered maps) — but borrows everything:
/// no mirror record is cloned, no clustering copy is made, no owned
/// assignment map is materialized.  Decoding goes through [`RefineState`];
/// this type is strictly the writer half.
#[derive(Debug)]
pub(crate) struct RefineSnapshotRef<'a> {
    refiner: &'a CrossShardRefiner,
}

impl BinCodec for RefineSnapshotRef<'_> {
    fn encode(&self, w: &mut ByteWriter) {
        let r = self.refiner;
        w.put_u32(REFINE_SNAPSHOT_MAGIC);
        w.put_u8(REFINE_SNAPSHOT_VERSION);
        r.mirror.encode_state_into(w);
        r.refined.encode(w);
        r.agg.export_state().encode(w);
        w.put_usize(r.boundary.record_count());
        for (id, shard) in r.boundary.assignments() {
            id.encode(w);
            w.put_usize(shard);
        }
        w.put_bool(r.converged);
        let (merge_floors, split_ceils) = r.scope.rejection_intervals();
        merge_floors.encode(w);
        split_ceils.encode(w);
    }
    fn decode(_r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Err(CodecError::Invalid(
            "RefineSnapshotRef is encode-only; decode through RefineState".into(),
        ))
    }
}

impl std::fmt::Debug for CrossShardRefiner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrossShardRefiner")
            .field("records", &self.mirror.object_count())
            .field("cross_edges_recovered", &self.cross_edge_count)
            .field("cross_comparisons", &self.cross_comparisons)
            .field("refined_clusters", &self.refined.cluster_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_state(converged: bool) -> RefineState {
        let mut refined = Clustering::new();
        refined
            .create_cluster([ObjectId::new(1)])
            .expect("fresh clustering");
        let merge_floors: BTreeMap<ClusterId, f64> =
            [(ClusterId::new(3), 0.25)].into_iter().collect();
        let split_ceils: BTreeMap<ClusterId, f64> = [
            (ClusterId::new(3), 0.75),
            (ClusterId::new(9), f64::INFINITY),
        ]
        .into_iter()
        .collect();
        RefineState {
            mirror: GraphState {
                records: Vec::new(),
                edges: Vec::new(),
                comparisons: 7,
            },
            refined,
            aggregates: ClusterAggregates::empty().export_state(),
            assignment: BTreeMap::new(),
            converged,
            merge_floors,
            split_ceils,
        }
    }

    #[test]
    fn refine_snapshot_v2_round_trips_converged_flag_and_rejection_intervals() {
        for converged in [false, true] {
            let state = tiny_state(converged);
            let bytes = state.encode_to_vec();
            let restored = RefineState::decode_exact(&bytes).expect("v2 round-trip");
            assert_eq!(restored.converged, converged);
            assert_eq!(restored.mirror.comparisons, 7);
            assert_eq!(restored.refined.cluster_count(), 1);
            assert_eq!(restored.merge_floors, state.merge_floors);
            assert_eq!(restored.split_ceils, state.split_ceils);
        }
    }

    #[test]
    fn unversioned_v1_snapshots_are_rejected_with_a_typed_error() {
        // A v1 snapshot had no framing: its bytes begin with the mirror's
        // record count.  Re-encode the same payload the v1 writer produced
        // and check the decoder identifies it instead of misparsing it.
        let state = tiny_state(true);
        let mut w = ByteWriter::new();
        state.mirror.encode(&mut w);
        state.refined.encode(&mut w);
        state.aggregates.encode(&mut w);
        w.put_usize(0);
        let err = RefineState::decode_exact(&w.into_bytes()).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("v1") && message.contains("magic"),
            "v1 rejection must say what was found: {message}"
        );
    }

    #[test]
    fn unknown_snapshot_versions_are_rejected_with_a_typed_error() {
        let mut bytes = tiny_state(true).encode_to_vec();
        bytes[4] = REFINE_SNAPSHOT_VERSION + 1; // the version byte follows the magic
        let err = RefineState::decode_exact(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("version"),
            "version rejection must name the version: {err}"
        );
    }

    #[test]
    fn snapshot_ref_is_encode_only() {
        let bytes = tiny_state(true).encode_to_vec();
        let err = RefineSnapshotRef::decode(&mut ByteReader::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("encode-only"));
    }
}
