//! Cross-shard refinement: closing the quality gap of sharded serving.
//!
//! The per-shard graphs of [`crate::shard`] never compare records that
//! route to different shards, so the merged clustering under-merges exactly
//! where blocking says two records could be duplicates.  The refiner serves
//! a **global view** that has no such gap, and that view is an [`Engine`]:
//!
//! * its graph is the **mirror** — every live record, indexed in its own
//!   blocking strategy, so its candidates are exactly the pairs an
//!   unsharded graph compares.  It is seeded from the shard graphs plus
//!   every cross-shard pair, computed once, and then kept current by the
//!   engine's own fold ([`SimilarityGraph::add_object`]), which computes
//!   the weight the owning shard computes too;
//! * its clustering is the **refined clustering**, seeded by a full repair
//!   of the merged per-shard clusterings and then evolved exactly like the
//!   unsharded engine's: the batch folds in in its original order and the
//!   scoped Algorithm 3 repairs the dirty closure.  Repair ids come from the
//!   reserved refine namespace (`shard_id_base(MAX_SHARDS - 1)`);
//! * its `DynamicC` is one clone of shard 0's with zeroed statistics.
//!
//! Beside the engine the refiner keeps the owner map (object → shard),
//! which says which mirror edges and which compared pairs cross shards.  So
//! the refined clustering is pair-identical to the unsharded engine's
//! (`tests/shard_quality.rs`), and the per-shard clusterings are never
//! mutated.  [`crate::ShardedDurableEngine`] logs every round's full batch
//! in `refine/` and snapshots the engine state plus the owner map at
//! checkpoints; recovery replays the same fold over the logged tail, so
//! restarted and never-restarted runs produce bit-identical refined
//! clusterings and [`RefineReport`]s.  The one process-scoped quantity is
//! the cross-comparison counter: a restarted process counts the pairs its
//! replay computed, and restoring the snapshot computes none.

use crate::dirty::{DirtySeeds, PassScope};
use crate::durable::{EngineState, SnapshotRef};
use crate::dynamic::DynamicC;
use crate::engine::Engine;
use crate::shard::{merge_clusterings, ShardConfigError};
use dc_similarity::{ClusterAggregates, GraphConfig, ScreenTally, SimilarityGraph};
use dc_types::codec::CodecError;
use dc_types::{shard_id_base, Clustering, ObjectId, Operation, OperationBatch, MAX_SHARDS};
use std::collections::BTreeMap;

/// Span names of the refiner's merge and split passes.
const REFINE_PASSES: [&str; 2] = ["refine.merge_pass", "refine.split_pass"];

/// What one cross-shard refinement pass did.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefineReport {
    /// Cross-shard candidate-pair similarities computed by this pass (the
    /// pairs of each added or updated record with mirror candidates another
    /// shard owns; 0 when no touched record has such a candidate).
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
    /// Size of the evaluation set the repair was restricted to: 0 when the
    /// round changed nothing within decision reach (the pass loop is then
    /// skipped), the live cluster count when it ran the full fixed point.
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

/// The cross-shard refinement subsystem of a sharded engine (N > 1 only):
/// the global view's [`Engine`] plus the owner map and the cross-edge and
/// cross-comparison counters.
#[derive(Debug)]
pub(crate) struct CrossShardRefiner {
    /// The global view: mirror graph, refined clustering, aggregates, and
    /// the scoped passes' state.
    engine: Engine,
    /// The shard that owns each live record (the sticky assignment).  A
    /// mirror edge is a recovered cross-shard edge exactly when its
    /// endpoints' owners differ.
    owner: BTreeMap<ObjectId, usize>,
    /// Number of mirror edges whose endpoints have different owners.
    cross_edge_count: usize,
    cross_comparisons: u64,
    last_report: RefineReport,
}

/// Whether `a` and `b` are both live and owned by different shards — i.e.
/// whether an edge between them is one the per-shard graphs miss.
fn crosses(owner: &BTreeMap<ObjectId, usize>, a: ObjectId, b: ObjectId) -> bool {
    matches!((owner.get(&a), owner.get(&b)), (Some(x), Some(y)) if x != y)
}

impl CrossShardRefiner {
    /// Build the refiner from the per-shard engines and their object → shard
    /// `assignment`: mirror every record and intra-shard edge under
    /// `graph_config`, compute every cross-shard candidate pair, and run the
    /// initial full repair.  `dynamicc` is the refiner's copy of the shards'
    /// models; a shard carrying a different [`crate::DynamicCConfig`] would
    /// be silently overridden, so it is a
    /// [`ShardConfigError::MismatchedDynamicCConfig`].
    pub(crate) fn build(
        shards: &[&Engine],
        assignment: &BTreeMap<ObjectId, usize>,
        graph_config: GraphConfig,
        dynamicc: DynamicC,
        max_threads: usize,
    ) -> Result<Self, ShardConfigError> {
        if let Some(shard) = shards
            .iter()
            .position(|s| s.dynamicc().config() != dynamicc.config())
        {
            return Err(ShardConfigError::MismatchedDynamicCConfig { shard });
        }

        // The mirror: every record and intra-shard edge, then every
        // cross-shard candidate pair, each computed exactly once — like
        // `SimilarityGraph::add_object`, a record is paired with the
        // candidates indexed before it.
        let mut mirror = SimilarityGraph::empty(graph_config);
        let mut pairs: Vec<(ObjectId, ObjectId)> = Vec::new();
        for (&id, &shard) in assignment {
            // An assignment naming an object its shard's graph does not hold
            // is an inconsistent input pair (the historical code panicked).
            let record = shards[shard]
                .graph()
                .record(id)
                .ok_or(ShardConfigError::AssignedObjectMissing { id, shard })?;
            for cand in mirror.candidate_ids(record) {
                if crosses(assignment, cand, id) {
                    pairs.push((cand, id));
                }
            }
            mirror.install_record(id, record.clone());
        }
        for shard in shards {
            for (a, b, sim) in shard.graph().edges() {
                mirror.install_edge(a, b, sim);
            }
        }
        let mut tally = ScreenTally::default();
        let mut cross_edge_count = 0;
        for &(a, b) in &pairs {
            // Candidate pairs come from the mirror's own blocking index; a
            // candidate it does not hold is an internal inconsistency.
            let pa = mirror
                .profiled(a)
                .ok_or(ShardConfigError::MirrorRecordMissing { id: a })?;
            let pb = mirror
                .profiled(b)
                .ok_or(ShardConfigError::MirrorRecordMissing { id: b })?;
            if let Some(sim) = tally.edge(mirror.check_edge(pa, pb), mirror.edge_threshold()) {
                mirror.install_edge(a, b, sim);
                cross_edge_count += 1;
            }
        }
        tally.record();

        // Seed the refined view: merged per-shard clusterings and the union
        // of the per-shard aggregates with the recovered cross edges
        // injected.
        let mut refined = merge_clusterings(shards.iter().map(|s| s.clustering()));
        // Repair ids come from the top shard namespace, which the sharded
        // engines reserve for the refiner (shard counts are capped below
        // it), so they never collide with a per-shard allocation.
        refined.set_id_watermark(shard_id_base(MAX_SHARDS - 1));
        let mut agg = ClusterAggregates::union(shards.iter().map(|s| s.aggregates()));
        for (a, b, sim) in mirror.edges() {
            if !crosses(assignment, a, b) {
                continue;
            }
            // A recovered cross edge between objects the merged per-shard
            // clusterings do not cover means the shard graphs and
            // clusterings disagree — a typed error, not a panic.
            let ca = refined
                .cluster_of(a)
                .ok_or(ShardConfigError::UnclusteredObject { id: a })?;
            let cb = refined
                .cluster_of(b)
                .ok_or(ShardConfigError::UnclusteredObject { id: b })?;
            agg.add_inter_edge(ca, cb, sim);
        }
        let engine = Engine::from_parts(
            mirror,
            refined,
            agg,
            dynamicc,
            0,
            false,
            PassScope::default(),
        );
        let mut refiner = CrossShardRefiner {
            engine,
            owner: assignment.clone(),
            cross_edge_count,
            cross_comparisons: pairs.len() as u64,
            last_report: RefineReport::default(),
        };
        // The initial repair has no previous fixed point to lean on: it runs
        // the full fixed point.
        refiner.repair(None, pairs.len(), max_threads);
        Ok(refiner)
    }

    /// Cumulative cross-shard similarity computations performed by this
    /// process (the cross-pair share of the sharded engine's global
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
        self.engine.clustering()
    }

    /// The object-to-shard ownership the refiner currently tracks (the
    /// sticky assignment durable replay re-routes batches from).
    pub(crate) fn shard_map(&self) -> BTreeMap<ObjectId, usize> {
        self.owner.clone()
    }

    /// The report of the most recent refinement pass (the initial repair
    /// right after construction, then one per served round).
    pub(crate) fn last_report(&self) -> RefineReport {
        self.last_report
    }

    /// Switch between the scoped repair (the default) and the reference
    /// full-repair mode that re-runs the unscoped global fixed point every
    /// round.  Both produce the same refined clustering; equivalence tests
    /// rely on this switch for their reference run.
    pub(crate) fn set_full_repair(&mut self, full_repair: bool) {
        self.engine.set_full_repair(full_repair);
    }

    /// Mirror edges of `id` whose other endpoint another shard owns.
    fn cross_degree(&self, id: ObjectId) -> usize {
        self.engine
            .graph()
            .neighbors(id)
            .filter(|&(n, _)| crosses(&self.owner, id, n))
            .count()
    }

    /// Fold one committed round into the refined view through the engine's
    /// own §6.1 fold, in the batch's original order, keeping the owner map
    /// and the cross-edge and cross-comparison counters in step, then repair
    /// the round's dirty closure.  The refiner's only round entry point —
    /// the synchronous sharded round, the pipelined refine worker, and
    /// recovery replay all call it — it reads nothing from the shard
    /// engines, so all three build the same view, down to the bit.
    pub(crate) fn fold_round(
        &mut self,
        batch: &OperationBatch,
        op_shards: &[usize],
        max_threads: usize,
    ) -> RefineReport {
        let span = dc_telemetry::registry().span("refine.fold");
        let comparisons_before = self.cross_comparisons;
        let mut seeds = DirtySeeds::default();
        for (op, &shard) in batch.iter().zip(op_shards) {
            // The op replaces (or drops) every mirror edge of its object:
            // uncount them under the old owner, count the new ones and the
            // cross-shard comparisons under the new one.
            let id = op.object_id();
            self.cross_edge_count -= self.cross_degree(id);
            match op {
                Operation::Remove { .. } => self.owner.remove(&id),
                Operation::Add { .. } | Operation::Update { .. } => self.owner.insert(id, shard),
            };
            let compared = self.engine.fold_op(op, &mut seeds).compared;
            self.cross_comparisons += compared
                .into_iter()
                .filter(|&n| crosses(&self.owner, id, n))
                .count() as u64;
            self.cross_edge_count += self.cross_degree(id);
        }
        self.engine.finish_round();
        span.finish();
        let pairs_computed = (self.cross_comparisons - comparisons_before) as usize;
        self.repair(Some(seeds), pairs_computed, max_threads)
    }

    /// Run the engine's repair under the `refine.repair` span and refresh
    /// the report.
    fn repair(
        &mut self,
        seeds: Option<DirtySeeds>,
        pairs_computed: usize,
        max_threads: usize,
    ) -> RefineReport {
        let reg = dc_telemetry::registry();
        let span = reg.span("refine.repair");
        let before = *self.engine.stats();
        let repair = self.engine.repair(seeds, max_threads, REFINE_PASSES);
        let after = *self.engine.stats();
        reg.add("refine.boundary_pairs", pairs_computed as u64);
        reg.add("refine.dirty_clusters", repair.dirty_clusters as u64);
        reg.add("refine.regions", repair.regions as u64);
        self.last_report = RefineReport {
            boundary_pairs_computed: pairs_computed,
            cross_edges_recovered: self.cross_edge_count,
            merges_applied: after.merges_applied - before.merges_applied,
            merges_rejected: after.merges_rejected - before.merges_rejected,
            splits_applied: after.splits_applied - before.splits_applied,
            splits_rejected: after.splits_rejected - before.splits_rejected,
            objective_evaluations: after.objective_evaluations - before.objective_evaluations,
            clusters: self.engine.clustering().cluster_count(),
            score: self.engine.score(),
            dirty_clusters: repair.dirty_clusters,
            regions: repair.regions,
            // The span's elapsed time feeds the report field even with
            // telemetry off; with it on, the same interval also lands in
            // the `refine.repair` histogram.
            repair_wall_ns: span.finish_ns(),
        };
        self.last_report
    }

    // ------------------------------------------------------------------
    // Durability hooks (see `ShardedDurableEngine`)
    // ------------------------------------------------------------------

    /// The borrowed snapshot the checkpoint path hands the snapshotter: the
    /// engine's state plus the owner map, clone-free.
    pub(crate) fn snapshot(&self) -> SnapshotRef<'_> {
        SnapshotRef {
            engine: &self.engine,
            owner: Some(&self.owner),
        }
    }

    /// Reassemble a refiner from a durable snapshot: the engine is restored
    /// bit-exactly and the cross-edge count is re-derived from the restored
    /// mirror's edges — no similarity is computed or counted.
    pub(crate) fn restore(
        state: EngineState,
        graph_config: GraphConfig,
        dynamicc: DynamicC,
    ) -> Result<Self, CodecError> {
        let (engine, owner) = state.into_engine(graph_config, dynamicc)?;
        if !owner.keys().copied().eq(engine.graph().object_ids()) {
            return Err(CodecError::Invalid(
                "restored assignment and mirror hold different objects".into(),
            ));
        }
        let cross_edge_count = engine
            .graph()
            .edges()
            .filter(|&(a, b, _)| crosses(&owner, a, b))
            .count();
        Ok(CrossShardRefiner {
            engine,
            owner,
            cross_edge_count,
            cross_comparisons: 0,
            last_report: RefineReport::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    //! The refine snapshot is the engine-state codec ([`crate::durable`])
    //! plus the owner map; these pin that codec's framing and round trip.
    use super::*;
    use dc_objective::DbIndexObjective;
    use dc_similarity::fixtures::{fixture_record, graph_from_edges};
    use dc_types::codec::{BinCodec, ByteReader, ByteWriter};
    use std::sync::Arc;

    /// A one-shard refiner over a small DB-index graph that has folded one
    /// round, so its pass state is non-trivial.
    fn toy_refiner() -> (CrossShardRefiner, GraphConfig, DynamicC) {
        let edges = [
            (1, 2, 0.9),
            (2, 3, 0.4),
            (3, 4, 0.8),
            (4, 5, 0.7),
            (5, 6, 0.2),
        ];
        let graph = graph_from_edges(6, &edges);
        let config = graph.config().clone();
        let dynamicc = DynamicC::with_objective(Arc::new(DbIndexObjective));
        let owner: BTreeMap<ObjectId, usize> =
            graph.object_ids().into_iter().map(|id| (id, 0)).collect();
        let shard = Engine::new(
            graph,
            Clustering::singletons(owner.keys().copied()),
            dynamicc.clone(),
        );
        let mut refiner =
            CrossShardRefiner::build(&[&shard], &owner, config.clone(), dynamicc.clone(), 1)
                .unwrap();
        let batch = OperationBatch::from_ops(vec![
            Operation::Remove {
                id: ObjectId::new(6),
            },
            Operation::Add {
                id: ObjectId::new(6),
                record: fixture_record(6),
            },
        ]);
        refiner.fold_round(&batch, &[0, 0], 1);
        (refiner, config, dynamicc)
    }

    #[test]
    fn refine_snapshot_round_trips_pass_state_and_owner_map() {
        let (refiner, config, dynamicc) = toy_refiner();
        let (_, floors, ceils) = refiner.engine.pass_state();
        assert!(
            !floors.is_empty() || !ceils.is_empty(),
            "the toy records rejections"
        );
        let bytes = refiner.snapshot().encode_to_vec();
        let state = EngineState::decode_exact(&bytes).expect("v3 round-trip");
        let restored = CrossShardRefiner::restore(state, config, dynamicc).unwrap();
        assert_eq!(restored.engine.pass_state(), refiner.engine.pass_state());
        assert_eq!(restored.owner, refiner.owner);
        assert_eq!(
            restored.snapshot().encode_to_vec(),
            bytes,
            "restored state re-encodes"
        );
    }

    #[test]
    fn truncated_and_bit_flipped_snapshots_are_errors_not_panics() {
        let (refiner, config, dynamicc) = toy_refiner();
        let bytes = refiner.snapshot().encode_to_vec();
        for len in 0..bytes.len() {
            assert!(
                EngineState::decode_exact(&bytes[..len]).is_err(),
                "{len} bytes"
            );
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            // Restoring either fails with a typed error or yields some
            // engine; it never panics.  Flips in the framing always fail.
            let restored = EngineState::decode_exact(&flipped).and_then(|state| {
                CrossShardRefiner::restore(state, config.clone(), dynamicc.clone())
            });
            assert!(
                bit >= 40 || restored.is_err(),
                "framing bit {bit} flipped unnoticed"
            );
        }
    }

    #[test]
    fn unversioned_v1_snapshots_are_rejected_with_a_typed_error() {
        // Neither unframed format can be misparsed: the pre-v3 shard
        // snapshot began with the round count, the v1 refine snapshot with
        // the mirror's record count.
        let (refiner, _, _) = toy_refiner();
        let engine = &refiner.engine;
        let mut shard = ByteWriter::new();
        shard.put_u64(engine.rounds_served() as u64);
        engine.graph().encode_state_into(&mut shard);
        engine.clustering().encode(&mut shard);
        engine.aggregates().export_state().encode(&mut shard);
        engine.stats().encode(&mut shard);
        let mut refine = ByteWriter::new();
        engine.graph().encode_state_into(&mut refine);
        engine.clustering().encode(&mut refine);
        engine.aggregates().export_state().encode(&mut refine);
        refine.put_usize(0);
        for bytes in [shard.into_bytes(), refine.into_bytes()] {
            let message = EngineState::decode_exact(&bytes).unwrap_err().to_string();
            assert!(
                message.contains("unversioned") && message.contains("magic"),
                "the rejection must say what was found: {message}"
            );
        }
    }

    #[test]
    fn unknown_snapshot_versions_are_rejected_with_a_typed_error() {
        let mut bytes = toy_refiner().0.snapshot().encode_to_vec();
        // The version byte follows the magic; 2 is the refine-only format.
        for version in [2, bytes[4] + 1] {
            bytes[4] = version;
            let err = EngineState::decode_exact(&bytes).unwrap_err();
            assert!(
                matches!(&err, CodecError::Invalid(m) if m.contains(&format!("version {version}"))),
                "version rejection must name the version: {err}"
            );
        }
    }

    #[test]
    fn snapshot_ref_is_encode_only() {
        let bytes = toy_refiner().0.snapshot().encode_to_vec();
        let err = SnapshotRef::decode(&mut ByteReader::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("encode-only"));
    }
}
