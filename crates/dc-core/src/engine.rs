//! The persistent serving engine: graph + clustering + aggregates owned
//! across rounds, repaired by the scoped Algorithm 3.
//!
//! [`DynamicC::recluster`](crate::DynamicC) is stateless: every call pays one
//! full O(E) [`ClusterAggregates`] build and re-verifies every cluster.  The
//! [`Engine`] owns that state and only repairs what a round can change:
//!
//! 1. [`Engine::apply_round`] folds the batch into the graph, the
//!    clustering, and the aggregates in lockstep (O(degree) per operation —
//!    §6.1 initial processing fused with aggregate maintenance), collecting
//!    the round's dirty seeds: each operation's object, its neighbours
//!    before removal and after insertion, and the cluster it left;
//! 2. Algorithm 3 then runs against the maintained aggregate, scoped to the
//!    dirty closure of those seeds (the `dirty` module): clusters outside it
//!    replay the rejection the previous fixed point proved.
//!
//! The first round, the round after one that did not converge, every round
//! of an [`Opaque`](dc_objective::DecisionLocality) objective, and the
//! reference full-repair mode run the full fixed point instead.  Every
//! shard is an `Engine`, and so is the cross-shard refiner's global view
//! ([`crate::refine`]).
//!
//! The invariant (checked by the equivalence tests): after every
//! `apply_round`, `(graph, clustering, aggregates)` are mutually consistent,
//! no full aggregate build happened, and the clustering is exactly what
//! `DynamicC::recluster` would produce — with at most as many objective
//! evaluations.

use crate::config::DynamicCStats;
use crate::dirty::{repair_regions, DirtySeeds, PassScope};
use crate::dynamic::{DynamicC, ENGINE_PASSES};
use crate::shard::parallel_map;
use dc_evolution::{merge_features, split_features};
use dc_objective::DecisionLocality;
use dc_similarity::{full_build_count, AppliedOp, ClusterAggregates, SimilarityGraph};
use dc_types::{ClusterId, Clustering, Operation, OperationBatch};
use std::collections::{BTreeMap, BTreeSet};

/// A persistent serving engine owning the similarity graph, the current
/// clustering, the maintained aggregates, the DynamicC instance, and the
/// cross-round state of the scoped passes.
pub struct Engine {
    graph: SimilarityGraph,
    clustering: Clustering,
    aggregates: ClusterAggregates,
    dynamicc: DynamicC,
    rounds_served: usize,
    /// Model-flag cache, evaluation set, and proven rejection intervals of
    /// the scoped passes (see [`crate::dirty`]).
    scope: PassScope,
    /// Whether the previous repair reached its fixed point within
    /// `max_passes`.  When it did not, the clean-skip induction has no base
    /// case, so the next round runs the full fixed point.
    converged: bool,
    /// Reference mode: run the unscoped passes over every cluster every
    /// round.  Equivalence tests compare the scoped path against it.
    full_repair: bool,
}

/// What one [`Engine::apply_round`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundReport {
    /// 1-based index of the round within this engine's lifetime.
    pub round: usize,
    /// Number of operations in the round's batch.
    pub operations: usize,
    /// Objects isolated into fresh singleton clusters by initial processing.
    pub isolated: usize,
    /// Live objects after the round.
    pub objects: usize,
    /// Live clusters after the round.
    pub clusters: usize,
    /// Merges applied by Algorithm 1 during this round.
    pub merges_applied: usize,
    /// Splits applied by Algorithm 2 during this round.
    pub splits_applied: usize,
    /// Objective delta evaluations performed during verification.
    pub objective_evaluations: u64,
    /// Full O(E) aggregate builds triggered by this round (0 in steady
    /// state — the whole point of the engine).
    pub full_aggregate_builds: u64,
    /// Objective score of the clustering after the round (lower is better),
    /// read off the maintained aggregates.
    pub score: f64,
}

/// The scope of one [`Engine::repair`]: the size of its evaluation set
/// (0 when the round changed nothing within decision reach and the pass
/// loop was skipped; every live cluster on the full path) and the number
/// of connected repair regions it decomposed into.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Repair {
    pub(crate) dirty_clusters: usize,
    pub(crate) regions: usize,
}

impl Engine {
    /// Create an engine over an already-populated graph and clustering
    /// (typically the output of the batch algorithm on the initial data) and
    /// a trained [`DynamicC`].  Performs the one-off full aggregate build.
    pub fn new(graph: SimilarityGraph, clustering: Clustering, dynamicc: DynamicC) -> Self {
        let aggregates = ClusterAggregates::new(&graph, &clustering);
        Self::from_parts(
            graph,
            clustering,
            aggregates,
            dynamicc,
            0,
            false,
            PassScope::default(),
        )
    }

    /// Reassemble an engine from parts whose consistency the caller vouches
    /// for (`aggregates` must describe `(graph, clustering)` exactly) without
    /// a full aggregate build — recovery restores every part bit-for-bit.
    pub(crate) fn from_parts(
        graph: SimilarityGraph,
        clustering: Clustering,
        aggregates: ClusterAggregates,
        dynamicc: DynamicC,
        rounds_served: usize,
        converged: bool,
        scope: PassScope,
    ) -> Self {
        Engine {
            graph,
            clustering,
            aggregates,
            dynamicc,
            rounds_served,
            scope,
            converged,
            full_repair: false,
        }
    }

    /// The owned similarity graph.
    pub fn graph(&self) -> &SimilarityGraph {
        &self.graph
    }

    /// The current clustering.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// The maintained aggregates.
    pub fn aggregates(&self) -> &ClusterAggregates {
        &self.aggregates
    }

    /// The owned DynamicC instance.
    pub fn dynamicc(&self) -> &DynamicC {
        &self.dynamicc
    }

    /// Mutable access to the owned DynamicC (e.g. to retrain between
    /// rounds).
    pub fn dynamicc_mut(&mut self) -> &mut DynamicC {
        &mut self.dynamicc
    }

    /// Cumulative DynamicC statistics.
    pub fn stats(&self) -> &DynamicCStats {
        self.dynamicc.stats()
    }

    /// Rounds served so far.
    pub fn rounds_served(&self) -> usize {
        self.rounds_served
    }

    /// The scoped passes' history-bearing state, for snapshots: the
    /// convergence flag, the merge floors and the split ceilings.
    pub(crate) fn pass_state(
        &self,
    ) -> (bool, &BTreeMap<ClusterId, f64>, &BTreeMap<ClusterId, f64>) {
        let (floors, ceils) = self.scope.rejection_intervals();
        (self.converged, floors, ceils)
    }

    /// Switch between the scoped repair (the default) and the reference
    /// full-repair mode.  Both produce the same clusterings.
    pub(crate) fn set_full_repair(&mut self, full_repair: bool) {
        self.full_repair = full_repair;
    }

    /// The objective score of the clustering, read off the aggregates.
    pub(crate) fn score(&self) -> f64 {
        self.dynamicc
            .objective()
            .evaluate_with(&self.aggregates, &self.graph, &self.clustering)
    }

    /// Serve one round: fold the batch into graph, clustering, and
    /// aggregates in lockstep (O(degree) per operation), then run Algorithm 3
    /// over the round's dirty closure against the maintained aggregate.  No
    /// full aggregate build is performed.
    pub fn apply_round(&mut self, batch: &OperationBatch) -> RoundReport {
        let reg = dc_telemetry::registry();
        let span = reg.span("engine.apply_round");
        let stats_before = *self.dynamicc.stats();
        let builds_before = full_build_count();

        // §6.1 initial processing, fused with aggregate maintenance.
        let mut seeds = DirtySeeds::default();
        let isolated = batch
            .iter()
            .filter(|op| self.fold_op(op, &mut seeds).isolated)
            .count();
        // §6.4 Algorithm 3 over the dirty closure.
        self.repair(Some(seeds), 1, ENGINE_PASSES);
        self.finish_round();

        // Score before reading the build counter: an objective without an
        // `evaluate_with` override falls back to a full evaluation, and that
        // hidden build must show up in the report rather than vanish.
        let score = self.score();
        let stats = self.dynamicc.stats();
        let report = RoundReport {
            round: self.rounds_served,
            operations: batch.len(),
            isolated,
            objects: self.clustering.object_count(),
            clusters: self.clustering.cluster_count(),
            merges_applied: stats.merges_applied - stats_before.merges_applied,
            splits_applied: stats.splits_applied - stats_before.splits_applied,
            objective_evaluations: stats.objective_evaluations - stats_before.objective_evaluations,
            full_aggregate_builds: full_build_count() - builds_before,
            score,
        };
        span.finish();
        reg.add("engine.rounds", 1);
        reg.add("engine.operations", report.operations as u64);
        reg.add("engine.merges_applied", report.merges_applied as u64);
        reg.add("engine.splits_applied", report.splits_applied as u64);
        report
    }

    /// §6.1 initial processing of one operation, recording its dirty seeds:
    /// edges only appear or disappear incident to the op's object, so every
    /// aggregate row the fold mutates belongs to the cluster of the object
    /// or of a neighbour before removal or after insertion — or to the
    /// cluster the object leaves, which stays a seed even once empty.
    pub(crate) fn fold_op(&mut self, op: &Operation, seeds: &mut DirtySeeds) -> AppliedOp {
        let id = op.object_id();
        seeds.touch(&self.graph, id);
        if let Some(cid) = self.clustering.cluster_of(id) {
            seeds.seed_cluster(cid);
        }
        let applied = self
            .aggregates
            .apply_op(&mut self.graph, &mut self.clustering, op);
        seeds.touch(&self.graph, id);
        applied
    }

    /// Count a round folded through [`Engine::fold_op`] as served.
    pub(crate) fn finish_round(&mut self) {
        self.rounds_served += 1;
    }

    /// §6.4: alternate the trained merge and split passes until a fixed
    /// point, restricted to the dirty closure of `seeds` — or over every
    /// cluster when `seeds` is `None`, the previous round did not converge,
    /// the objective is `Opaque`, or in full-repair mode.  Passes are timed
    /// under `spans`; stale model flags are refreshed region-parallel on at
    /// most `max_threads` workers, once per call.
    ///
    /// Both paths apply the same merges and splits and allocate the same
    /// cluster ids: the scoped passes walk the same candidate queue and only
    /// skip evaluations whose rejection the previous fixed point proved —
    /// on neighbourhood cleanliness alone for sum objectives, and also
    /// within the rejection's score-validity interval for mean objectives
    /// ([`DecisionLocality`]).  Skipped evaluations are not counted, so the
    /// evaluation and rejection counters are ≤ their full-pass values.
    pub(crate) fn repair(
        &mut self,
        seeds: Option<DirtySeeds>,
        max_threads: usize,
        spans: [&'static str; 2],
    ) -> Repair {
        let locality = self.dynamicc.objective().decision_locality();
        let seeds = seeds.filter(|_| {
            !self.full_repair && self.converged && locality != DecisionLocality::Opaque
        });
        // Close the seeds into the evaluation set: seeds ∪ N(seeds) have
        // stale model flags (features read the own row plus neighbour
        // sizes), and one more neighbour hop covers the partner-ranking
        // reach of the merge decision.
        let eval: BTreeSet<ClusterId> = match seeds {
            None => {
                self.scope.clear_flags();
                self.clustering.cluster_ids().into_iter().collect()
            }
            Some(seeds) => {
                let seeds = seeds.into_live_clusters(&self.clustering);
                let mut stale = seeds.clone();
                for &c in &seeds {
                    stale.extend(self.aggregates.neighbour_clusters(c));
                }
                let mut eval = stale.clone();
                for &c in &stale {
                    self.scope.invalidate(c);
                    eval.extend(self.aggregates.neighbour_clusters(c));
                }
                eval
            }
        };

        // Partition the dirty set into independent repair regions and
        // refresh the stale model flags region-parallel.  Flag values are
        // pure functions of the maintained aggregates and the frozen
        // models, so the parallel refresh is deterministic and bit-equal to
        // the lazy in-pass computation it pre-empts.
        let regions = repair_regions(&eval, &self.aggregates);
        let repair = Repair {
            dirty_clusters: eval.len(),
            regions: regions.len(),
        };
        if !self.full_repair {
            // The unscoped reference passes never read the cache.
            let missing: Vec<Vec<ClusterId>> = regions
                .into_iter()
                .map(|region| {
                    region
                        .into_iter()
                        .filter(|&c| !self.scope.has_flags(c))
                        .collect::<Vec<_>>()
                })
                .filter(|region| !region.is_empty())
                .collect();
            let (agg, clustering) = (&self.aggregates, &self.clustering);
            let models = self.dynamicc.models();
            let theta_scale = self.dynamicc.config().theta_scale;
            let refreshed = parallel_map(&missing, max_threads, |region| {
                region
                    .iter()
                    .map(|&cid| {
                        let merge = models.predicts_merge(&merge_features(agg, cid), theta_scale);
                        // Split flags are only consulted for clusters of
                        // size ≥ 2; sizes only change through invalidating
                        // events, so caching `false` for singletons is safe.
                        let split = clustering.cluster_size(cid) >= 2
                            && models.predicts_split(&split_features(agg, cid), theta_scale);
                        (cid, merge, split)
                    })
                    .collect::<Vec<_>>()
            });
            for (cid, merge, split) in refreshed.into_iter().flatten() {
                self.scope.store_flags(cid, merge, split);
            }
        }

        if eval.is_empty() {
            // Nothing within decision reach changed: the previous fixed
            // point still stands verbatim and the pass loop is skipped.
            self.converged = true;
        } else {
            self.scope.set_eval(eval);
            let scope = (!self.full_repair).then_some(&mut self.scope);
            self.converged = self.dynamicc.run_passes(
                &self.graph,
                &mut self.clustering,
                &mut self.aggregates,
                scope,
                spans,
            );
        }
        repair
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("objects", &self.clustering.object_count())
            .field("clusters", &self.clustering.cluster_count())
            .field("rounds_served", &self.rounds_served)
            .field("dynamicc", &self.dynamicc)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_objective::CorrelationObjective;
    use dc_similarity::fixtures::{fixture_record, graph_from_edges};
    use dc_types::{ObjectId, Operation};
    use std::sync::Arc;

    fn oid(raw: u64) -> ObjectId {
        ObjectId::new(raw)
    }

    #[test]
    fn rounds_run_without_full_aggregate_builds() {
        // Seed: objects 1..=2 already clustered together; 3 and 4 arrive,
        // each a duplicate of the existing entity or of each other.
        let graph = graph_from_edges(2, &[(1, 2, 0.9)]);
        let clustering = Clustering::from_groups([vec![oid(1), oid(2)]]).unwrap();
        let dynamicc = DynamicC::with_objective(Arc::new(CorrelationObjective));
        let mut engine = Engine::new(graph, clustering, dynamicc);

        // The fixture graph's edge-table measure only knows edges listed at
        // build time, so new objects arrive isolated — which is fine: the
        // round must still process them and keep all three states in sync.
        let mut batch = OperationBatch::new();
        batch.push(Operation::Add {
            id: oid(3),
            record: fixture_record(3),
        });
        batch.push(Operation::Add {
            id: oid(4),
            record: fixture_record(4),
        });
        let report = engine.apply_round(&batch);
        assert_eq!(report.round, 1);
        assert_eq!(report.operations, 2);
        assert_eq!(report.isolated, 2);
        assert_eq!(report.objects, 4);
        assert_eq!(
            report.full_aggregate_builds, 0,
            "the engine round loop must not rebuild aggregates"
        );
        engine.clustering().check_invariants().unwrap();
        assert_eq!(engine.rounds_served(), 1);

        // A removal round keeps the state consistent too.
        let mut batch2 = OperationBatch::new();
        batch2.push(Operation::Remove { id: oid(4) });
        let report2 = engine.apply_round(&batch2);
        assert_eq!(report2.objects, 3);
        assert_eq!(report2.full_aggregate_builds, 0);
        assert!(!engine.graph().contains(oid(4)));
        assert!(!engine.clustering().contains_object(oid(4)));
    }

    #[test]
    fn debug_exposes_round_state() {
        let graph = graph_from_edges(2, &[(1, 2, 0.9)]);
        let clustering = Clustering::from_groups([vec![oid(1), oid(2)]]).unwrap();
        let dynamicc = DynamicC::with_objective(Arc::new(CorrelationObjective));
        let engine = Engine::new(graph, clustering, dynamicc);
        let s = format!("{engine:?}");
        assert!(s.contains("rounds_served"));
        assert_eq!(engine.stats().observed_rounds, 0);
    }
}
