//! Sharded parallel serving: N independent engines behind one facade,
//! [`Sharded`], for any shard count N ≥ 1.
//!
//! Similarity edges only form between records that share a block, so
//! partitioning objects by their canonical blocking key ([`ShardRouter`])
//! yields shards whose engines never talk to each other.  A round is one
//! apply call per shard, run in parallel on a hand-rolled scoped-thread
//! pool (`std::thread::scope`).  The shard kind is the engine's one type
//! parameter: [`ShardedEngine`] serves in-memory [`Engine`]s and
//! [`ShardedDurableEngine`] logged [`DurableEngine`]s, through the same
//! round and the same accessors.
//!
//! ## What the partition preserves
//!
//! * **Objects** — every live object is owned by exactly one shard, decided
//!   by the router at first sight and sticky until the object is removed.
//! * **Cluster-id namespaces** — shard `i` allocates cluster ids from
//!   `shard_id_base(i) + watermark` upward, so per-shard clusterings merge
//!   into one global view without id collisions.  Clusters inherited whole
//!   from the pre-partition clustering keep their original ids.
//! * **Statistics** — the global [`DynamicCStats`] / comparison counters /
//!   [`RoundReport`]s are the field-wise sums of the per-shard ones.
//!
//! What the partition drops — similarity edges between shards — the
//! cross-shard refiner ([`crate::refine`]) recovers: its global view is an
//! [`Engine`] over every record, so the refined clustering
//! ([`Sharded::refined_clustering`]) is pair-identical to the unsharded
//! engine's (`tests/shard_quality.rs`).  With **one** shard nothing is
//! dropped or renumbered, and the sharded engine is bit-identical to an
//! unsharded [`Engine`] — clusterings, stats, and comparison counters
//! (`tests/sharded_equivalence.rs`).
//!
//! ## Durable sharding
//!
//! [`ShardedDurableEngine`] gives every shard its own WAL + snapshot
//! directory (`shard-000/`, …), plus a `refine/` directory whose WAL logs
//! every round's full batch.  One commit step, shared with the pipelined
//! front-end ([`crate::pipeline`]), stages every shard's sub-batch and seals
//! the round on the refine WAL, the commit point (with one shard, the
//! shard's own WAL is).  Recovery reopens each shard capped at the committed
//! round — rolling back never-acknowledged rounds — and heals shards that
//! fell short by re-routing the logged batches.  Checkpoints are driven
//! globally after a round completed on every shard, so no snapshot can get
//! ahead of the committed round.

use crate::config::DynamicCStats;
use crate::durable::{tail_segment, DurabilityOptions, EngineState, RecoveryReport};
use crate::dynamic::DynamicC;
use crate::engine::{Engine, RoundReport};
use crate::pipeline::lock_unpoisoned;
use crate::refine::{CrossShardRefiner, RefineReport};
use crate::DurableEngine;
use dc_similarity::GraphState;
use dc_similarity::{GraphConfig, RoutedBatch, ShardRouter, SimilarityGraph};
use dc_storage::wal::list_segments;
use dc_storage::{Snapshotter, StorageError, Wal};
use dc_types::{shard_id_base, Clustering, ObjectId, OperationBatch, MAX_SHARDS};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Why a sharded engine could not be constructed over the given inputs.
///
/// Construction used to `assert!` on these; a typed error lets callers
/// surface the misconfiguration (e.g. an operator passing a previous
/// multi-shard run's merged clustering back in) instead of aborting the
/// process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardConfigError {
    /// The clustering's id watermark does not fit the shard-0 namespace, so
    /// partitioning it across more than one shard would collide with other
    /// shards' id namespaces.  This is what a
    /// [`ShardedEngine::merged_clustering`] (or refined clustering) from a
    /// previous multi-shard run looks like — re-sharding means re-clustering
    /// from the records.
    WatermarkOverflow {
        /// The offending id watermark.
        watermark: u64,
    },
    /// More shards were requested than the shard-tagged cluster-id scheme
    /// can serve: the top namespace is reserved for the cross-shard
    /// refinement pass's repair ids.
    TooManyShards {
        /// The requested shard count.
        n_shards: usize,
        /// The maximum supported count ([`MAX_SHARDS`]` - 1`).
        max_shards: usize,
    },
    /// The clustering names an object the graph holds no record for, so the
    /// router has nothing to derive the object's shard from.  The graph and
    /// clustering handed to a sharded constructor must cover exactly the
    /// same live objects.
    ClusteredObjectMissing {
        /// The clustered object absent from the graph.
        id: ObjectId,
    },
    /// A shard carries a different [`crate::DynamicCConfig`] than shard 0.
    /// The cross-shard refinement pass reads its pass configuration (theta
    /// scale, pass budget) from shard 0 for its whole lifetime, so a
    /// divergent shard would be silently overridden — rejected at refiner
    /// construction instead.
    MismatchedDynamicCConfig {
        /// The first shard whose configuration disagrees with shard 0's.
        shard: usize,
    },
    /// A recovered cross-shard edge touches an object the merged per-shard
    /// clusterings do not cover: the shard graphs and clusterings handed to
    /// the refiner disagree about the live object set.
    UnclusteredObject {
        /// The object with a graph record but no cluster.
        id: ObjectId,
    },
    /// The object-to-shard assignment names an object its owning shard's
    /// graph holds no record for.
    AssignedObjectMissing {
        /// The assigned object absent from its shard's graph.
        id: ObjectId,
        /// The shard the assignment claims owns it.
        shard: usize,
    },
    /// The mirror graph's blocking index proposed a cross-shard candidate
    /// whose record the mirror does not hold — an internal inconsistency
    /// between the mirror's index and its records.
    MirrorRecordMissing {
        /// The candidate object absent from the mirror.
        id: ObjectId,
    },
}

impl std::fmt::Display for ShardConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardConfigError::WatermarkOverflow { watermark } => write!(
                f,
                "cluster-id watermark {watermark} overflows the shard-0 namespace \
                 (the clustering was produced by a multi-shard run; re-cluster from \
                 the records before re-sharding)"
            ),
            ShardConfigError::TooManyShards {
                n_shards,
                max_shards,
            } => write!(
                f,
                "{n_shards} shards exceed the supported maximum of {max_shards} \
                 (the top cluster-id namespace is reserved for refinement repair ids)"
            ),
            ShardConfigError::ClusteredObjectMissing { id } => write!(
                f,
                "clustered object {id} has no record in the graph \
                 (the graph and clustering must cover the same live objects)"
            ),
            ShardConfigError::MismatchedDynamicCConfig { shard } => write!(
                f,
                "shard {shard} carries a DynamicC configuration different from \
                 shard 0's (cross-shard refinement requires an identical \
                 configuration on every shard)"
            ),
            ShardConfigError::UnclusteredObject { id } => write!(
                f,
                "object {id} has a graph record but no cluster \
                 (the shard graphs and clusterings disagree about the live \
                 object set)"
            ),
            ShardConfigError::AssignedObjectMissing { id, shard } => write!(
                f,
                "assigned object {id} has no record in shard {shard}'s graph \
                 (the assignment and the shard graphs disagree)"
            ),
            ShardConfigError::MirrorRecordMissing { id } => write!(
                f,
                "cross-shard candidate {id} is missing from the refiner's \
                 mirror graph (the mirror's blocking index and its records \
                 are out of sync)"
            ),
        }
    }
}

impl std::error::Error for ShardConfigError {}

/// Reject shard counts the shard-tagged cluster-id scheme cannot serve.
fn check_shard_count(n_shards: usize) -> Result<(), ShardConfigError> {
    let max_shards = MAX_SHARDS - 1;
    if n_shards > max_shards {
        return Err(ShardConfigError::TooManyShards {
            n_shards,
            max_shards,
        });
    }
    Ok(())
}

/// One shard's bootstrap `(graph, clustering)`.
type ShardSeed = (SimilarityGraph, Clustering);

/// Deterministically split one `(graph, clustering)` into per-shard seeds
/// and the object → shard assignment: records by routing key, edges
/// surviving only within a shard, clusters kept verbatim when they land
/// whole in one shard and re-created with fresh shard-tagged ids when the
/// router splits them.
fn partition_state(
    router: &ShardRouter,
    graph: &SimilarityGraph,
    clustering: &Clustering,
) -> Result<(Vec<ShardSeed>, BTreeMap<ObjectId, usize>), ShardConfigError> {
    let n = router.n_shards();
    check_shard_count(n)?;
    let watermark = clustering.id_watermark();
    if n > 1 && watermark > shard_id_base(1) {
        return Err(ShardConfigError::WatermarkOverflow { watermark });
    }

    let mut assignment: BTreeMap<ObjectId, usize> = BTreeMap::new();
    for id in graph.object_ids() {
        // dc-lint: allow(R1) reason="graph invariant: object_ids() yields only live ids, so record() cannot miss; a violation is graph corruption, not a servable state"
        let record = graph.record(id).expect("live object");
        assignment.insert(id, router.route(record));
    }

    // Graph: records and intra-shard edges; the donor's comparison counter
    // is inherited by shard 0 so the merged counter stays continuous.
    let full = graph.export_state();
    let mut states: Vec<GraphState> = (0..n)
        .map(|shard| GraphState {
            records: Vec::new(),
            edges: Vec::new(),
            comparisons: if shard == 0 { full.comparisons } else { 0 },
        })
        .collect();
    for (id, record) in full.records {
        states[assignment[&id]].records.push((id, record));
    }
    // Cross-shard edges are *not* forwarded to any shard: the refinement
    // pass recovers them (and keeps the recovered-edge count exact across
    // rounds — see `crate::refine`).
    for (a, b, sim) in full.edges {
        let (sa, sb) = (assignment[&a], assignment[&b]);
        if sa == sb {
            states[sa].edges.push((a, b, sim));
        }
    }

    // Clustering: split donor clusters by shard.  Whole clusters keep their
    // ids; split pieces get fresh ids from the owning shard's namespace.
    let mut kept: Vec<Vec<(dc_types::ClusterId, Vec<ObjectId>)>> = vec![Vec::new(); n];
    let mut fresh: Vec<Vec<Vec<ObjectId>>> = vec![Vec::new(); n];
    for (cid, cluster) in clustering.iter() {
        let mut pieces: BTreeMap<usize, Vec<ObjectId>> = BTreeMap::new();
        for oid in cluster.iter() {
            // User-reachable: `ShardedEngine::new` takes the graph and the
            // clustering as independent inputs, so a mismatched pair must
            // surface as a typed error, not a panic.
            let shard = *assignment
                .get(&oid)
                .ok_or(ShardConfigError::ClusteredObjectMissing { id: oid })?;
            pieces.entry(shard).or_default().push(oid);
        }
        if let Some((shard, members)) = (pieces.len() == 1).then(|| pieces.pop_first()).flatten() {
            kept[shard].push((cid, members));
        } else {
            for (shard, members) in pieces {
                fresh[shard].push(members);
            }
        }
    }

    let config = graph.config();
    let mut seeds = Vec::with_capacity(n);
    for (shard, state) in states.into_iter().enumerate() {
        let mut shard_clustering = Clustering::new();
        for (cid, members) in kept[shard].drain(..) {
            shard_clustering
                .insert_cluster_with_id(cid, members)
                // dc-lint: allow(R1) reason="construction invariant: donor cluster ids are unique in a well-formed Clustering and each lands in exactly one shard, so no id can collide"
                .expect("donor cluster ids are globally unique");
        }
        shard_clustering.set_id_watermark(shard_id_base(shard) + watermark);
        for members in fresh[shard].drain(..) {
            shard_clustering
                .create_cluster(members)
                // dc-lint: allow(R1) reason="construction invariant: pieces partition a donor cluster's members, so the fresh clusters are disjoint and non-empty by construction"
                .expect("partition pieces are disjoint");
        }
        let shard_graph = SimilarityGraph::import_state(config.clone(), state)
            // dc-lint: allow(R1) reason="construction invariant: the state was filtered from a valid exported graph (records routed whole, edges kept only intra-shard), so re-import cannot fail"
            .expect("partitioned state is well-formed by construction");
        seeds.push((shard_graph, shard_clustering));
    }
    Ok((seeds, assignment))
}

/// Distribute one trained [`DynamicC`] across `n` shards: shard 0 inherits
/// the donor (with its training statistics), the others carry the same
/// models with zeroed counters — so the merged statistics stay the plain
/// sum of the per-shard ones, continuous with the donor's history.  One
/// more zeroed copy is returned beside them for the cross-shard refiner.
fn distribute_dynamicc(donor: DynamicC, n: usize) -> (Vec<DynamicC>, DynamicC) {
    let mut fresh = donor.clone();
    fresh.restore_stats(DynamicCStats::default());
    let shards = std::iter::once(donor)
        .chain(std::iter::repeat(fresh.clone()))
        .take(n)
        .collect();
    (shards, fresh)
}

/// Map `f` over `items` on a scoped thread pool of at most `max_threads`
/// workers (contiguous chunks, results in input order), and fold the
/// workers' thread-local telemetry sinks back into the calling thread.
///
/// The fold is the fan-out half of the telemetry threading model: the
/// telemetry mode is captured once before spawning and propagated to every
/// worker, each worker drains its whole sink (counters, gauges, histograms —
/// the full-build counter that [`BuildCounter::scope`] assertions read
/// included, since workers are fresh scoped threads whose sinks start
/// empty), and the deltas merge back **in worker order**, so gauge
/// last-writer-wins stays deterministic.  A worker panic is propagated
/// (`resume_unwind`), not wrapped — the panic payload and message survive
/// to the caller's test harness.
///
/// [`BuildCounter::scope`]: dc_similarity::BuildCounter::scope
fn parallel_chunks<I: Send, R: Send>(
    items: Vec<I>,
    max_threads: usize,
    f: impl Fn(I) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let chunk = n.div_ceil(max_threads.clamp(1, n.max(1))).max(1);
    let enabled = dc_telemetry::registry().is_enabled();
    let mut items = items.into_iter();
    let chunk_results: Vec<(Vec<R>, dc_telemetry::ThreadDelta)> = std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::new();
        loop {
            let part: Vec<I> = items.by_ref().take(chunk).collect();
            if part.is_empty() {
                break;
            }
            handles.push(scope.spawn(move || {
                let reg = dc_telemetry::registry();
                reg.set_enabled(enabled);
                let results = part.into_iter().map(f).collect::<Vec<R>>();
                (results, reg.drain())
            }));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut out = Vec::with_capacity(n);
    for (results, delta) in chunk_results {
        out.extend(results);
        delta.merge_into_current();
    }
    out
}

/// Run `f` once per `(shard, batch)` pair on [`parallel_chunks`]'s pool
/// (always on workers, even for one shard).  Per-shard apply wall time
/// lands in the `shard.apply` histogram, recorded on the worker that served
/// the shard.
fn parallel_shard_rounds<T: Send, R: Send>(
    shards: &mut [T],
    batches: &[OperationBatch],
    max_threads: usize,
    f: impl Fn(&mut T, &OperationBatch) -> R + Sync,
) -> Vec<R> {
    assert_eq!(shards.len(), batches.len());
    let pairs: Vec<(&mut T, &OperationBatch)> = shards.iter_mut().zip(batches).collect();
    parallel_chunks(pairs, max_threads, |(shard, batch)| {
        let span = dc_telemetry::registry().span("shard.apply");
        let result = f(shard, batch);
        span.finish();
        result
    })
}

/// Record the router's per-round batch-size imbalance as gauges: the
/// largest sub-batch, the mean, and their ratio (1.0 = perfectly even).
/// All three are functions of the deterministic routing decision, so they
/// are structural fields in the telemetry dump.
fn record_batch_imbalance(sub_batches: &[OperationBatch]) {
    let reg = dc_telemetry::registry();
    if !reg.is_enabled() || sub_batches.is_empty() {
        return;
    }
    let max = sub_batches.iter().map(|b| b.len()).max().unwrap_or(0);
    let total: usize = sub_batches.iter().map(|b| b.len()).sum();
    let mean = total as f64 / sub_batches.len() as f64;
    reg.gauge("shard.batch_max", max as f64);
    reg.gauge("shard.batch_mean", mean);
    reg.gauge(
        "shard.batch_imbalance",
        if mean > 0.0 { max as f64 / mean } else { 1.0 },
    );
}

/// Map `f` over `items` on [`parallel_chunks`]'s pool.  An engine's repair
/// uses this to refresh model flags region-parallel, once per round; `f`
/// must be a pure function of its item for the fan-out to stay
/// deterministic.  Small inputs (or `max_threads <= 1`) run inline with no
/// thread overhead.
pub(crate) fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    max_threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if max_threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    parallel_chunks(items.iter().collect(), max_threads, f)
}

/// What one sharded round did: the merged global view plus the per-shard
/// reports it was summed from, plus the cross-shard refinement pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRoundReport {
    /// The global view: every counter is the field-wise sum of the per-shard
    /// reports (and `score` the sum of the per-shard objective scores).
    pub merged: RoundReport,
    /// One [`RoundReport`] per shard, in shard order.
    pub per_shard: Vec<RoundReport>,
    /// What the cross-shard refinement pass did after the per-shard rounds
    /// (`None` with one shard, where there is nothing to refine).
    pub refine: Option<RefineReport>,
}

fn merge_round_reports(
    round: usize,
    per_shard: Vec<RoundReport>,
    refine: Option<RefineReport>,
) -> ShardedRoundReport {
    let mut merged = RoundReport {
        round,
        ..RoundReport::default()
    };
    for r in &per_shard {
        merged.operations += r.operations;
        merged.isolated += r.isolated;
        merged.objects += r.objects;
        merged.clusters += r.clusters;
        merged.merges_applied += r.merges_applied;
        merged.splits_applied += r.splits_applied;
        merged.objective_evaluations += r.objective_evaluations;
        merged.full_aggregate_builds += r.full_aggregate_builds;
        merged.score += r.score;
    }
    ShardedRoundReport {
        merged,
        per_shard,
        refine,
    }
}

mod kind {
    //! The sealed shard trait: public so it can bound [`Sharded`]'s
    //! parameter, inside a private module so no caller names or implements
    //! it — every method of the sharded engine is inherent.

    use super::{DurabilityOptions, Engine, OperationBatch, PathBuf, RefineLog, RoundReport};
    use super::{RoutedBatch, Sharded};

    /// A kind of shard a [`Sharded`] engine serves — an in-memory
    /// [`Engine`] or a logged [`crate::DurableEngine`] — and the per-kind
    /// halves of its one round.  The defaults are the in-memory kind's:
    /// nothing to log, nothing to checkpoint.
    pub trait Shard: Send + Sized {
        /// Why a round can fail: never in memory, a storage error when
        /// durable.
        type Error;
        /// What the engine keeps beside its shards: nothing in memory, the
        /// durability options, root directory and refine log when durable.
        type Log;

        /// The shard's engine.
        fn engine(&self) -> &Engine;

        /// Fold one routed (and, when durable, already logged) sub-batch
        /// into the shard.
        fn apply(&mut self, sub: &OperationBatch) -> RoundReport;

        /// Make the routed round durable before any shard applies it.
        fn log_round(
            _sharded: &mut Sharded<Self>,
            _batch: &OperationBatch,
            _routed: &RoutedBatch,
        ) -> Result<(), Self::Error> {
            Ok(())
        }

        /// Whether a round may fold into a refiner whose lock a panicked
        /// fold poisoned.  The durable kind refuses, since the torn view
        /// could reach a checkpoint; in memory the fold goes on.
        fn fold_torn_refiner() -> Result<(), Self::Error> {
            Ok(())
        }

        /// Finish the round after the refine fold (the durable kind's
        /// checkpoint cadence).
        fn end_round(_sharded: &mut Sharded<Self>) -> Result<(), Self::Error> {
            Ok(())
        }
    }

    /// The durable kind's state beside its shards.
    pub struct DurableLog {
        pub(super) options: DurabilityOptions,
        pub(super) dir: PathBuf,
        /// The `refine/` directory's plumbing (`None` with one shard, whose
        /// own WAL seals every round).
        pub(super) refine: Option<RefineLog>,
    }
}

use kind::{DurableLog, Shard};

/// N shards served in parallel behind one facade, with a cross-shard
/// refinement pass closing the partition's quality gap after every round
/// (see [`crate::refine`]).
///
/// The shard kind is the one parameter.  [`ShardedEngine`] serves
/// in-memory [`Engine`]s; [`ShardedDurableEngine`] serves
/// [`DurableEngine`]s — one WAL + snapshot directory per shard plus a
/// `refine/` directory (see the [module docs](crate::shard)).  Both serve
/// the same round — route → log → parallel apply → refine fold →
/// checkpoint, where only the durable kind logs and checkpoints — and
/// answer the same accessors.
pub struct Sharded<S: Shard> {
    shards: Vec<S>,
    router: ShardRouter,
    assignment: BTreeMap<ObjectId, usize>,
    rounds_served: usize,
    max_threads: usize,
    /// `None` with one shard: the partition is the identity and there is
    /// nothing to refine.  Behind a lock so the pipelined front-end's refine
    /// worker ([`crate::pipeline`]) can fold rounds while the coordinator
    /// owns the engine.
    refiner: Option<Arc<Mutex<CrossShardRefiner>>>,
    log: S::Log,
}

/// N in-memory [`Engine`] shards behind one facade (see [`Sharded`]).
pub type ShardedEngine = Sharded<Engine>;

/// A crash-safe [`ShardedEngine`]: one WAL + snapshot directory per shard,
/// globally coordinated checkpoints, and min-committed-round recovery (see
/// [`Sharded`]).  With one shard it is the durable single engine.
pub type ShardedDurableEngine = Sharded<DurableEngine>;

/// The refine directory's WAL and snapshotter.  The WAL doubles as the
/// **group-commit log**: it holds every round's *full* batch, and its
/// per-round fsync is the commit point from which any shard's lost
/// (never-fsynced) sub-batch tail can be re-derived and healed on recovery.
struct RefineLog {
    wal: Wal,
    snapshotter: Snapshotter,
}

impl<S: Shard> Sharded<S> {
    /// Cap the number of worker threads a round fans out to (default: one
    /// per shard).  Thread count never changes results — shards are
    /// independent — only wall-clock.
    pub fn with_max_threads(mut self, max_threads: usize) -> Self {
        self.max_threads = max_threads.max(1);
        self
    }

    /// The one sharded round: route, log, apply the sub-batches in
    /// parallel, fold the round into the refined view, and end it.
    fn serve_round(&mut self, batch: &OperationBatch) -> Result<ShardedRoundReport, S::Error> {
        let round_span = dc_telemetry::registry().span("round.total");
        let routed = self.route(batch);
        S::log_round(self, batch, &routed)?;
        let reports = self.apply_committed(&routed);
        let refine = self.fold(batch, &routed)?;
        S::end_round(self)?;
        round_span.finish();
        Ok(merge_round_reports(self.rounds_served, reports, refine))
    }

    /// Split the batch into per-shard sub-batches with the sticky router and
    /// record how skewed the split was.
    fn route(&mut self, batch: &OperationBatch) -> RoutedBatch {
        let span = dc_telemetry::registry().span("round.route");
        let routed = self.router.route_batch(batch, &mut self.assignment);
        span.finish();
        record_batch_imbalance(&routed.sub_batches);
        routed
    }

    /// Apply a routed (and, when durable, committed) round's sub-batches to
    /// every shard in parallel and count the round as served.
    pub(crate) fn apply_committed(&mut self, routed: &RoutedBatch) -> Vec<RoundReport> {
        let span = dc_telemetry::registry().span("round.shard_apply");
        let reports = parallel_shard_rounds(
            &mut self.shards,
            &routed.sub_batches,
            self.max_threads,
            |shard, sub| shard.apply(sub),
        );
        span.finish();
        self.rounds_served += 1;
        reports
    }

    /// Fold the round into the refined view (`None` with one shard).
    fn fold(
        &self,
        batch: &OperationBatch,
        routed: &RoutedBatch,
    ) -> Result<Option<RefineReport>, S::Error> {
        let Some(refiner) = &self.refiner else {
            return Ok(None);
        };
        let span = dc_telemetry::registry().span("round.refine");
        let mut refiner = match refiner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                S::fold_torn_refiner()?;
                poisoned.into_inner()
            }
        };
        let report = refiner.fold_round(batch, &routed.op_shards, self.max_threads);
        span.finish();
        Ok(Some(report))
    }

    /// The round fold for the pipelined refine worker's own thread: the
    /// shared refiner (`None` with one shard).  Like the read accessors it
    /// takes the lock regardless of poisoning; the checkpoint refuses a torn
    /// view.
    pub(crate) fn detached_fold(&self) -> Option<impl Fn(&OperationBatch, &[usize]) + Send> {
        let refiner = Arc::clone(self.refiner.as_ref()?);
        let max_threads = self.max_threads;
        Some(move |batch: &OperationBatch, op_shards: &[usize]| {
            lock_unpoisoned(&refiner).fold_round(batch, op_shards, max_threads);
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard engines, in shard order.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// Rounds served across the engine's whole (for the durable kind,
    /// possibly multi-process) lifetime.
    pub fn rounds_served(&self) -> usize {
        self.rounds_served
    }

    /// The shard currently owning `id`, if the object is live.
    pub fn shard_of(&self, id: ObjectId) -> Option<usize> {
        self.assignment.get(&id).copied()
    }

    /// Live objects across all shards.
    pub fn object_count(&self) -> usize {
        self.assignment.len()
    }

    /// Cross-shard similarity edges currently missing from the per-shard
    /// graphs and **recovered** by the refinement pass — exact across
    /// rounds and restarts: the counter grows when a served round
    /// introduces a cross-shard edge and shrinks when one endpoint is
    /// removed or updated apart.  Always 0 with one shard.
    pub fn cross_shard_edges_recovered(&self) -> usize {
        self.refiner
            .as_ref()
            .map_or(0, |r| lock_unpoisoned(r).cross_edges_recovered())
    }

    /// The report of the most recent refinement pass (the initial repair or
    /// recovery replay right after opening, then one per served round);
    /// `None` with one shard.
    pub fn last_refine_report(&self) -> Option<RefineReport> {
        self.refiner
            .as_ref()
            .map(|r| lock_unpoisoned(r).last_report())
    }

    /// Reference mode: make the refiner run the unscoped fixed point over
    /// every cluster every round.  Both modes produce the same refined
    /// clustering; `tests/incremental_refine.rs` checks the scoped repair
    /// against it.  No-op with one shard.
    pub fn set_full_repair(&mut self, full_repair: bool) {
        if let Some(refiner) = &self.refiner {
            lock_unpoisoned(refiner).set_full_repair(full_repair);
        }
    }

    /// The global [`DynamicCStats`]: the field-wise sum of the per-shard
    /// statistics.  (The refinement pass keeps its own counters in
    /// [`RefineReport`]; it never touches the per-shard statistics.)
    pub fn stats(&self) -> DynamicCStats {
        DynamicCStats::merged(self.shards.iter().map(|s| *s.engine().stats()))
    }

    /// Total pairwise similarity computations: the per-shard graphs' sum
    /// plus the cross-shard boundary pairs computed by this process's
    /// refinement passes.  The cross-shard component counts work *since
    /// construction or open* (recovery rebuilds the derived cross-shard
    /// index, and that rebuild is the work the process performed); the
    /// per-shard component is restart-exact — see
    /// [`Sharded::shard_comparisons`].
    pub fn comparisons(&self) -> u64 {
        self.shard_comparisons()
            + self
                .refiner
                .as_ref()
                .map_or(0, |r| lock_unpoisoned(r).cross_comparisons())
    }

    /// Pairwise similarity computations performed by the per-shard graphs
    /// alone (excluding the refinement pass's cross-shard boundary pairs).
    /// The durable kind persists them in the per-shard snapshots, so they
    /// are bit-identical between a restarted and a never-restarted engine.
    pub fn shard_comparisons(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.engine().graph().comparisons())
            .sum()
    }

    /// The merged global clustering: the union of the per-shard clusterings
    /// under their disjoint id namespaces, with the watermark at the maximum
    /// of the per-shard watermarks.  This is the *pre-refinement* view; see
    /// [`Sharded::refined_clustering`] for the repaired one.
    pub fn merged_clustering(&self) -> Clustering {
        merge_clusterings(self.shards.iter().map(|s| s.engine().clustering()))
    }

    /// The refined global clustering: the merged per-shard clusterings with
    /// the cross-shard repair applied (recovered edges made visible, then
    /// the trained merge/split passes run globally).  With one shard this is
    /// exactly [`Sharded::merged_clustering`].  Recomputed after every
    /// round and bit-identical across restarts; repair-created clusters
    /// carry ids from the reserved refine namespace, so the result must not
    /// seed a new multi-shard partition.
    pub fn refined_clustering(&self) -> Clustering {
        match &self.refiner {
            Some(refiner) => lock_unpoisoned(refiner).refined().clone(),
            None => self.merged_clustering(),
        }
    }
}

impl<S: Shard> std::fmt::Debug for Sharded<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sharded")
            .field("shards", &self.shards.len())
            .field("objects", &self.assignment.len())
            .field("rounds_served", &self.rounds_served)
            .field("router", &self.router)
            .finish()
    }
}

impl Shard for Engine {
    type Error = Infallible;
    type Log = ();

    fn engine(&self) -> &Engine {
        self
    }

    fn apply(&mut self, sub: &OperationBatch) -> RoundReport {
        self.apply_round(sub)
    }
}

impl Sharded<Engine> {
    /// Partition an already-populated `(graph, clustering)` pair (typically
    /// the batch algorithm's output, like [`Engine::new`]) across the
    /// router's shards and stand up one engine per shard.  Performs one full
    /// aggregate build per shard — the same one-off cost `Engine::new` pays,
    /// split N ways — and, with more than one shard, builds the cross-shard
    /// refinement state (owner map and mirror graph, recovered cross edges
    /// included) and runs the initial repair pass.
    ///
    /// The clustering's id watermark must fit the shard-0 namespace (ids
    /// below `1 << 56`) when partitioning across more than one shard —
    /// true for any clustering produced by the batch algorithms or a plain
    /// [`Engine`].  A [`Sharded::merged_clustering`] (or
    /// [`Sharded::refined_clustering`]) from a previous *multi-shard* run
    /// does **not** qualify: the shard count of a partition is fixed for its
    /// lifetime, and this constructor returns
    /// [`ShardConfigError::WatermarkOverflow`] rather than silently
    /// re-tagging ids.  Re-sharding means re-clustering from the records.
    pub fn new(
        router: ShardRouter,
        graph: SimilarityGraph,
        clustering: Clustering,
        dynamicc: DynamicC,
    ) -> Result<Self, ShardConfigError> {
        let n = router.n_shards();
        let (seeds, assignment) = partition_state(&router, &graph, &clustering)?;
        let (dynamiccs, refine_dynamicc) = distribute_dynamicc(dynamicc, n);
        let shards: Vec<Engine> = seeds
            .into_iter()
            .zip(dynamiccs)
            .map(|((graph, clustering), d)| Engine::new(graph, clustering, d))
            .collect();
        let engines: Vec<&Engine> = shards.iter().collect();
        let config = graph.config().clone();
        let refiner = (n > 1)
            .then(|| CrossShardRefiner::build(&engines, &assignment, config, refine_dynamicc, n))
            .transpose()?;
        Ok(Sharded {
            shards,
            router,
            assignment,
            rounds_served: 0,
            max_threads: n,
            refiner: refiner.map(|r| Arc::new(Mutex::new(r))),
            log: (),
        })
    }

    /// Serve one round: split the batch into per-shard sub-batches with the
    /// sticky router, run every shard's [`Engine::apply_round`] in parallel,
    /// run the cross-shard refinement pass over the touched records, and
    /// merge the reports.  No shard performs a full aggregate build in
    /// steady state, and the merged report's `full_aggregate_builds` (kept
    /// visible to the calling thread by the worker-sink merge inside the
    /// thread pool) proves it.
    ///
    /// Telemetry: the round is bracketed by a `round.total` span whose
    /// coordinating-thread phases are `round.route`, `round.shard_apply`,
    /// and (with more than one shard) `round.refine`; per-shard wall time
    /// (`shard.apply`) merges back from the workers, and the batch-imbalance
    /// gauges record how skewed the router's split was this round.
    pub fn apply_round(&mut self, batch: &OperationBatch) -> ShardedRoundReport {
        let Ok(report) = self.serve_round(batch);
        report
    }
}

/// Union per-shard clusterings into one global clustering (the id
/// namespaces are disjoint by construction, so this cannot collide).
pub(crate) fn merge_clusterings<'a>(
    clusterings: impl Iterator<Item = &'a Clustering>,
) -> Clustering {
    let mut merged = Clustering::new();
    let mut watermark = 0u64;
    for clustering in clusterings {
        for (cid, cluster) in clustering.iter() {
            merged
                .insert_cluster_with_id(cid, cluster.iter())
                // dc-lint: allow(R1) reason="construction invariant: each shard allocates cluster ids from its own shard_id_base namespace (validated at partition time), so a collision is impossible"
                .expect("shard id namespaces are disjoint");
        }
        watermark = watermark.max(clustering.id_watermark());
    }
    merged.set_id_watermark(watermark);
    merged
}

/// What [`ShardedDurableEngine::open`] did to reach a servable state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedRecoveryReport {
    /// Whether existing durable state was recovered (vs a fresh partition of
    /// the bootstrap state).
    pub recovered: bool,
    /// The globally committed round recovery landed on — the minimum of the
    /// shards' recoverable rounds.
    pub committed_round: u64,
    /// WAL rounds replayed, summed over the shards.
    pub replayed_rounds: usize,
    /// Whether any shard dropped a torn WAL tail.
    pub dropped_torn_tail: bool,
    /// How far ahead the furthest shard had logged beyond the committed
    /// round (those rounds were never acknowledged and were rolled back).
    pub rolled_back_rounds: u64,
    /// Shard-rounds re-derived from the group-commit log: in group-commit
    /// mode a shard's WAL tail is staged without its own fsync, so a crash
    /// can lose sub-batches of rounds the refine WAL committed.  Recovery
    /// re-routes those rounds from the refine WAL and re-applies them to
    /// the lagging shards (one count per shard per healed round).  Always 0
    /// with group commit off, where every shard fsyncs before the round
    /// commits.
    pub healed_rounds: u64,
    /// Rounds the cross-shard refinement layer replayed from its own WAL on
    /// top of its snapshot (0 with one shard).
    pub refine_replayed_rounds: usize,
    /// One [`RecoveryReport`] per shard, in shard order.
    pub per_shard: Vec<RecoveryReport>,
}

/// The error a round fold or checkpoint of the durable kind returns for a
/// poisoned refiner lock: a fold panicked midway and left the refined view
/// torn, so it is neither extended nor made durable; reopening recovers the
/// committed state.  Read-only accessors take the guard regardless
/// ([`lock_unpoisoned`]).
fn torn_refiner() -> StorageError {
    StorageError::Inconsistent(
        "a refine fold panicked and left the refined view torn; reopen to recover".into(),
    )
}

fn refine_dir(dir: &Path) -> PathBuf {
    dir.join("refine")
}

fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}"))
}

/// Derive the object-to-shard assignment from the shard graphs (ownership is
/// never persisted: each shard's graph knows exactly which objects it owns).
fn derive_assignment(shards: &[DurableEngine]) -> Result<BTreeMap<ObjectId, usize>, StorageError> {
    let mut assignment: BTreeMap<ObjectId, usize> = BTreeMap::new();
    for (shard, engine) in shards.iter().enumerate() {
        for id in engine.engine().graph().object_ids() {
            if assignment.insert(id, shard).is_some() {
                return Err(StorageError::Inconsistent(format!(
                    "object {id} is owned by more than one shard"
                )));
            }
        }
    }
    Ok(assignment)
}

impl Shard for DurableEngine {
    type Error = StorageError;
    type Log = DurableLog;

    fn engine(&self) -> &Engine {
        DurableEngine::engine(self)
    }

    fn apply(&mut self, sub: &OperationBatch) -> RoundReport {
        self.apply_logged(sub)
    }

    fn log_round(
        sharded: &mut Sharded<Self>,
        batch: &OperationBatch,
        routed: &RoutedBatch,
    ) -> Result<(), StorageError> {
        sharded.seal(batch, routed, "round.group_commit").map(drop)
    }

    fn fold_torn_refiner() -> Result<(), StorageError> {
        Err(torn_refiner())
    }

    fn end_round(sharded: &mut Sharded<Self>) -> Result<(), StorageError> {
        if sharded.checkpoint_due() {
            let span = dc_telemetry::registry().span("round.checkpoint");
            sharded.checkpoint()?;
            span.finish();
        }
        Ok(())
    }
}

impl Sharded<DurableEngine> {
    /// Open the sharded durable engine rooted at `dir` (one subdirectory per
    /// shard): recover every shard to the globally committed round if
    /// durable state exists, otherwise partition the bootstrap state and
    /// write each shard's initial checkpoint.
    ///
    /// `graph_config` and `dynamicc` are construction-time inputs supplied
    /// by the caller on every open (see [`crate::durable`] for why neither
    /// is persisted); the router must be configured identically across
    /// restarts (same shard count, same blocking-derived keys), since the
    /// on-disk partition was produced by it.
    pub fn open(
        dir: impl AsRef<Path>,
        router: ShardRouter,
        graph_config: GraphConfig,
        dynamicc: DynamicC,
        options: DurabilityOptions,
        bootstrap: impl FnOnce() -> (SimilarityGraph, Clustering),
    ) -> Result<(Self, ShardedRecoveryReport), StorageError> {
        let dir = dir.as_ref();
        let n = router.n_shards();
        check_shard_count(n).map_err(|e| StorageError::Inconsistent(e.to_string()))?;
        std::fs::create_dir_all(dir).map_err(|e| StorageError::Io {
            path: dir.to_path_buf(),
            op: "create dir",
            source: e,
        })?;
        if shard_dir(dir, n).is_dir() {
            return Err(StorageError::Inconsistent(format!(
                "{} was partitioned for more than {n} shards",
                dir.display()
            )));
        }

        // Pass 1: find the globally committed round.  With more than one
        // shard the `refine/` WAL is the commit point: a round is
        // acknowledged only after the full batch is durably there
        // (with group commit off it is sealed *last*, after every shard's
        // own fsync, so its durable round is exactly the old minimum; in
        // group-commit mode its single fsync *is* the round's commit, and
        // shards whose never-fsynced tails fell short are healed from it
        // below).  With one shard the shard's own WAL is the commit point.
        // A shard — or the refine directory — without durable state forces
        // the fresh path (a crash during a fresh open leaves a prefix of
        // the directories initialized at round 0; re-running the fresh path
        // below recovers those and bootstraps the rest).
        let mut durable_rounds = Vec::with_capacity(n + 1);
        let mut peek_dropped_torn_tail = false;
        for peeked in (0..n)
            .map(|s| shard_dir(dir, s))
            .chain((n > 1).then(|| refine_dir(dir)))
        {
            let (round, dropped) = DurableEngine::last_durable_round(&peeked)?;
            peek_dropped_torn_tail |= dropped;
            durable_rounds.push(round);
        }
        // The commit point is the group-commit log's round (the last entry
        // peeked), valid only when every directory has durable state.
        let committed = match durable_rounds.last() {
            Some(last) if durable_rounds.iter().all(Option::is_some) => *last,
            _ => None,
        };

        let (dynamiccs, refine_dynamicc) = distribute_dynamicc(dynamicc, n);
        let mut shards = Vec::with_capacity(n);
        let mut report = ShardedRecoveryReport {
            per_shard: Vec::with_capacity(n),
            ..ShardedRecoveryReport::default()
        };
        match committed {
            Some(committed) => {
                report.recovered = true;
                report.committed_round = committed;
                report.dropped_torn_tail = peek_dropped_torn_tail;
                let newest = durable_rounds.iter().flatten().max();
                report.rolled_back_rounds = newest.map_or(0, |newest| newest - committed);
                for (shard, d) in dynamiccs.into_iter().enumerate() {
                    let (engine, shard_report) = DurableEngine::recover(
                        &shard_dir(dir, shard),
                        graph_config.clone(),
                        d,
                        committed,
                    )?;
                    let recovered_to = engine.engine().rounds_served() as u64;
                    // A shard may land *below* the committed round only when
                    // the group-commit log can heal it (more than one shard);
                    // above it is impossible (the replay cap) and flagged.
                    if recovered_to > committed || (n == 1 && recovered_to != committed) {
                        return Err(StorageError::Inconsistent(format!(
                            "shard {shard} recovered to round {recovered_to} but the committed \
                             round is {committed}",
                        )));
                    }
                    report.replayed_rounds += shard_report.replayed_rounds;
                    report.dropped_torn_tail |= shard_report.dropped_torn_tail;
                    report.per_shard.push(shard_report);
                    shards.push(engine);
                }
            }
            None => {
                let (graph, clustering) = bootstrap();
                let (seeds, _) = partition_state(&router, &graph, &clustering)
                    .map_err(|e| StorageError::Inconsistent(e.to_string()))?;
                for ((shard, seed), d) in seeds.into_iter().enumerate().zip(dynamiccs) {
                    let (engine, shard_report) = DurableEngine::open(
                        &shard_dir(dir, shard),
                        graph_config.clone(),
                        d,
                        move || seed,
                    )?;
                    let served = engine.engine().rounds_served();
                    if served != 0 {
                        return Err(StorageError::Inconsistent(format!(
                            "shard {shard} has {served} served rounds but other shards are fresh"
                        )));
                    }
                    report.per_shard.push(shard_report);
                    shards.push(engine);
                }
            }
        }

        // The object-to-shard assignment is derived, not persisted: each
        // shard's recovered graph knows exactly which objects it owns.
        let mut assignment = derive_assignment(&shards)?;

        let (refiner, refine) = if n > 1 {
            let refine = Self::open_refine(
                dir,
                &router,
                (&graph_config, refine_dynamicc),
                &mut shards,
                &assignment,
                &mut report,
            )?;
            (Some(refine.0), Some(refine.1))
        } else {
            (None, None)
        };
        if report.healed_rounds > 0 {
            // Healing re-applied lost rounds to lagging shards, so the
            // ownership derived above is stale — derive it again from the
            // healed graphs.
            assignment = derive_assignment(&shards)?;
        }
        if let Some(refiner) = &refiner {
            if report.recovered && refiner.shard_map() != assignment {
                return Err(StorageError::Inconsistent(
                    "replayed refine assignment disagrees with the recovered shard \
                     ownership"
                        .into(),
                ));
            }
        }

        let rounds_served = shards[0].engine().rounds_served();
        Ok((
            Sharded {
                shards,
                router,
                assignment,
                rounds_served,
                max_threads: n,
                refiner: refiner.map(|r| Arc::new(Mutex::new(r))),
                log: DurableLog {
                    options,
                    dir: dir.to_path_buf(),
                    refine,
                },
            },
            report,
        ))
    }

    /// Bring the `refine/` directory to the committed round: on a fresh open
    /// build the refiner from the freshly partitioned shards and write its
    /// initial snapshot; on recovery load the latest refine snapshot and
    /// replay the logged batch tail through the same fold the original run
    /// performed, which reproduces it bit-for-bit (see [`crate::refine`]).
    ///
    /// The replay doubles as the **healing pass** for group-commit mode:
    /// each replayed round is re-routed, and any shard whose recovered state
    /// stops short of it (its staged, never-fsynced WAL tail did not survive
    /// the crash) gets its sub-batch re-logged and re-applied — the refine
    /// WAL holds every committed round's full batch, so nothing committed
    /// can be lost.  Healed shard WALs are fsynced once at the end.
    fn open_refine(
        dir: &Path,
        router: &ShardRouter,
        (graph_config, dynamicc): (&GraphConfig, DynamicC),
        shards: &mut [DurableEngine],
        assignment: &BTreeMap<ObjectId, usize>,
        report: &mut ShardedRecoveryReport,
    ) -> Result<(CrossShardRefiner, RefineLog), StorageError> {
        let refine_root = refine_dir(dir);
        let snapshotter = Snapshotter::new(&refine_root)?;
        let committed = report.committed_round;
        if !report.recovered {
            let engines: Vec<&Engine> = shards.iter().map(DurableEngine::engine).collect();
            let refiner = CrossShardRefiner::build(
                &engines,
                assignment,
                graph_config.clone(),
                dynamicc,
                router.n_shards(),
            )
            .map_err(|e| StorageError::Inconsistent(e.to_string()))?;
            snapshotter.write(0, &refiner.snapshot())?;
            let wal = Wal::create(&refine_root, 0)?;
            return Ok((refiner, RefineLog { wal, snapshotter }));
        }

        let Some((snapshot_round, state)) = snapshotter.load_latest::<EngineState>()? else {
            return Err(StorageError::Inconsistent(format!(
                "{} holds recovered shards but no refine snapshot",
                refine_root.display()
            )));
        };
        if snapshot_round > committed || state.rounds_served() != snapshot_round {
            return Err(StorageError::Inconsistent(format!(
                "refine snapshot at round {snapshot_round} (recording round {}) does not \
                 fit the committed round {committed}",
                state.rounds_served()
            )));
        }
        let mut refiner = CrossShardRefiner::restore(state, graph_config.clone(), dynamicc)
            .map_err(|source| StorageError::Codec {
                path: refine_root.join(dc_storage::snapshot::snapshot_file_name(snapshot_round)),
                source,
            })?;

        // Replay the refine WAL tail: re-route each logged batch from the
        // snapshot's sticky assignment, heal any shard the round outran,
        // and run the same fold again.
        let mut healed = vec![false; shards.len()];
        let mut replay_assignment = refiner.shard_map();
        let mut replay_round = snapshot_round;
        let mut tail_wal: Option<Wal> = None;
        for (_, path) in list_segments(&refine_root)? {
            let (wal, records, _) = Wal::open_capped(&path, Some(committed))?;
            for record in records {
                if record.round <= replay_round {
                    continue;
                }
                if record.round != replay_round + 1 {
                    return Err(StorageError::Inconsistent(format!(
                        "refine WAL jumps to round {} with the refined view at \
                         round {replay_round}",
                        record.round
                    )));
                }
                let routed = router.route_batch(&record.batch, &mut replay_assignment);
                for (shard, engine) in shards.iter_mut().enumerate() {
                    if (engine.engine().rounds_served() as u64) < record.round {
                        let logged = engine.log_round_nosync(&routed.sub_batches[shard])?;
                        if logged != record.round {
                            return Err(StorageError::Inconsistent(format!(
                                "shard {shard} healed to round {logged} while the group-commit \
                                 log replays round {}",
                                record.round
                            )));
                        }
                        engine.apply_logged(&routed.sub_batches[shard]);
                        healed[shard] = true;
                        report.healed_rounds += 1;
                    }
                }
                refiner.fold_round(&record.batch, &routed.op_shards, router.n_shards());
                replay_round = record.round;
                report.refine_replayed_rounds += 1;
            }
            tail_wal = Some(wal);
        }
        if replay_round != committed {
            return Err(StorageError::Inconsistent(format!(
                "refine WAL ends at round {replay_round} but the committed round \
                 is {committed}"
            )));
        }
        // One fsync per healed shard seals the re-logged tails (recovery
        // would heal them again if this were lost, so correctness does not
        // depend on it — it just restores the synchronous invariant that
        // every shard WAL durably holds the committed round).
        for (shard, engine) in shards.iter_mut().enumerate() {
            if healed[shard] {
                engine.wal_sync()?;
            }
        }
        let wal = tail_segment(&refine_root, tail_wal, snapshot_round, committed)?;
        Ok((refiner, RefineLog { wal, snapshotter }))
    }

    /// Serve one round durably: commit it (route, stage every shard's
    /// sub-batch, seal — see [`DurabilityOptions::group_commit`]), apply
    /// the sub-batches in parallel, and fold the round into the refined
    /// view.  Checkpoints run globally per
    /// [`DurabilityOptions::checkpoint_every_rounds`], after the round has
    /// completed on every shard.
    ///
    /// Telemetry: as [`ShardedEngine::apply_round`], plus the
    /// `round.group_commit` span around stage and seal and the
    /// `round.checkpoint` span when the cadence fires.
    ///
    /// An `Err` leaves the engine in an unspecified in-memory state (some
    /// shards may have applied the round); drop it and reopen.
    pub fn apply_round(
        &mut self,
        batch: &OperationBatch,
    ) -> Result<ShardedRoundReport, StorageError> {
        self.serve_round(batch)
    }

    /// The commit step of a sharded round for the pipelined coordinator,
    /// which applies and folds the round itself: route the batch and seal
    /// it under a span named `span`, whose wall time is returned with the
    /// routing.  Once this returns the round is durable and may be
    /// acknowledged.
    pub(crate) fn commit_round(
        &mut self,
        batch: &OperationBatch,
        span: &'static str,
    ) -> Result<(RoutedBatch, u64), StorageError> {
        let routed = self.route(batch);
        let commit_ns = self.seal(batch, &routed, span)?;
        Ok((routed, commit_ns))
    }

    /// Stage every shard's sub-batch in its WAL without fsync, then seal
    /// the round:
    ///
    /// * with [`DurabilityOptions::group_commit`] off, every shard WAL is
    ///   fsynced first;
    /// * the refine WAL (the group-commit log) then appends the full batch
    ///   and fsyncs — the round's commit point;
    /// * with one shard there is no refine WAL, and the shard's own fsync
    ///   is the commit point.
    ///
    /// So a round costs N+1 fsyncs with group commit off and 1 with it on,
    /// and 1 in both modes at N=1.  Recovery heals any shard whose staged
    /// tail was lost from the refine WAL (see
    /// [`ShardedRecoveryReport::healed_rounds`]).  Returns the wall time of
    /// the `span` that brackets stage and seal.
    fn seal(
        &mut self,
        batch: &OperationBatch,
        routed: &RoutedBatch,
        span: &'static str,
    ) -> Result<u64, StorageError> {
        let round = self.rounds_served as u64 + 1;
        let commit_span = dc_telemetry::registry().span(span);
        for (shard, sub) in self.shards.iter_mut().zip(&routed.sub_batches) {
            let logged = shard.log_round_nosync(sub)?;
            debug_assert_eq!(logged, round, "shards advance in lock-step");
        }
        match &mut self.log.refine {
            Some(refine) => {
                if !self.log.options.group_commit {
                    for shard in &mut self.shards {
                        shard.wal_sync()?;
                    }
                }
                refine.wal.append_round(round, batch)?;
            }
            None => self.shards[0].wal_sync()?,
        }
        Ok(commit_span.finish_ns())
    }

    /// Whether the automatic checkpoint cadence fires after the rounds
    /// served so far.
    pub(crate) fn checkpoint_due(&self) -> bool {
        let every = self.log.options.checkpoint_every_rounds as u64;
        every > 0 && (self.rounds_served as u64).is_multiple_of(every)
    }

    /// Checkpoint every shard now (snapshot + WAL rotation + prune per
    /// shard), then the refinement layer (refine snapshot written *after*
    /// every shard's, so it can never get ahead of them).  Returns the
    /// checkpointed round.  The pipelined coordinator waits for the refine
    /// worker to fold every committed round before calling this.
    pub fn checkpoint(&mut self) -> Result<u64, StorageError> {
        for shard in &mut self.shards {
            shard.checkpoint()?;
        }
        let round = self.rounds_served as u64;
        if let (Some(refiner), Some(refine)) = (&self.refiner, &mut self.log.refine) {
            let refiner = refiner.lock().map_err(|_| torn_refiner())?;
            refine.snapshotter.write(round, &refiner.snapshot())?;
            if refine.wal.start_round() != round {
                refine.wal = Wal::create(refine.snapshotter.dir(), round)?;
            }
            refine.snapshotter.prune_obsolete(round)?;
        }
        Ok(round)
    }

    /// The state directory this engine is rooted at.
    pub fn dir(&self) -> &Path {
        &self.log.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_objective::CorrelationObjective;
    use dc_similarity::blocking::ExhaustiveBlocking;
    use dc_similarity::fixtures::{fixture_record, graph_from_edges};
    use dc_types::{ClusterId, ObjectId, Operation};
    use std::sync::Arc;

    fn oid(raw: u64) -> ObjectId {
        ObjectId::new(raw)
    }

    fn toy_setup() -> (SimilarityGraph, Clustering, DynamicC) {
        let graph = graph_from_edges(4, &[(1, 2, 0.9), (3, 4, 0.8)]);
        let clustering =
            Clustering::from_groups([vec![oid(1), oid(2)], vec![oid(3), oid(4)]]).unwrap();
        let dynamicc = DynamicC::with_objective(Arc::new(CorrelationObjective));
        (graph, clustering, dynamicc)
    }

    #[test]
    fn one_shard_partition_is_the_identity() {
        let (graph, clustering, dynamicc) = toy_setup();
        let router = ShardRouter::new(1, Box::new(ExhaustiveBlocking::new()));
        let engine =
            ShardedEngine::new(router, graph.clone(), clustering.clone(), dynamicc).unwrap();
        assert_eq!(engine.shard_count(), 1);
        assert_eq!(engine.cross_shard_edges_recovered(), 0);
        assert!(engine.last_refine_report().is_none());
        assert_eq!(engine.object_count(), 4);
        assert_eq!(engine.comparisons(), graph.comparisons());
        let merged = engine.merged_clustering();
        assert_eq!(merged.cluster_ids(), clustering.cluster_ids());
        assert_eq!(merged.id_watermark(), clustering.id_watermark());
        // With one shard the refined view *is* the merged view.
        let refined = engine.refined_clustering();
        assert_eq!(refined.cluster_ids(), merged.cluster_ids());
    }

    #[test]
    fn partition_covers_every_object_exactly_once() {
        let (graph, clustering, dynamicc) = toy_setup();
        let router = ShardRouter::new(4, Box::new(ExhaustiveBlocking::new()));
        let engine = ShardedEngine::new(router, graph, clustering, dynamicc).unwrap();
        let mut seen = 0usize;
        for shard in engine.shards() {
            seen += shard.clustering().object_count();
            assert_eq!(
                shard.clustering().object_count(),
                shard.graph().object_count(),
                "shard graph and clustering must agree"
            );
        }
        assert_eq!(seen, 4);
        let merged = engine.merged_clustering();
        merged.check_invariants().unwrap();
        assert_eq!(merged.object_count(), 4);
    }

    #[test]
    fn split_donor_clusters_get_shard_tagged_ids() {
        // Force objects of one donor cluster into different shards by
        // routing on content hashes (exhaustive blocking's default key).
        let (graph, clustering, dynamicc) = toy_setup();
        let donor_watermark = clustering.id_watermark();
        let router = ShardRouter::new(4, Box::new(ExhaustiveBlocking::new()));
        let engine = ShardedEngine::new(router, graph, clustering, dynamicc).unwrap();
        for (shard_index, shard) in engine.shards().iter().enumerate() {
            for cid in shard.clustering().cluster_ids() {
                let inherited = cid.raw() < donor_watermark;
                assert!(
                    inherited || cid.shard_tag() == shard_index,
                    "fresh id {cid} in shard {shard_index} must carry the shard tag"
                );
            }
        }
    }

    #[test]
    fn rounds_merge_reports_and_track_assignment() {
        let (graph, clustering, dynamicc) = toy_setup();
        let router = ShardRouter::new(2, Box::new(ExhaustiveBlocking::new()));
        let mut engine = ShardedEngine::new(router, graph, clustering, dynamicc).unwrap();
        let mut batch = OperationBatch::new();
        batch.push(Operation::Add {
            id: oid(5),
            record: fixture_record(5),
        });
        batch.push(Operation::Remove { id: oid(4) });
        let report = engine.apply_round(&batch);
        assert_eq!(report.merged.round, 1);
        assert_eq!(report.merged.operations, 2);
        assert_eq!(report.per_shard.len(), 2);
        assert_eq!(
            report.merged.operations,
            report.per_shard.iter().map(|r| r.operations).sum::<usize>()
        );
        assert_eq!(
            report.merged.full_aggregate_builds, 0,
            "steady-state rounds must not rebuild aggregates in any shard"
        );
        assert_eq!(engine.object_count(), 4);
        assert!(engine.shard_of(oid(5)).is_some());
        assert!(engine.shard_of(oid(4)).is_none());
        engine.merged_clustering().check_invariants().unwrap();
        assert_eq!(engine.rounds_served(), 1);
    }

    /// Satellite pin: the recovered-edge counter is exact *across rounds*,
    /// not just at the initial partition — a served round that introduces a
    /// cross-shard edge grows it, and removing an endpoint shrinks it.
    #[test]
    fn recovered_edge_counter_is_exact_across_rounds() {
        use dc_similarity::fixtures::EdgeTableMeasure;
        use dc_similarity::GraphConfig;

        // The measure knows an edge to object 5 before 5 exists, so a later
        // round can create a brand-new similarity edge.
        let edges = [(1, 2, 0.9), (3, 4, 0.8), (1, 5, 0.7), (2, 5, 0.6)];
        let config = GraphConfig::new(
            Box::new(EdgeTableMeasure::from_edges(&edges)),
            Box::new(ExhaustiveBlocking::new()),
            0.0,
        );
        let mut graph = SimilarityGraph::empty(config);
        for id in 1..=4 {
            graph.add_object(oid(id), fixture_record(id));
        }
        let clustering = Clustering::singletons((1..=4).map(oid));
        let dynamicc = DynamicC::with_objective(Arc::new(CorrelationObjective));
        let router = ShardRouter::new(2, Box::new(ExhaustiveBlocking::new()));
        let mut engine = ShardedEngine::new(router, graph, clustering, dynamicc).unwrap();

        let cross_edges = |engine: &ShardedEngine| {
            let mut count = 0;
            for &(a, b, _) in &edges {
                let (sa, sb) = (engine.shard_of(oid(a)), engine.shard_of(oid(b)));
                if let (Some(sa), Some(sb)) = (sa, sb) {
                    if sa != sb {
                        count += 1;
                    }
                }
            }
            count
        };
        assert_eq!(engine.cross_shard_edges_recovered(), cross_edges(&engine));

        // A served round adds object 5 (edges to 1 and 2): the counter must
        // track exactly the cross-shard subset of the new edges.
        let mut batch = OperationBatch::new();
        batch.push(Operation::Add {
            id: oid(5),
            record: fixture_record(5),
        });
        let report = engine.apply_round(&batch);
        assert_eq!(engine.cross_shard_edges_recovered(), cross_edges(&engine));
        let refine = report.refine.expect("two shards refine");
        assert_eq!(refine.cross_edges_recovered, cross_edges(&engine));

        // Removing object 1 releases its cross-shard edges from the counter.
        let mut batch2 = OperationBatch::new();
        batch2.push(Operation::Remove { id: oid(1) });
        engine.apply_round(&batch2);
        assert_eq!(engine.cross_shard_edges_recovered(), cross_edges(&engine));
    }

    /// Satellite pin: invalid shard configurations surface as typed errors
    /// instead of panicking.
    #[test]
    fn invalid_shard_configuration_is_a_typed_error() {
        // A clustering whose watermark lives outside the shard-0 namespace
        // (e.g. a previous multi-shard run's merged clustering) is rejected.
        let (graph, _, dynamicc) = toy_setup();
        let mut tagged = Clustering::new();
        tagged
            .insert_cluster_with_id(ClusterId::new(shard_id_base(1) + 3), (1..=4).map(oid))
            .unwrap();
        let router = ShardRouter::new(2, Box::new(ExhaustiveBlocking::new()));
        let err = ShardedEngine::new(router, graph.clone(), tagged, dynamicc.clone()).unwrap_err();
        assert!(
            matches!(err, ShardConfigError::WatermarkOverflow { watermark } if watermark > 0),
            "got {err:?}"
        );
        assert!(err.to_string().contains("watermark"));

        // The top namespace is reserved for refinement repair ids.
        let (_, clustering, _) = toy_setup();
        let router = ShardRouter::new(MAX_SHARDS, Box::new(ExhaustiveBlocking::new()));
        let err = ShardedEngine::new(router, graph, clustering, dynamicc).unwrap_err();
        assert_eq!(
            err,
            ShardConfigError::TooManyShards {
                n_shards: MAX_SHARDS,
                max_shards: MAX_SHARDS - 1
            }
        );
        assert!(err.to_string().contains("reserved"));
    }

    /// Satellite pin: writing a shard or refine checkpoint must not clone a
    /// clustering (the historical owned snapshots cloned it — O(V) — on
    /// every checkpoint) nor rebuild aggregates, and the borrowed encoder's
    /// bytes must equal the owned decoded state's encoding exactly.
    #[test]
    fn checkpoint_snapshot_is_clone_free_and_byte_identical() {
        use crate::durable::EngineState;
        use dc_similarity::BuildCounter;
        use dc_types::codec::BinCodec;

        let (graph, clustering, dynamicc) = toy_setup();
        let router = ShardRouter::new(2, Box::new(ExhaustiveBlocking::new()));
        let mut engine = ShardedEngine::new(router, graph, clustering, dynamicc).unwrap();
        let mut batch = OperationBatch::new();
        batch.push(Operation::Remove { id: oid(4) });
        engine.apply_round(&batch);
        let refiner = engine.refiner.as_ref().expect("two shards refine");
        let refiner = refiner.lock().unwrap();

        let shard_snapshots = engine.shards().iter().map(Engine::snapshot);
        for snapshot in shard_snapshots.chain([refiner.snapshot()]) {
            let clones_before = dc_types::clustering_clone_count();
            let (borrowed, builds) = BuildCounter::scope(|| snapshot.encode_to_vec());
            assert_eq!(
                dc_types::clustering_clone_count() - clones_before,
                0,
                "the borrowed snapshot must not clone the clustering"
            );
            assert_eq!(
                builds, 0,
                "the borrowed snapshot must not rebuild aggregates"
            );
            let owned = EngineState::decode_exact(&borrowed)
                .unwrap()
                .encode_to_vec();
            assert_eq!(
                borrowed, owned,
                "borrowed and owned snapshot encodings must be byte-identical"
            );
        }
    }

    /// Satellite pin: user-reachable degenerate inputs on the serving path —
    /// an empty batch and operations naming ids no shard owns — serve
    /// cleanly instead of panicking, and an empty round performs zero repair
    /// work (empty dirty set).
    #[test]
    fn empty_batches_and_unknown_ids_serve_without_repair_work() {
        let (graph, clustering, dynamicc) = toy_setup();
        let router = ShardRouter::new(2, Box::new(ExhaustiveBlocking::new()));
        let mut engine = ShardedEngine::new(router, graph, clustering, dynamicc).unwrap();

        let report = engine.apply_round(&OperationBatch::new());
        assert_eq!(report.merged.operations, 0);
        let refine = report.refine.expect("two shards refine");
        assert_eq!(
            (
                refine.dirty_clusters,
                refine.regions,
                refine.objective_evaluations
            ),
            (0, 0, 0),
            "an empty round must not repair anything"
        );
        assert_eq!((refine.merges_applied, refine.splits_applied), (0, 0));

        // Removing an id no shard has ever seen is a no-op, not a panic.
        let mut batch = OperationBatch::new();
        batch.push(Operation::Remove { id: oid(999) });
        let report = engine.apply_round(&batch);
        assert_eq!(report.merged.operations, 1);
        assert_eq!(engine.object_count(), 4);
        engine.refined_clustering().check_invariants().unwrap();
    }

    /// Satellite pin: a clustering naming an object the graph does not hold
    /// used to panic inside `partition_state`; it is a typed error now.
    #[test]
    fn clustering_object_missing_from_the_graph_is_a_typed_error() {
        let (graph, _, dynamicc) = toy_setup();
        let clustering = Clustering::from_groups([vec![oid(1), oid(2)], vec![oid(77)]]).unwrap();
        let router = ShardRouter::new(2, Box::new(ExhaustiveBlocking::new()));
        let err = ShardedEngine::new(router, graph, clustering, dynamicc).unwrap_err();
        assert_eq!(
            err,
            ShardConfigError::ClusteredObjectMissing { id: oid(77) },
            "got {err:?}"
        );
        assert!(err.to_string().contains("no record"));
    }

    /// Satellite pin: a shard carrying a DynamicC configuration different
    /// from shard 0's is rejected at refiner construction with a typed error
    /// — the refiner reads its pass configuration from shard 0 only, so the
    /// divergent shard would otherwise be silently overridden.
    #[test]
    fn mismatched_shard_dynamicc_configs_are_a_typed_error() {
        let (g0, c0, d0) = toy_setup();
        let (g1, c1, _) = toy_setup();
        let divergent = DynamicC::new(
            Arc::new(CorrelationObjective),
            crate::DynamicCConfig {
                theta_scale: 0.5,
                ..crate::DynamicCConfig::default()
            },
        );
        let config = g0.config().clone();
        let e0 = Engine::new(g0, c0, d0.clone());
        let e1 = Engine::new(g1, c1, divergent);
        let err =
            CrossShardRefiner::build(&[&e0, &e1], &BTreeMap::new(), config, d0, 2).unwrap_err();
        assert_eq!(err, ShardConfigError::MismatchedDynamicCConfig { shard: 1 });
        assert!(err.to_string().contains("shard 1"), "got: {err}");
    }

    /// Satellite pin: an assignment naming an object its shard's graph does
    /// not hold used to panic (`expect("assigned object")`) inside the
    /// refiner's derived-state rebuild; it is a typed error now.
    #[test]
    fn assignment_naming_a_missing_object_is_a_typed_error() {
        let (g0, c0, d0) = toy_setup();
        let (g1, c1, d1) = toy_setup();
        let config = g0.config().clone();
        let e0 = Engine::new(g0, c0, d0.clone());
        let e1 = Engine::new(g1, c1, d1);
        let assignment: BTreeMap<ObjectId, usize> = [(oid(99), 0usize)].into_iter().collect();
        let err = CrossShardRefiner::build(&[&e0, &e1], &assignment, config, d0, 2).unwrap_err();
        assert_eq!(
            err,
            ShardConfigError::AssignedObjectMissing {
                id: oid(99),
                shard: 0
            }
        );
        assert!(err.to_string().contains("99"), "got: {err}");
    }

    /// Satellite pin: a recovered cross-shard edge whose endpoint has a
    /// graph record but no cluster used to panic
    /// (`expect("live object is clustered")`) while seeding the refined
    /// view; it is a typed error now.
    #[test]
    fn cross_edge_to_an_unclustered_object_is_a_typed_error() {
        use dc_similarity::fixtures::EdgeTableMeasure;
        use dc_similarity::GraphConfig;

        let make_graph = |id: u64| {
            let config = GraphConfig::new(
                Box::new(EdgeTableMeasure::from_edges(&[(1, 2, 0.9)])),
                Box::new(ExhaustiveBlocking::new()),
                0.0,
            );
            let mut graph = SimilarityGraph::empty(config);
            graph.add_object(oid(id), fixture_record(id));
            graph
        };
        let dynamicc = DynamicC::with_objective(Arc::new(CorrelationObjective));
        // Shard 0's graph holds object 1 but its clustering does not — the
        // graph/clustering disagreement the historical code panicked on —
        // while the measure recovers a cross-shard edge 1–2.
        let config = make_graph(1).config().clone();
        let e0 = Engine::new(make_graph(1), Clustering::new(), dynamicc.clone());
        let e1 = Engine::new(
            make_graph(2),
            Clustering::from_groups([vec![oid(2)]]).unwrap(),
            dynamicc.clone(),
        );
        let assignment: BTreeMap<ObjectId, usize> =
            [(oid(1), 0usize), (oid(2), 1usize)].into_iter().collect();
        let err =
            CrossShardRefiner::build(&[&e0, &e1], &assignment, config, dynamicc, 2).unwrap_err();
        assert_eq!(err, ShardConfigError::UnclusteredObject { id: oid(1) });
        assert!(err.to_string().contains("cluster"), "got: {err}");
    }

    #[test]
    fn parallel_map_preserves_input_order_at_every_thread_count() {
        let items: Vec<u64> = (0..23).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(
                parallel_map(&items, threads, |&x| x * x),
                expected,
                "{threads} threads"
            );
        }
        assert!(parallel_map(&Vec::<u64>::new(), 4, |&x: &u64| x).is_empty());
    }

    #[test]
    fn merged_clustering_watermark_survives_namespace_merges() {
        let mut a = Clustering::new();
        a.insert_cluster_with_id(ClusterId::new(3), [oid(1)])
            .unwrap();
        let mut b = Clustering::new();
        b.insert_cluster_with_id(ClusterId::new(shard_id_base(1) + 7), [oid(2)])
            .unwrap();
        let merged = merge_clusterings([&a, &b].into_iter());
        merged.check_invariants().unwrap();
        assert_eq!(merged.cluster_count(), 2);
        assert_eq!(
            merged.id_watermark(),
            b.id_watermark(),
            "the merged watermark is the max of the shard watermarks"
        );
    }
}
