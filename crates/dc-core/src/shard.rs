//! Sharded parallel serving: N independent [`Engine`]s behind one facade.
//!
//! The serving loop is embarrassingly partitionable across blocking keys
//! (§6, Algorithm 3): similarity edges only ever form between records that
//! share a block, so partitioning objects by their canonical blocking key
//! ([`ShardRouter`]) yields shards whose engines never need to talk to each
//! other.  A shard is an [`Engine`], a round is one `apply_round` call per
//! shard, and the N calls run in parallel on a hand-rolled scoped-thread
//! pool (`std::thread::scope`; no dependencies).
//!
//! ## What the partition preserves
//!
//! * **Objects** — every live object is owned by exactly one shard, decided
//!   by the router at first sight and sticky until the object is removed.
//! * **Cluster-id namespaces** — shard `i` allocates cluster ids from
//!   `shard_id_base(i) + watermark` upward (the watermark scheme the
//!   [`Clustering`] codec already persists), so per-shard clusterings merge
//!   into one global view without id collisions.  Clusters inherited whole
//!   from the pre-partition clustering keep their original ids.
//! * **Statistics** — the global [`DynamicCStats`] / comparison counters /
//!   [`RoundReport`]s are the field-wise sums of the per-shard ones.
//!
//! What the *partition* drops — similarity edges between shards — the
//! **cross-shard refinement pass** ([`crate::refine`]) recovers: after the
//! parallel per-shard rounds, the boundary pairs the per-shard graphs cannot
//! see are computed once, cached, and a global repair runs the trained
//! merge/split passes over the global view, so the refined clustering
//! ([`ShardedEngine::refined_clustering`]) is quality-equivalent to the
//! unsharded engine instead of silently lossy.  Every multi-shard engine
//! refines; `tests/shard_quality.rs` pins the refined pair sets against the
//! unsharded engine's.
//!
//! With **one** shard nothing is dropped and nothing is renumbered: the
//! sub-batch is the input batch, the namespace base is 0, and the sharded
//! engine is bit-identical to an unsharded [`Engine`] — clusterings
//! (including cluster ids), stats, and comparison counters.  This is pinned
//! by `tests/sharded_equivalence.rs`.
//!
//! ## Durable sharding
//!
//! [`ShardedDurableEngine`] gives every shard its own WAL + snapshot
//! directory (`shard-000/`, `shard-001/`, …) wrapped in a [`DurableEngine`],
//! plus a `refine/` directory whose WAL logs every round's full batch.  One
//! commit step ([`ShardedDurableEngine::commit_round`]) serves both the
//! synchronous engine and the pipelined front-end: it stages every shard's
//! sub-batch and seals the round on the refine WAL, which is the commit
//! point (with one shard, the shard's own WAL is).  Recovery reads the
//! committed round from it, reopens each shard capped there — shards that
//! logged a never-acknowledged round are physically rolled back — and heals
//! shards that fell short by re-routing the logged batches, keeping all
//! shards bit-identical to a never-restarted sharded run.  Checkpoints are
//! driven globally (after a round has completed on every shard), never by
//! the shards themselves, so no snapshot can ever get ahead of the
//! committed round.

use crate::config::DynamicCStats;
use crate::durable::{DurabilityOptions, RecoveryReport};
use crate::dynamic::DynamicC;
use crate::engine::{Engine, RoundReport};
use crate::pipeline::lock_unpoisoned;
use crate::refine::{CrossShardRefiner, RefineReport, RefineState};
use crate::DurableEngine;
use dc_similarity::persist::GraphState;
use dc_similarity::{GraphConfig, RoutedBatch, ShardRouter, SimilarityGraph};
use dc_storage::wal::list_segments;
use dc_storage::{Snapshotter, StorageError, Wal};
use dc_types::{shard_id_base, Clustering, ObjectId, OperationBatch, MAX_SHARDS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

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
    /// The refiner's boundary index produced a cross-shard candidate whose
    /// record is missing from the mirror graph — an internal inconsistency
    /// between the two derived layers.
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
                 mirror graph (the boundary index and the mirror are out of \
                 sync)"
            ),
        }
    }
}

impl std::error::Error for ShardConfigError {}

/// The per-shard bootstrap state produced by [`partition_state`].
struct ShardSeed {
    graph: SimilarityGraph,
    clustering: Clustering,
}

/// Everything a partition computes besides the seeds themselves.
struct Partition {
    seeds: Vec<ShardSeed>,
    assignment: BTreeMap<ObjectId, usize>,
}

/// Deterministically split one `(graph, clustering)` into per-shard seeds:
/// records by routing key, edges surviving only within a shard, clusters
/// kept verbatim when they land whole in one shard and re-created with
/// fresh shard-tagged ids when the router splits them.
fn partition_state(
    router: &ShardRouter,
    graph: &SimilarityGraph,
    clustering: &Clustering,
) -> Result<Partition, ShardConfigError> {
    let n = router.n_shards();
    if n > MAX_SHARDS - 1 {
        return Err(ShardConfigError::TooManyShards {
            n_shards: n,
            max_shards: MAX_SHARDS - 1,
        });
    }
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
        seeds.push(ShardSeed {
            graph: shard_graph,
            clustering: shard_clustering,
        });
    }
    Ok(Partition { seeds, assignment })
}

/// Distribute one trained [`DynamicC`] across `n` shards: shard 0 inherits
/// the donor (with its training statistics), the others carry the same
/// models with zeroed counters — so the merged statistics stay the plain
/// sum of the per-shard ones, continuous with the donor's history.
fn distribute_dynamicc(donor: DynamicC, n: usize) -> Vec<DynamicC> {
    (0..n)
        .map(|shard| {
            if shard == 0 {
                donor.clone()
            } else {
                let mut d = donor.clone();
                d.restore_stats(DynamicCStats::default());
                d
            }
        })
        .collect()
}

/// Run `f` once per `(shard, batch)` pair on a scoped thread pool of at most
/// `max_threads` workers (contiguous chunks of shards per worker), and fold
/// the workers' thread-local telemetry sinks back into the calling thread.
/// Results come back in shard order.
///
/// The fold is the fan-out half of the telemetry threading model: the
/// telemetry mode is captured once before spawning and propagated to every
/// worker, each worker drains its whole sink (counters, gauges, histograms —
/// the full-build counter that [`BuildCounter::scope`] assertions read
/// included, since workers are fresh scoped threads whose sinks start
/// empty), and the deltas merge back **in worker order**, so gauge
/// last-writer-wins stays deterministic.  Per-shard apply wall time lands in
/// the `shard.apply` histogram, recorded on the worker that served the
/// shard.
fn parallel_shard_rounds<T: Send, R: Send>(
    shards: &mut [T],
    batches: &[OperationBatch],
    max_threads: usize,
    f: impl Fn(&mut T, &OperationBatch) -> R + Sync,
) -> Vec<R> {
    assert_eq!(shards.len(), batches.len());
    let n = shards.len();
    let threads = max_threads.clamp(1, n.max(1));
    let chunk = n.div_ceil(threads);
    let enabled = dc_telemetry::registry().is_enabled();
    // Each worker returns its chunk's results in order; joining the handles
    // in spawn order then reassembles the global order with no placeholder
    // slots.  A worker panic is propagated (`resume_unwind`), not wrapped —
    // the panic payload and message survive to the caller's test harness.
    let chunk_results: Vec<(Vec<R>, dc_telemetry::ThreadDelta)> = std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::with_capacity(threads);
        for (shard_chunk, batch_chunk) in shards.chunks_mut(chunk).zip(batches.chunks(chunk)) {
            handles.push(scope.spawn(move || {
                let reg = dc_telemetry::registry();
                reg.set_enabled(enabled);
                let mut results = Vec::with_capacity(shard_chunk.len());
                for (shard, batch) in shard_chunk.iter_mut().zip(batch_chunk) {
                    let span = reg.span("shard.apply");
                    results.push(f(shard, batch));
                    span.finish();
                }
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

/// Map `f` over `items` on a scoped thread pool of at most `max_threads`
/// workers (contiguous chunks, results in input order).  The refinement
/// pass uses this to refresh model flags region-parallel; `f` must be a
/// pure function of its item for the fan-out to stay deterministic.  Small
/// inputs (or `max_threads <= 1`) run inline with no thread overhead.
pub(crate) fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    max_threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    if max_threads <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let threads = max_threads.min(n);
    let chunk = n.div_ceil(threads);
    let enabled = dc_telemetry::registry().is_enabled();
    // Same shape as `parallel_shard_rounds`: per-chunk result vectors
    // reassembled in spawn order, worker panics propagated verbatim.
    let chunk_results: Vec<(Vec<R>, dc_telemetry::ThreadDelta)> = std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::with_capacity(threads);
        for item_chunk in items.chunks(chunk) {
            handles.push(scope.spawn(move || {
                let reg = dc_telemetry::registry();
                reg.set_enabled(enabled);
                let results = item_chunk.iter().map(f).collect::<Vec<R>>();
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

pub(crate) fn merge_round_reports(
    round: usize,
    per_shard: Vec<RoundReport>,
    refine: Option<RefineReport>,
) -> ShardedRoundReport {
    let mut merged = RoundReport {
        round,
        operations: 0,
        isolated: 0,
        objects: 0,
        clusters: 0,
        merges_applied: 0,
        splits_applied: 0,
        objective_evaluations: 0,
        full_aggregate_builds: 0,
        score: 0.0,
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

/// N independent [`Engine`] shards served in parallel behind one facade,
/// with a cross-shard refinement pass closing the partition's quality gap
/// after every round (see [`crate::refine`]).
pub struct ShardedEngine {
    shards: Vec<Engine>,
    router: ShardRouter,
    assignment: BTreeMap<ObjectId, usize>,
    rounds_served: usize,
    max_threads: usize,
    /// `None` with one shard: the partition is the identity and there is
    /// nothing to refine.
    refiner: Option<CrossShardRefiner>,
}

impl ShardedEngine {
    /// Partition an already-populated `(graph, clustering)` pair (typically
    /// the batch algorithm's output, like [`Engine::new`]) across the
    /// router's shards and stand up one engine per shard.  Performs one full
    /// aggregate build per shard — the same one-off cost `Engine::new` pays,
    /// split N ways — and, with more than one shard, builds the cross-shard
    /// refinement state (boundary index, recovered cross edges, mirror
    /// graph) and runs the initial repair pass.
    ///
    /// The clustering's id watermark must fit the shard-0 namespace (ids
    /// below `1 << 56`) when partitioning across more than one shard —
    /// true for any clustering produced by the batch algorithms or a plain
    /// [`Engine`].  A [`ShardedEngine::merged_clustering`] (or
    /// [`ShardedEngine::refined_clustering`]) from a previous *multi-shard*
    /// run does **not** qualify: the shard count of a partition is fixed for
    /// its lifetime, and this constructor returns
    /// [`ShardConfigError::WatermarkOverflow`] rather than silently
    /// re-tagging ids.  Re-sharding means re-clustering from the records.
    pub fn new(
        router: ShardRouter,
        graph: SimilarityGraph,
        clustering: Clustering,
        dynamicc: DynamicC,
    ) -> Result<Self, ShardConfigError> {
        let n = router.n_shards();
        let partition = partition_state(&router, &graph, &clustering)?;
        let shards: Vec<Engine> = partition
            .seeds
            .into_iter()
            .zip(distribute_dynamicc(dynamicc, n))
            .map(|(seed, d)| Engine::new(seed.graph, seed.clustering, d))
            .collect();
        let refiner = if n > 1 {
            let engines: Vec<&Engine> = shards.iter().collect();
            Some(CrossShardRefiner::build(
                &router,
                &engines,
                &partition.assignment,
                n,
            )?)
        } else {
            None
        };
        Ok(ShardedEngine {
            shards,
            router,
            assignment: partition.assignment,
            rounds_served: 0,
            max_threads: n,
            refiner,
        })
    }

    /// Cap the number of worker threads a round fans out to (default: one
    /// per shard).  Thread count never changes results — shards are
    /// independent — only wall-clock.
    pub fn with_max_threads(mut self, max_threads: usize) -> Self {
        self.max_threads = max_threads.max(1);
        self
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
    /// and `round.refine`; per-shard wall time (`shard.apply`) merges back
    /// from the workers, and the batch-imbalance gauges record how skewed
    /// the router's split was this round.
    pub fn apply_round(&mut self, batch: &OperationBatch) -> ShardedRoundReport {
        let reg = dc_telemetry::registry();
        let round_span = reg.span("round.total");
        let span = reg.span("round.route");
        let routed = self.router.route_batch(batch, &mut self.assignment);
        span.finish();
        record_batch_imbalance(&routed.sub_batches);
        let span = reg.span("round.shard_apply");
        let reports = parallel_shard_rounds(
            &mut self.shards,
            &routed.sub_batches,
            self.max_threads,
            |engine, sub| engine.apply_round(sub),
        );
        span.finish();
        let span = reg.span("round.refine");
        let refine = self.refiner.as_mut().map(|refiner| {
            refiner.fold_round(
                batch,
                &routed.op_shards,
                self.shards[0].dynamicc(),
                self.max_threads,
            )
        });
        span.finish();
        self.rounds_served += 1;
        round_span.finish();
        merge_round_reports(self.rounds_served, reports, refine)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard engines, in shard order.
    pub fn shards(&self) -> &[Engine] {
        &self.shards
    }

    /// The router in use.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Rounds served so far.
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
    /// rounds: the counter grows when a served round introduces a
    /// cross-shard edge and shrinks when one endpoint is removed or updated
    /// apart.  (Before refinement existed this was the
    /// `cross_shard_edges_dropped` loss, counted at the initial partition
    /// only.)  Always 0 with one shard.
    pub fn cross_shard_edges_recovered(&self) -> usize {
        self.refiner
            .as_ref()
            .map_or(0, CrossShardRefiner::cross_edges_recovered)
    }

    /// The report of the most recent refinement pass (the initial repair
    /// right after construction, then one per served round); `None` with one
    /// shard.
    pub fn last_refine_report(&self) -> Option<RefineReport> {
        self.refiner.as_ref().map(CrossShardRefiner::last_report)
    }

    /// Diagnostic mode: make the refinement pass re-run the full global
    /// fixed point every round instead of restricting repair to the dirty
    /// regions the round's operations touched.  Both modes produce the same
    /// refined clustering — full repair just pays the pre-incremental serial
    /// cost, which `tests/incremental_refine.rs` uses as the reference the
    /// dirty-region path is checked against.  No-op with one shard.
    pub fn set_full_repair(&mut self, full_repair: bool) {
        if let Some(refiner) = self.refiner.as_mut() {
            refiner.set_full_repair(full_repair);
        }
    }

    /// The global [`DynamicCStats`]: the field-wise sum of the per-shard
    /// statistics.  (The refinement pass keeps its own counters in
    /// [`RefineReport`]; it never touches the per-shard statistics.)
    pub fn stats(&self) -> DynamicCStats {
        DynamicCStats::merged(self.shards.iter().map(|s| *s.stats()))
    }

    /// Total pairwise similarity computations: the per-shard graphs' sum
    /// plus the cross-shard boundary pairs computed by the refinement pass.
    pub fn comparisons(&self) -> u64 {
        self.shard_comparisons()
            + self
                .refiner
                .as_ref()
                .map_or(0, CrossShardRefiner::cross_comparisons)
    }

    /// Pairwise similarity computations performed by the per-shard graphs
    /// alone (excluding the refinement pass's cross-shard boundary pairs).
    /// This component is durable per shard, so it is bit-identical across
    /// restarts of a [`ShardedDurableEngine`].
    pub fn shard_comparisons(&self) -> u64 {
        self.shards.iter().map(|s| s.graph().comparisons()).sum()
    }

    /// The merged global clustering: the union of the per-shard clusterings
    /// under their disjoint id namespaces, with the watermark at the maximum
    /// of the per-shard watermarks.  This is the *pre-refinement* view; see
    /// [`ShardedEngine::refined_clustering`] for the repaired one.
    pub fn merged_clustering(&self) -> Clustering {
        merge_clusterings(self.shards.iter().map(|s| s.clustering()))
    }

    /// The refined global clustering: the merged per-shard clusterings with
    /// the cross-shard repair applied (recovered edges made visible, then
    /// the trained merge/split passes run globally).  With one shard this is
    /// exactly [`ShardedEngine::merged_clustering`].  Recomputed after every
    /// round; repair-created clusters carry ids from the reserved refine
    /// namespace, so the result must not seed a new multi-shard partition.
    pub fn refined_clustering(&self) -> Clustering {
        match &self.refiner {
            Some(refiner) => refiner.refined().clone(),
            None => self.merged_clustering(),
        }
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("objects", &self.assignment.len())
            .field("rounds_served", &self.rounds_served)
            .field("router", &self.router)
            .finish()
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

/// A crash-safe [`ShardedEngine`]: one WAL + snapshot directory per shard,
/// globally coordinated checkpoints, and min-committed-round recovery.
pub struct ShardedDurableEngine {
    shards: Vec<DurableEngine>,
    router: ShardRouter,
    assignment: BTreeMap<ObjectId, usize>,
    rounds_served: usize,
    max_threads: usize,
    options: DurabilityOptions,
    dir: PathBuf,
    /// The cross-shard refinement layer and its durable home (`None` with
    /// one shard).  The refined view is history-bearing state: every round's
    /// full batch is logged in `refine/` before the pass runs, and the view
    /// is snapshotted at checkpoints, so recovery reloads the snapshot and
    /// replays the same pass deterministically over the logged tail — see
    /// [`crate::refine`].
    refine: Option<DurableRefine>,
}

/// The refinement layer's durable plumbing: its refiner plus the `refine/`
/// directory's WAL and snapshotter.  The `refine/` WAL doubles as the
/// **group-commit log**: it holds every round's *full* batch, and its
/// per-round fsync is the commit point from which any shard's lost
/// (never-fsynced) sub-batch tail can be re-derived and healed on recovery.
/// The refiner sits behind a lock so the pipelined front-end's refine
/// worker ([`crate::pipeline`]) can fold rounds while the coordinator owns
/// the engine.
struct DurableRefine {
    refiner: Arc<Mutex<CrossShardRefiner>>,
    wal: Wal,
    snapshotter: Snapshotter,
}

/// Lock the refiner for a round fold or a checkpoint.  A poisoned lock
/// means a fold panicked midway and left the refined view torn, so it is
/// neither extended nor made durable; reopening recovers the committed
/// state.  Read-only accessors take the guard regardless
/// ([`lock_unpoisoned`]).
fn lock_refiner(
    refiner: &Mutex<CrossShardRefiner>,
) -> Result<MutexGuard<'_, CrossShardRefiner>, StorageError> {
    refiner.lock().map_err(|_| {
        StorageError::Inconsistent(
            "a refine fold panicked and left the refined view torn; reopen to recover".into(),
        )
    })
}

fn refine_dir(dir: &Path) -> PathBuf {
    dir.join("refine")
}

/// Shards never checkpoint on their own: a per-shard auto-checkpoint could
/// snapshot a round that other shards have not yet logged, putting durable
/// state ahead of the globally committed round.
const PER_SHARD_OPTIONS: DurabilityOptions = DurabilityOptions {
    checkpoint_every_rounds: 0,
    // Group commit is coordinated by the sharded engine (it owns the single
    // commit-point fsync); the per-shard engines never group-commit on
    // their own.
    group_commit: false,
};

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

impl ShardedDurableEngine {
    /// Open the sharded durable engine rooted at `dir` (one subdirectory per
    /// shard): recover every shard to the globally committed round if
    /// durable state exists, otherwise partition the bootstrap state and
    /// write each shard's initial checkpoint.
    ///
    /// As with [`DurableEngine::open`], `graph_config` and `dynamicc` are
    /// construction-time inputs supplied by the caller on every open; the
    /// router must be configured identically across restarts (same shard
    /// count, same blocking-derived keys), since the on-disk partition was
    /// produced by it.
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
        if n > MAX_SHARDS - 1 {
            return Err(StorageError::Inconsistent(
                ShardConfigError::TooManyShards {
                    n_shards: n,
                    max_shards: MAX_SHARDS - 1,
                }
                .to_string(),
            ));
        }
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
        let mut durable_rounds = Vec::with_capacity(n);
        let mut peek_dropped_torn_tail = false;
        for shard in 0..n {
            let (round, dropped) = DurableEngine::last_durable_round(&shard_dir(dir, shard))?;
            peek_dropped_torn_tail |= dropped;
            durable_rounds.push(round);
        }
        if n > 1 {
            let (round, dropped) = DurableEngine::last_durable_round(&refine_dir(dir))?;
            peek_dropped_torn_tail |= dropped;
            durable_rounds.push(round);
        }
        // The commit point is the group-commit log's round (the last entry
        // peeked), valid only when every directory has durable state.
        let committed = match durable_rounds.last() {
            Some(last) if durable_rounds.iter().all(Option::is_some) => *last,
            _ => None,
        };

        let dynamiccs = distribute_dynamicc(dynamicc, n);
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
                // Every entry is Some here (that is what selected this
                // branch); the fallback keeps the arithmetic total.
                report.rolled_back_rounds = durable_rounds
                    .iter()
                    .map(|r| r.unwrap_or(committed).saturating_sub(committed))
                    .max()
                    .unwrap_or(0);
                for (shard, d) in dynamiccs.into_iter().enumerate() {
                    let (engine, shard_report) = DurableEngine::open_with_replay_cap(
                        shard_dir(dir, shard),
                        graph_config.clone(),
                        d,
                        PER_SHARD_OPTIONS,
                        Some(committed),
                        // dc-lint: allow(R1) reason="the bootstrap closure is only invoked when a shard directory has no durable state, and this branch was selected because every directory has some; reaching it means last_durable_round and open disagree about the same file"
                        || unreachable!("recovery must not bootstrap"),
                    )?;
                    let recovered_to = engine.rounds_served() as u64;
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
                let partition = partition_state(&router, &graph, &clustering)
                    .map_err(|e| StorageError::Inconsistent(e.to_string()))?;
                for ((shard, seed), d) in partition.seeds.into_iter().enumerate().zip(dynamiccs) {
                    let (engine, shard_report) = DurableEngine::open(
                        shard_dir(dir, shard),
                        graph_config.clone(),
                        d,
                        PER_SHARD_OPTIONS,
                        move || (seed.graph, seed.clustering),
                    )?;
                    if engine.rounds_served() != 0 {
                        return Err(StorageError::Inconsistent(format!(
                            "shard {shard} has {} served rounds but other shards are fresh",
                            engine.rounds_served()
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

        let recovered = report.recovered;
        let committed_round = committed.unwrap_or(0);
        let refine = if n > 1 {
            Some(Self::open_refine(
                dir,
                &router,
                &graph_config,
                &mut shards,
                &assignment,
                recovered,
                committed_round,
                &mut report,
            )?)
        } else {
            None
        };
        if report.healed_rounds > 0 {
            // Healing re-applied lost rounds to lagging shards, so the
            // ownership derived above is stale — derive it again from the
            // healed graphs.
            assignment = derive_assignment(&shards)?;
        }
        if let Some(refine) = &refine {
            if recovered && lock_unpoisoned(&refine.refiner).shard_map() != assignment {
                return Err(StorageError::Inconsistent(
                    "replayed refine assignment disagrees with the recovered shard \
                     ownership"
                        .into(),
                ));
            }
        }

        let rounds_served = shards[0].rounds_served();
        Ok((
            ShardedDurableEngine {
                shards,
                router,
                assignment,
                rounds_served,
                max_threads: n,
                options,
                dir: dir.to_path_buf(),
                refine,
            },
            report,
        ))
    }

    /// Bring the `refine/` directory to the committed round: on a fresh open
    /// build the refiner from the freshly partitioned shards and write its
    /// initial snapshot; on recovery load the latest refine snapshot and
    /// replay the logged batch tail through the same pass the original run
    /// performed (recomputing pair similarities against the restored mirror,
    /// which reproduces it bit-for-bit — see [`crate::refine`]).
    ///
    /// The replay doubles as the **healing pass** for group-commit mode:
    /// each replayed round is re-routed, and any shard whose recovered state
    /// stops short of it (its staged, never-fsynced WAL tail did not survive
    /// the crash) gets its sub-batch re-logged and re-applied — the refine
    /// WAL holds every committed round's full batch, so nothing committed
    /// can be lost.  Healed shard WALs are fsynced once at the end.
    #[allow(clippy::too_many_arguments)]
    fn open_refine(
        dir: &Path,
        router: &ShardRouter,
        graph_config: &GraphConfig,
        shards: &mut [DurableEngine],
        assignment: &BTreeMap<ObjectId, usize>,
        recovered: bool,
        committed: u64,
        report: &mut ShardedRecoveryReport,
    ) -> Result<DurableRefine, StorageError> {
        let refine_root = refine_dir(dir);
        let snapshotter = Snapshotter::new(&refine_root)?;
        if !recovered {
            let engines: Vec<&Engine> = shards.iter().map(DurableEngine::engine).collect();
            let refiner = CrossShardRefiner::build(router, &engines, assignment, router.n_shards())
                .map_err(|e| StorageError::Inconsistent(e.to_string()))?;
            snapshotter.write(0, &refiner.snapshot_ref())?;
            let wal = Wal::create(&refine_root, 0)?;
            return Ok(DurableRefine {
                refiner: Arc::new(Mutex::new(refiner)),
                wal,
                snapshotter,
            });
        }

        let Some((snapshot_round, state)) = snapshotter.load_latest::<RefineState>()? else {
            return Err(StorageError::Inconsistent(format!(
                "{} holds recovered shards but no refine snapshot",
                refine_root.display()
            )));
        };
        if snapshot_round > committed {
            return Err(StorageError::Inconsistent(format!(
                "refine snapshot at round {snapshot_round} exceeds the committed \
                 round {committed}"
            )));
        }
        let mut refiner = CrossShardRefiner::import_state(router, graph_config.clone(), state)
            .map_err(|source| StorageError::Codec {
                path: refine_root.join(dc_storage::snapshot::snapshot_file_name(snapshot_round)),
                source,
            })?;

        // Replay the refine WAL tail: re-route each logged batch from the
        // snapshot's sticky assignment, heal any shard the round outran,
        // and run the same pass again.  The pass configuration is shard 0's
        // (all shards carry an identical one — validated at construction).
        let dynamicc = shards
            .first()
            .ok_or_else(|| {
                StorageError::Inconsistent(
                    "refine directory present but no shards were recovered".into(),
                )
            })?
            .engine()
            .dynamicc()
            .clone();
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
                    if (engine.rounds_served() as u64) < record.round {
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
                refiner.fold_round(
                    &record.batch,
                    &routed.op_shards,
                    &dynamicc,
                    router.n_shards(),
                );
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
        let wal = match tail_wal {
            Some(wal) if wal.last_round() == committed && wal.start_round() >= snapshot_round => {
                wal
            }
            _ => Wal::create(&refine_root, committed)?,
        };
        Ok(DurableRefine {
            refiner: Arc::new(Mutex::new(refiner)),
            wal,
            snapshotter,
        })
    }

    /// Cap the number of worker threads a round fans out to (default: one
    /// per shard).
    pub fn with_max_threads(mut self, max_threads: usize) -> Self {
        self.max_threads = max_threads.max(1);
        self
    }

    /// Serve one round durably: commit it (route, stage every shard's
    /// sub-batch, seal — see [`ShardedDurableEngine::commit_round`]), apply
    /// the sub-batches in parallel, and fold the round into the refined
    /// view.  Checkpoints run globally per
    /// [`DurabilityOptions::checkpoint_every_rounds`], after the round has
    /// completed on every shard.
    ///
    /// An `Err` leaves the engine in an unspecified in-memory state (some
    /// shards may have applied the round); drop it and reopen.
    pub fn apply_round(
        &mut self,
        batch: &OperationBatch,
    ) -> Result<ShardedRoundReport, StorageError> {
        let reg = dc_telemetry::registry();
        let round_span = reg.span("round.total");
        let (routed, _) = self.commit_round(batch, "round.group_commit")?;
        let reports = self.apply_committed(&routed);
        let refine = match &self.refine {
            Some(refine) => {
                let span = reg.span("round.refine");
                let report = lock_refiner(&refine.refiner)?.fold_round(
                    batch,
                    &routed.op_shards,
                    self.shards[0].engine().dynamicc(),
                    self.max_threads,
                );
                span.finish();
                Some(report)
            }
            None => None,
        };
        if self.checkpoint_due() {
            let span = reg.span("round.checkpoint");
            self.checkpoint()?;
            span.finish();
        }
        round_span.finish();
        Ok(merge_round_reports(self.rounds_served, reports, refine))
    }

    /// The commit step of a sharded round, shared by
    /// [`ShardedDurableEngine::apply_round`] and the pipelined coordinator:
    /// route the batch, stage every shard's sub-batch in its WAL without
    /// fsync, then seal the round:
    ///
    /// * with [`DurabilityOptions::group_commit`] off, every shard WAL is
    ///   fsynced first;
    /// * the refine WAL (the group-commit log) then appends the full batch
    ///   and fsyncs — the round's commit point;
    /// * with one shard there is no refine WAL, and the shard's own fsync
    ///   is the commit point.
    ///
    /// So a round costs N+1 fsyncs with group commit off and 1 with it on,
    /// and 1 in both modes at N=1.  Once this returns the round is durable
    /// and may be acknowledged; recovery heals any shard whose staged tail
    /// was lost from the refine WAL (see
    /// [`ShardedRecoveryReport::healed_rounds`]).  Stage and seal run under
    /// one span named `span`; its wall time is returned with the routing.
    pub(crate) fn commit_round(
        &mut self,
        batch: &OperationBatch,
        span: &'static str,
    ) -> Result<(RoutedBatch, u64), StorageError> {
        let reg = dc_telemetry::registry();
        let route_span = reg.span("round.route");
        let routed = self.router.route_batch(batch, &mut self.assignment);
        route_span.finish();
        record_batch_imbalance(&routed.sub_batches);

        let round = self.rounds_served as u64 + 1;
        let commit_span = reg.span(span);
        for (shard, sub) in self.shards.iter_mut().zip(&routed.sub_batches) {
            let logged = shard.log_round_nosync(sub)?;
            debug_assert_eq!(logged, round, "shards advance in lock-step");
        }
        match &mut self.refine {
            Some(refine) => {
                if !self.options.group_commit {
                    for shard in &mut self.shards {
                        shard.wal_sync()?;
                    }
                }
                refine.wal.append_round(round, batch)?;
            }
            None => self.shards[0].wal_sync()?,
        }
        Ok((routed, commit_span.finish_ns()))
    }

    /// Apply a committed round's sub-batches to every shard in parallel and
    /// count the round as served.
    pub(crate) fn apply_committed(&mut self, routed: &RoutedBatch) -> Vec<RoundReport> {
        let span = dc_telemetry::registry().span("round.shard_apply");
        let reports = parallel_shard_rounds(
            &mut self.shards,
            &routed.sub_batches,
            self.max_threads,
            |shard, sub| shard.apply_logged(sub),
        );
        span.finish();
        self.rounds_served += 1;
        reports
    }

    /// Whether the automatic checkpoint cadence fires after the rounds
    /// served so far.
    pub(crate) fn checkpoint_due(&self) -> bool {
        let every = self.options.checkpoint_every_rounds as u64;
        every > 0 && (self.rounds_served as u64).is_multiple_of(every)
    }

    /// The refiner, shared with the pipelined refine worker (`None` with one
    /// shard).
    pub(crate) fn shared_refiner(&self) -> Option<Arc<Mutex<CrossShardRefiner>>> {
        self.refine
            .as_ref()
            .map(|refine| Arc::clone(&refine.refiner))
    }

    /// The worker-thread cap a round fans out to.
    pub(crate) fn max_threads(&self) -> usize {
        self.max_threads
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
        if let Some(refine) = &mut self.refine {
            refine
                .snapshotter
                .write(round, &lock_refiner(&refine.refiner)?.snapshot_ref())?;
            if refine.wal.start_round() != round {
                refine.wal = Wal::create(refine.snapshotter.dir(), round)?;
            }
            refine.snapshotter.prune_obsolete(round)?;
        }
        Ok(round)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard durable engines, in shard order.
    pub fn shards(&self) -> &[DurableEngine] {
        &self.shards
    }

    /// Rounds served across the engine's whole (possibly multi-process)
    /// lifetime.
    pub fn rounds_served(&self) -> usize {
        self.rounds_served
    }

    /// The state directory this engine is rooted at.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shard currently owning `id`, if the object is live.
    pub fn shard_of(&self, id: ObjectId) -> Option<usize> {
        self.assignment.get(&id).copied()
    }

    /// The global [`DynamicCStats`]: the field-wise sum of the per-shard
    /// statistics.
    pub fn stats(&self) -> DynamicCStats {
        DynamicCStats::merged(self.shards.iter().map(|s| *s.stats()))
    }

    /// Total pairwise similarity computations: the per-shard graphs' sum
    /// plus the cross-shard boundary pairs computed by this process's
    /// refinement passes.  The cross-shard component counts work *since this
    /// open* (recovery rebuilds the derived cross-shard index, and that
    /// rebuild is the work the process performed); the per-shard component
    /// is durable and restart-exact — see
    /// [`ShardedDurableEngine::shard_comparisons`].
    pub fn comparisons(&self) -> u64 {
        self.shard_comparisons()
            + self
                .refine
                .as_ref()
                .map_or(0, |r| lock_unpoisoned(&r.refiner).cross_comparisons())
    }

    /// Pairwise similarity computations performed by the per-shard graphs
    /// alone — persisted in the per-shard snapshots, so bit-identical
    /// between a restarted and a never-restarted engine.
    pub fn shard_comparisons(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.engine().graph().comparisons())
            .sum()
    }

    /// Cross-shard edges currently recovered by the refinement pass (see
    /// [`ShardedEngine::cross_shard_edges_recovered`]); restart-exact.
    pub fn cross_shard_edges_recovered(&self) -> usize {
        self.refine
            .as_ref()
            .map_or(0, |r| lock_unpoisoned(&r.refiner).cross_edges_recovered())
    }

    /// The report of the most recent refinement pass; `None` with one shard.
    pub fn last_refine_report(&self) -> Option<RefineReport> {
        self.refine
            .as_ref()
            .map(|r| lock_unpoisoned(&r.refiner).last_report())
    }

    /// The merged global clustering (see
    /// [`ShardedEngine::merged_clustering`]).
    pub fn merged_clustering(&self) -> Clustering {
        merge_clusterings(self.shards.iter().map(|s| s.clustering()))
    }

    /// The refined global clustering (see
    /// [`ShardedEngine::refined_clustering`]); bit-identical across
    /// restarts because the refinement state is rebuilt from the recovered
    /// per-shard graphs.
    pub fn refined_clustering(&self) -> Clustering {
        match &self.refine {
            Some(refine) => lock_unpoisoned(&refine.refiner).refined().clone(),
            None => self.merged_clustering(),
        }
    }
}

impl std::fmt::Debug for ShardedDurableEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDurableEngine")
            .field("dir", &self.dir)
            .field("shards", &self.shards.len())
            .field("objects", &self.assignment.len())
            .field("rounds_served", &self.rounds_served)
            .finish()
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

    /// Satellite pin: writing a refine checkpoint must not clone the refined
    /// clustering (the historical `export_state` path cloned it — O(V) — on
    /// every checkpoint) nor rebuild aggregates, and the borrowed encoder's
    /// bytes must equal the owned state's encoding exactly.
    #[test]
    fn checkpoint_snapshot_is_clone_free_and_byte_identical() {
        use dc_similarity::BuildCounter;
        use dc_types::codec::BinCodec;

        let (graph, clustering, dynamicc) = toy_setup();
        let router = ShardRouter::new(2, Box::new(ExhaustiveBlocking::new()));
        let engine = ShardedEngine::new(router, graph, clustering, dynamicc).unwrap();
        let refiner = engine.refiner.as_ref().expect("two shards refine");

        let owned = refiner.export_state().encode_to_vec();
        let clones_before = dc_types::clustering_clone_count();
        let (borrowed, builds) = BuildCounter::scope(|| refiner.snapshot_ref().encode_to_vec());
        assert_eq!(
            dc_types::clustering_clone_count() - clones_before,
            0,
            "snapshot_ref must not clone the refined clustering"
        );
        assert_eq!(builds, 0, "snapshot_ref must not rebuild aggregates");
        assert_eq!(
            borrowed, owned,
            "borrowed and owned snapshot encodings must be byte-identical"
        );
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
        let e0 = Engine::new(g0, c0, d0);
        let e1 = Engine::new(g1, c1, divergent);
        let router = ShardRouter::new(2, Box::new(ExhaustiveBlocking::new()));
        let err = CrossShardRefiner::build(&router, &[&e0, &e1], &BTreeMap::new(), 2).unwrap_err();
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
        let e0 = Engine::new(g0, c0, d0);
        let e1 = Engine::new(g1, c1, d1);
        let router = ShardRouter::new(2, Box::new(ExhaustiveBlocking::new()));
        let assignment: BTreeMap<ObjectId, usize> = [(oid(99), 0usize)].into_iter().collect();
        let err = CrossShardRefiner::build(&router, &[&e0, &e1], &assignment, 2).unwrap_err();
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
        let e0 = Engine::new(make_graph(1), Clustering::new(), dynamicc.clone());
        let e1 = Engine::new(
            make_graph(2),
            Clustering::from_groups([vec![oid(2)]]).unwrap(),
            dynamicc,
        );
        let router = ShardRouter::new(2, Box::new(ExhaustiveBlocking::new()));
        let assignment: BTreeMap<ObjectId, usize> =
            [(oid(1), 0usize), (oid(2), 1usize)].into_iter().collect();
        let err = CrossShardRefiner::build(&router, &[&e0, &e1], &assignment, 2).unwrap_err();
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
