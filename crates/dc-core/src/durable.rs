//! Durable shards: the [`DurableEngine`] wrapper that gives every shard of a
//! [`crate::ShardedDurableEngine`] its own write-ahead log and snapshots.
//!
//! The in-memory [`Engine`] loses everything on restart and would need a
//! full replay from the original dataset.  The durable engine fixes that
//! with the classic write-ahead-logging recipe, specialized to the paper's
//! §6 serving model (a round = one operation batch + re-clustering):
//!
//! * **log-then-apply** — [`crate::ShardedDurableEngine::apply_round`]
//!   stages the round's sub-batch in every shard's WAL and seals the round
//!   *before* any shard touches it, so a crash at any point leaves either an
//!   unacknowledged torn tail (dropped on recovery) or a logged round that
//!   recovery re-applies;
//! * **checkpoint** — [`crate::ShardedDurableEngine::checkpoint`] atomically
//!   snapshots each shard's materialized state (graph, clustering,
//!   aggregates, counters), rotates its WAL to a fresh segment, and prunes
//!   everything the snapshot made obsolete;
//! * **recover** — [`crate::ShardedDurableEngine::open`] loads each shard's
//!   latest snapshot and replays only its WAL tail, reaching the pre-crash
//!   serving state without re-serving a single checkpointed round and
//!   without a single O(E) aggregate rebuild.  (The trained models and graph
//!   config are reconstructed by the caller either way — see below.)
//!
//! A durable single engine is a `ShardedDurableEngine` with one shard: its
//! sub-batch is the whole batch and its own WAL fsync seals the round.
//!
//! ## The equivalence invariant
//!
//! A recovered engine is *bit-identical* to a never-restarted one: same
//! clusterings (down to cluster ids), same [`DynamicCStats`], same future
//! decisions.  Three design choices carry that invariant, each checked by
//! `tests/durable_recovery.rs` (one durable shard against a never-restarted
//! [`Engine`]):
//!
//! 1. the snapshot stores the aggregates' exact `f64` bits (a rebuild would
//!    re-derive them in a different addition order and could flip an exact
//!    tie in a later merge/split verification);
//! 2. the clustering snapshot includes the cluster-id watermark, so the
//!    first structural change after recovery allocates the same id the
//!    uninterrupted run would have;
//! 3. the snapshot stores the [`DynamicCStats`] at checkpoint time, and
//!    replayed rounds accumulate their deltas on top.
//!
//! What is *not* persisted: the graph configuration (boxed measure/blocking
//! trait objects) and the trained [`DynamicC`] models.  Both are supplied by
//! the caller at [`crate::ShardedDurableEngine::open`] — they are
//! construction-time inputs (config and deterministic training), not state
//! that evolves while serving; the engine's serving path only reads the
//! models.

use crate::config::DynamicCStats;
use crate::dynamic::DynamicC;
use crate::engine::{Engine, RoundReport};
use dc_similarity::{AggregatesState, ClusterAggregates, GraphConfig, GraphState, SimilarityGraph};
use dc_storage::wal::list_segments;
use dc_storage::{Snapshotter, StorageError, Wal};
use dc_types::codec::{BinCodec, ByteReader, ByteWriter, CodecError};
use dc_types::{Clustering, OperationBatch};
use std::path::{Path, PathBuf};

/// Durability policy for a [`crate::ShardedDurableEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// Checkpoint automatically after this many served rounds (0 disables
    /// automatic checkpoints; [`crate::ShardedDurableEngine::checkpoint`] is
    /// always available).  Smaller values bound recovery replay at the cost
    /// of snapshot writes.
    pub checkpoint_every_rounds: usize,
    /// How a sharded round is sealed.  Every shard stages its frame without
    /// fsyncing and the shared group (refine) WAL then appends the full
    /// batch and fsyncs — the round's commit point.  With `group_commit` on
    /// that is the round's only fsync; with it off every shard WAL is
    /// fsynced before the seal, so a round at N shards costs 1 fsync or
    /// N+1.  At one shard there is no group WAL and both settings cost the
    /// shard's one fsync.  Either way recovery heals shard WALs that lost
    /// their unsynced tail by replaying from the group WAL.
    ///
    /// The rule is the same whether
    /// [`crate::ShardedDurableEngine::apply_round`] or the pipelined
    /// front-end (`dc_core::pipeline`) serves the round.
    pub group_commit: bool,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            checkpoint_every_rounds: 8,
            group_commit: true,
        }
    }
}

/// What opening one durable shard did to reach a servable state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether existing durable state was recovered (vs a fresh
    /// initialization from the bootstrap closure).
    pub recovered: bool,
    /// Round of the snapshot that seeded the state (0 for fresh opens —
    /// the initial checkpoint).
    pub snapshot_round: u64,
    /// WAL rounds replayed on top of the snapshot.
    pub replayed_rounds: usize,
    /// Whether a torn WAL tail (an append interrupted by the crash) was
    /// dropped during recovery.
    pub dropped_torn_tail: bool,
}

impl BinCodec for DynamicCStats {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.observed_rounds);
        w.put_usize(self.retrain_count);
        w.put_usize(self.merge_candidates);
        w.put_usize(self.merges_applied);
        w.put_usize(self.merges_rejected);
        w.put_usize(self.split_candidates);
        w.put_usize(self.splits_applied);
        w.put_usize(self.splits_rejected);
        w.put_u64(self.objective_evaluations);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(DynamicCStats {
            observed_rounds: r.get_usize()?,
            retrain_count: r.get_usize()?,
            merge_candidates: r.get_usize()?,
            merges_applied: r.get_usize()?,
            merges_rejected: r.get_usize()?,
            split_candidates: r.get_usize()?,
            splits_applied: r.get_usize()?,
            splits_rejected: r.get_usize()?,
            objective_evaluations: r.get_u64()?,
        })
    }
}

/// The snapshot payload: everything a restart needs that is not supplied by
/// the caller at open time.
struct EngineSnapshot {
    rounds_served: u64,
    graph: GraphState,
    clustering: Clustering,
    aggregates: AggregatesState,
    stats: DynamicCStats,
}

impl BinCodec for EngineSnapshot {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.rounds_served);
        self.graph.encode(w);
        self.clustering.encode(w);
        self.aggregates.encode(w);
        self.stats.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(EngineSnapshot {
            rounds_served: r.get_u64()?,
            graph: GraphState::decode(r)?,
            clustering: Clustering::decode(r)?,
            aggregates: AggregatesState::decode(r)?,
            stats: DynamicCStats::decode(r)?,
        })
    }
}

/// Capture the engine's current durable state as a snapshot payload.
fn snapshot_of(engine: &Engine) -> EngineSnapshot {
    EngineSnapshot {
        rounds_served: engine.rounds_served() as u64,
        graph: engine.graph().export_state(),
        clustering: engine.clustering().clone(),
        aggregates: engine.aggregates().export_state(),
        stats: *engine.stats(),
    }
}

/// Load the latest snapshot in the directory, timed as
/// `recovery.snapshot_load`.
fn load_snapshot(snapshotter: &Snapshotter) -> Result<Option<(u64, EngineSnapshot)>, StorageError> {
    let span = dc_telemetry::registry().span("recovery.snapshot_load");
    let loaded = snapshotter.load_latest::<EngineSnapshot>();
    span.finish();
    loaded
}

/// The segment a recovered WAL appends to next: the newest segment only if
/// it is the one still being appended to (it ends at `round` and starts
/// no earlier than the snapshot); an older tail (e.g. every segment
/// predates the snapshot) gets a fresh segment at `round`.
pub(crate) fn tail_segment(
    dir: &Path,
    newest: Option<Wal>,
    snapshot_round: u64,
    round: u64,
) -> Result<Wal, StorageError> {
    match newest {
        Some(wal) if wal.last_round() == round && wal.start_round() >= snapshot_round => Ok(wal),
        _ => Wal::create(dir, round),
    }
}

/// One shard of a [`crate::ShardedDurableEngine`]: an [`Engine`] whose
/// rounds are logged before they are applied, with checkpoints bounding how
/// much of the log a recovery replays.  Only the sharded engine opens,
/// logs, applies and checkpoints it; callers read it through
/// [`crate::ShardedDurableEngine::shards`].
#[derive(Debug)]
pub struct DurableEngine {
    engine: Engine,
    wal: Wal,
    snapshotter: Snapshotter,
    last_checkpoint_round: u64,
}

/// The typed error for a directory whose WAL segments have no snapshot to
/// replay onto: indistinguishable from a damaged directory, so never
/// bootstrapped over.
fn segments_without_snapshot(dir: &Path) -> StorageError {
    StorageError::Inconsistent(format!(
        "{} holds WAL segments but no snapshot",
        dir.display()
    ))
}

impl DurableEngine {
    /// Open the shard in `dir`: recover from the snapshot + WAL if durable
    /// state exists, otherwise initialize fresh from `bootstrap` (the
    /// shard's piece of the batch algorithm's clustering) and write the
    /// initial checkpoint so the serving state never has to be rebuilt from
    /// the original dataset again.
    ///
    /// `graph_config` must be equivalent to the configuration the state was
    /// created under, and `dynamicc` must carry the same (deterministically
    /// trained) models — see the module docs for why neither is persisted.
    pub(crate) fn open(
        dir: &Path,
        graph_config: GraphConfig,
        dynamicc: DynamicC,
        bootstrap: impl FnOnce() -> (SimilarityGraph, Clustering),
    ) -> Result<(Self, RecoveryReport), StorageError> {
        let snapshotter = Snapshotter::new(dir)?;
        if let Some(loaded) = load_snapshot(&snapshotter)? {
            return Self::replay(dir, snapshotter, graph_config, dynamicc, None, loaded);
        }
        if !list_segments(dir)?.is_empty() {
            return Err(segments_without_snapshot(dir));
        }
        let (graph, clustering) = bootstrap();
        let engine = Engine::new(graph, clustering, dynamicc);
        // Initial checkpoint *before* the first segment: a crash between the
        // two leaves a snapshot without segments, which recovery handles (it
        // creates a fresh segment).  The other order would leave a segment
        // without any snapshot — a state indistinguishable from a damaged
        // directory.
        snapshotter.write(0, &snapshot_of(&engine))?;
        let wal = Wal::create(dir, 0)?;
        Ok((
            DurableEngine {
                engine,
                wal,
                snapshotter,
                last_checkpoint_round: 0,
            },
            RecoveryReport::default(),
        ))
    }

    /// Recover the shard in `dir` to at most round `cap`: load its latest
    /// snapshot, replay the WAL tail, and physically truncate any
    /// logged-but-uncommitted rounds beyond the cap (see
    /// [`Wal::open_capped`]).  The sharded engine uses this to roll every
    /// shard back to the globally committed round — a round that reached
    /// only some shard WALs before a crash was never acknowledged and must
    /// be forgotten everywhere.  A directory without a snapshot is an error
    /// here, never a bootstrap.
    pub(crate) fn recover(
        dir: &Path,
        graph_config: GraphConfig,
        dynamicc: DynamicC,
        cap: u64,
    ) -> Result<(Self, RecoveryReport), StorageError> {
        let snapshotter = Snapshotter::new(dir)?;
        let Some(loaded) = load_snapshot(&snapshotter)? else {
            return Err(StorageError::Inconsistent(format!(
                "{} holds no snapshot to recover from",
                dir.display()
            )));
        };
        Self::replay(dir, snapshotter, graph_config, dynamicc, Some(cap), loaded)
    }

    /// Restore the engine from the `loaded` snapshot and replay the WAL
    /// tail on top of it, stopping at `replay_cap` when one is given.
    fn replay(
        dir: &Path,
        snapshotter: Snapshotter,
        graph_config: GraphConfig,
        mut dynamicc: DynamicC,
        replay_cap: Option<u64>,
        (snapshot_round, snapshot): (u64, EngineSnapshot),
    ) -> Result<(Self, RecoveryReport), StorageError> {
        if snapshot.rounds_served != snapshot_round {
            return Err(StorageError::Inconsistent(format!(
                "snapshot file for round {snapshot_round} records rounds_served = {}",
                snapshot.rounds_served
            )));
        }
        if let Some(cap) = replay_cap.filter(|&cap| snapshot_round > cap) {
            // A snapshot beyond the cap would mean a checkpoint of a round
            // that was never globally committed — the sharded protocol only
            // checkpoints after a round completed on every shard, so this is
            // damage, not a crash window.
            return Err(StorageError::Inconsistent(format!(
                "snapshot at round {snapshot_round} exceeds the replay cap {cap}"
            )));
        }
        let codec_err = |source: CodecError| StorageError::Codec {
            path: dir.join(dc_storage::snapshot::snapshot_file_name(snapshot_round)),
            source,
        };
        let reg = dc_telemetry::registry();
        let span = reg.span("recovery.state_import");
        let graph =
            SimilarityGraph::import_state(graph_config, snapshot.graph).map_err(codec_err)?;
        let aggregates = ClusterAggregates::import_state(snapshot.aggregates).map_err(codec_err)?;
        dynamicc.restore_stats(snapshot.stats);
        let mut engine = Engine::from_parts(
            graph,
            snapshot.clustering,
            aggregates,
            dynamicc,
            snapshot_round as usize,
        );
        span.finish();

        // Replay the WAL tail.  Segments predating the snapshot may survive
        // a checkpoint that crashed mid-prune; their rounds are already in
        // the snapshot and are skipped.  Everything after must be contiguous.
        let mut report = RecoveryReport {
            recovered: true,
            snapshot_round,
            replayed_rounds: 0,
            dropped_torn_tail: false,
        };
        let replay_span = reg.span("recovery.replay");
        let mut tail_wal: Option<Wal> = None;
        for (_, path) in list_segments(dir)? {
            let (wal, records, outcome) = Wal::open_capped(&path, replay_cap)?;
            report.dropped_torn_tail |= outcome.dropped_torn_tail;
            for record in records {
                if record.round <= engine.rounds_served() as u64 {
                    continue;
                }
                if record.round != engine.rounds_served() as u64 + 1 {
                    return Err(StorageError::Inconsistent(format!(
                        "WAL jumps to round {} with the engine at round {}",
                        record.round,
                        engine.rounds_served()
                    )));
                }
                engine.apply_round(&record.batch);
                report.replayed_rounds += 1;
            }
            tail_wal = Some(wal);
        }
        replay_span.finish();
        reg.add("recovery.replayed_rounds", report.replayed_rounds as u64);
        let current_round = engine.rounds_served() as u64;
        let wal = tail_segment(dir, tail_wal, snapshot_round, current_round)?;
        Ok((
            DurableEngine {
                engine,
                wal,
                snapshotter,
                last_checkpoint_round: snapshot_round,
            },
            report,
        ))
    }

    /// Stage the next round's batch in the WAL **without** fsyncing.  The
    /// round is not durable (and must not be acknowledged) until a commit
    /// point — either this shard's [`DurableEngine::wal_sync`] or the single
    /// fsync of the group WAL that covers every shard's staged frame.
    pub(crate) fn log_round_nosync(&mut self, batch: &OperationBatch) -> Result<u64, StorageError> {
        let round = self.engine.rounds_served() as u64 + 1;
        self.wal.append_round_nosync(round, batch)?;
        Ok(round)
    }

    /// Durably flush the staged WAL frames with one fsync.
    pub(crate) fn wal_sync(&mut self) -> Result<(), StorageError> {
        self.wal.sync()
    }

    /// Fold an already-logged round into the engine.  The caller is
    /// responsible for having logged exactly this batch (and for checkpoint
    /// policy — the sharded engine checkpoints all shards together, never
    /// one shard on its own).
    pub(crate) fn apply_logged(&mut self, batch: &OperationBatch) -> RoundReport {
        self.engine.apply_round(batch)
    }

    /// Take a checkpoint now: atomically snapshot the engine state, rotate
    /// the WAL to a fresh segment, and prune the artifacts the snapshot made
    /// obsolete.  Returns the checkpointed round.
    pub(crate) fn checkpoint(&mut self) -> Result<u64, StorageError> {
        let reg = dc_telemetry::registry();
        let span = reg.span("checkpoint.total");
        let round = self.engine.rounds_served() as u64;
        self.snapshotter.write(round, &snapshot_of(&self.engine))?;
        self.last_checkpoint_round = round;
        if self.wal.start_round() != round {
            self.wal = Wal::create(self.snapshotter.dir(), round)?;
        }
        self.snapshotter.prune_obsolete(round)?;
        span.finish();
        reg.add("checkpoint.count", 1);
        Ok(round)
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Rounds served since the last checkpoint (what a crash right now
    /// would replay).
    pub fn rounds_since_checkpoint(&self) -> u64 {
        self.engine.rounds_served() as u64 - self.last_checkpoint_round
    }

    /// The newest round any durable artifact in `dir` can recover to: the
    /// latest snapshot round or the last complete WAL record, whichever is
    /// greater — `(None, _)` when the directory holds no durable state at
    /// all.  Torn tails are repaired (truncated) as a side effect, exactly
    /// as a full open would — the second component reports whether one was
    /// dropped, since a subsequent open will find the file already clean.
    /// Complete records are never touched.
    ///
    /// This is the first pass of sharded recovery: peek every shard's
    /// recoverable round, take the minimum as the globally committed round,
    /// then reopen each shard with that cap.
    pub(crate) fn last_durable_round(dir: &Path) -> Result<(Option<u64>, bool), StorageError> {
        if !dir.is_dir() {
            return Ok((None, false));
        }
        let snapshotter = Snapshotter::new(dir)?;
        let snapshots = snapshotter.list()?;
        let segments = list_segments(dir)?;
        let Some(mut last) = snapshots.iter().map(|(round, _)| *round).max() else {
            if segments.is_empty() {
                return Ok((None, false));
            }
            return Err(segments_without_snapshot(dir));
        };
        let mut dropped_torn_tail = false;
        for (_, path) in segments {
            let (wal, _, outcome) = Wal::open(&path)?;
            dropped_torn_tail |= outcome.dropped_torn_tail;
            last = last.max(wal.last_round());
        }
        Ok((Some(last), dropped_torn_tail))
    }

    /// Paths of the durable artifacts currently on disk (snapshots, then
    /// segments), for diagnostics.
    pub fn artifact_paths(&self) -> Result<Vec<PathBuf>, StorageError> {
        let mut out: Vec<PathBuf> = self
            .snapshotter
            .list()?
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        out.extend(
            list_segments(self.snapshotter.dir())?
                .into_iter()
                .map(|(_, p)| p),
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_objective::CorrelationObjective;
    use dc_similarity::fixtures::graph_from_edges;
    use dc_storage::WalRecord;
    use dc_types::{ObjectId, Operation};
    use std::sync::Arc;

    /// Scratch state directory removed on drop, so failed assertions do not
    /// leave litter behind.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("dc-durable-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn fixture_bootstrap() -> (SimilarityGraph, Clustering) {
        let graph = graph_from_edges(2, &[(1, 2, 0.9)]);
        let clustering =
            Clustering::from_groups([vec![ObjectId::new(1), ObjectId::new(2)]]).unwrap();
        (graph, clustering)
    }

    #[test]
    fn fresh_open_writes_the_initial_checkpoint() {
        let tmp = TempDir::new("fresh");
        let dir = tmp.path();
        let (graph, clustering) = fixture_bootstrap();
        let config = graph.config().clone();
        let dynamicc = DynamicC::with_objective(Arc::new(CorrelationObjective));
        let (engine, report) =
            DurableEngine::open(dir, config, dynamicc, move || (graph, clustering)).unwrap();
        assert!(!report.recovered);
        assert_eq!(report.snapshot_round, 0);
        assert_eq!(engine.engine().rounds_served(), 0);
        assert_eq!(engine.rounds_since_checkpoint(), 0);
        // Snapshot 0 and segment wal-0 exist.
        assert_eq!(engine.artifact_paths().unwrap().len(), 2);
    }

    #[test]
    fn crash_between_initial_snapshot_and_first_segment_recovers() {
        // The fresh-open crash window: the initial checkpoint is durable but
        // the first segment was never created.  Reopening must recover from
        // the snapshot and create the missing segment — not brick the dir.
        let tmp = TempDir::new("fresh-crash");
        let dir = tmp.path();
        let (graph, clustering) = fixture_bootstrap();
        let config = graph.config().clone();
        let make_dynamicc = || DynamicC::with_objective(Arc::new(CorrelationObjective));
        {
            let (engine, _) =
                DurableEngine::open(dir, config.clone(), make_dynamicc(), move || {
                    (graph, clustering)
                })
                .unwrap();
            drop(engine);
        }
        // Simulate the crash by deleting the segment the fresh open created.
        let seg_path = list_segments(dir).unwrap()[0].1.clone();
        std::fs::remove_file(&seg_path).unwrap();

        let (engine, report) = DurableEngine::recover(dir, config, make_dynamicc(), 0).unwrap();
        assert!(report.recovered);
        assert_eq!(report.replayed_rounds, 0);
        assert_eq!(engine.engine().rounds_served(), 0);
        assert_eq!(list_segments(dir).unwrap().len(), 1, "segment recreated");
    }

    #[test]
    fn segments_without_a_snapshot_are_inconsistent() {
        let tmp = TempDir::new("no-snap");
        let dir = tmp.path();
        std::fs::create_dir_all(dir).unwrap();
        Wal::create(dir, 0).unwrap();
        let (graph, clustering) = fixture_bootstrap();
        let config = graph.config().clone();
        let make_dynamicc = || DynamicC::with_objective(Arc::new(CorrelationObjective));
        let result = DurableEngine::open(dir, config.clone(), make_dynamicc(), move || {
            (graph, clustering)
        });
        assert!(matches!(result, Err(StorageError::Inconsistent(_))));
        // The recover-only opener refuses the same directory, and one with no
        // durable state at all, instead of bootstrapping.
        let result = DurableEngine::recover(dir, config.clone(), make_dynamicc(), 0);
        assert!(matches!(result, Err(StorageError::Inconsistent(_))));
        let empty = TempDir::new("no-state");
        let result = DurableEngine::recover(empty.path(), config, make_dynamicc(), 0);
        assert!(matches!(result, Err(StorageError::Inconsistent(_))));
    }

    #[test]
    fn logged_but_unapplied_round_is_replayed_on_recovery() {
        // Simulate a crash in the log-then-apply window: the round reached
        // the WAL but the engine never saw it.
        let tmp = TempDir::new("log-then-apply");
        let dir = tmp.path();
        let (graph, clustering) = fixture_bootstrap();
        let config = graph.config().clone();
        let make_dynamicc = || DynamicC::with_objective(Arc::new(CorrelationObjective));
        {
            let (_engine, _) =
                DurableEngine::open(dir, config.clone(), make_dynamicc(), move || {
                    (graph, clustering)
                })
                .unwrap();
        }
        // Append round 1 directly to the segment, bypassing the engine.
        let mut batch = OperationBatch::new();
        batch.push(Operation::Remove {
            id: ObjectId::new(2),
        });
        let seg_path = list_segments(dir).unwrap()[0].1.clone();
        let (mut wal, _, _) = Wal::open(&seg_path).unwrap();
        wal.append(&WalRecord {
            round: 1,
            batch: batch.clone(),
        })
        .unwrap();
        drop(wal);

        let (engine, report) = DurableEngine::recover(dir, config, make_dynamicc(), 1).unwrap();
        assert!(report.recovered);
        assert_eq!(report.replayed_rounds, 1);
        assert_eq!(engine.engine().rounds_served(), 1);
        assert!(!engine
            .engine()
            .clustering()
            .contains_object(ObjectId::new(2)));
    }
}
