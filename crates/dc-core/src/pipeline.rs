//! Pipelined ingestion front-end: adaptive batching, cross-shard group
//! commit, and apply/refine overlap over a [`ShardedDurableEngine`].
//!
//! The synchronous sharded round is a strict sequence — route → log → apply
//! → refine — so op latency is gated by the slowest phase.  This module
//! turns that loop into a three-stage pipeline:
//!
//! 1. **Admission.**  Callers [`PipelinedEngine::submit`] single operations
//!    into a bounded hand-rolled MPSC channel ([`bounded_channel`]; the
//!    workspace vendors no crates).  A full queue blocks the submitter —
//!    backpressure is the protocol; nothing is ever dropped or reordered.
//! 2. **Batch formation + group commit.**  A coordinator thread drains the
//!    queue into rounds sized by an [`AdaptiveBatcher`] (grow while commit
//!    latency is under target, shrink when over) and commits each one with
//!    the sharded engine's own commit step (`commit_round`, the first half
//!    of [`ShardedDurableEngine::apply_round`]): route, stage every shard's
//!    WAL append, then seal the round on the refine WAL — the group-commit
//!    log, which holds the *full* batch.  With
//!    [`crate::DurabilityOptions::group_commit`] on that seal is the
//!    round's **one** fsync; with it off every shard WAL is fsynced first
//!    (N+1).  A round is acknowledged only once the seal returns, and
//!    recovery re-derives (heals) any shard WAL tail the crash cut off.
//!    With one shard there is no refine WAL and the shard's own fsync is
//!    the seal.
//! 3. **Apply/refine overlap.**  After the commit fsync the round is handed
//!    to a refine worker thread through a second bounded channel (capacity
//!    = the in-flight window), then the shards apply it in parallel on the
//!    existing scoped pool — cross-shard refinement of round R−1 runs
//!    concurrently with shard apply of round R.  A full window blocks the
//!    coordinator (`pipeline.overlap_stall`), bounding how far the refined
//!    view may trail the shards.
//!
//! The worker runs the refiner's one round fold
//! (`CrossShardRefiner::fold_round`, the same call the synchronous engine
//! and recovery make), which needs no access to the shard engines at all.
//! The headline invariant, pinned by
//! `tests/pipeline_equivalence.rs`: after
//! [`PipelinedEngine::close`], the clustering, the refined clustering, and
//! the recovered-after-crash state are all bit-identical to a synchronous
//! [`ShardedDurableEngine`] serving the same batches.
//!
//! Telemetry: `pipeline.admit` (submitter-side backpressure wait),
//! `pipeline.batch_form`, `pipeline.group_commit`, `pipeline.overlap_stall`
//! and `pipeline.refine` spans, a `pipeline.queue_depth` gauge, and a
//! `pipeline.op_latency` histogram (submit → durable commit).  The
//! coordinator and refine worker record into their own thread-local sinks;
//! their deltas merge back into the closing thread's sink, coordinator
//! first, on [`PipelinedEngine::close`].

use crate::shard::ShardedDurableEngine;
use dc_storage::StorageError;
use dc_telemetry::{clock, Span};
use dc_types::{Operation, OperationBatch};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Poison recovery.
// ---------------------------------------------------------------------------

/// Lock `m`, recovering from poisoning.
///
/// The queue and counter mutexes of this module guard state whose
/// invariants hold between critical sections: a panic on another thread
/// mid-section cannot leave them torn in a way later readers would
/// misinterpret, so propagating the poison as a second panic would only
/// turn one failure into two.  Worker panics are surfaced once, as typed
/// errors, at the join points in [`PipelinedEngine::close`], which then
/// hands no engine back.  The sharded engine's read accessors take its
/// refiner lock this way too; its round fold and checkpoint refuse a
/// poisoned refiner instead, since a fold that panicked left it torn.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison-recovery rationale as
/// [`lock_unpoisoned`].
fn wait_unpoisoned<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`] with the same poison-recovery rationale as
/// [`lock_unpoisoned`] (the timeout flag is dropped: callers re-check
/// their deadline against the clock, which is authoritative).
fn wait_timeout_unpoisoned<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    let (guard, _timed_out) = cv
        .wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner);
    guard
}

// ---------------------------------------------------------------------------
// Bounded MPSC channel (hand-rolled: the workspace vendors no crates).
// ---------------------------------------------------------------------------

/// Shared state of a [`bounded_channel`].
struct ChannelInner<T> {
    state: Mutex<ChannelState<T>>,
    /// Signalled when an item is enqueued or the last sender goes away.
    not_empty: Condvar,
    /// Signalled when an item is dequeued or the receiver goes away.
    not_full: Condvar,
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receiver_alive: bool,
    /// Senders currently parked in [`BoundedSender::send`] waiting for a
    /// slot.  Tests observe this (via `not_empty`, which send signals on
    /// entering the wait) to synchronize on "the send is now blocked"
    /// without sleeping.
    blocked_senders: usize,
}

/// The sending half of a [`bounded_channel`].  Cloneable (MPSC); dropping
/// the last clone disconnects the channel, which the receiver observes once
/// the queue drains.
pub struct BoundedSender<T> {
    inner: Arc<ChannelInner<T>>,
}

/// The receiving half of a [`bounded_channel`].  Single consumer; dropping
/// it wakes all blocked senders with a [`SendError`].
pub struct BoundedReceiver<T> {
    inner: Arc<ChannelInner<T>>,
}

/// The channel is disconnected: the receiver was dropped before (or while)
/// this value could be enqueued.  The value is handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(
    /// The value that could not be enqueued.
    pub T,
);

/// Outcome of a [`BoundedReceiver::recv_deadline`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeout<T> {
    /// An item was dequeued before the deadline.
    Item(
        /// The dequeued item.
        T,
    ),
    /// The deadline passed with the queue empty (senders still connected).
    TimedOut,
    /// Every sender is gone and the queue is empty.
    Disconnected,
}

/// Create a bounded FIFO MPSC channel with room for `capacity` items
/// (minimum 1).  [`BoundedSender::send`] **blocks** while the queue is full
/// — this is the pipeline's backpressure: admission stalls the submitter
/// instead of dropping work or buffering unboundedly.
pub fn bounded_channel<T>(capacity: usize) -> (BoundedSender<T>, BoundedReceiver<T>) {
    let inner = Arc::new(ChannelInner {
        state: Mutex::new(ChannelState {
            queue: VecDeque::new(),
            capacity: capacity.max(1),
            senders: 1,
            receiver_alive: true,
            blocked_senders: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        BoundedSender {
            inner: Arc::clone(&inner),
        },
        BoundedReceiver { inner },
    )
}

impl<T> BoundedSender<T> {
    /// Enqueue `value`, blocking while the queue is at capacity.  Returns
    /// the value in [`SendError`] if the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = lock_unpoisoned(&self.inner.state);
        loop {
            if !state.receiver_alive {
                return Err(SendError(value));
            }
            if state.queue.len() < state.capacity {
                state.queue.push_back(value);
                self.inner.not_empty.notify_one();
                return Ok(());
            }
            state.blocked_senders += 1;
            // Wake anyone watching for a sender to park (the queue is full,
            // so a receiver-side waiter is not waiting for items anyway).
            self.inner.not_empty.notify_all();
            state = wait_unpoisoned(&self.inner.not_full, state);
            state.blocked_senders -= 1;
        }
    }

    /// Current queue length (a racy snapshot).
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner.state).queue.len()
    }

    /// Whether the queue is currently empty (a racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for BoundedSender<T> {
    fn clone(&self) -> Self {
        lock_unpoisoned(&self.inner.state).senders += 1;
        BoundedSender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for BoundedSender<T> {
    fn drop(&mut self) {
        let mut state = lock_unpoisoned(&self.inner.state);
        state.senders -= 1;
        if state.senders == 0 {
            self.inner.not_empty.notify_all();
        }
    }
}

impl<T> BoundedReceiver<T> {
    /// Dequeue the next item, blocking while the queue is empty.  Returns
    /// `None` once every sender is gone *and* the queue has drained — no
    /// enqueued item is ever lost to a disconnect.
    pub fn recv(&self) -> Option<T> {
        let mut state = lock_unpoisoned(&self.inner.state);
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.inner.not_full.notify_one();
                return Some(value);
            }
            if state.senders == 0 {
                return None;
            }
            state = wait_unpoisoned(&self.inner.not_empty, state);
        }
    }

    /// Block until some sender is parked in [`BoundedSender::send`] waiting
    /// for a slot (or every sender is gone).  Test-only synchronization:
    /// replaces sleep-and-hope in the backpressure tests with an exact
    /// "the send has blocked" rendezvous on the channel's own state.
    #[cfg(test)]
    fn wait_for_blocked_sender(&self) {
        let mut state = lock_unpoisoned(&self.inner.state);
        while state.blocked_senders == 0 && state.senders > 0 {
            state = wait_unpoisoned(&self.inner.not_empty, state);
        }
    }

    /// [`BoundedReceiver::recv`] with a deadline: blocks until an item
    /// arrives, the deadline passes, or the channel disconnects empty.
    pub fn recv_deadline(&self, deadline: Instant) -> RecvTimeout<T> {
        let mut state = lock_unpoisoned(&self.inner.state);
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.inner.not_full.notify_one();
                return RecvTimeout::Item(value);
            }
            if state.senders == 0 {
                return RecvTimeout::Disconnected;
            }
            let Some(wait) = deadline
                .checked_duration_since(clock::now())
                .filter(|d| !d.is_zero())
            else {
                return RecvTimeout::TimedOut;
            };
            state = wait_timeout_unpoisoned(&self.inner.not_empty, state, wait);
        }
    }

    /// Current queue length (a racy snapshot).
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner.state).queue.len()
    }

    /// Whether the queue is currently empty (a racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for BoundedReceiver<T> {
    fn drop(&mut self) {
        let mut state = lock_unpoisoned(&self.inner.state);
        state.receiver_alive = false;
        self.inner.not_full.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Adaptive batching.
// ---------------------------------------------------------------------------

/// The batch-sizing control law: a pure, deterministic function of the
/// observed commit latencies, kept free of clocks and threads so it can be
/// unit-tested exactly.
///
/// The batcher holds a current **batch target** in `[min, max]`.  After
/// every committed round it observes the round's group-commit latency:
///
/// * latency above the target → **halve** the target (multiplicative
///   decrease: each op waits less, at the price of amortizing the fsync
///   over fewer ops);
/// * latency under half the target *and* a round that actually filled the
///   current target → grow it by 25% + 1 (gentle increase: more ops
///   amortize each fsync);
/// * otherwise → hold steady.
///
/// With `min == max` this is a fixed-size batcher — the mode the
/// deterministic equivalence tests and benchmarks use
/// ([`PipelineOptions::fixed`]).
#[derive(Debug, Clone)]
pub struct AdaptiveBatcher {
    min: usize,
    max: usize,
    target_latency_ns: u64,
    size: usize,
}

impl AdaptiveBatcher {
    /// Build a batcher clamped to `[min, max]` starting at `initial`,
    /// steering toward `target_latency` per group commit.
    pub fn new(min: usize, max: usize, initial: usize, target_latency: Duration) -> Self {
        let min = min.max(1);
        let max = max.max(min);
        AdaptiveBatcher {
            min,
            max,
            target_latency_ns: target_latency.as_nanos() as u64,
            size: initial.clamp(min, max),
        }
    }

    /// The number of operations the next round should aim for.
    pub fn batch_target(&self) -> usize {
        self.size
    }

    /// Feed back one committed round: `ops` operations group-committed in
    /// `commit_ns` nanoseconds (fsync included).
    pub fn observe(&mut self, ops: usize, commit_ns: u64) {
        if commit_ns > self.target_latency_ns {
            self.size = (self.size / 2).max(self.min);
        } else if commit_ns.saturating_mul(2) < self.target_latency_ns && ops >= self.size {
            self.size = (self.size + self.size / 4 + 1).min(self.max);
        }
    }
}

// ---------------------------------------------------------------------------
// Options, errors, report.
// ---------------------------------------------------------------------------

/// Tuning knobs for a [`PipelinedEngine`].
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Admission queue capacity in operations.  A full queue blocks
    /// [`PipelinedEngine::submit`] (backpressure).
    pub queue_capacity: usize,
    /// Smallest batch the adaptive batcher may shrink to.
    pub min_batch_ops: usize,
    /// Largest batch the adaptive batcher may grow to.
    pub max_batch_ops: usize,
    /// The batch target the adaptive batcher starts from.
    pub initial_batch_ops: usize,
    /// The per-round group-commit latency the batcher steers toward.
    pub target_commit_latency: Duration,
    /// How long batch formation waits for further operations after the
    /// first before closing an under-target round — the latency bound on a
    /// trickle workload.
    pub max_batch_delay: Duration,
    /// How many committed rounds may sit in the refine worker's window
    /// before the coordinator stalls (`pipeline.overlap_stall`) — the bound
    /// on how far the refined view trails the shards.
    pub max_inflight_refine_rounds: usize,
    /// Record every formed batch and hand the sequence back in the
    /// [`PipelineReport`]; the equivalence tests replay it through a
    /// synchronous engine to prove bit-identity.
    pub record_batches: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            queue_capacity: 4096,
            min_batch_ops: 1,
            max_batch_ops: 1024,
            initial_batch_ops: 256,
            target_commit_latency: Duration::from_millis(20),
            max_batch_delay: Duration::from_millis(2),
            max_inflight_refine_rounds: 2,
            record_batches: false,
        }
    }
}

impl PipelineOptions {
    /// A deterministic fixed-size configuration: every round holds exactly
    /// `ops` operations (the final round before a flush barrier or close
    /// may be smaller).  The equivalence tests and benchmarks use this so
    /// round structure is identical across runs.
    pub fn fixed(ops: usize) -> Self {
        let ops = ops.max(1);
        PipelineOptions {
            min_batch_ops: ops,
            max_batch_ops: ops,
            initial_batch_ops: ops,
            ..PipelineOptions::default()
        }
    }
}

/// Why a pipelined call failed.
#[derive(Debug)]
pub enum PipelineError {
    /// The pipeline has shut down — [`PipelinedEngine::close`] ran, or a
    /// storage failure stopped the coordinator (the underlying
    /// [`StorageError`] surfaces from [`PipelinedEngine::close`]).
    Closed,
    /// A storage operation failed on the serving path.
    Storage(
        /// The failure the coordinator stopped on.
        StorageError,
    ),
    /// A pipeline worker thread panicked, so the engine is not handed
    /// back; the on-disk state holds every round that group-committed
    /// before the panic and recovers via [`ShardedDurableEngine::open`].
    WorkerPanicked(
        /// Which worker: `"coordinator"` or `"refine worker"`.
        &'static str,
    ),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Closed => write!(f, "the pipelined engine is closed"),
            PipelineError::Storage(e) => write!(f, "pipelined storage failure: {e}"),
            PipelineError::WorkerPanicked(which) => {
                write!(f, "pipeline {which} thread panicked; reopen to recover")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Closed | PipelineError::WorkerPanicked(_) => None,
            PipelineError::Storage(e) => Some(e),
        }
    }
}

impl From<StorageError> for PipelineError {
    fn from(e: StorageError) -> Self {
        PipelineError::Storage(e)
    }
}

/// What a pipelined serving session did, returned by
/// [`PipelinedEngine::close`].
#[derive(Debug, Default)]
pub struct PipelineReport {
    /// Rounds group-committed by the coordinator.
    pub rounds_committed: u64,
    /// Operations durably committed (equals the submitted count after a
    /// clean close).
    pub ops_committed: u64,
    /// Per-operation submit→durable-commit latency in nanoseconds, in
    /// commit order.  The benchmark derives p50/p99 from this.
    pub op_latencies_ns: Vec<u64>,
    /// Every formed batch in commit order, when
    /// [`PipelineOptions::record_batches`] was set.
    pub recorded_batches: Option<Vec<OperationBatch>>,
    /// Rounds whose refine handoff found the in-flight window full, forcing
    /// the coordinator to stall.
    pub overlap_stalls: u64,
    /// Largest admission-queue depth observed right after closing a batch.
    pub max_queue_depth: usize,
}

// ---------------------------------------------------------------------------
// Internal plumbing.
// ---------------------------------------------------------------------------

/// What flows through the admission channel.
enum Admit {
    /// One operation, carrying its `pipeline.op_latency` span: started at
    /// submission, finished (on the coordinator thread) when the
    /// operation's round is durably committed.
    Op(Operation, Span),
    /// Close the current batch immediately (a flush barrier marker).
    Flush,
}

/// Commit/refine progress shared between submitters, coordinator, and
/// refine worker; the condvar wakes flush barriers and the coordinator's
/// pre-checkpoint refine-catch-up wait.
#[derive(Default)]
struct ProgressState {
    committed_ops: u64,
    committed_rounds: u64,
    refined_rounds: u64,
    failed: bool,
}

struct Progress {
    state: Mutex<ProgressState>,
    cond: Condvar,
}

impl Progress {
    fn new() -> Self {
        Progress {
            state: Mutex::new(ProgressState::default()),
            cond: Condvar::new(),
        }
    }

    fn update(&self, f: impl FnOnce(&mut ProgressState)) {
        let mut state = lock_unpoisoned(&self.state);
        f(&mut state);
        self.cond.notify_all();
    }
}

/// Everything the coordinator thread hands back when it exits.
struct CoordinatorExit {
    engine: ShardedDurableEngine,
    error: Option<StorageError>,
    report: PipelineReport,
    telemetry: dc_telemetry::ThreadDelta,
}

/// The coordinator thread's working set: the engine it serves, plus its
/// ends of the two channels.
struct Coordinator {
    engine: ShardedDurableEngine,
    options: PipelineOptions,
    admit_rx: BoundedReceiver<Admit>,
    refine_tx: Option<BoundedSender<(OperationBatch, Vec<usize>)>>,
    progress: Arc<Progress>,
    abort: Arc<AtomicBool>,
}

impl Coordinator {
    fn run(mut self) -> CoordinatorExit {
        let reg = dc_telemetry::registry();
        let mut batcher = AdaptiveBatcher::new(
            self.options.min_batch_ops,
            self.options.max_batch_ops,
            self.options.initial_batch_ops,
            self.options.target_commit_latency,
        );
        let mut report = PipelineReport {
            recorded_batches: self.options.record_batches.then(Vec::new),
            ..PipelineReport::default()
        };
        let mut error = None;
        // Block for the head of each round; a disconnect with the queue
        // drained is the clean-close signal.
        while let Some(first) = self.admit_rx.recv() {
            let span = reg.span("pipeline.batch_form");
            let mut batch = OperationBatch::new();
            let mut stamps = Vec::new();
            let mut flushed = false;
            match first {
                Admit::Op(op, latency) => {
                    batch.push(op);
                    stamps.push(latency);
                }
                Admit::Flush => flushed = true,
            }
            let deadline = clock::deadline(self.options.max_batch_delay);
            while !flushed && batch.len() < batcher.batch_target() {
                match self.admit_rx.recv_deadline(deadline) {
                    RecvTimeout::Item(Admit::Op(op, latency)) => {
                        batch.push(op);
                        stamps.push(latency);
                    }
                    RecvTimeout::Item(Admit::Flush) => flushed = true,
                    RecvTimeout::TimedOut | RecvTimeout::Disconnected => break,
                }
            }
            span.finish();
            let depth = self.admit_rx.len();
            report.max_queue_depth = report.max_queue_depth.max(depth);
            reg.gauge("pipeline.queue_depth", depth as f64);
            if self.abort.load(Ordering::Relaxed) {
                // Killed: discard the formed (still uncommitted) batch.
                break;
            }
            if batch.is_empty() {
                // A flush barrier with nothing pending commits nothing.
                continue;
            }
            if let Err(e) = self.serve_round(batch, stamps, &mut batcher, &mut report) {
                error = Some(e);
                self.progress.update(|p| p.failed = true);
                break;
            }
        }
        CoordinatorExit {
            engine: self.engine,
            error,
            report,
            telemetry: dc_telemetry::registry().drain(),
        }
        // Dropping the rest of `self` here closes `refine_tx`, which lets
        // the refine worker drain its window and exit.
    }

    /// Commit, acknowledge, hand off, and apply one formed round.
    fn serve_round(
        &mut self,
        batch: OperationBatch,
        stamps: Vec<Span>,
        batcher: &mut AdaptiveBatcher,
        report: &mut PipelineReport,
    ) -> Result<(), StorageError> {
        let reg = dc_telemetry::registry();
        let ops = batch.len();
        let (routed, commit_ns) = self.engine.commit_round(&batch, "pipeline.group_commit")?;

        // The round is durable: acknowledge it before any in-memory work,
        // so flush barriers and latency spans see commit time.  Finishing
        // each span records into the `pipeline.op_latency` histogram on
        // this (the coordinator) thread, whose delta merges at close.
        for latency in stamps {
            report.op_latencies_ns.push(latency.finish_ns());
        }
        report.rounds_committed += 1;
        report.ops_committed += ops as u64;
        if let Some(recorded) = &mut report.recorded_batches {
            recorded.push(batch.clone());
        }
        let solo = self.refine_tx.is_none();
        self.progress.update(|p| {
            p.committed_ops += ops as u64;
            p.committed_rounds += 1;
            if solo {
                // No refine layer: the refined view is the merged view and
                // never trails.
                p.refined_rounds += 1;
            }
        });

        // Hand the round to the refine worker *before* applying it to the
        // shards: the fold never touches the shard engines, so the two run
        // concurrently — that is the overlap.
        if let Some(tx) = &self.refine_tx {
            if tx.len() >= self.options.max_inflight_refine_rounds.max(1) {
                report.overlap_stalls += 1;
            }
            let span = reg.span("pipeline.overlap_stall");
            tx.send((batch, routed.op_shards.clone())).map_err(|_| {
                StorageError::Inconsistent(
                    "refine worker exited while rounds were in flight".into(),
                )
            })?;
            span.finish();
        }

        self.engine.apply_committed(&routed);
        batcher.observe(ops, commit_ns);

        if self.engine.checkpoint_due() && !self.abort.load(Ordering::Relaxed) {
            // A checkpoint snapshots the refiner, so the refined view must
            // first catch up with every committed round.
            self.wait_refined();
            if !self.abort.load(Ordering::Relaxed) {
                let span = reg.span("round.checkpoint");
                self.engine.checkpoint()?;
                span.finish();
            }
        }
        Ok(())
    }

    /// Block until the refine worker has folded in every committed round.
    fn wait_refined(&self) {
        let mut state = lock_unpoisoned(&self.progress.state);
        while state.refined_rounds < state.committed_rounds {
            state = wait_unpoisoned(&self.progress.cond, state);
        }
    }
}

// ---------------------------------------------------------------------------
// The pipelined engine.
// ---------------------------------------------------------------------------

/// The pipelined ingestion front-end over a [`ShardedDurableEngine`]: a
/// bounded admission queue, an adaptively-batching group-committing
/// coordinator thread, and a refine worker overlapping cross-shard
/// refinement with shard apply.  See the [module docs](crate::pipeline)
/// for the full protocol.
///
/// Rounds are committed exactly as [`ShardedDurableEngine::apply_round`]
/// commits them, so the engine's [`crate::DurabilityOptions`] mean the same
/// thing here: `group_commit` on seals each round with one fsync, off with
/// N+1.  The `checkpoint_every_rounds` cadence is honored, with each
/// checkpoint first waiting for the refine worker to catch up so no
/// snapshot gets ahead of the refined view.
///
/// [`PipelinedEngine::close`] drains everything and hands the engine back.
/// [`PipelinedEngine::kill`] (or a plain drop) abandons in-flight work:
/// whatever was already group-committed is exactly what the next
/// [`ShardedDurableEngine::open`] recovers — the crash tests rely on this.
pub struct PipelinedEngine {
    sender: Option<BoundedSender<Admit>>,
    submitted_ops: AtomicU64,
    progress: Arc<Progress>,
    abort: Arc<AtomicBool>,
    coordinator: Option<std::thread::JoinHandle<CoordinatorExit>>,
    refine_worker: Option<std::thread::JoinHandle<dc_telemetry::ThreadDelta>>,
}

impl PipelinedEngine {
    /// Take ownership of an open [`ShardedDurableEngine`] and start serving
    /// its operation stream through the pipeline.
    pub fn start(engine: ShardedDurableEngine, options: PipelineOptions) -> Self {
        let progress = Arc::new(Progress::new());
        let abort = Arc::new(AtomicBool::new(false));
        let enabled = dc_telemetry::registry().is_enabled();

        let (admit_tx, admit_rx) = bounded_channel::<Admit>(options.queue_capacity);

        // Refine worker: folds committed rounds into the engine's shared
        // refiner.
        let (refine_tx, refine_worker) = match engine.detached_fold() {
            Some(fold) => {
                let (tx, rx) = bounded_channel::<(OperationBatch, Vec<usize>)>(
                    options.max_inflight_refine_rounds.max(1),
                );
                let progress = Arc::clone(&progress);
                let abort = Arc::clone(&abort);
                let handle = std::thread::spawn(move || {
                    let reg = dc_telemetry::registry();
                    reg.set_enabled(enabled);
                    while let Some((batch, op_shards)) = rx.recv() {
                        if !abort.load(Ordering::Relaxed) {
                            let span = reg.span("pipeline.refine");
                            fold(&batch, &op_shards);
                            span.finish();
                        }
                        // Count the round even when a kill discards it, so
                        // a coordinator waiting on catch-up always wakes.
                        progress.update(|p| p.refined_rounds += 1);
                    }
                    reg.drain()
                });
                (Some(tx), Some(handle))
            }
            None => (None, None),
        };

        let coordinator = {
            let coordinator = Coordinator {
                engine,
                options,
                admit_rx,
                refine_tx,
                progress: Arc::clone(&progress),
                abort: Arc::clone(&abort),
            };
            std::thread::spawn(move || {
                dc_telemetry::registry().set_enabled(enabled);
                coordinator.run()
            })
        };

        PipelinedEngine {
            sender: Some(admit_tx),
            submitted_ops: AtomicU64::new(0),
            progress,
            abort,
            coordinator: Some(coordinator),
            refine_worker,
        }
    }

    /// Admit one operation, blocking while the admission queue is full
    /// (backpressure).  The operation is durable once its round's group
    /// commit lands — at the latest when a subsequent
    /// [`PipelinedEngine::flush`] or [`PipelinedEngine::close`] returns.
    pub fn submit(&self, op: Operation) -> Result<(), PipelineError> {
        let sender = self.sender.as_ref().ok_or(PipelineError::Closed)?;
        let span = dc_telemetry::registry().span("pipeline.admit");
        let latency = Span::start("pipeline.op_latency");
        let sent = sender.send(Admit::Op(op, latency));
        span.finish();
        match sent {
            Ok(()) => {
                self.submitted_ops.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(_) => Err(PipelineError::Closed),
        }
    }

    /// Close the in-flight batch immediately and block until every
    /// operation submitted before this call is durably committed **and**
    /// the refine worker has caught up with every committed round.  The
    /// deterministic tests drive round boundaries with this.
    pub fn flush(&self) -> Result<(), PipelineError> {
        let sender = self.sender.as_ref().ok_or(PipelineError::Closed)?;
        let target = self.submitted_ops.load(Ordering::Relaxed);
        sender
            .send(Admit::Flush)
            .map_err(|_| PipelineError::Closed)?;
        let mut state = lock_unpoisoned(&self.progress.state);
        loop {
            if state.failed {
                return Err(PipelineError::Closed);
            }
            if state.committed_ops >= target && state.refined_rounds >= state.committed_rounds {
                return Ok(());
            }
            state = wait_unpoisoned(&self.progress.cond, state);
        }
    }

    /// Operations currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.sender.as_ref().map_or(0, BoundedSender::len)
    }

    /// Operations admitted so far (committed or still in flight).
    pub fn submitted_ops(&self) -> u64 {
        self.submitted_ops.load(Ordering::Relaxed)
    }

    /// Stop admitting, drain every queued operation through commit, apply,
    /// and refinement, join the worker threads (merging their telemetry
    /// into this thread's sink, coordinator first), and hand back the
    /// engine plus the session report.
    pub fn close(mut self) -> Result<(ShardedDurableEngine, PipelineReport), PipelineError> {
        drop(self.sender.take());
        let Some(coordinator) = self.coordinator.take() else {
            // Only reachable if close raced a kill on the same value, which
            // the ownership model forbids; a typed error beats a panic.
            return Err(PipelineError::Closed);
        };
        let exit = coordinator
            .join()
            .map_err(|_| PipelineError::WorkerPanicked("coordinator"))?;
        exit.telemetry.merge_into_current();
        if let Some(worker) = self.refine_worker.take() {
            worker
                .join()
                .map_err(|_| PipelineError::WorkerPanicked("refine worker"))?
                .merge_into_current();
        }
        match exit.error {
            Some(error) => Err(PipelineError::Storage(error)),
            None => Ok((exit.engine, exit.report)),
        }
    }

    /// Abandon the pipeline without draining: queued and in-flight work is
    /// discarded, the threads exit, and whatever was already
    /// group-committed on disk is exactly what the next open recovers —
    /// the simulated-kill half of the crash tests.
    pub fn kill(mut self) {
        self.shutdown_abandon();
    }

    fn shutdown_abandon(&mut self) {
        self.abort.store(true, Ordering::Relaxed);
        drop(self.sender.take());
        if let Some(handle) = self.coordinator.take() {
            let _ = handle.join();
        }
        if let Some(worker) = self.refine_worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for PipelinedEngine {
    fn drop(&mut self) {
        self.shutdown_abandon();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_is_fifo_and_drains_after_disconnect() {
        let (tx, rx) = bounded_channel(8);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        // Disconnected senders never lose enqueued items.
        assert_eq!(rx.len(), 5);
        for i in 0..5 {
            assert_eq!(rx.recv(), Some(i));
        }
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn channel_send_fails_once_receiver_is_gone() {
        let (tx, rx) = bounded_channel(2);
        tx.send(1).unwrap();
        drop(rx);
        assert_eq!(tx.send(2), Err(SendError(2)));
    }

    #[test]
    fn channel_blocks_at_capacity_until_a_slot_frees() {
        let (tx, rx) = bounded_channel(1);
        tx.send(1u32).unwrap();
        let blocked = std::thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the receiver pops
            tx
        });
        // Rendezvous on the channel's own state — no sleeping, no latency
        // floor, no flaky "was 20ms long enough" assumption.
        rx.wait_for_blocked_sender();
        assert_eq!(rx.len(), 1, "second send must still be blocked");
        assert_eq!(rx.recv(), Some(1));
        let tx = blocked.join().unwrap();
        assert_eq!(rx.recv(), Some(2));
        drop(tx);
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn channel_recv_deadline_times_out_and_disconnects() {
        let (tx, rx) = bounded_channel::<u32>(2);
        assert_eq!(
            rx.recv_deadline(clock::deadline(Duration::from_millis(5))),
            RecvTimeout::TimedOut
        );
        tx.send(7).unwrap();
        assert_eq!(
            rx.recv_deadline(clock::deadline(Duration::from_millis(5))),
            RecvTimeout::Item(7)
        );
        drop(tx);
        assert_eq!(
            rx.recv_deadline(clock::deadline(Duration::from_secs(60))),
            RecvTimeout::Disconnected
        );
    }

    #[test]
    fn batcher_shrinks_over_target_and_grows_under_half() {
        let target = Duration::from_micros(1000);
        let mut b = AdaptiveBatcher::new(4, 64, 16, target);
        assert_eq!(b.batch_target(), 16);
        // Over-target commit: multiplicative decrease, floored at min.
        b.observe(16, 2_000_000);
        assert_eq!(b.batch_target(), 8);
        b.observe(8, 2_000_000);
        b.observe(4, 2_000_000);
        assert_eq!(b.batch_target(), 4, "never shrinks below min");
        // Fast commits of full batches: gentle growth, capped at max.
        for _ in 0..32 {
            b.observe(b.batch_target(), 100_000);
        }
        assert_eq!(b.batch_target(), 64, "never grows above max");
        // A fast commit of an UNDER-filled batch must not grow the target —
        // the workload is not producing enough to justify it.
        let mut b = AdaptiveBatcher::new(4, 64, 16, target);
        b.observe(3, 100_000);
        assert_eq!(b.batch_target(), 16);
        // In-band latency (between half and full target): hold steady.
        b.observe(16, 700_000);
        assert_eq!(b.batch_target(), 16);
    }

    #[test]
    fn batcher_with_min_equal_max_is_fixed() {
        let mut b = AdaptiveBatcher::new(8, 8, 8, Duration::from_nanos(1));
        b.observe(8, u64::MAX);
        assert_eq!(b.batch_target(), 8);
        b.observe(8, 0);
        assert_eq!(b.batch_target(), 8);
    }
}
