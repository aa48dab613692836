//! Telemetry smoke run and overhead gate.
//!
//! Two jobs live here, both driven by the `experiments` binary and the test
//! suite:
//!
//! * [`run_telemetry_smoke`] serves the febrl fixture through the full stack
//!   (training → sharded durable serving → checkpoint → crash → recovery)
//!   with telemetry **on** and returns the resulting
//!   [`TelemetrySnapshot`] — the committed `TELEMETRY_SMOKE.json` example
//!   dump is exactly its [`TelemetrySnapshot::to_json`] rendering.  The run
//!   asserts the observability acceptance criterion along the way: the
//!   coordinating-thread phase spans ([`ROUND_PHASES`]) must account for at
//!   least 90 % of the measured `round.total` wall time, i.e. the per-round
//!   phase breakdown explains where the round went.
//! * [`run_telemetry_overhead_gate`] measures an unsharded engine serving
//!   the same fixture with telemetry off and on (best-of-N each,
//!   interleaved) and reports the throughput ratio.  The dc-bench gate test
//!   asserts the ratio stays within the contract: telemetry-on serving must
//!   be within 5 % of telemetry-off.
//!
//! Both entry points reset the calling thread's registry on entry and leave
//! telemetry disabled (and the registry empty) on exit, so they compose with
//! the exact-count assertions elsewhere in the test suite.

use dc_batch::{BatchClusterer, HillClimbing};
use dc_core::{train_on_workload, DurabilityOptions, DynamicC, Engine, ShardedDurableEngine};
use dc_datagen::fixtures::small_febrl_workload;
use dc_datagen::DynamicWorkload;
use dc_objective::{DbIndexObjective, ObjectiveFunction};
use dc_similarity::{GraphConfig, ShardRouter, SimilarityGraph};
use dc_telemetry::{registry, TelemetryConfig, TelemetrySnapshot};
use dc_types::Clustering;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shard count of the smoke run.
pub const SMOKE_SHARDS: usize = 2;
/// Training prefix of the smoke run and the overhead gate.
pub const SMOKE_TRAIN_ROUNDS: usize = 2;
/// Checkpoint cadence of the smoke run, in rounds.
pub const SMOKE_CHECKPOINT_EVERY: usize = 2;

/// The coordinating-thread phase spans of one sharded durable round, in
/// execution order.  Their summed wall time must explain the enclosing
/// `round.total` span to within the acceptance bound checked by
/// [`TelemetrySmokeResult::phase_coverage`].
pub const ROUND_PHASES: [&str; 5] = [
    "round.route",
    "round.group_commit",
    "round.shard_apply",
    "round.refine",
    "round.checkpoint",
];

/// Outcome of the telemetry smoke run.
#[derive(Debug, Clone)]
pub struct TelemetrySmokeResult {
    /// Rounds served after the training prefix.
    pub rounds: usize,
    /// Workload operations served.
    pub operations: usize,
    /// Fraction of `round.total` wall time explained by the
    /// [`ROUND_PHASES`] spans (1.0 = fully explained).
    pub phase_coverage: f64,
    /// The captured registry contents covering every instrumented layer.
    pub snapshot: TelemetrySnapshot,
}

impl TelemetrySmokeResult {
    /// Render the captured snapshot as the stable JSON dump (the committed
    /// `TELEMETRY_SMOKE.json` format).
    pub fn to_json(&self) -> String {
        self.snapshot.to_json()
    }
}

/// A state directory private to one call, removed when dropped.  The pid
/// keeps concurrent processes apart and the counter keeps concurrent calls
/// in one process (parallel tests) apart.
struct StateDir(PathBuf);

impl StateDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "dc-bench-telemetry-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        StateDir(path)
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deterministic train-then-previous pipeline: batch-cluster the initial
/// data, train DynamicC on the prefix.
fn trained_setup(
    workload: &DynamicWorkload,
    graph_config: impl Fn() -> GraphConfig,
    objective: Arc<dyn ObjectiveFunction>,
    train_rounds: usize,
) -> (SimilarityGraph, Clustering, DynamicC) {
    let mut graph = SimilarityGraph::build(graph_config(), &workload.initial);
    let batch = HillClimbing::with_objective(objective.clone());
    let initial = batch.cluster(&graph).clustering;
    let mut dynamicc = DynamicC::with_objective(objective);
    let train = &workload.snapshots[..train_rounds.min(workload.snapshots.len())];
    let report = train_on_workload(&mut dynamicc, &mut graph, &initial, train, &batch);
    let previous = report.final_clustering(&initial);
    (graph, previous, dynamicc)
}

/// Serve the febrl fixture through the whole instrumented stack with
/// telemetry on and capture the registry: train, open a sharded durable
/// engine, serve every held-out round (auto-checkpointing), kill it, and
/// recover from disk — so the snapshot covers training, routing, per-shard
/// apply, cross-shard refinement, WAL/snapshot storage, checkpointing, and
/// recovery in one run.
///
/// Panics if any layer's metrics are missing from the snapshot or if the
/// phase breakdown explains less than 90 % of the round wall time.
pub fn run_telemetry_smoke() -> TelemetrySmokeResult {
    let reg = registry();
    reg.reset();
    TelemetryConfig::enabled().apply();

    let workload = small_febrl_workload();
    let serve = &workload.snapshots[SMOKE_TRAIN_ROUNDS.min(workload.snapshots.len())..];
    let (graph, previous, dynamicc) = trained_setup(
        &workload,
        || GraphConfig::textual_febrl(0.6),
        Arc::new(DbIndexObjective),
        SMOKE_TRAIN_ROUNDS,
    );

    let dir = StateDir::new("smoke");
    let router = ShardRouter::for_config(SMOKE_SHARDS, graph.config());
    let options = DurabilityOptions {
        checkpoint_every_rounds: SMOKE_CHECKPOINT_EVERY,
        group_commit: false,
    };
    let (mut engine, _) = ShardedDurableEngine::open(
        &dir.0,
        router,
        GraphConfig::textual_febrl(0.6),
        dynamicc.clone(),
        options,
        move || (graph, previous),
    )
    .expect("fresh open");
    let mut operations = 0usize;
    for snapshot in serve {
        operations += snapshot.batch.len();
        engine.apply_round(&snapshot.batch).expect("serve round");
    }
    drop(engine); // the kill

    // Recover from disk so the snapshot also carries the recovery metrics.
    let router = ShardRouter::for_config(SMOKE_SHARDS, &GraphConfig::textual_febrl(0.6));
    let (recovered, report) = ShardedDurableEngine::open(
        &dir.0,
        router,
        GraphConfig::textual_febrl(0.6),
        dynamicc,
        options,
        || unreachable!("durable state exists"),
    )
    .expect("reopen");
    assert!(report.recovered, "smoke run must recover, not bootstrap");
    drop(recovered);
    drop(dir);

    let snapshot = reg.snapshot();
    TelemetryConfig::default().apply();
    reg.reset();

    let phase_coverage = phase_coverage(&snapshot);
    assert!(
        phase_coverage >= 0.9,
        "round phases explain only {:.1}% of round.total wall time",
        phase_coverage * 100.0
    );
    for name in REQUIRED_SMOKE_METRICS {
        let present = snapshot.counters.contains_key(*name)
            || snapshot.gauges.contains_key(*name)
            || snapshot.histograms.contains_key(*name);
        assert!(present, "smoke snapshot is missing metric {name}");
    }
    TelemetrySmokeResult {
        rounds: serve.len(),
        operations,
        phase_coverage,
        snapshot,
    }
}

/// One representative metric per instrumented layer; the smoke run asserts
/// each is present so a refactor can't silently un-instrument a layer.
pub const REQUIRED_SMOKE_METRICS: &[&str] = &[
    "train.batch_recluster",  // training
    "aggregates.full_builds", // similarity aggregates
    "engine.apply_round",     // per-shard engine
    "shard.apply",            // worker wall time
    "shard.batch_imbalance",  // routing balance gauge
    "round.total",            // sharded round breakdown
    "round.route",
    "round.group_commit", // stage + seal of every WAL
    "round.shard_apply",
    "round.refine",
    "round.checkpoint",
    "storage.fsync", // storage
    "storage.wal_append",
    "storage.wal_bytes_appended",
    "storage.snapshot_write",
    "checkpoint.total", // checkpointing
    "refine.repair",    // cross-shard refinement
    "refine.boundary_pairs",
    "recovery.snapshot_load", // recovery
    "recovery.replay",
    "recovery.replayed_rounds",
];

/// Fraction of `round.total` wall time explained by the [`ROUND_PHASES`]
/// spans in `snapshot` (0.0 when no rounds were recorded).
pub fn phase_coverage(snapshot: &TelemetrySnapshot) -> f64 {
    let total = snapshot
        .histograms
        .get("round.total")
        .map(|h| h.sum())
        .unwrap_or(0);
    if total == 0 {
        return 0.0;
    }
    let phases: u64 = ROUND_PHASES
        .iter()
        .filter_map(|name| snapshot.histograms.get(*name))
        .map(|h| h.sum())
        .sum();
    phases as f64 / total as f64
}

/// Measured serving throughput with telemetry off vs on.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryOverheadResult {
    /// Best-of-N seconds for the serving loop with telemetry off.
    pub off_seconds: f64,
    /// Best-of-N seconds for the same loop with telemetry on.
    pub on_seconds: f64,
    /// Operations served per rep.
    pub operations: usize,
}

impl TelemetryOverheadResult {
    /// `on / off` wall-time ratio; 1.0 means observation is free, and the
    /// gate requires ≤ 1.05 (telemetry-on throughput within 5 % of off).
    pub fn overhead_ratio(&self) -> f64 {
        if self.off_seconds > 0.0 {
            self.on_seconds / self.off_seconds
        } else {
            1.0
        }
    }
}

/// Measure an unsharded engine serving the febrl fixture with telemetry
/// off and on, `reps` times each, interleaved, and keep the best rep per
/// mode.  The trained pipeline is built once and cloned per rep, so every
/// rep serves identical state and the comparison isolates the
/// instrumentation cost.
pub fn run_telemetry_overhead_gate(reps: usize) -> TelemetryOverheadResult {
    let reg = registry();
    reg.reset();
    reg.set_enabled(false);

    let workload = small_febrl_workload();
    let serve = workload.snapshots[SMOKE_TRAIN_ROUNDS.min(workload.snapshots.len())..].to_vec();
    let (graph, previous, dynamicc) = trained_setup(
        &workload,
        || GraphConfig::textual_febrl(0.6),
        Arc::new(DbIndexObjective),
        SMOKE_TRAIN_ROUNDS,
    );
    let operations: usize = serve.iter().map(|s| s.batch.len()).sum();

    let serve_rep = |enabled: bool| -> f64 {
        reg.set_enabled(enabled);
        let mut engine = Engine::new(graph.clone(), previous.clone(), dynamicc.clone());
        let span = reg.span("bench.telemetry.overhead_rep");
        for snapshot in &serve {
            engine.apply_round(&snapshot.batch);
        }
        let seconds = span.finish_ns() as f64 / 1e9;
        reg.set_enabled(false);
        seconds
    };

    // Warm-up rep per mode (page in code and data), then interleave the
    // measured reps so drift hits both modes equally.
    let _ = serve_rep(false);
    let _ = serve_rep(true);
    let mut off_seconds = f64::INFINITY;
    let mut on_seconds = f64::INFINITY;
    for _ in 0..reps.max(1) {
        off_seconds = off_seconds.min(serve_rep(false));
        on_seconds = on_seconds.min(serve_rep(true));
    }
    reg.reset();
    TelemetryOverheadResult {
        off_seconds,
        on_seconds,
        operations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_covers_every_layer_and_explains_the_round() {
        let result = run_telemetry_smoke();
        assert!(result.rounds > 0, "no served rounds");
        assert!(result.operations > 0, "no operations");
        // run_telemetry_smoke already asserts coverage >= 0.9 and metric
        // presence; pin the headline numbers into the report too.
        assert!(result.phase_coverage >= 0.9);
        assert!(result.phase_coverage <= 1.01, "phases exceed the round");
        let rounds = result.snapshot.histograms["round.total"].count();
        assert_eq!(rounds as usize, result.rounds, "one round.total per round");
        let json = result.to_json();
        assert!(json.contains("\"round.total\""));
        assert!(json.contains("\"recovery.replayed_rounds\""));
    }

    #[test]
    fn smoke_structural_fields_are_deterministic_across_runs() {
        // The CI job diffs two full binary runs; this is the in-process
        // version of the same contract — everything but the `_ns` timing
        // lines must be identical.
        let strip = |json: &str| -> String {
            json.lines()
                .filter(|l| !l.contains("_ns\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = run_telemetry_smoke().to_json();
        let b = run_telemetry_smoke().to_json();
        assert_eq!(strip(&a), strip(&b), "structural telemetry fields drifted");
    }

    /// The 5 % overhead contract is a release-mode claim (CI runs this test
    /// with `cargo test --release` as its own gate step); under the fully
    /// parallel debug-mode suite the measurement is dominated by scheduler
    /// contention and unoptimized code, so the assertion is skipped there.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "overhead gate is enforced in release mode (see CI)"
    )]
    fn telemetry_overhead_stays_within_the_gate() {
        let result = run_telemetry_overhead_gate(5);
        assert!(result.off_seconds > 0.0 && result.off_seconds.is_finite());
        assert!(result.on_seconds > 0.0 && result.on_seconds.is_finite());
        assert!(
            result.overhead_ratio() <= 1.05,
            "telemetry-on serving is {:.1}% slower than off (gate: 5%)",
            (result.overhead_ratio() - 1.0) * 100.0
        );
    }
}
