//! Pipelined ingestion over the sharded durable engine.
//!
//! The synchronous serving loop commits one round per call: route, log to
//! every shard's WAL plus the refine WAL, apply, refine, and only then
//! accept the next batch.  The pipelined front-end turns that into a
//! stream: callers `submit` operations into a bounded admission queue, a
//! coordinator thread forms batches adaptively and commits each round, and
//! round R's shard apply overlaps round R−1's cross-shard refinement on a
//! worker thread.  With `group_commit` on, as here, each round costs a
//! **single** fsync of the refine WAL (the group-commit log) instead of
//! N+1.
//!
//! This example trains DynamicC on the Febrl fixture, streams the remaining
//! rounds through a [`PipelinedEngine`] with flush barriers (so the round
//! boundaries match the synchronous reference exactly), kills the pipelined
//! directory mid-stream, reopens it, and asserts the drained + recovered
//! state is bit-identical to a synchronous [`ShardedDurableEngine`] that
//! served the same rounds.
//!
//! ```text
//! cargo run --release --example pipelined_serving
//! ```

use dynamicc::datagen::fixtures::small_febrl_workload;
use dynamicc::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const N_SHARDS: usize = 4;

fn main() {
    let workload = small_febrl_workload();
    let objective = Arc::new(DbIndexObjective);
    let graph_config = || GraphConfig::textual_febrl(0.6);

    // Train once; both serving paths start from clones of this state.
    let mut graph = SimilarityGraph::build(graph_config(), &workload.initial);
    let batch = HillClimbing::with_objective(objective.clone());
    let initial = batch.cluster(&graph).clustering;
    let mut dynamicc = DynamicC::with_objective(objective.clone());
    let (train, serve) = workload.snapshots.split_at(2);
    let report = train_on_workload(&mut dynamicc, &mut graph, &initial, train, &batch);
    let previous = report.final_clustering(&initial);
    let rounds: Vec<&OperationBatch> = serve
        .iter()
        .map(|s| &s.batch)
        .filter(|b| !b.is_empty())
        .collect();
    println!(
        "trained on {} rounds; streaming {} rounds ({} ops) through the pipeline",
        train.len(),
        rounds.len(),
        rounds.iter().map(|b| b.len()).sum::<usize>()
    );

    let options = DurabilityOptions {
        checkpoint_every_rounds: 2,
        group_commit: true,
    };
    // Flush barriers: an effectively unbounded batch target plus a long
    // formation deadline makes each submit+flush segment exactly one round,
    // so the pipelined run is comparable round-for-round to the
    // synchronous reference below.
    let pipeline_options = PipelineOptions {
        max_batch_delay: Duration::from_secs(30),
        record_batches: true,
        ..PipelineOptions::fixed(1_000_000)
    };

    let dir = std::env::temp_dir().join(format!("pipelined-serving-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- process 1: pipelined serving, killed mid-stream ----
    let mid = rounds.len() / 2;
    {
        let router = ShardRouter::for_config(N_SHARDS, graph.config());
        let (graph, previous) = (graph.clone(), previous.clone());
        let (engine, recovery) = ShardedDurableEngine::open(
            &dir,
            router,
            graph.config().clone(),
            dynamicc.clone(),
            options,
            move || (graph, previous),
        )
        .expect("open sharded durable engine");
        assert!(!recovery.recovered);
        let pipe = PipelinedEngine::start(engine, pipeline_options.clone());
        for batch in &rounds[..mid] {
            for op in batch.iter() {
                pipe.submit(op.clone()).expect("submit");
            }
            pipe.flush().expect("flush");
        }
        println!(
            "process 1: group-committed {mid} rounds ({} ops admitted), killed mid-stream",
            pipe.submitted_ops()
        );
        pipe.kill(); // The crash: in-flight work is abandoned, commits stay.
    }

    // ---- process 2: reopen, resume the stream, drain cleanly ----
    let router = ShardRouter::for_config(N_SHARDS, graph.config());
    let (engine, recovery) = ShardedDurableEngine::open(
        &dir,
        router,
        graph.config().clone(),
        dynamicc.clone(),
        options,
        || unreachable!("recovery must not need the bootstrap state"),
    )
    .expect("reopen sharded durable engine");
    println!(
        "process 2: recovered={} — committed round {}, rolled back {}, healed {}",
        recovery.recovered,
        recovery.committed_round,
        recovery.rolled_back_rounds,
        recovery.healed_rounds
    );
    assert_eq!(
        recovery.committed_round, mid as u64,
        "every flushed round survived"
    );
    let pipe = PipelinedEngine::start(engine, pipeline_options);
    for batch in &rounds[mid..] {
        for op in batch.iter() {
            pipe.submit(op.clone()).expect("submit");
        }
        pipe.flush().expect("flush");
    }
    let (pipelined, report) = pipe.close().expect("clean drain");
    println!(
        "drained: {} rounds / {} ops committed, {} overlap stalls, max queue depth {}",
        report.rounds_committed,
        report.ops_committed,
        report.overlap_stalls,
        report.max_queue_depth
    );
    assert_eq!(
        report.recorded_batches.as_deref().map(|r| r.len()),
        Some(rounds.len() - mid),
        "one pipelined round per flush barrier"
    );

    // ---- synchronous reference over the same rounds ----
    let sync_dir =
        std::env::temp_dir().join(format!("pipelined-serving-ref-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&sync_dir);
    let router = ShardRouter::for_config(N_SHARDS, graph.config());
    let (graph_clone, previous_clone) = (graph.clone(), previous.clone());
    let (mut reference, _) = ShardedDurableEngine::open(
        &sync_dir,
        router,
        graph.config().clone(),
        dynamicc,
        options,
        move || (graph_clone, previous_clone),
    )
    .expect("open reference engine");
    for batch in &rounds {
        reference.apply_round(batch).expect("reference round");
    }

    // The pipelined run — with its mid-stream kill — is bit-identical.
    let merged = pipelined.merged_clustering();
    let reference_merged = reference.merged_clustering();
    assert_eq!(merged.cluster_ids(), reference_merged.cluster_ids());
    assert_eq!(merged.id_watermark(), reference_merged.id_watermark());
    assert_eq!(
        pipelined.refined_clustering().cluster_ids(),
        reference.refined_clustering().cluster_ids()
    );
    assert_eq!(pipelined.stats(), reference.stats());
    println!(
        "pipelined run is bit-identical to the synchronous engine: {} objects in {} clusters",
        merged.object_count(),
        merged.cluster_count()
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&sync_dir);
}
