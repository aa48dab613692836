//! Cross-shard refinement: sharded serving without the quality gap.
//!
//! Plain sharding drops every similarity edge whose endpoints route to
//! different shards, so the merged clustering silently under-merges.  The
//! refinement layer (on by default in [`ShardedEngine`]) recovers those
//! cross-shard edges and repairs the merged clustering with the same trained
//! merge/split passes the unsharded engine runs — making the refined
//! clustering *pair-for-pair identical* to the unsharded one.
//!
//! This example trains DynamicC on the Febrl fixture under exact token
//! blocking, then serves the remaining rounds unsharded (the reference) and
//! on 4 refined shards side by side, comparing pair F1 after every round of
//! both the raw merged view (the per-shard clusterings, which repair never
//! mutates — what plain sharding would serve) and the refined view.  It finishes with the
//! durable variant: a kill/reopen mid-stream must reproduce the refined
//! clustering bit-for-bit (the refine WAL + snapshot replay).
//!
//! ```text
//! cargo run --release --example refined_sharding
//! ```

use dynamicc::datagen::fixtures::small_febrl_workload;
use dynamicc::eval::pair_counts;
use dynamicc::prelude::*;
use dynamicc::similarity::TokenBlocking;
use std::sync::Arc;

const N_SHARDS: usize = 4;

/// Febrl under exact token blocking (no stop-word cutoff), so every shard
/// count sees the same candidate semantics.
fn graph_config() -> GraphConfig {
    GraphConfig::new(
        Box::new(dynamicc::similarity::CompositeMeasure::febrl_default()),
        Box::new(TokenBlocking::new(0)),
        0.6,
    )
}

fn main() {
    let workload = small_febrl_workload();
    let objective = Arc::new(DbIndexObjective);

    // Train once; the trained models are cloned into every engine.
    let mut graph = SimilarityGraph::build(graph_config(), &workload.initial);
    let batch = HillClimbing::with_objective(objective.clone());
    let initial = batch.cluster(&graph).clustering;
    let mut dynamicc = DynamicC::with_objective(objective.clone());
    let (train, serve) = workload.snapshots.split_at(2);
    let report = train_on_workload(&mut dynamicc, &mut graph, &initial, train, &batch);
    let previous = report.final_clustering(&initial);
    println!(
        "trained on {} rounds; serving {} rounds over {} objects",
        train.len(),
        serve.len(),
        graph.object_count()
    );

    // ---- unsharded reference vs raw merged view vs refined view ----
    let mut reference = Engine::new(graph.clone(), previous.clone(), dynamicc.clone());
    let router = ShardRouter::for_config(N_SHARDS, graph.config());
    let mut refined = ShardedEngine::new(router, graph.clone(), previous.clone(), dynamicc.clone())
        .expect("valid shard config");

    println!("\nround  raw F1   refined F1  recovered edges  repair merges");
    for snapshot in serve {
        reference.apply_round(&snapshot.batch);
        let r = refined.apply_round(&snapshot.batch);
        let raw_quality = pair_counts(&refined.merged_clustering(), reference.clustering());
        let refined_quality = pair_counts(&refined.refined_clustering(), reference.clustering());
        let refine = r.refine.expect("multi-shard rounds refine");
        println!(
            "{:>5}  {:.5}  {:>10.5}  {:>15}  {:>13}",
            r.merged.round,
            raw_quality.f1(),
            refined_quality.f1(),
            refine.cross_edges_recovered,
            refine.merges_applied,
        );
        assert_eq!(
            (
                refined_quality.together_result_only,
                refined_quality.together_reference_only
            ),
            (0, 0),
            "refined pair sets must be bit-equal to the unsharded engine's"
        );
    }
    println!("refined sharding matches the unsharded engine pair-for-pair");

    // ---- durable refined sharding with a kill/reopen cycle ----
    let dir = std::env::temp_dir().join(format!("refined-sharding-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurabilityOptions {
        checkpoint_every_rounds: 2,
        group_commit: false,
    };

    // Process 1: fresh open, serve one round, die without warning.
    {
        let router = ShardRouter::for_config(N_SHARDS, graph.config());
        let (graph, previous) = (graph.clone(), previous.clone());
        let (mut durable, recovery) = ShardedDurableEngine::open(
            &dir,
            router,
            graph.config().clone(),
            dynamicc.clone(),
            options,
            move || (graph, previous),
        )
        .expect("open sharded durable engine");
        assert!(!recovery.recovered);
        durable.apply_round(&serve[0].batch).expect("serve round");
        println!(
            "\nprocess 1: served 1 round durably ({} cross-shard edges recovered); killed",
            durable.cross_shard_edges_recovered()
        );
        // Dropped here: the crash.
    }

    // Process 2: reopen — the refine snapshot + WAL replay must reproduce
    // the refined view bit-for-bit — then finish the workload.
    let router = ShardRouter::for_config(N_SHARDS, graph.config());
    let (mut durable, recovery) = ShardedDurableEngine::open(
        &dir,
        router,
        graph.config().clone(),
        dynamicc,
        options,
        || unreachable!("recovery must not need the bootstrap state"),
    )
    .expect("reopen sharded durable engine");
    println!(
        "process 2: recovered to round {} (replayed {} shard-rounds, {} refine rounds)",
        recovery.committed_round, recovery.replayed_rounds, recovery.refine_replayed_rounds
    );
    for snapshot in &serve[1..] {
        durable.apply_round(&snapshot.batch).expect("serve round");
    }
    durable.checkpoint().expect("final checkpoint");

    // The durable run (with its crash) reproduces the in-memory refined
    // clustering exactly — same cluster ids, same members.
    let durable_refined = durable.refined_clustering();
    let in_memory_refined = refined.refined_clustering();
    assert_eq!(
        durable_refined.cluster_ids(),
        in_memory_refined.cluster_ids()
    );
    assert_eq!(durable.stats(), refined.stats());
    println!("durable refined run is bit-identical to the in-memory refined run");
    let _ = std::fs::remove_dir_all(&dir);
}
