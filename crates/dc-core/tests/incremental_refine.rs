//! Incremental dirty-region repair == full global fixed point, bit-for-bit.
//!
//! The cross-shard refiner restricts each round's merge/split repair to the
//! dirty closure of the clusters the round touched (`dc_core::refine`,
//! `dc_core::dirty`).  That restriction is only sound if it is *invisible*:
//! the refined clustering, the applied merges and splits, the allocated
//! cluster ids, and the recovered-edge accounting must all be exactly what
//! the pre-incremental full fixed point produces — the only permitted
//! difference is *less work* (skipped evaluations whose rejection the
//! previous fixed point already proved).
//!
//! Pinned here property-style: both fixture families, N ∈ {2, 4}, the
//! fixture serve rounds plus a deterministic pseudo-random tail of
//! remove/re-add/update rounds (the add→delete→re-add shapes that stress the
//! seed collection), plus explicit zero-activity rounds.  After **every**
//! round, the incremental engine and a `set_full_repair(true)` reference
//! must agree bit-for-bit on the refined clustering (ids, members,
//! watermark) and on every applied-work counter, with the incremental
//! engine's evaluation/rejection counters bounded by the reference's.
//! Zero-activity rounds must report an empty dirty set and zero repair work.

use dc_core::{RefineReport, ShardedEngine};
use dc_datagen::fixtures::{small_access_workload, small_febrl_workload};
use dc_datagen::DynamicWorkload;
use dc_objective::{CorrelationObjective, DbIndexObjective, ObjectiveFunction};
use dc_similarity::{GraphConfig, ShardRouter, TokenBlocking};
use dc_types::{ObjectId, Operation, OperationBatch, Record};
use std::collections::BTreeMap;
use std::sync::Arc;

mod common;

const TRAIN_ROUNDS: usize = 2;

/// Febrl under exact token blocking (see `tests/shard_quality.rs`).
fn exact_febrl_config() -> GraphConfig {
    GraphConfig::new(
        Box::new(dc_similarity::measures::CompositeMeasure::febrl_default()),
        Box::new(TokenBlocking::new(0)),
        0.6,
    )
}

/// Deterministic xorshift64* — no RNG dependency, stable across runs.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> Option<T> {
        if items.is_empty() {
            None
        } else {
            Some(items[(self.next() % items.len() as u64) as usize])
        }
    }
}

/// Every record the workload ever mentions, keyed by id — the pool the
/// synthetic remove/re-add/update tail draws payloads from.
fn record_pool(workload: &DynamicWorkload) -> BTreeMap<ObjectId, Record> {
    let mut pool: BTreeMap<ObjectId, Record> = workload
        .initial
        .iter()
        .map(|(id, record)| (id, record.clone()))
        .collect();
    for snapshot in &workload.snapshots {
        for op in snapshot.batch.iter() {
            match op {
                Operation::Add { id, record } | Operation::Update { id, record } => {
                    pool.insert(*id, record.clone());
                }
                Operation::Remove { .. } => {}
            }
        }
    }
    pool
}

/// A deterministic pseudo-random tail of rounds over the record pool:
/// removes of live objects, re-adds of previously removed ones (the
/// add→delete→re-add shape), same-record updates, and interspersed empty
/// rounds.  Liveness is tracked against the engine under test.
fn synthetic_batches(
    engine: &ShardedEngine,
    pool: &BTreeMap<ObjectId, Record>,
    rng: &mut XorShift,
    rounds: usize,
) -> Vec<OperationBatch> {
    let mut live: Vec<ObjectId> = pool
        .keys()
        .copied()
        .filter(|&id| engine.shard_of(id).is_some())
        .collect();
    let mut dead: Vec<ObjectId> = Vec::new();
    let mut batches = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let mut batch = OperationBatch::new();
        if round % 3 == 2 {
            batches.push(batch); // an explicit zero-activity round
            continue;
        }
        for _ in 0..3 {
            match rng.next() % 3 {
                0 => {
                    if let Some(id) = rng.pick(&live) {
                        batch.push(Operation::Remove { id });
                        live.retain(|&x| x != id);
                        dead.push(id);
                    }
                }
                1 => {
                    if let Some(id) = rng.pick(&dead) {
                        batch.push(Operation::Add {
                            id,
                            record: pool[&id].clone(),
                        });
                        dead.retain(|&x| x != id);
                        live.push(id);
                    }
                }
                _ => {
                    if let Some(id) = rng.pick(&live) {
                        batch.push(Operation::Update {
                            id,
                            record: pool[&id].clone(),
                        });
                    }
                }
            }
        }
        batches.push(batch);
    }
    batches
}

/// Identical outcome, bounded work: every applied-work field equal (score
/// down to the bit), evaluation and rejection counters ≤ the reference's.
fn assert_reports_equivalent(inc: &RefineReport, full: &RefineReport, context: &str) {
    assert_eq!(
        inc.boundary_pairs_computed, full.boundary_pairs_computed,
        "{context}: boundary pairs"
    );
    assert_eq!(
        inc.cross_edges_recovered, full.cross_edges_recovered,
        "{context}: recovered edges"
    );
    assert_eq!(
        inc.merges_applied, full.merges_applied,
        "{context}: merges applied"
    );
    assert_eq!(
        inc.splits_applied, full.splits_applied,
        "{context}: splits applied"
    );
    assert_eq!(inc.clusters, full.clusters, "{context}: cluster count");
    assert_eq!(
        inc.score.to_bits(),
        full.score.to_bits(),
        "{context}: score must match bit-for-bit ({} vs {})",
        inc.score,
        full.score
    );
    assert!(
        inc.objective_evaluations <= full.objective_evaluations,
        "{context}: incremental did MORE evaluations ({} > {})",
        inc.objective_evaluations,
        full.objective_evaluations
    );
    assert!(
        inc.merges_rejected <= full.merges_rejected,
        "{context}: merge rejections"
    );
    assert!(
        inc.splits_rejected <= full.splits_rejected,
        "{context}: split rejections"
    );
}

fn check_incremental_matches_full(
    tag: &str,
    n_shards: usize,
    workload: &DynamicWorkload,
    graph_config: impl Fn() -> GraphConfig + Copy,
    objective: Arc<dyn ObjectiveFunction>,
) {
    let (graph_a, prev_a, serve, dynamicc_a) =
        common::trained_setup(workload, graph_config, objective.clone(), TRAIN_ROUNDS);
    let (graph_b, prev_b, _, dynamicc_b) =
        common::trained_setup(workload, graph_config, objective, TRAIN_ROUNDS);

    let router = ShardRouter::for_config(n_shards, graph_a.config());
    let mut incremental =
        ShardedEngine::new(router, graph_a, prev_a, dynamicc_a).expect("valid shard config");
    let router = ShardRouter::for_config(n_shards, graph_b.config());
    let mut full =
        ShardedEngine::new(router, graph_b, prev_b, dynamicc_b).expect("valid shard config");
    full.set_full_repair(true);

    let pool = record_pool(workload);
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15 ^ (n_shards as u64) << 32 ^ tag.len() as u64);
    let mut rounds: Vec<OperationBatch> = serve.iter().map(|s| s.batch.clone()).collect();
    rounds.extend(synthetic_batches(&incremental, &pool, &mut rng, 9));

    let mut saw_restricted_round = false;
    let mut total_dirty_clusters = 0usize;
    for (i, batch) in rounds.iter().enumerate() {
        let context = format!("{tag}: {n_shards} shards: round {i}");
        let inc_report = incremental
            .apply_round(batch)
            .refine
            .expect("multi-shard rounds refine");
        let full_report = full
            .apply_round(batch)
            .refine
            .expect("multi-shard rounds refine");

        assert_reports_equivalent(&inc_report, &full_report, &context);
        let a = incremental.refined_clustering();
        let b = full.refined_clustering();
        a.check_invariants().unwrap();
        common::assert_clusterings_identical(&a, &b, &context);

        if batch.is_empty() {
            assert_eq!(
                (inc_report.dirty_clusters, inc_report.regions),
                (0, 0),
                "{context}: an empty round must leave the dirty set empty"
            );
            assert_eq!(
                inc_report.objective_evaluations, 0,
                "{context}: an empty round must do zero repair work"
            );
            assert_eq!(
                (inc_report.merges_applied, inc_report.splits_applied),
                (0, 0),
                "{context}"
            );
        }
        assert!(
            inc_report.regions <= inc_report.dirty_clusters,
            "{context}: {} repair regions over {} dirty clusters",
            inc_report.regions,
            inc_report.dirty_clusters
        );
        total_dirty_clusters += inc_report.dirty_clusters;
        saw_restricted_round |= inc_report.dirty_clusters < full_report.dirty_clusters;
    }
    assert!(
        total_dirty_clusters > 0,
        "{tag}: {n_shards} shards: no round dirtied a cluster, so this workload \
         does not exercise incremental repair"
    );
    assert!(
        saw_restricted_round,
        "{tag}: {n_shards} shards: the dirty set never shrank below the full \
         cluster set, so this workload does not exercise the restriction"
    );
}

#[test]
fn incremental_repair_matches_full_repair_on_febrl() {
    for n_shards in [2, 4] {
        check_incremental_matches_full(
            "febrl",
            n_shards,
            &small_febrl_workload(),
            exact_febrl_config,
            Arc::new(DbIndexObjective),
        );
    }
}

#[test]
fn incremental_repair_matches_full_repair_on_access() {
    for n_shards in [2, 4] {
        check_incremental_matches_full(
            "access",
            n_shards,
            &small_access_workload(),
            || GraphConfig::numeric_euclidean(1.8, 4.0, 3, 0.25),
            Arc::new(CorrelationObjective),
        );
    }
}
