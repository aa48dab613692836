//! The traced run (`--trace 1`): the workload's exact rounds through a
//! ladder of stack configurations, each rung adding one layer —
//!
//! 1. `Engine` (`dc-core/engine` over `dc-similarity` and `dc-objective`);
//! 2. + shards and cross-shard refinement (`ShardedEngine`, N = 2);
//! 3. + WAL and checkpoints (`ShardedDurableEngine`, group commit);
//! 4. + the pipeline (`PipelinedEngine`), driven by the workload's client.
//!
//! Every public call is timed from the benchmark's side and kept as a span;
//! the stack's own `dc-telemetry` phase spans (on for this run) attribute
//! the pipelined rung's wall time to layers where its threads overlap.
//! The pipelined rung runs first, because the stream workload's rounds are
//! the batches its adaptive batcher formed.

use crate::drive::{drive, Window};
use crate::front_door::{self, SHARDS};
use crate::measure::{dir_bytes, mean, median, quantile, Outcome};
use crate::trace::Tracer;
use crate::workload::{chunked, generate, train, Kind, Scale};
use dc_batch::{BatchClusterer, HillClimbing};
use dc_core::{Engine, ShardedEngine};
use dc_similarity::{full_build_count, ShardRouter};
use dc_telemetry::TelemetrySnapshot;
use dc_types::{Clustering, ObjectId, OperationBatch};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

fn groups(c: &Clustering) -> Vec<Vec<ObjectId>> {
    let mut g = c.groups();
    g.sort();
    g
}

fn since_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Sum of a telemetry span histogram, in milliseconds.
fn span_ms(snap: &TelemetrySnapshot, name: &str) -> f64 {
    snap.histograms
        .get(name)
        .map_or(0.0, |h| h.sum() as f64 / 1e6)
}

fn counter(snap: &TelemetrySnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Run the ladder for `kind`, writing spans and telemetry under `out_dir`.
pub fn run(kind: Kind, scale: Scale, seed: u64, work: &Path, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = ladder(kind, scale, seed, work, out_dir, &mut out) {
        out.attempted = out.attempted.max(1);
        out.gate(false, out.attempted, || e);
    }
    dc_telemetry::registry().set_enabled(false);
    out
}

fn ladder(
    kind: Kind,
    scale: Scale,
    seed: u64,
    work: &Path,
    out_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let reg = dc_telemetry::registry();
    let mut tracer = Tracer::on();

    // --- set-up, phase by phase --------------------------------------------
    let t = Instant::now();
    let inputs = tracer.call("dc_datagen::generate", None, || generate(kind, scale, seed));
    let generate_s = t.elapsed().as_secs_f64();
    let (trained, setup) = tracer.call("trainer::train", None, || train(kind, &inputs));
    let ops = inputs.stream.len();
    let per_op = |x: f64| x / ops as f64;
    out.attempted = ops as u64;
    out.notes
        .push(format!("input digest {:016x}", inputs.digest));

    // --- untraced pipelined window (the overhead baseline) -----------------
    reg.set_enabled(false);
    let engine = front_door::open_fresh(&work.join("untraced"), kind, trained.clone())?;
    let pipe = front_door::start(engine, front_door::pipeline_options(kind, false));
    let untraced = drive(kind, pipe, &inputs.stream, &mut Tracer::off())?;
    drop(untraced.engine);

    // --- rung 4: + pipeline, traced ----------------------------------------
    reg.set_enabled(true);
    reg.reset();
    let t = Instant::now();
    let engine = tracer.call("ShardedDurableEngine::open", None, || {
        front_door::open_fresh(&work.join("pipelined"), kind, trained.clone())
    })?;
    let open_s = t.elapsed().as_secs_f64();
    reg.reset();
    let builds_before = full_build_count();
    tracer.enter("rung.pipelined", None);
    let pipe = tracer.call("PipelinedEngine::start", None, || {
        front_door::start(engine, front_door::pipeline_options(kind, true))
    });
    let Window {
        wall_s,
        cpu_s,
        mut report,
        engine: piped,
        ..
    } = drive(kind, pipe, &inputs.stream, &mut tracer)?;
    tracer.exit();
    let mut builds = full_build_count() - builds_before;
    let piped_tel = reg.snapshot();
    let rounds: Vec<OperationBatch> = report.recorded_batches.take().unwrap_or_default();
    let recorded: usize = rounds.iter().map(OperationBatch::len).sum();
    out.gate(recorded == ops, ops as u64, || {
        format!("the pipeline recorded {recorded} of {ops} operations")
    });
    if kind.deterministic() {
        let expected_size = match kind {
            Kind::LinkageBurst => front_door::BURST_ROUND_OPS,
            _ => front_door::REQUEST_OPS,
        };
        out.gate(rounds == chunked(&inputs.stream, expected_size), 0, || {
            "the pipeline formed different rounds than the client fixed".into()
        });
    }
    let piped_state = front_door::state(&piped);
    let piped_refined = front_door::refined(&piped);
    let snapshot_bytes = dir_bytes(&work.join("pipelined")).1;

    // Kill and recover, traced.
    front_door::kill(front_door::start(
        piped,
        front_door::pipeline_options(kind, false),
    ));
    reg.reset();
    let (recovered, recovery) = tracer.call("ShardedDurableEngine::open(recover)", None, || {
        front_door::reopen(&work.join("pipelined"), kind, trained.dynamicc.clone())
    })?;
    let recovery_tel = reg.snapshot();
    out.gate(
        front_door::state(&recovered) == piped_state,
        ops as u64,
        || "recovered state differs from the acknowledged state".into(),
    );
    drop(recovered);

    // --- rung 1: Engine ------------------------------------------------------
    reg.reset();
    let mut engine = tracer.call("Engine::new", None, || {
        let t = trained.clone();
        Engine::new(t.graph, t.clustering, t.dynamicc)
    });
    let (mut engine_round_ms, mut evals, mut merges, mut splits) = (Vec::new(), 0u64, 0, 0);
    tracer.enter("rung.engine", None);
    let rung = Instant::now();
    for (r, batch) in rounds.iter().enumerate() {
        let t = Instant::now();
        let rep = tracer.call("Engine::apply_round", Some(r as u64), || {
            engine.apply_round(batch)
        });
        engine_round_ms.push(since_ms(t));
        evals += rep.objective_evaluations;
        merges += rep.merges_applied;
        splits += rep.splits_applied;
        builds += rep.full_aggregate_builds;
    }
    let engine_ms = since_ms(rung);
    tracer.exit();
    let engine_groups = groups(engine.clustering());

    // The similarity layer alone: the same rounds folded into a bare graph.
    let mut graph = trained.graph.clone();
    let comparisons_before = graph.comparisons();
    tracer.enter("rung.similarity", None);
    let rung = Instant::now();
    for (r, batch) in rounds.iter().enumerate() {
        tracer.call("SimilarityGraph::apply_batch", Some(r as u64), || {
            graph.apply_batch(batch)
        });
    }
    let similarity_ms = since_ms(rung);
    tracer.exit();
    let comparisons = graph.comparisons() - comparisons_before;
    let edges_per_object = graph.edge_count() as f64 / graph.object_count().max(1) as f64;

    // The router alone: sub-batch skew of the same rounds.
    let router = ShardRouter::for_config(SHARDS, trained.graph.config());
    let mut assignment: BTreeMap<ObjectId, usize> = trained
        .graph
        .object_ids()
        .into_iter()
        .filter_map(|id| trained.graph.record(id).map(|r| (id, router.route(r))))
        .collect();
    let imbalance: Vec<f64> = rounds
        .iter()
        .enumerate()
        .map(|(r, batch)| {
            let routed = tracer.call("ShardRouter::route_batch", Some(r as u64), || {
                router.route_batch(batch, &mut assignment)
            });
            let max = routed
                .sub_batches
                .iter()
                .map(|b| b.len())
                .max()
                .unwrap_or(0);
            max as f64 * SHARDS as f64 / batch.len().max(1) as f64
        })
        .collect();

    // --- rung 2: + shards and refinement ----------------------------------
    let mut sharded = tracer
        .call("ShardedEngine::new", None, || {
            let t = trained.clone();
            ShardedEngine::new(
                ShardRouter::for_config(SHARDS, t.graph.config()),
                t.graph,
                t.clustering,
                t.dynamicc,
            )
        })
        .map_err(|e| format!("ShardedEngine::new: {e}"))?
        .with_max_threads(front_door::MAX_THREADS);
    let mut shard_round_ms = Vec::new();
    let (mut repair_ms, mut dirty, mut regions, mut boundary_pairs) =
        (Vec::new(), Vec::new(), Vec::new(), 0usize);
    tracer.enter("rung.sharded", None);
    for (r, batch) in rounds.iter().enumerate() {
        let t = Instant::now();
        let rep = tracer.call("ShardedEngine::apply_round", Some(r as u64), || {
            sharded.apply_round(batch)
        });
        shard_round_ms.push(since_ms(t));
        builds += rep.merged.full_aggregate_builds;
        if let Some(refine) = rep.refine {
            repair_ms.push(refine.repair_wall_ns as f64 / 1e6);
            dirty.push(refine.dirty_clusters as f64);
            regions.push(refine.regions as f64);
            boundary_pairs += refine.boundary_pairs_computed;
        }
    }
    tracer.exit();
    out.gate(
        groups(&sharded.refined_clustering()) == engine_groups,
        ops as u64,
        || "sharded refined clustering is not pair-identical to the Engine rung".into(),
    );
    let cross_edges = sharded.cross_shard_edges_recovered();
    drop(sharded);

    // --- rung 3: + WAL and checkpoints ---------------------------------------
    let mut durable = tracer.call("ShardedDurableEngine::open", None, || {
        front_door::open_fresh(&work.join("durable"), kind, trained.clone())
    })?;
    reg.reset();
    let (mut durable_round_ms, mut fsyncs_plain) = (Vec::new(), Vec::new());
    tracer.enter("rung.durable", None);
    for (r, batch) in rounds.iter().enumerate() {
        let fsyncs = reg.counter("storage.fsync_count");
        let checkpoints = reg.counter("checkpoint.count");
        let t = Instant::now();
        let rep = tracer
            .call("ShardedDurableEngine::apply_round", Some(r as u64), || {
                front_door::apply_round(&mut durable, batch)
            })
            .map_err(|e| format!("durable round {r}: {e}"))?;
        durable_round_ms.push(since_ms(t));
        builds += rep.merged.full_aggregate_builds;
        if reg.counter("checkpoint.count") == checkpoints {
            fsyncs_plain.push((reg.counter("storage.fsync_count") - fsyncs) as f64);
        }
    }
    tracer.exit();
    out.gate(
        front_door::state(&durable) == piped_state,
        ops as u64,
        || "pipelined rung is not bit-identical to the synchronous durable rung".into(),
    );
    out.gate(
        groups(&front_door::refined(&durable)) == engine_groups,
        ops as u64,
        || "durable refined clustering is not pair-identical to the Engine rung".into(),
    );
    out.gate(groups(&piped_refined) == engine_groups, ops as u64, || {
        "pipelined refined clustering is not pair-identical to the Engine rung".into()
    });
    drop(durable);
    out.gate(builds == 0, ops as u64, || {
        format!("{builds} full aggregate builds while serving")
    });

    // --- the paper's batch comparator: the batch algorithm answering the final
    // snapshot from its own last answer (the trained clustering), as it does
    // for every snapshot it answers during training.
    let t = Instant::now();
    let batch = tracer.call("HillClimbing::recluster", None, || {
        HillClimbing::with_objective(kind.objective())
            .recluster(engine.graph(), &trained.clustering)
    });
    let recluster_s = t.elapsed().as_secs_f64();
    let f1_vs_batch = dc_eval::pair_counts(&piped_refined, &batch.clustering).f1();

    // --- attribution of the pipelined rung's wall time -----------------------
    let phase = |name| span_ms(&piped_tel, name);
    let coordinator: [(&str, f64); 6] = [
        ("pipeline.batch_form", phase("pipeline.batch_form")),
        ("round.route", phase("round.route")),
        ("pipeline.group_commit", phase("pipeline.group_commit")),
        ("pipeline.overlap_stall", phase("pipeline.overlap_stall")),
        ("round.shard_apply", phase("round.shard_apply")),
        ("round.checkpoint", phase("round.checkpoint")),
    ];
    // Refinement runs beside shard apply; only the part neither shard apply
    // nor an overlap stall hid is on the critical path.
    let refine_ms = phase("pipeline.refine");
    let refine_unhidden =
        (refine_ms - phase("round.shard_apply") - phase("pipeline.overlap_stall")).max(0.0);
    let admit_ms = phase("pipeline.admit");
    let accounted_ms = admit_ms + coordinator.iter().map(|(_, v)| v).sum::<f64>() + refine_unhidden;
    let wall_ms = wall_s * 1e3;

    // --- metrics -------------------------------------------------------------
    let n_rounds = rounds.len();
    let rounds_note = format!("{n_rounds} rounds");
    let ops_note = format!("{ops} operations");
    out.metric(
        "similarity.comparisons_per_op",
        per_op(comparisons as f64),
        &*ops_note,
    );
    out.metric(
        "similarity.apply_ms_per_op",
        per_op(similarity_ms),
        &*ops_note,
    );
    out.metric(
        "similarity.share_of_engine",
        similarity_ms / engine_ms,
        "1 rung pair",
    );
    out.metric(
        "similarity.edges_per_object",
        edges_per_object,
        "final graph",
    );
    out.metric(
        "boundary.pairs_per_op",
        per_op(boundary_pairs as f64),
        &*ops_note,
    );
    out.metric(
        "router.imbalance",
        mean(&imbalance),
        format!("mean of {n_rounds} rounds"),
    );
    out.metric(
        "engine.round_ms_p50",
        median(&engine_round_ms),
        &*rounds_note,
    );
    out.metric(
        "engine.objective_evals_per_op",
        per_op(evals as f64),
        &*ops_note,
    );
    out.metric(
        "engine.dynamicc_ms_per_op",
        per_op(engine_ms - similarity_ms),
        &*ops_note,
    );
    out.metric("engine.merges_per_op", per_op(merges as f64), &*ops_note);
    out.metric("engine.splits_per_op", per_op(splits as f64), &*ops_note);
    out.metric("engine.full_builds", builds as f64, "all rungs");
    out.metric("shard.round_ms_p50", median(&shard_round_ms), &*rounds_note);
    out.metric(
        "refine.repair_ms_per_round",
        mean(&repair_ms),
        &*rounds_note,
    );
    out.metric(
        "refine.dirty_clusters_per_round",
        mean(&dirty),
        &*rounds_note,
    );
    out.metric("refine.regions_per_round", mean(&regions), &*rounds_note);
    out.metric(
        "refine.cross_edges",
        cross_edges as f64,
        "after the last round",
    );
    out.metric(
        "durable.round_ms_p50",
        median(&durable_round_ms),
        &*rounds_note,
    );
    out.metric(
        "storage.fsyncs_per_round",
        mean(&fsyncs_plain),
        format!("{} rounds without a checkpoint", fsyncs_plain.len()),
    );
    let checkpoints = piped_tel.histograms.get("round.checkpoint");
    out.metric(
        "storage.checkpoints",
        checkpoints.map_or(0, |h| h.count()) as f64,
        "pipelined rung",
    );
    out.metric(
        "storage.checkpoint_ms_p50",
        checkpoints.map_or(0.0, |h| h.p50() as f64 / 1e6),
        "pipelined rung",
    );
    out.metric(
        "storage.wal_bytes_per_op",
        per_op(counter(&piped_tel, "storage.wal_bytes_appended") as f64),
        &*ops_note,
    );
    out.metric(
        "storage.snapshot_bytes",
        snapshot_bytes as f64,
        "on disk at the end",
    );
    out.metric(
        "recovery.snapshot_load_ms",
        span_ms(&recovery_tel, "recovery.snapshot_load"),
        "1 reopen",
    );
    out.metric(
        "recovery.replay_ms",
        span_ms(&recovery_tel, "recovery.replay"),
        "1 reopen",
    );
    out.metric(
        "recovery.replayed_rounds",
        recovery.replayed_rounds as f64,
        "1 reopen",
    );
    out.metric(
        "pipeline.rounds",
        report.rounds_committed as f64,
        "pipelined rung",
    );
    out.metric(
        "pipeline.mean_batch_ops",
        report.ops_committed as f64 / report.rounds_committed.max(1) as f64,
        "pipelined rung",
    );
    out.metric(
        "pipeline.overlap_stalls",
        report.overlap_stalls as f64,
        "pipelined rung",
    );
    out.metric(
        "pipeline.max_queue_depth",
        report.max_queue_depth as f64,
        "pipelined rung",
    );
    out.metric(
        "pipeline.added_ms_per_op",
        per_op(admit_ms + phase("pipeline.batch_form") + phase("pipeline.overlap_stall")),
        &*ops_note,
    );
    out.metric("setup.generate_s", generate_s, "1 set-up");
    out.metric("setup.graph_build_s", setup.graph_build_s, "1 set-up");
    out.metric("setup.batch_cluster_s", setup.batch_cluster_s, "1 set-up");
    out.metric("setup.train_s", setup.train_s, "1 set-up");
    out.metric("setup.open_s", open_s, "1 open");
    out.metric("batch.recluster_final_s", recluster_s, "1 recluster");
    out.metric("quality.f1_vs_batch", f1_vs_batch, "final refined vs batch");
    out.metric(
        "gen.late_p99_ms",
        quantile(&untraced.lateness_ms, 0.99),
        format!("{} untraced submissions", untraced.lateness_ms.len()),
    );
    out.metric(
        "trace.overhead_ratio",
        cpu_s / untraced.cpu_s,
        "traced vs untraced CPU",
    );
    out.metric(
        "trace.accounted_share",
        accounted_ms / wall_ms,
        "pipelined rung",
    );

    // --- the trace file ------------------------------------------------------
    let mut attribution: Vec<String> = coordinator
        .iter()
        .map(|(name, v)| format!("    \"{name}\": {v:.3}"))
        .collect();
    attribution.push(format!("    \"pipeline.admit\": {admit_ms:.3}"));
    attribution.push(format!(
        "    \"pipeline.refine (unhidden)\": {refine_unhidden:.3}"
    ));
    attribution.push(format!("    \"accounted\": {accounted_ms:.3}"));
    attribution.push(format!("    \"wall\": {wall_ms:.3}"));
    let rungs = [
        ("engine", engine_ms),
        ("similarity", similarity_ms),
        ("sharded", shard_round_ms.iter().sum::<f64>()),
        ("durable", durable_round_ms.iter().sum::<f64>()),
        ("pipelined", wall_ms),
    ];
    let rung_lines: Vec<String> = rungs
        .iter()
        .map(|(name, v)| format!("    \"{name}\": {v:.3}"))
        .collect();
    let doc = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"rounds\": {n_rounds},\n  \"operations\": {ops},\n  \"rung_wall_ms\": {{\n{}\n  }},\n  \"pipelined_attribution_ms\": {{\n{}\n  }},\n  \"spans\": {},\n  \"pipelined_telemetry\": {},\n  \"recovery_telemetry\": {}\n}}\n",
        kind.name(),
        rung_lines.join(",\n"),
        attribution.join(",\n"),
        tracer.to_json(),
        piped_tel.to_json().trim_end(),
        recovery_tel.to_json().trim_end(),
    );
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{}-{seed}.json", kind.name()));
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    out.notes.push(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    for (name, v) in rungs {
        out.notes.push(format!("rung {name:<10} {v:10.1} ms"));
    }
    out.notes.push(format!(
        "pipelined rung: {accounted_ms:.1} ms of {wall_ms:.1} ms wall attributed to layers"
    ));
    Ok(())
}
