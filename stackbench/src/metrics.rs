//! The metric catalogue: every name and unit the benchmark reports, in the
//! order `BENCHMARK.json` lists them.  The self-test checks the two agree.

/// A metric's name and unit.
pub type Def = (&'static str, &'static str);

/// End-to-end metrics, reported with `--trace 0` on every workload.
pub const END_TO_END: &[Def] = &[
    ("setup_s", "s"),
    ("ingest_ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("recovery_s", "s"),
    ("pair_f1", "ratio"),
    ("disk_bytes_per_op", "bytes"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported with `--trace 1` on every workload.
pub const PER_LAYER: &[Def] = &[
    ("similarity.comparisons_per_op", "count"),
    ("similarity.apply_ms_per_op", "ms"),
    ("similarity.share_of_engine", "ratio"),
    ("similarity.edges_per_object", "count"),
    ("boundary.pairs_per_op", "count"),
    ("router.imbalance", "ratio"),
    ("engine.round_ms_p50", "ms"),
    ("engine.objective_evals_per_op", "count"),
    ("engine.dynamicc_ms_per_op", "ms"),
    ("engine.merges_per_op", "count"),
    ("engine.splits_per_op", "count"),
    ("engine.full_builds", "count"),
    ("shard.round_ms_p50", "ms"),
    ("refine.repair_ms_per_round", "ms"),
    ("refine.dirty_clusters_per_round", "count"),
    ("refine.regions_per_round", "count"),
    ("refine.cross_edges", "count"),
    ("durable.round_ms_p50", "ms"),
    ("storage.fsyncs_per_round", "count"),
    ("storage.checkpoints", "count"),
    ("storage.checkpoint_ms_p50", "ms"),
    ("storage.wal_bytes_per_op", "bytes"),
    ("storage.snapshot_bytes", "bytes"),
    ("recovery.snapshot_load_ms", "ms"),
    ("recovery.replay_ms", "ms"),
    ("recovery.replayed_rounds", "count"),
    ("pipeline.rounds", "count"),
    ("pipeline.mean_batch_ops", "count"),
    ("pipeline.overlap_stalls", "count"),
    ("pipeline.max_queue_depth", "count"),
    ("pipeline.added_ms_per_op", "ms"),
    ("setup.generate_s", "s"),
    ("setup.graph_build_s", "s"),
    ("setup.batch_cluster_s", "s"),
    ("setup.train_s", "s"),
    ("setup.open_s", "s"),
    ("batch.recluster_final_s", "s"),
    ("quality.f1_vs_batch", "ratio"),
    ("gen.late_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounted_share", "ratio"),
];

/// The unit of a catalogued metric.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}
