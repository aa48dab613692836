//! Shared experiment machinery: dataset families, clustering tasks, and the
//! replay loop that drives every method over the same dynamic workload.

use dc_baselines::{Greedy, IncrementalClusterer, Naive, NaiveConfig};
use dc_batch::{BatchClusterer, Dbscan, DbscanConfig, HillClimbing, HillClimbingConfig};
use dc_core::{train_on_workload, DynamicC};
use dc_datagen::{
    AccessLikeGenerator, CoraLikeGenerator, DynamicWorkload, FebrlLikeGenerator,
    MusicLikeGenerator, RoadLikeGenerator, WorkloadConfig,
};
use dc_eval::{quality_report, QualityReport};
use dc_objective::{DbIndexObjective, DensityObjective, KMeansObjective, ObjectiveFunction};
use dc_similarity::{GraphConfig, SimilarityGraph};
use dc_types::{Clustering, Dataset};
use std::sync::Arc;

/// The five dataset families of Table 1 (each a synthetic stand-in from
/// `dc-datagen`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetFamily {
    /// Cora-like citation records (textual, Jaccard).
    Cora,
    /// MusicBrainz-like song records (textual, trigram cosine).
    Music,
    /// Amazon-Access-like numeric vectors (Euclidean).
    Access,
    /// 3D-Road-Network-like spatial points (Euclidean).
    Road,
    /// Febrl-like synthetic person records (Levenshtein + Jaccard).
    Synthetic,
}

impl DatasetFamily {
    /// All families, in the order the paper lists them.
    pub fn all() -> [DatasetFamily; 5] {
        [
            DatasetFamily::Cora,
            DatasetFamily::Music,
            DatasetFamily::Access,
            DatasetFamily::Road,
            DatasetFamily::Synthetic,
        ]
    }

    /// Display name matching the paper's shorthand.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetFamily::Cora => "Cora",
            DatasetFamily::Music => "Music",
            DatasetFamily::Access => "Access",
            DatasetFamily::Road => "Road",
            DatasetFamily::Synthetic => "Synthetic",
        }
    }

    /// Generate the full dataset at a relative scale (1.0 = the laptop-scale
    /// default).
    pub fn generate(&self, scale: f64) -> Dataset {
        let s = |base: usize| ((base as f64 * scale).round() as usize).max(4);
        match self {
            DatasetFamily::Cora => CoraLikeGenerator {
                entities: s(120),
                duplicates_per_entity: 6.0,
                ..CoraLikeGenerator::default()
            }
            .generate(),
            DatasetFamily::Music => MusicLikeGenerator {
                entities: s(250),
                duplicates_per_entity: 2.5,
                ..MusicLikeGenerator::default()
            }
            .generate(),
            DatasetFamily::Access => AccessLikeGenerator {
                clusters: s(16),
                points_per_cluster: 40,
                ..AccessLikeGenerator::default()
            }
            .generate(),
            DatasetFamily::Road => RoadLikeGenerator {
                roads: s(40),
                points_per_road: 30,
                ..RoadLikeGenerator::default()
            }
            .generate(),
            DatasetFamily::Synthetic => FebrlLikeGenerator {
                originals: s(220),
                duplicates_per_original: 1.8,
                ..FebrlLikeGenerator::default()
            }
            .generate(),
        }
    }

    /// A fresh similarity-graph configuration for this family (graph configs
    /// own boxed strategies and therefore cannot be cloned).
    pub fn graph_config(&self) -> GraphConfig {
        match self {
            DatasetFamily::Cora => GraphConfig::textual_jaccard(0.5),
            DatasetFamily::Music => GraphConfig::textual_trigram(0.65),
            DatasetFamily::Access => GraphConfig::numeric_euclidean(1.8, 4.0, 3, 0.25),
            DatasetFamily::Road => GraphConfig::numeric_euclidean(0.6, 1.5, 3, 0.25),
            DatasetFamily::Synthetic => GraphConfig::textual_febrl(0.6),
        }
    }

    /// The clustering task the paper evaluates on this family.
    pub fn default_task(&self) -> ClusteringTask {
        match self {
            DatasetFamily::Cora | DatasetFamily::Music | DatasetFamily::Synthetic => {
                ClusteringTask::DbIndex
            }
            DatasetFamily::Access => ClusteringTask::KMeans { k: 16 },
            DatasetFamily::Road => ClusteringTask::Density { min_pts: 3 },
        }
    }

    /// Number of snapshots the paper uses for this family.
    pub fn default_snapshots(&self) -> usize {
        match self {
            DatasetFamily::Cora | DatasetFamily::Synthetic => 8,
            _ => 10,
        }
    }
}

/// Which clustering problem is being solved (§7.1 evaluates three).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusteringTask {
    /// DB-index clustering driven by hill-climbing.
    DbIndex,
    /// k-means clustering driven by hill-climbing with fixed `k`.
    KMeans {
        /// Number of clusters.
        k: usize,
    },
    /// Density-based clustering driven by DBSCAN.
    Density {
        /// Core-point neighbour threshold.
        min_pts: usize,
    },
}

impl ClusteringTask {
    /// The verification / search objective for this task.
    pub fn objective(&self) -> Arc<dyn ObjectiveFunction> {
        match self {
            ClusteringTask::DbIndex => Arc::new(DbIndexObjective),
            ClusteringTask::KMeans { .. } => Arc::new(KMeansObjective),
            ClusteringTask::Density { min_pts } => Arc::new(DensityObjective::new(*min_pts)),
        }
    }

    /// The batch algorithm for this task.
    pub fn batch(&self) -> Box<dyn BatchClusterer> {
        match self {
            ClusteringTask::DbIndex => {
                Box::new(HillClimbing::with_objective(Arc::new(DbIndexObjective)))
            }
            ClusteringTask::KMeans { k } => Box::new(HillClimbing::new(
                Arc::new(KMeansObjective),
                HillClimbingConfig {
                    fixed_k: Some(*k),
                    ..HillClimbingConfig::default()
                },
            )),
            ClusteringTask::Density { min_pts } => {
                Box::new(Dbscan::new(DbscanConfig { min_pts: *min_pts }))
            }
        }
    }

    /// Task name for report rows.
    pub fn name(&self) -> &'static str {
        match self {
            ClusteringTask::DbIndex => "db-index",
            ClusteringTask::KMeans { .. } => "k-means",
            ClusteringTask::Density { .. } => "dbscan",
        }
    }
}

/// The dynamic methods compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// Closest-cluster assignment baseline.
    Naive,
    /// Gruenheid et al. incremental baseline.
    Greedy,
    /// DynamicC starting each round from the batch reference of the previous
    /// round (the paper's GreedySet scenario).
    DynamicCGreedySet,
    /// DynamicC starting each round from its own previous output (the
    /// paper's DynamicSet scenario — the realistic deployment).
    DynamicCDynamicSet,
}

impl MethodKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::Naive => "Naive",
            MethodKind::Greedy => "Greedy",
            MethodKind::DynamicCGreedySet => "DynamicC(GreedySet)",
            MethodKind::DynamicCDynamicSet => "DynamicC(DynamicSet)",
        }
    }
}

/// Scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Dataset family.
    pub family: DatasetFamily,
    /// Clustering task override (`None` ⇒ the family default).
    pub task: Option<ClusteringTask>,
    /// Relative dataset scale (1.0 = laptop-scale default).
    pub scale: f64,
    /// Number of snapshots (0 ⇒ the family default).
    pub snapshots: usize,
    /// How many leading snapshots are used to train DynamicC (it serves the
    /// remaining ones).
    pub train_rounds: usize,
    /// Workload seed.
    pub seed: u64,
}

impl ScenarioConfig {
    /// Default scenario for a family.
    pub fn for_family(family: DatasetFamily) -> Self {
        ScenarioConfig {
            family,
            task: None,
            scale: 1.0,
            snapshots: family.default_snapshots(),
            train_rounds: 3,
            seed: 0xBE9C,
        }
    }

    /// Shrink the scenario (used by the Criterion benches and smoke tests).
    pub fn scaled(mut self, scale: f64, snapshots: usize) -> Self {
        self.scale = scale;
        self.snapshots = snapshots;
        self.train_rounds = self.train_rounds.min(snapshots.saturating_sub(1)).max(1);
        self
    }
}

/// The timing/quality record of one served round.
#[derive(Debug, Clone)]
pub struct RoundResult {
    /// 1-based snapshot index.
    pub snapshot_index: usize,
    /// Number of live objects after the round.
    pub objects: usize,
    /// Wall-clock seconds the method needed for the round (for DynamicC this
    /// includes any retraining done in the round, as in the paper).
    pub seconds: f64,
    /// Objective score of the produced clustering.
    pub objective_score: f64,
    /// Quality against the batch reference clustering of the same round.
    pub vs_batch: QualityReport,
}

/// All rounds of one method on one scenario.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Method name.
    pub method: String,
    /// Per-round results for the *served* snapshots (after training rounds).
    pub rounds: Vec<RoundResult>,
}

impl RunSummary {
    /// Mean per-round latency in seconds.
    pub fn mean_seconds(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.seconds).sum::<f64>() / self.rounds.len() as f64
    }

    /// Mean pair-F1 against the batch reference.
    pub fn mean_f1(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.vs_batch.f1).sum::<f64>() / self.rounds.len() as f64
    }

    /// Final-round quality report (for Table 3).
    pub fn final_quality(&self) -> Option<&QualityReport> {
        self.rounds.last().map(|r| &r.vs_batch)
    }
}

/// A fully materialized experiment scenario: the dataset, the workload, the
/// batch reference clusterings for every snapshot, and the trained DynamicC
/// models.
pub struct Scenario {
    /// The configuration used to build the scenario.
    pub config: ScenarioConfig,
    /// The clustering task.
    pub task: ClusteringTask,
    /// The generated workload.
    pub workload: DynamicWorkload,
    objective: Arc<dyn ObjectiveFunction>,
    /// Batch reference clusterings: index 0 = initial data, index i = after
    /// snapshot i.
    batch_reference: Vec<Clustering>,
    /// Wall-clock seconds of the batch algorithm per snapshot (aligned with
    /// `batch_reference[1..]`).
    batch_seconds: Vec<f64>,
    /// Live-object counts after each snapshot.
    object_counts: Vec<usize>,
    /// DynamicC trained on the first `train_rounds` snapshots.
    trained: DynamicC,
}

impl Scenario {
    /// Build a scenario: generate the data and workload, run the batch
    /// algorithm for every snapshot (the reference), and train DynamicC on
    /// the first `train_rounds` snapshots.
    pub fn prepare(config: ScenarioConfig) -> Self {
        let task = config.task.unwrap_or_else(|| config.family.default_task());
        let objective = task.objective();
        let batch = task.batch();

        let full = config.family.generate(config.scale);
        let workload = DynamicWorkload::generate(
            &full,
            WorkloadConfig {
                snapshots: config.snapshots,
                seed: config.seed,
                ..WorkloadConfig::default()
            },
        );

        // Batch reference over every snapshot.
        let mut graph = SimilarityGraph::build(config.family.graph_config(), &workload.initial);
        let initial_clustering = batch.cluster(&graph).clustering;
        let mut batch_reference = vec![initial_clustering.clone()];
        let mut batch_seconds = Vec::new();
        let mut object_counts = Vec::new();

        // Train DynamicC while producing the reference for the training
        // prefix (train_on_workload runs the same batch algorithm).
        let mut trained = DynamicC::with_objective(objective.clone());
        let train_rounds = config.train_rounds.min(workload.snapshots.len());
        let (train_snaps, serve_snaps) = workload.snapshots.split_at(train_rounds);
        let report = train_on_workload(
            &mut trained,
            &mut graph,
            &initial_clustering,
            train_snaps,
            batch.as_ref(),
        );
        for round in &report.rounds {
            batch_reference.push(round.batch_clustering.clone());
            batch_seconds.push(round.batch_seconds);
            object_counts.push(round.batch_clustering.object_count());
        }

        // Continue the batch reference over the served snapshots.
        let mut previous = batch_reference
            .last()
            .expect("at least the initial")
            .clone();
        for snapshot in serve_snaps {
            graph.apply_batch(&snapshot.batch);
            let span = dc_telemetry::registry().span("bench.scenario.batch_recluster");
            let outcome = batch.recluster(&graph, &previous);
            batch_seconds.push(span.finish_ns() as f64 / 1e9);
            object_counts.push(outcome.clustering.object_count());
            batch_reference.push(outcome.clustering.clone());
            previous = outcome.clustering;
        }

        Scenario {
            config,
            task,
            workload,
            objective,
            batch_reference,
            batch_seconds,
            object_counts,
            trained,
        }
    }

    /// The objective used by this scenario.
    pub fn objective(&self) -> &Arc<dyn ObjectiveFunction> {
        &self.objective
    }

    /// The trained DynamicC instance (for the ML-evaluation experiments).
    pub fn trained_dynamicc(&self) -> &DynamicC {
        &self.trained
    }

    /// Batch reference clustering after snapshot `i` (1-based; 0 = initial).
    pub fn batch_clustering(&self, i: usize) -> &Clustering {
        &self.batch_reference[i]
    }

    /// Per-snapshot batch latency and object counts, as a [`RunSummary`]
    /// covering the served snapshots (so it lines up with the other methods).
    pub fn batch_summary(&self) -> RunSummary {
        let serve_start = self.config.train_rounds.min(self.workload.snapshots.len());
        let rounds = (serve_start..self.workload.snapshots.len())
            .map(|i| RoundResult {
                snapshot_index: i + 1,
                objects: self.object_counts[i],
                seconds: self.batch_seconds[i],
                objective_score: 0.0,
                vs_batch: QualityReport {
                    precision: 1.0,
                    recall: 1.0,
                    f1: 1.0,
                    purity: 1.0,
                    inverse_purity: 1.0,
                },
            })
            .collect();
        RunSummary {
            method: match self.task {
                ClusteringTask::Density { .. } => "DBSCAN".to_string(),
                _ => "Hill-climbing".to_string(),
            },
            rounds,
        }
    }

    /// Replay the served snapshots through one method and measure it.
    pub fn run_method(&self, method: MethodKind) -> RunSummary {
        let serve_start = self.config.train_rounds.min(self.workload.snapshots.len());

        // Rebuild the graph state as of the end of the training prefix.
        let mut graph =
            SimilarityGraph::build(self.config.family.graph_config(), &self.workload.initial);
        for snapshot in &self.workload.snapshots[..serve_start] {
            graph.apply_batch(&snapshot.batch);
        }

        let mut method_impl: Box<dyn IncrementalClusterer> = match method {
            MethodKind::Naive => Box::new(Naive::new(NaiveConfig {
                join_threshold: 0.4,
            })),
            MethodKind::Greedy => Box::new(Greedy::with_objective(self.objective.clone())),
            MethodKind::DynamicCGreedySet | MethodKind::DynamicCDynamicSet => {
                // Serve with a fresh DynamicC that shares the trained models'
                // configuration and buffers by re-training a clone of the
                // buffers: the cheapest faithful way is to rebuild from the
                // same observations, which `Scenario::prepare` already did —
                // so here we simply reuse the trained instance's snapshot by
                // re-running its training quickly.
                Box::new(self.fresh_trained_dynamicc())
            }
        };

        let mut own_previous = self.batch_reference[serve_start].clone();
        let mut rounds = Vec::new();
        for (offset, snapshot) in self.workload.snapshots[serve_start..].iter().enumerate() {
            let round_index = serve_start + offset;
            let previous = match method {
                MethodKind::DynamicCDynamicSet => own_previous.clone(),
                // Naive and Greedy, like DynamicC(GreedySet), start from the
                // reference clustering of the previous round.
                _ => self.batch_reference[round_index].clone(),
            };
            graph.apply_batch(&snapshot.batch);
            let span = dc_telemetry::registry().span("bench.scenario.method_recluster");
            let produced = method_impl.recluster(&graph, &previous, &snapshot.batch);
            let seconds = span.finish_ns() as f64 / 1e9;
            let reference = &self.batch_reference[round_index + 1];
            rounds.push(RoundResult {
                snapshot_index: snapshot.index,
                objects: produced.object_count(),
                seconds,
                objective_score: self.objective.evaluate(&graph, &produced),
                vs_batch: quality_report(&produced, reference),
            });
            own_previous = produced;
        }
        RunSummary {
            method: method.name().to_string(),
            rounds,
        }
    }

    /// Objective score of the batch reference for each served round (used by
    /// the quality figures, which plot all methods plus the batch).
    pub fn batch_objective_scores(&self) -> Vec<f64> {
        let serve_start = self.config.train_rounds.min(self.workload.snapshots.len());
        let mut graph =
            SimilarityGraph::build(self.config.family.graph_config(), &self.workload.initial);
        for snapshot in &self.workload.snapshots[..serve_start] {
            graph.apply_batch(&snapshot.batch);
        }
        let mut scores = Vec::new();
        for (offset, snapshot) in self.workload.snapshots[serve_start..].iter().enumerate() {
            graph.apply_batch(&snapshot.batch);
            let reference = &self.batch_reference[serve_start + offset + 1];
            scores.push(self.objective.evaluate(&graph, reference));
        }
        scores
    }

    /// Rebuild a trained DynamicC equivalent to the one produced during
    /// `prepare` (same observations, same configuration).  DynamicC is
    /// deliberately not `Clone` (it owns boxed models), so serving runs and
    /// benches re-derive it from the recorded batch reference, which is
    /// cheap relative to a batch round.
    pub fn fresh_trained_dynamicc(&self) -> DynamicC {
        let mut fresh = DynamicC::with_objective(self.objective.clone());
        let train_rounds = self.config.train_rounds.min(self.workload.snapshots.len());
        let mut graph =
            SimilarityGraph::build(self.config.family.graph_config(), &self.workload.initial);
        for (i, snapshot) in self.workload.snapshots[..train_rounds].iter().enumerate() {
            graph.apply_batch(&snapshot.batch);
            fresh.observe_round(
                &graph,
                &self.batch_reference[i],
                &snapshot.batch,
                &self.batch_reference[i + 1],
            );
        }
        fresh.retrain();
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tiny end-to-end scenario exercising every method; this doubles as
    /// the smoke test for the experiment harness.
    #[test]
    fn tiny_synthetic_scenario_runs_every_method() {
        let mut config = ScenarioConfig::for_family(DatasetFamily::Synthetic).scaled(0.12, 4);
        config.train_rounds = 2;
        let served_rounds = config.snapshots - config.train_rounds;
        let scenario = Scenario::prepare(config);
        assert_eq!(scenario.workload.snapshots.len(), 4);
        assert!(scenario.trained_dynamicc().is_trained());

        let batch = scenario.batch_summary();
        assert_eq!(batch.rounds.len(), served_rounds);

        for method in [
            MethodKind::Naive,
            MethodKind::Greedy,
            MethodKind::DynamicCGreedySet,
            MethodKind::DynamicCDynamicSet,
        ] {
            let summary = scenario.run_method(method);
            assert_eq!(summary.rounds.len(), served_rounds, "{}", method.name());
            assert!(summary.mean_seconds() >= 0.0);
            let f1 = summary.mean_f1();
            assert!((0.0..=1.0).contains(&f1), "{} f1={f1}", method.name());
            if matches!(
                method,
                MethodKind::Greedy | MethodKind::DynamicCGreedySet | MethodKind::DynamicCDynamicSet
            ) {
                assert!(f1 > 0.6, "{} f1 too low: {f1}", method.name());
            }
        }
        assert_eq!(scenario.batch_objective_scores().len(), served_rounds);
    }

    #[test]
    fn family_metadata_is_consistent() {
        for family in DatasetFamily::all() {
            assert!(!family.name().is_empty());
            assert!(family.default_snapshots() >= 8);
            let task = family.default_task();
            assert!(!task.name().is_empty());
            let _ = task.objective();
        }
        assert_eq!(MethodKind::DynamicCGreedySet.name(), "DynamicC(GreedySet)");
    }
}
