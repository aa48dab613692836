//! The DynamicC system and its full algorithm (Algorithm 3, §6.4).

use crate::config::{DynamicCConfig, DynamicCStats};
use crate::dirty::PassScope;
use crate::merge::merge_pass;
use crate::models::ModelPair;
use crate::split::split_pass;
use dc_baselines::{prepare_working_clustering, IncrementalClusterer};
use dc_evolution::{derive_transformation, NegativeSampler, RoundExamples};
use dc_ml::ConfusionMatrix;
use dc_objective::{DecisionLocality, ObjectiveFunction};
use dc_similarity::{ClusterAggregates, SimilarityGraph};
use dc_types::{Clustering, OperationBatch};
use std::sync::Arc;

/// The span names of a served round's merge and split passes (and of the
/// stateless [`IncrementalClusterer::recluster`]'s).
pub(crate) const ENGINE_PASSES: [&str; 2] = ["engine.merge_pass", "engine.split_pass"];

/// The DynamicC dynamic clustering system.
///
/// A `DynamicC` instance owns the merge/split model pair, the negative
/// sampler, and the bounded training buffers.  It is trained by observing
/// rounds of an underlying batch algorithm
/// ([`DynamicC::observe_round`] / [`crate::trainer::train_on_workload`]) and
/// then serves re-clustering requests through
/// [`IncrementalClusterer::recluster`].
#[derive(Clone)]
pub struct DynamicC {
    objective: Arc<dyn ObjectiveFunction>,
    config: DynamicCConfig,
    models: ModelPair,
    sampler: NegativeSampler,
    stats: DynamicCStats,
}

impl DynamicC {
    /// Create an untrained DynamicC for the given objective.
    pub fn new(objective: Arc<dyn ObjectiveFunction>, config: DynamicCConfig) -> Self {
        DynamicC {
            models: ModelPair::new(config.model_kind, config.buffer_capacity),
            sampler: NegativeSampler::new(config.sampler),
            objective,
            config,
            stats: DynamicCStats::default(),
        }
    }

    /// Create a DynamicC with the default configuration.
    pub fn with_objective(objective: Arc<dyn ObjectiveFunction>) -> Self {
        Self::new(objective, DynamicCConfig::default())
    }

    /// The objective used for verification.
    pub fn objective(&self) -> &Arc<dyn ObjectiveFunction> {
        &self.objective
    }

    /// The configuration in use.
    pub fn config(&self) -> &DynamicCConfig {
        &self.config
    }

    /// Runtime statistics accumulated so far.
    pub fn stats(&self) -> &DynamicCStats {
        &self.stats
    }

    /// Overwrite the cumulative statistics.  Crash recovery uses this: the
    /// durable engine restores the counters recorded in the snapshot before
    /// replaying the WAL tail, so a recovered engine's statistics match a
    /// never-restarted one's exactly.
    pub fn restore_stats(&mut self, stats: DynamicCStats) {
        self.stats = stats;
    }

    /// The model pair (exposed for the ML-evaluation experiments of §7.3).
    pub fn models(&self) -> &ModelPair {
        &self.models
    }

    /// Whether the models have been fitted at least once.
    pub fn is_trained(&self) -> bool {
        self.models.is_trained()
    }

    // ------------------------------------------------------------------
    // Training
    // ------------------------------------------------------------------

    /// Observe one round of the underlying batch algorithm: the graph after
    /// this round's operations, the clustering before the round, the batch
    /// of operations, and the batch algorithm's new clustering.  The round's
    /// evolution is converted into training examples and absorbed into the
    /// buffers; the models are refitted automatically every
    /// `retrain_every_rounds` observations.
    pub fn observe_round(
        &mut self,
        graph: &SimilarityGraph,
        previous: &Clustering,
        batch: &OperationBatch,
        batch_result: &Clustering,
    ) {
        let (working, _isolated) = prepare_working_clustering(graph, previous, batch);
        let touched = batch.touched_ids();
        let trace = derive_transformation(previous, batch_result, &touched);
        let round = RoundExamples::extract(graph, &working, &trace);
        self.models.absorb_round(&round, &mut self.sampler);
        self.stats.observed_rounds += 1;
        if self.config.retrain_every_rounds > 0
            && self
                .stats
                .observed_rounds
                .is_multiple_of(self.config.retrain_every_rounds)
        {
            self.retrain();
        }
    }

    /// Refit both models on the buffered examples and refresh the
    /// recall-first thresholds.
    pub fn retrain(&mut self) -> bool {
        let fitted = self.models.retrain();
        if fitted {
            self.stats.retrain_count += 1;
        }
        fitted
    }

    // ------------------------------------------------------------------
    // Evaluation helpers (§7.3)
    // ------------------------------------------------------------------

    /// Evaluate the *merge* model's predictions on one held-out round: the
    /// actual labels come from the observed evolution between `previous` and
    /// `batch_result`, the predictions from the current model at its
    /// threshold.  Returns the confusion matrix of Figure 3.
    pub fn merge_confusion_on_round(
        &self,
        graph: &SimilarityGraph,
        previous: &Clustering,
        batch: &OperationBatch,
        batch_result: &Clustering,
    ) -> ConfusionMatrix {
        let (working, _) = prepare_working_clustering(graph, previous, batch);
        let touched = batch.touched_ids();
        let trace = derive_transformation(previous, batch_result, &touched);
        let round = RoundExamples::extract(graph, &working, &trace);

        let mut predicted = Vec::new();
        let mut actual = Vec::new();
        for f in &round.merge_positives {
            predicted.push(self.models.predicts_merge(f, self.config.theta_scale));
            actual.push(true);
        }
        for f in round
            .merge_negatives_active
            .iter()
            .chain(&round.merge_negatives_inactive)
        {
            predicted.push(self.models.predicts_merge(f, self.config.theta_scale));
            actual.push(false);
        }
        ConfusionMatrix::from_predictions(&predicted, &actual)
    }

    // ------------------------------------------------------------------
    // Serving (Algorithm 3)
    // ------------------------------------------------------------------

    /// Algorithm 3 (§6.4): alternate the merge and split passes until a
    /// fixed point or `max_passes`, and return whether the fixed point was
    /// reached.  The passes read all candidate state from `agg` (which must
    /// describe `(graph, working)`) and fold every applied change back into
    /// it, so the loop performs **no** full aggregate builds.  Each pass is
    /// timed under its span in `spans`.  With a `scope` the passes are the
    /// scoped ones of [`Engine`](crate::Engine) rounds, threading the running
    /// score of a [`DecisionLocality::GlobalMean`] objective; without one
    /// they re-verify every cluster.
    pub(crate) fn run_passes(
        &mut self,
        graph: &SimilarityGraph,
        working: &mut Clustering,
        agg: &mut ClusterAggregates,
        mut scope: Option<&mut PassScope>,
        [merge_span, split_span]: [&'static str; 2],
    ) -> bool {
        let reg = dc_telemetry::registry();
        let objective = self.objective.as_ref();
        let track_score =
            scope.is_some() && objective.decision_locality() == DecisionLocality::GlobalMean;
        for _ in 0..self.config.max_passes {
            // Re-reading the score from the aggregates at every iteration
            // keeps the in-pass `score += delta` tracking from accumulating
            // rounding drift across iterations.
            let mut score = track_score.then(|| objective.evaluate_with(agg, graph, working));
            let span = reg.span(merge_span);
            let merged = merge_pass(
                graph,
                working,
                agg,
                objective,
                &self.models,
                self.config.theta_scale,
                &mut self.stats,
                scope.as_deref_mut(),
                score.as_mut(),
            );
            span.finish();
            let span = reg.span(split_span);
            let split = split_pass(
                graph,
                working,
                agg,
                objective,
                &self.models,
                self.config.theta_scale,
                &mut self.stats,
                scope.as_deref_mut(),
                score.as_mut(),
            );
            span.finish();
            if !merged && !split {
                return true;
            }
        }
        false
    }

    /// Convenience wrapper: cluster a graph from scratch (every object starts
    /// as a singleton and Algorithm 3 runs once).  Mainly used by examples
    /// and tests; the paper's deployment always starts from the previous
    /// clustering via [`IncrementalClusterer::recluster`].
    pub fn cluster_from_scratch(&mut self, graph: &SimilarityGraph) -> Clustering {
        let mut working = Clustering::singletons(graph.object_ids());
        let mut agg = ClusterAggregates::new(graph, &working);
        self.run_passes(graph, &mut working, &mut agg, None, ENGINE_PASSES);
        working
    }

    /// The objective score of a clustering under this instance's objective
    /// (exposed for reporting).
    pub fn score(&self, graph: &SimilarityGraph, clustering: &Clustering) -> f64 {
        self.objective.evaluate(graph, clustering)
    }

    /// Average intra-cluster similarity of the whole clustering — a cheap
    /// cohesion summary used by the examples.
    pub fn mean_cohesion(&self, graph: &SimilarityGraph, clustering: &Clustering) -> f64 {
        if clustering.cluster_count() == 0 {
            return 0.0;
        }
        let agg = ClusterAggregates::new(graph, clustering);
        let sum: f64 = clustering
            .cluster_ids()
            .into_iter()
            .map(|cid| agg.intra_avg(cid))
            .sum();
        sum / clustering.cluster_count() as f64
    }
}

impl IncrementalClusterer for DynamicC {
    fn name(&self) -> &'static str {
        "dynamicc"
    }

    fn recluster(
        &mut self,
        graph: &SimilarityGraph,
        previous: &Clustering,
        batch: &OperationBatch,
    ) -> Clustering {
        // §6.1 initial processing.
        let (mut working, _isolated) = prepare_working_clustering(graph, previous, batch);
        // The round's single full aggregate build; everything after this is
        // maintained incrementally.  (The `Engine` round loop avoids even
        // this build by carrying the aggregates across rounds.)
        let mut agg = ClusterAggregates::new(graph, &working);
        // §6.4 full algorithm: alternate merge and split passes to a fixed
        // point, each proposal verified against the objective.
        self.run_passes(graph, &mut working, &mut agg, None, ENGINE_PASSES);
        working
    }
}

impl std::fmt::Debug for DynamicC {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicC")
            .field("objective", &self.objective.name())
            .field("models", &self.models)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_objective::CorrelationObjective;
    use dc_similarity::fixtures::graph_from_edges;
    use dc_types::{ObjectId, Operation, RecordBuilder};

    fn oid(raw: u64) -> ObjectId {
        ObjectId::new(raw)
    }

    fn add(id: u64) -> Operation {
        Operation::Add {
            id: oid(id),
            record: RecordBuilder::new().number("id", id as f64).build(),
        }
    }

    /// Train DynamicC on a couple of synthetic rounds over a small duplicate
    /// graph, then serve a new round.
    #[test]
    fn end_to_end_train_then_serve_on_a_toy_entity_graph() {
        let objective = Arc::new(CorrelationObjective);
        let mut dynamicc = DynamicC::with_objective(objective.clone());

        // Round 1 (observed): objects 1..4; {1,2} and {3,4} are duplicates.
        let graph_r1 = graph_from_edges(4, &[(1, 2, 0.9), (3, 4, 0.9)]);
        let previous = Clustering::singletons([oid(1), oid(3)]);
        let mut batch1 = OperationBatch::new();
        batch1.push(add(2));
        batch1.push(add(4));
        let batch_result =
            Clustering::from_groups([vec![oid(1), oid(2)], vec![oid(3), oid(4)]]).unwrap();
        dynamicc.observe_round(&graph_r1, &previous, &batch1, &batch_result);
        assert!(dynamicc.is_trained());
        assert_eq!(dynamicc.stats().observed_rounds, 1);

        // Round 2 (served): objects 5, 6 arrive, each duplicating an entity.
        let graph_r2 = graph_from_edges(
            6,
            &[
                (1, 2, 0.9),
                (3, 4, 0.9),
                (5, 1, 0.85),
                (5, 2, 0.85),
                (6, 3, 0.8),
                (6, 4, 0.8),
            ],
        );
        let mut batch2 = OperationBatch::new();
        batch2.push(add(5));
        batch2.push(add(6));
        let result = dynamicc.recluster(&graph_r2, &batch_result, &batch2);
        result.check_invariants().unwrap();
        assert_eq!(result.cluster_of(oid(5)), result.cluster_of(oid(1)));
        assert_eq!(result.cluster_of(oid(6)), result.cluster_of(oid(3)));
        assert_ne!(result.cluster_of(oid(1)), result.cluster_of(oid(3)));
        assert!(dynamicc.stats().merges_applied >= 2);
        assert_eq!(dynamicc.name(), "dynamicc");
    }

    #[test]
    fn verification_prevents_quality_regressions_even_untrained() {
        // Untrained models flag everything; the objective check must still
        // keep the clustering at least as good as doing nothing.
        let objective = Arc::new(CorrelationObjective);
        let mut dynamicc = DynamicC::with_objective(objective.clone());
        let graph = graph_from_edges(4, &[(1, 2, 0.9), (3, 4, 0.2)]);
        let previous = Clustering::singletons([oid(1), oid(2), oid(3), oid(4)]);
        let result = dynamicc.recluster(&graph, &previous, &OperationBatch::new());
        let before = objective.evaluate(&graph, &previous);
        let after = objective.evaluate(&graph, &result);
        assert!(after <= before + 1e-9);
        // The strong pair merged, the weak pair did not.
        assert_eq!(result.cluster_of(oid(1)), result.cluster_of(oid(2)));
        assert_ne!(result.cluster_of(oid(3)), result.cluster_of(oid(4)));
    }

    #[test]
    fn cluster_from_scratch_matches_recluster_from_singletons() {
        let objective = Arc::new(CorrelationObjective);
        let mut a = DynamicC::with_objective(objective.clone());
        let mut b = DynamicC::with_objective(objective);
        let graph = graph_from_edges(5, &[(1, 2, 0.9), (2, 3, 0.9), (4, 5, 0.8)]);
        let scratch = a.cluster_from_scratch(&graph);
        let singles = Clustering::singletons(graph.object_ids());
        let served = b.recluster(&graph, &singles, &OperationBatch::new());
        assert!(scratch.delta(&served).is_unchanged());
    }

    #[test]
    fn merge_confusion_on_round_counts_labels() {
        let objective = Arc::new(CorrelationObjective);
        let mut dynamicc = DynamicC::with_objective(objective);
        let graph = graph_from_edges(4, &[(1, 2, 0.9), (3, 4, 0.9)]);
        let previous = Clustering::singletons([oid(1), oid(3)]);
        let mut batch = OperationBatch::new();
        batch.push(add(2));
        batch.push(add(4));
        let batch_result =
            Clustering::from_groups([vec![oid(1), oid(2)], vec![oid(3), oid(4)]]).unwrap();
        dynamicc.observe_round(&graph, &previous, &batch, &batch_result);
        let m = dynamicc.merge_confusion_on_round(&graph, &previous, &batch, &batch_result);
        // Every cluster of the working clustering is accounted for.
        assert_eq!(m.total(), 4);
        // A trained model with the recall-first threshold must catch the
        // positives of the round it was trained on.
        assert_eq!(m.false_negatives, 0);
    }

    #[test]
    fn stats_and_debug_are_exposed() {
        let dynamicc = DynamicC::with_objective(Arc::new(CorrelationObjective));
        assert_eq!(dynamicc.stats().observed_rounds, 0);
        assert_eq!(dynamicc.config().theta_scale, 1.0);
        assert!(!dynamicc.is_trained());
        let s = format!("{dynamicc:?}");
        assert!(s.contains("correlation"));
        let graph = graph_from_edges(2, &[(1, 2, 0.9)]);
        let c = Clustering::from_groups([vec![oid(1), oid(2)]]).unwrap();
        assert!(dynamicc.mean_cohesion(&graph, &c) > 0.8);
        assert!(dynamicc.score(&graph, &c) < 1.0);
    }
}
