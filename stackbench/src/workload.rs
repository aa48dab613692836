//! The three workloads: what each generates from the seed, how the trained
//! starting state is built, and the digest that proves two builds received
//! the same input.
//!
//! Everything here runs before any timed window except [`train`], whose
//! phases are the `setup.*` metrics.

use dc_batch::{BatchClusterer, HillClimbing};
use dc_core::{train_on_workload, DynamicC};
use dc_datagen::{AccessLikeGenerator, DynamicWorkload, FebrlLikeGenerator, WorkloadConfig};
use dc_objective::{CorrelationObjective, DbIndexObjective, ObjectiveFunction};
use dc_similarity::{GraphConfig, SimilarityGraph};
use dc_types::{BinCodec, Clustering, Dataset, Operation, OperationBatch, Snapshot};
use std::sync::Arc;
use std::time::Instant;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Febrl-like record linkage, the whole stream submitted at once into
    /// fixed 64-op rounds: capacity.
    LinkageBurst,
    /// Access-like vectors, one closed-loop client of 4-op flushed requests:
    /// per-round fixed costs.
    AccessRequests,
    /// The same Access-like stream, open loop at a fixed offered rate
    /// through the default adaptive batcher: admission and group commit.
    AccessStream,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::LinkageBurst, Kind::AccessRequests, Kind::AccessStream];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LinkageBurst => "linkage-burst",
            Kind::AccessRequests => "access-requests",
            Kind::AccessStream => "access-stream",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload's round boundaries are fixed by the client, so
    /// counts, F1 and bytes repeat exactly at one seed.
    pub fn deterministic(self) -> bool {
        !matches!(self, Kind::AccessStream)
    }

    fn is_linkage(self) -> bool {
        matches!(self, Kind::LinkageBurst)
    }

    /// The similarity configuration the engine serves under.
    pub fn graph_config(self) -> GraphConfig {
        if self.is_linkage() {
            // Exact token blocking: no stop-word cutoff, so shard size never
            // changes which pairs are compared.
            GraphConfig::new(
                Box::new(dc_similarity::measures::CompositeMeasure::febrl_default()),
                Box::new(dc_similarity::TokenBlocking::new(0)),
                0.6,
            )
        } else {
            // Scale matched to the generator's component spread (0.6) and
            // separation (8.0).
            GraphConfig::numeric_euclidean(4.0, 4.0, 3, 0.3)
        }
    }

    /// The clustering objective DynamicC verifies against.
    pub fn objective(self) -> Arc<dyn ObjectiveFunction> {
        if self.is_linkage() {
            Arc::new(DbIndexObjective)
        } else {
            Arc::new(CorrelationObjective)
        }
    }
}

/// Input size: the benchmark runs at `Full`; the self-test at `Tiny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark's metrics are defined at.
    Full,
    /// A few hundred operations, for the self-test.
    Tiny,
}

/// Snapshots observed by the trainer before serving starts.
pub const TRAIN_SNAPSHOTS: usize = 2;

/// Everything a run needs, generated from the seed before any timing.
pub struct Inputs {
    /// Objects live before the first training snapshot.
    pub initial: Dataset,
    /// Snapshots the trainer observes (the batch algorithm answers them).
    pub train: Vec<Snapshot>,
    /// The served operation stream, in submission order.
    pub stream: Vec<Operation>,
    /// FNV-1a digest of the initial dataset, training snapshots and stream.
    pub digest: u64,
}

/// Generate the workload's inputs from `seed`.
pub fn generate(kind: Kind, scale: Scale, seed: u64) -> Inputs {
    let tiny = scale == Scale::Tiny;
    let (dataset, config) = if kind.is_linkage() {
        let dataset = FebrlLikeGenerator {
            originals: if tiny { 60 } else { 300 },
            duplicates_per_original: 1.8,
            seed,
            ..FebrlLikeGenerator::default()
        }
        .generate();
        let config = WorkloadConfig {
            initial_fraction: 0.35,
            snapshots: 6,
            seed: seed ^ 0x51AD,
            ..WorkloadConfig::default()
        };
        (dataset, config)
    } else {
        let dataset = AccessLikeGenerator {
            clusters: if tiny { 12 } else { 60 },
            points_per_cluster: 30,
            seed,
            ..AccessLikeGenerator::default()
        }
        .generate();
        // Steady-state churn: as many adds as removes, so the live set (and
        // with it the per-round cost) stays stationary while adds last.
        let config = WorkloadConfig {
            initial_fraction: 0.6,
            snapshots: if tiny { 4 } else { 14 },
            add_fraction: 0.05,
            remove_fraction: 0.05,
            update_fraction: 0.2,
            seed: seed ^ 0xACCE,
            ..WorkloadConfig::default()
        };
        (dataset, config)
    };
    let workload = DynamicWorkload::generate(&dataset, config);
    let split = TRAIN_SNAPSHOTS.min(workload.snapshots.len());
    let train = workload.snapshots[..split].to_vec();
    let stream: Vec<Operation> = workload.snapshots[split..]
        .iter()
        .flat_map(|s| s.batch.iter().cloned())
        .collect();
    let mut digest = Fnv::new();
    for (id, record) in workload.initial.iter() {
        digest.bytes(&id.encode_to_vec());
        digest.bytes(&record.encode_to_vec());
    }
    for snapshot in &train {
        digest.bytes(&snapshot.encode_to_vec());
    }
    for op in &stream {
        digest.bytes(&op.encode_to_vec());
    }
    Inputs {
        initial: workload.initial,
        train,
        stream,
        digest: digest.finish(),
    }
}

/// Cut `ops` into consecutive batches of `size` (the last may be smaller).
pub fn chunked(ops: &[Operation], size: usize) -> Vec<OperationBatch> {
    ops.chunks(size.max(1))
        .map(|chunk| {
            let mut batch = OperationBatch::new();
            for op in chunk {
                batch.push(op.clone());
            }
            batch
        })
        .collect()
}

/// The dataset the engine should hold after the training snapshots and
/// `served` were applied to the initial objects.
pub fn expected_dataset(inputs: &Inputs, served: &[Operation]) -> Dataset {
    let mut dataset = inputs.initial.clone();
    for snapshot in &inputs.train {
        for op in snapshot.batch.iter() {
            let _ = dataset.apply(op);
        }
    }
    for op in served {
        let _ = dataset.apply(op);
    }
    dataset
}

/// The state serving starts from: the batch algorithm's clustering after
/// the training snapshots, and a DynamicC trained by observing it.
#[derive(Clone)]
pub struct Trained {
    /// The similarity graph over the live objects.
    pub graph: SimilarityGraph,
    /// The batch algorithm's clustering of that graph.
    pub clustering: Clustering,
    /// The trained merge/split models.
    pub dynamicc: DynamicC,
}

/// Wall time of each setup phase, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Building the similarity graph over the initial objects.
    pub graph_build_s: f64,
    /// The batch algorithm's initial clustering.
    pub batch_cluster_s: f64,
    /// Observing the training snapshots and fitting the models.
    pub train_s: f64,
}

/// Build the trained starting state (the `dc-core/trainer` + `dc-batch`
/// setup layer).
pub fn train(kind: Kind, inputs: &Inputs) -> (Trained, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let mut graph = SimilarityGraph::build(kind.graph_config(), &inputs.initial);
    times.graph_build_s = t.elapsed().as_secs_f64();
    let objective = kind.objective();
    let batch = HillClimbing::with_objective(objective.clone());
    let t = Instant::now();
    let initial = batch.cluster(&graph).clustering;
    times.batch_cluster_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut dynamicc = DynamicC::with_objective(objective);
    let report = train_on_workload(&mut dynamicc, &mut graph, &initial, &inputs.train, &batch);
    let clustering = report.final_clustering(&initial);
    times.train_s = t.elapsed().as_secs_f64();
    (
        Trained {
            graph,
            clustering,
            dynamicc,
        },
        times,
    )
}

/// 64-bit FNV-1a, the digest of the generated input.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
