//! Experiment driver: regenerates every table and figure of the DynamicC
//! paper's evaluation section on the synthetic dataset stand-ins.
//!
//! ```text
//! experiments <subcommand> [--scale <f64>] [--snapshots <n>]
//!
//!   fig3     merge-model confusion heat map (Figure 3)
//!   fig5a    per-snapshot operation mix for every dataset (Figure 5(a))
//!   fig5b    DBSCAN vs DynamicC re-clustering latency on Access (Figure 5(b))
//!   fig5c    DBSCAN vs DynamicC re-clustering latency on Road (Figure 5(c))
//!   fig5d    sqrt objective score for k-means on Road, all methods (Figure 5(d))
//!   fig5e    k-means re-clustering latency on Road (Figure 5(e))
//!   fig6     DB-index objective score on Cora/Music/Synthetic (Figure 6)
//!   fig7     DB-index re-clustering latency on Cora/Music/Synthetic (Figure 7)
//!   table2   pair-F1 per snapshot for DB-index clustering (Table 2)
//!   table3   precision/recall/purity/inverse purity at the final round (Table 3)
//!   table4   accuracy & recall of LR / SVM / DT vs #training samples (Table 4)
//!   table5   LR accuracy & recall vs training fraction (Table 5)
//!   summary  headline claims (latency saving vs Greedy, F1 gap vs batch)
//!   telemetry-smoke  serve the febrl fixture through the full durable
//!                  sharded stack with telemetry on and emit the example
//!                  metrics dump TELEMETRY_SMOKE.json (--out <path>
//!                  overrides the output file)
//!   lint     run the dc-lint workspace invariant gate against
//!                  LINT_BASELINE.json; exits non-zero on new findings
//!                  (see "Static analysis" in the README)
//!   all      every figure and table above plus summary (not
//!                  telemetry-smoke or lint)
//! ```
//!
//! Default scales are laptop-sized; `--scale` multiplies every dataset size
//! and `--snapshots` overrides the number of rounds.
//!
//! `--telemetry <path>` works on every subcommand: it turns recording on
//! for the run and writes the final registry snapshot (the same stable JSON
//! layout as `TELEMETRY_SMOKE.json`) to `<path>` on exit.

use dc_bench::{DatasetFamily, MethodKind, Scenario, ScenarioConfig};
use dc_datagen::{DynamicWorkload, WorkloadConfig};
use dc_ml::{evaluate_at_threshold, recall_first_threshold, train_test_split, ModelKind};
use dc_types::OperationKind;

#[derive(Clone, Copy)]
struct Options {
    scale: f64,
    snapshots: Option<usize>,
}

fn parse_args() -> (String, Options, Option<String>, Option<String>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = "all".to_string();
    let mut out = None;
    let mut telemetry = None;
    let mut options = Options {
        scale: 1.0,
        snapshots: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                options.scale = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
                i += 1;
            }
            "--snapshots" => {
                options.snapshots = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 1;
            }
            "--out" => {
                out = args.get(i + 1).cloned();
                i += 1;
            }
            "--telemetry" => {
                telemetry = args.get(i + 1).cloned();
                i += 1;
            }
            other if !other.starts_with("--") => command = other.to_string(),
            _ => {}
        }
        i += 1;
    }
    (command, options, out, telemetry)
}

// ---------------------------------------------------------------------------
// TELEMETRY_SMOKE.json
// ---------------------------------------------------------------------------
fn telemetry_smoke(out: Option<String>) {
    header("TELEMETRY: smoke run (train -> sharded durable serve -> crash -> recover)");
    let result = dc_bench::run_telemetry_smoke();
    println!(
        "served {} rounds / {} operations through {} shards; phase coverage {:.1}%",
        result.rounds,
        result.operations,
        dc_bench::telemetry::SMOKE_SHARDS,
        result.phase_coverage * 100.0,
    );
    println!(
        "captured {} counters, {} gauges, {} histograms",
        result.snapshot.counters.len(),
        result.snapshot.gauges.len(),
        result.snapshot.histograms.len(),
    );
    let path = out.unwrap_or_else(|| "TELEMETRY_SMOKE.json".to_string());
    std::fs::write(&path, result.to_json()).expect("write telemetry smoke output");
    println!("wrote {path}");
}

fn config_for(family: DatasetFamily, options: Options) -> ScenarioConfig {
    let mut config = ScenarioConfig::for_family(family);
    config.scale *= options.scale;
    if let Some(snapshots) = options.snapshots {
        config = config.scaled(config.scale, snapshots);
    }
    config
}

fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

// ---------------------------------------------------------------------------
// Figure 3: merge-model confusion heat map
// ---------------------------------------------------------------------------
fn fig3(options: Options) {
    header("Figure 3: heatmap of merge-model prediction performance (Cora-like)");
    let config = config_for(DatasetFamily::Cora, options);
    let scenario = Scenario::prepare(config);
    // Evaluate the trained model on the last served round (held out from the
    // perspective of where the model's training data mostly came from).
    let serve_start = config.train_rounds;
    let snapshots = &scenario.workload.snapshots;
    if snapshots.len() <= serve_start {
        println!("not enough snapshots to evaluate");
        return;
    }
    // Rebuild the graph as of the end of the previous round.
    let mut graph = dc_similarity::SimilarityGraph::build(
        config.family.graph_config(),
        &scenario.workload.initial,
    );
    for snapshot in &snapshots[..serve_start] {
        graph.apply_batch(&snapshot.batch);
    }
    let snapshot = &snapshots[serve_start];
    graph.apply_batch(&snapshot.batch);
    let confusion = scenario.trained_dynamicc().merge_confusion_on_round(
        &graph,
        scenario.batch_clustering(serve_start),
        &snapshot.batch,
        scenario.batch_clustering(serve_start + 1),
    );
    println!("{confusion}");
    println!(
        "accuracy={:.3}  precision={:.3}  recall={:.3}",
        confusion.accuracy(),
        confusion.precision(),
        confusion.recall()
    );
}

// ---------------------------------------------------------------------------
// Figure 5(a): workload composition
// ---------------------------------------------------------------------------
fn fig5a(options: Options) {
    header("Figure 5(a): operations per snapshot (percent of live objects)");
    for family in DatasetFamily::all() {
        let config = config_for(family, options);
        let full = family.generate(config.scale);
        let workload = DynamicWorkload::generate(
            &full,
            WorkloadConfig {
                snapshots: config.snapshots,
                seed: config.seed,
                ..WorkloadConfig::default()
            },
        );
        println!("-- {} ({} objects total)", family.name(), full.len());
        println!("snapshot   add%   remove%   update%");
        let mut live = workload.initial.len();
        for snapshot in &workload.snapshots {
            let stats = snapshot.stats();
            println!(
                "{:>8} {:>6.1} {:>9.1} {:>9.1}",
                snapshot.index,
                stats.percentage(OperationKind::Add, live),
                stats.percentage(OperationKind::Remove, live),
                stats.percentage(OperationKind::Update, live),
            );
            live = live + stats.adds - stats.removes;
        }
    }
}

// ---------------------------------------------------------------------------
// Figures 5(b)/5(c): DBSCAN vs DynamicC latency
// ---------------------------------------------------------------------------
fn fig5_density(family: DatasetFamily, label: &str, options: Options) {
    header(label);
    let mut config = config_for(family, options);
    // Both density figures use DBSCAN regardless of the family default.
    config.task = Some(dc_bench::scenario::ClusteringTask::Density { min_pts: 3 });
    let scenario = Scenario::prepare(config);
    let batch = scenario.batch_summary();
    let dynamicc = scenario.run_method(MethodKind::DynamicCDynamicSet);
    println!("objects   DBSCAN(ms)   DynamicC(ms)   DynamicC F1 vs DBSCAN");
    for (b, d) in batch.rounds.iter().zip(&dynamicc.rounds) {
        println!(
            "{:>7} {:>12.2} {:>14.2} {:>12.3}",
            b.objects,
            b.seconds * 1e3,
            d.seconds * 1e3,
            d.vs_batch.f1
        );
    }
    println!(
        "mean: DBSCAN {:.2} ms, DynamicC {:.2} ms, mean F1 {:.3}",
        batch.mean_seconds() * 1e3,
        dynamicc.mean_seconds() * 1e3,
        dynamicc.mean_f1()
    );
}

// ---------------------------------------------------------------------------
// Figures 5(d)/5(e): k-means on Road
// ---------------------------------------------------------------------------
fn fig5_kmeans(options: Options) {
    header("Figure 5(d): sqrt objective score for k-means clustering (Access-like numeric data)");
    let config = config_for(DatasetFamily::Access, options);
    let scenario = Scenario::prepare(config);
    let methods = [
        MethodKind::Naive,
        MethodKind::Greedy,
        MethodKind::DynamicCGreedySet,
        MethodKind::DynamicCDynamicSet,
    ];
    let batch_scores = scenario.batch_objective_scores();
    let mut summaries = Vec::new();
    for m in methods {
        summaries.push(scenario.run_method(m));
    }
    println!(
        "round   objects   Hill-climbing {}",
        methods.map(|m| m.name()).join(" ")
    );
    for (i, batch_score) in batch_scores.iter().enumerate() {
        let mut row = format!(
            "{:>5} {:>9} {:>14.2}",
            summaries[0].rounds[i].snapshot_index,
            summaries[0].rounds[i].objects,
            batch_score.sqrt()
        );
        for s in &summaries {
            row.push_str(&format!(" {:>12.2}", s.rounds[i].objective_score.sqrt()));
        }
        println!("{row}");
    }

    header("Figure 5(e): k-means re-clustering latency (ms)");
    let batch = scenario.batch_summary();
    println!("round   objects   Hill-climbing   Naive   Greedy   DynamicC");
    for i in 0..batch.rounds.len() {
        println!(
            "{:>5} {:>9} {:>14.2} {:>8.2} {:>8.2} {:>9.2}",
            batch.rounds[i].snapshot_index,
            batch.rounds[i].objects,
            batch.rounds[i].seconds * 1e3,
            summaries[0].rounds[i].seconds * 1e3,
            summaries[1].rounds[i].seconds * 1e3,
            summaries[3].rounds[i].seconds * 1e3,
        );
    }
}

// ---------------------------------------------------------------------------
// Figures 6 / 7 and Tables 2 / 3: DB-index clustering on the textual families
// ---------------------------------------------------------------------------
fn dbindex_families() -> [DatasetFamily; 3] {
    [
        DatasetFamily::Cora,
        DatasetFamily::Music,
        DatasetFamily::Synthetic,
    ]
}

fn fig6_fig7_tables(
    options: Options,
    show_fig6: bool,
    show_fig7: bool,
    show_t2: bool,
    show_t3: bool,
) {
    let methods = [
        MethodKind::Naive,
        MethodKind::Greedy,
        MethodKind::DynamicCGreedySet,
        MethodKind::DynamicCDynamicSet,
    ];
    for family in dbindex_families() {
        let config = config_for(family, options);
        let scenario = Scenario::prepare(config);
        let batch = scenario.batch_summary();
        let batch_scores = scenario.batch_objective_scores();
        let summaries: Vec<_> = methods.iter().map(|&m| scenario.run_method(m)).collect();

        if show_fig6 {
            header(&format!(
                "Figure 6: DB-index objective score on {} (lower is better)",
                family.name()
            ));
            println!(
                "round   objects   Hill-climbing   Naive    Greedy   DynC(GreedySet)   DynC(DynamicSet)"
            );
            for (i, batch_score) in batch_scores.iter().enumerate() {
                println!(
                    "{:>5} {:>9} {:>14.4} {:>8.4} {:>9.4} {:>17.4} {:>18.4}",
                    summaries[0].rounds[i].snapshot_index,
                    summaries[0].rounds[i].objects,
                    batch_score,
                    summaries[0].rounds[i].objective_score,
                    summaries[1].rounds[i].objective_score,
                    summaries[2].rounds[i].objective_score,
                    summaries[3].rounds[i].objective_score,
                );
            }
        }
        if show_fig7 {
            header(&format!(
                "Figure 7: re-clustering latency on {} (ms per round)",
                family.name()
            ));
            println!("round   objects   Hill-climbing   Naive    Greedy   DynamicC");
            for i in 0..batch.rounds.len() {
                println!(
                    "{:>5} {:>9} {:>14.2} {:>8.2} {:>9.2} {:>10.2}",
                    batch.rounds[i].snapshot_index,
                    batch.rounds[i].objects,
                    batch.rounds[i].seconds * 1e3,
                    summaries[0].rounds[i].seconds * 1e3,
                    summaries[1].rounds[i].seconds * 1e3,
                    summaries[3].rounds[i].seconds * 1e3,
                );
            }
        }
        if show_t2 {
            header(&format!(
                "Table 2: pair-F1 vs the batch result per snapshot on {}",
                family.name()
            ));
            println!(
                "method               {}",
                summaries[0]
                    .rounds
                    .iter()
                    .map(|r| format!("snap{:>2}", r.snapshot_index))
                    .collect::<Vec<_>>()
                    .join("  ")
            );
            for (name, idx) in [("Naive", 0usize), ("Greedy", 1), ("DynamicC", 3)] {
                let row: Vec<String> = summaries[idx]
                    .rounds
                    .iter()
                    .map(|r| format!("{:.3}", r.vs_batch.f1))
                    .collect();
                println!("{name:<20} {}", row.join("  "));
            }
        }
        if show_t3 {
            header(&format!(
                "Table 3: final-round quality vs the batch result on {}",
                family.name()
            ));
            println!("method               precision   recall   purity   inverse-purity");
            for (name, idx) in [("Naive", 0usize), ("Greedy", 1), ("DynamicC", 3)] {
                if let Some(q) = summaries[idx].final_quality() {
                    println!(
                        "{name:<20} {:>9.3} {:>8.3} {:>8.3} {:>16.3}",
                        q.precision, q.recall, q.purity, q.inverse_purity
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tables 4 / 5: ML model evaluation
// ---------------------------------------------------------------------------
fn table4(options: Options) {
    header("Table 4: accuracy and recall of different ML models vs #training samples (Cora-like)");
    let config = config_for(DatasetFamily::Cora, options);
    let scenario = Scenario::prepare(config);
    let (xs, ys) = scenario.trained_dynamicc().models().merge_training_data();
    if xs.len() < 10 {
        println!("not enough training data collected ({} samples)", xs.len());
        return;
    }
    let sizes = [
        xs.len() / 8,
        xs.len() / 4,
        xs.len() / 2,
        xs.len() * 3 / 4,
        xs.len(),
    ];
    println!("model                 samples   accuracy   recall");
    for kind in ModelKind::all() {
        for &n in &sizes {
            let n = n.max(4).min(xs.len());
            let (train_x, train_y, test_x, test_y) = train_test_split(&xs[..n], &ys[..n], 0.75, 11);
            let mut model = kind.build();
            model.fit(&train_x, &train_y);
            let theta = recall_first_threshold(model.as_ref(), &train_x, &train_y);
            let (ex, ey) = if test_x.is_empty() {
                (&train_x, &train_y)
            } else {
                (&test_x, &test_y)
            };
            let m = evaluate_at_threshold(model.as_ref(), ex, ey, theta);
            println!(
                "{:<21} {:>7} {:>10.2} {:>8.2}",
                kind.to_string(),
                n,
                m.accuracy(),
                m.recall()
            );
        }
    }
}

fn table5(options: Options) {
    header("Table 5: logistic regression accuracy and recall vs fraction of training samples");
    for family in dbindex_families() {
        let config = config_for(family, options);
        let scenario = Scenario::prepare(config);
        let (xs, ys) = scenario.trained_dynamicc().models().merge_training_data();
        if xs.len() < 10 {
            println!("{}: not enough training data", family.name());
            continue;
        }
        println!("-- {} ({} buffered samples)", family.name(), xs.len());
        println!("fraction   accuracy   recall");
        for fraction in [0.05, 0.1, 0.2, 0.4, 0.8] {
            let (train_x, train_y, test_x, test_y) = train_test_split(&xs, &ys, fraction, 5);
            let mut model = ModelKind::LogisticRegression.build();
            model.fit(&train_x, &train_y);
            let theta = if train_x.is_empty() {
                0.5
            } else {
                recall_first_threshold(model.as_ref(), &train_x, &train_y)
            };
            let m = evaluate_at_threshold(model.as_ref(), &test_x, &test_y, theta);
            println!(
                "{:>8.2} {:>10.2} {:>8.2}",
                fraction,
                m.accuracy(),
                m.recall()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Headline summary
// ---------------------------------------------------------------------------
fn summary(options: Options) {
    header("Headline claims (cf. abstract: ~85% faster than Greedy, within ~2% F1 of batch)");
    println!("dataset      method                mean ms/round   mean F1 vs batch");
    for family in dbindex_families() {
        let config = config_for(family, options);
        let scenario = Scenario::prepare(config);
        let greedy = scenario.run_method(MethodKind::Greedy);
        let dynamicc = scenario.run_method(MethodKind::DynamicCDynamicSet);
        let naive = scenario.run_method(MethodKind::Naive);
        for s in [&naive, &greedy, &dynamicc] {
            println!(
                "{:<12} {:<22} {:>12.2} {:>18.3}",
                family.name(),
                s.method,
                s.mean_seconds() * 1e3,
                s.mean_f1()
            );
        }
        let saving = if greedy.mean_seconds() > 0.0 {
            100.0 * (1.0 - dynamicc.mean_seconds() / greedy.mean_seconds())
        } else {
            0.0
        };
        println!(
            "{:<12} DynamicC saves {:.0}% of Greedy's per-round latency; F1 gap to batch = {:.1}%",
            family.name(),
            saving,
            100.0 * (1.0 - dynamicc.mean_f1())
        );
    }
}

/// Run the dc-lint workspace gate (`LINT_BASELINE.json` ratchet) and exit
/// non-zero on any finding that is not grandfathered.
fn lint() {
    let cwd = std::env::current_dir().expect("current directory");
    let Some(root) = dc_lint::discover_root(&cwd) else {
        eprintln!(
            "experiments lint: no workspace root found above {}",
            cwd.display()
        );
        std::process::exit(2);
    };
    match dc_lint::run_gate(&root) {
        Ok(report) => println!("{report}"),
        Err(report) => {
            eprintln!("{report}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let (command, options, out, telemetry) = parse_args();
    if telemetry.is_some() {
        dc_telemetry::TelemetryConfig::enabled().apply();
    }
    match command.as_str() {
        "telemetry-smoke" => telemetry_smoke(out),
        "lint" => lint(),
        "fig3" => fig3(options),
        "fig5a" => fig5a(options),
        "fig5b" => fig5_density(
            DatasetFamily::Access,
            "Figure 5(b): DBSCAN vs DynamicC latency on Access-like data",
            options,
        ),
        "fig5c" => fig5_density(
            DatasetFamily::Road,
            "Figure 5(c): DBSCAN vs DynamicC latency on Road-like data",
            options,
        ),
        "fig5d" | "fig5e" => fig5_kmeans(options),
        "fig6" => fig6_fig7_tables(options, true, false, false, false),
        "fig7" => fig6_fig7_tables(options, false, true, false, false),
        "table2" => fig6_fig7_tables(options, false, false, true, false),
        "table3" => fig6_fig7_tables(options, false, false, false, true),
        "table4" => table4(options),
        "table5" => table5(options),
        "summary" => summary(options),
        "all" => {
            fig5a(options);
            fig3(options);
            fig5_density(
                DatasetFamily::Access,
                "Figure 5(b): DBSCAN vs DynamicC latency on Access-like data",
                options,
            );
            fig5_density(
                DatasetFamily::Road,
                "Figure 5(c): DBSCAN vs DynamicC latency on Road-like data",
                options,
            );
            fig5_kmeans(options);
            fig6_fig7_tables(options, true, true, true, true);
            table4(options);
            table5(options);
            summary(options);
        }
        other => {
            eprintln!("unknown experiment '{other}'; see the module docs for the list");
            std::process::exit(2);
        }
    }
    if let Some(path) = telemetry {
        let json = dc_telemetry::registry().snapshot().to_json();
        std::fs::write(&path, json).expect("write telemetry output");
        println!("wrote telemetry snapshot to {path}");
    }
}
