//! Exactness of the profile kernels and the sub-threshold screen.
//!
//! 1. **Pairs.** For every textual measure and the Febrl composite,
//!    `edge_similarity` returns `Some(s)` with `s` bit-identical to
//!    `similarity(a, b)` exactly when `similarity(a, b) >= threshold && > 0`,
//!    and `None` otherwise — with stored profiles and with profiles built on
//!    demand, at random thresholds and at the thresholds that sit exactly on
//!    and just above the pair's similarity.
//! 2. **Graphs.** A [`SimilarityGraph`] driven through the Febrl fixture's
//!    add / update / remove stream holds the same adjacency (bitwise
//!    weights) and the same `comparisons()` as a brute-force reference that
//!    calls `raw_similarity` on the same blocking candidates, counts every
//!    candidate pair as exact or screened, and keeps doing so after a
//!    `GraphState` export → import round-trip.

use dc_datagen::fixtures::small_febrl_workload;
use dc_similarity::blocking::{BlockingStrategy, TokenBlocking};
use dc_similarity::{
    CompositeMeasure, EuclideanSimilarity, GraphConfig, JaccardSimilarity, NormalizedLevenshtein,
    ProfiledRecord, SimilarityGraph, SimilarityMeasure, TextProfile, TrigramCosine,
};
use dc_types::{ObjectId, Operation, Record, RecordBuilder};
use proptest::prelude::*;
use std::collections::BTreeMap;

const WORDS: [&str; 12] = [
    "john",
    "jon",
    "smith",
    "smyth",
    "street",
    "st",
    "ünïcode",
    "straße",
    "東京",
    "a",
    "abcdefghijklmnopqrstuvwxyz",
    "42",
];

fn measures() -> Vec<Box<dyn SimilarityMeasure>> {
    vec![
        Box::new(JaccardSimilarity),
        Box::new(TrigramCosine),
        Box::new(NormalizedLevenshtein),
        Box::new(CompositeMeasure::febrl_default()),
        Box::new(CompositeMeasure::new(vec![
            (Box::new(JaccardSimilarity), 0.3),
            (Box::new(NormalizedLevenshtein), 0.7),
            (Box::new(EuclideanSimilarity::new(2.0)), 0.25),
        ])),
    ]
}

/// A record from word indices: `repeat` copies of the words in one field
/// (no text at all when `words` is empty) and a small vector.
fn record(words: &[usize], repeat: usize, punctuation: bool) -> Record {
    let sep = if punctuation { ", " } else { " " };
    let text: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
    let one = text.join(sep);
    let mut builder = RecordBuilder::new().vector(vec![words.len() as f64, repeat as f64]);
    if !words.is_empty() {
        builder = builder.text("name", vec![one.as_str(); repeat.max(1)].join(" "));
    }
    builder.build()
}

fn assert_pair_contract(a: &Record, b: &Record, threshold: f64) {
    let (pa, pb) = (TextProfile::of(a), TextProfile::of(b));
    for m in measures() {
        let exact = m.similarity(a, b);
        let expected = (exact >= threshold && exact > 0.0).then_some(exact.to_bits());
        let stored = ProfiledRecord::new(a, Some(&pa));
        let other = ProfiledRecord::new(b, Some(&pb));
        let bare = (ProfiledRecord::new(a, None), ProfiledRecord::new(b, None));
        for (x, y) in [(stored, other), bare] {
            let got = m.edge_similarity(x, y, threshold).map(f64::to_bits);
            assert_eq!(
                got,
                expected,
                "{}: sim {exact} at threshold {threshold} for {:?} / {:?}",
                m.name(),
                a.full_text(),
                b.full_text()
            );
            assert_eq!(m.profiled_similarity(x, y).to_bits(), exact.to_bits());
        }
    }
}

fn thresholds_around(a: &Record, b: &Record, t: f64) -> Vec<f64> {
    let mut out = vec![0.0, t, 1.0];
    for m in measures() {
        let s = m.similarity(a, b);
        if (0.0..=1.0).contains(&s) {
            out.push(s);
            out.push(f64::from_bits(s.to_bits() + 1).min(1.0));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn edge_similarity_is_exact_or_none(
        wa in proptest::collection::vec(0usize..12, 0..6),
        wb in proptest::collection::vec(0usize..12, 0..6),
        ra in 1usize..3,
        rb in 1usize..6,
        pa in 0usize..2,
        t in 0.0f64..1.0,
    ) {
        let a = record(&wa, ra, pa == 1);
        let b = record(&wb, rb, false);
        for threshold in thresholds_around(&a, &b, t) {
            assert_pair_contract(&a, &b, threshold);
            assert_pair_contract(&b, &a, threshold);
        }
    }

    #[test]
    fn pairs_sharing_one_token_are_exact_or_none(
        shared in 0usize..12,
        extra_a in proptest::collection::vec(0usize..12, 0..5),
        extra_b in proptest::collection::vec(0usize..12, 0..5),
        t in 0.0f64..1.0,
    ) {
        let wa: Vec<usize> = std::iter::once(shared).chain(extra_a.iter().copied().filter(|&w| w != shared)).collect();
        let wb: Vec<usize> = extra_b.iter().copied().filter(|w| !wa.contains(w)).chain(std::iter::once(shared)).collect();
        let (a, b) = (record(&wa, 1, false), record(&wb, 1, true));
        for threshold in thresholds_around(&a, &b, t) {
            assert_pair_contract(&a, &b, threshold);
        }
    }
}

#[test]
fn edge_cases_are_exact_or_none() {
    let empty = record(&[], 1, false);
    let short = record(&[9], 1, false);
    let long = record(&[10, 2, 4], 20, true);
    let unicode = record(&[6, 7, 8], 1, false);
    for (a, b) in [
        (&empty, &empty),
        (&empty, &short),
        (&short, &long),
        (&unicode, &long),
        (&unicode, &unicode),
    ] {
        for threshold in thresholds_around(a, b, 0.6) {
            assert_pair_contract(a, b, threshold);
            assert_pair_contract(b, a, threshold);
        }
    }
}

/// The graph as a brute-force reference maintains it: the same blocking
/// candidates, every pair through `raw_similarity`.
struct Reference {
    blocking: TokenBlocking,
    records: BTreeMap<ObjectId, Record>,
    edges: BTreeMap<(ObjectId, ObjectId), u64>,
    comparisons: u64,
}

impl Reference {
    fn new() -> Self {
        Reference {
            blocking: TokenBlocking::new(256),
            records: BTreeMap::new(),
            edges: BTreeMap::new(),
            comparisons: 0,
        }
    }

    fn remove(&mut self, id: ObjectId) {
        if let Some(record) = self.records.remove(&id) {
            self.blocking.unindex(id, &record);
            self.edges.retain(|&(a, b), _| a != id && b != id);
        }
    }

    fn add(&mut self, oracle: &SimilarityGraph, id: ObjectId, record: Record) {
        self.remove(id);
        let candidates = self.blocking.candidates(&record);
        self.blocking.index(id, &record);
        for cand in candidates {
            let Some(other) = self.records.get(&cand).filter(|_| cand != id) else {
                continue;
            };
            self.comparisons += 1;
            let sim = oracle.raw_similarity(&record, other);
            if sim >= oracle.edge_threshold() && sim > 0.0 {
                self.edges
                    .insert((id.min(cand), id.max(cand)), sim.to_bits());
            }
        }
        self.records.insert(id, record);
    }

    fn apply(&mut self, oracle: &SimilarityGraph, op: &Operation) {
        match op {
            Operation::Add { id, record } | Operation::Update { id, record } => {
                self.add(oracle, *id, record.clone())
            }
            Operation::Remove { id } => self.remove(*id),
        }
    }

    fn assert_matches(&self, graph: &SimilarityGraph, context: &str) {
        let edges: BTreeMap<(ObjectId, ObjectId), u64> = graph
            .edges()
            .map(|(a, b, s)| ((a, b), s.to_bits()))
            .collect();
        assert_eq!(edges, self.edges, "{context}: adjacency differs");
        assert_eq!(
            graph.comparisons(),
            self.comparisons,
            "{context}: comparisons differ"
        );
        assert_eq!(graph.object_count(), self.records.len(), "{context}");
    }
}

fn febrl_config() -> GraphConfig {
    GraphConfig::textual_febrl(0.6)
}

#[test]
fn febrl_graph_matches_brute_force_reference_through_a_snapshot_round_trip() {
    let reg = dc_telemetry::registry();
    reg.reset();
    reg.set_enabled(true);

    let workload = small_febrl_workload();
    let mut graph = SimilarityGraph::empty(febrl_config());
    let mut reference = Reference::new();
    for (id, record) in workload.initial.iter() {
        graph.add_object(id, record.clone());
        reference.add(&graph, id, record.clone());
    }
    reference.assert_matches(&graph, "initial build");

    let (head, tail) = workload.snapshots.split_at(workload.snapshots.len() / 2);
    for (i, snapshot) in head.iter().enumerate() {
        for op in snapshot.batch.iter() {
            graph.apply_operation(op);
            reference.apply(&graph, op);
        }
        reference.assert_matches(&graph, &format!("snapshot {i}"));
    }

    // Every candidate pair was either computed exactly or screened, and the
    // screen did fire on this workload.
    let (exact, screened) = (
        reg.counter("similarity.pairs_exact"),
        reg.counter("similarity.pairs_screened"),
    );
    reg.set_enabled(false);
    reg.reset();
    assert_eq!(exact + screened, graph.comparisons());
    assert!(
        screened > 0 && exact > 0,
        "exact {exact}, screened {screened}"
    );

    // Profiles are rebuilt on import: later adds produce identical edges.
    let mut restored =
        SimilarityGraph::import_state(febrl_config(), graph.export_state()).expect("round-trip");
    reference.assert_matches(&restored, "after import");
    for (i, snapshot) in tail.iter().enumerate() {
        for op in snapshot.batch.iter() {
            graph.apply_operation(op);
            restored.apply_operation(op);
            reference.apply(&graph, op);
        }
        reference.assert_matches(&graph, &format!("tail snapshot {i}"));
        reference.assert_matches(&restored, &format!("restored tail snapshot {i}"));
    }
}

#[test]
fn updates_and_re_adds_match_the_reference() {
    let workload = small_febrl_workload();
    let mut graph = SimilarityGraph::empty(febrl_config());
    let mut reference = Reference::new();
    let records: Vec<(ObjectId, Record)> = workload
        .initial
        .iter()
        .map(|(id, r)| (id, r.clone()))
        .collect();
    for (id, record) in &records {
        graph.add_object(*id, record.clone());
        reference.add(&graph, *id, record.clone());
    }
    // Swap every other record's text with its neighbour's, re-add a few ids
    // with their own record, and remove every fifth.
    for (k, pair) in records.windows(2).enumerate() {
        let (id, _) = &pair[0];
        let (_, other) = &pair[1];
        let op = match k % 5 {
            0 => Operation::Remove { id: *id },
            1 | 2 => Operation::Update {
                id: *id,
                record: other.clone(),
            },
            _ => Operation::Add {
                id: *id,
                record: pair[0].1.clone(),
            },
        };
        graph.apply_operation(&op);
        reference.apply(&graph, &op);
    }
    reference.assert_matches(&graph, "after updates");
}
