//! Property tests: for every objective, the (possibly incrementally
//! overridden) `merge_delta` / `split_delta` / `move_delta` must equal the
//! full recompute `evaluate(after) − evaluate(before)` at every step of a
//! random merge/split/move sequence — not just on a single operation from a
//! fresh clustering, which is what the per-module tests check.
//!
//! The DB-index serving path is held to a stricter standard: its `_with`
//! deltas, read off a maintained aggregate, must equal
//! `evaluate_with(after) − evaluate_with(before)` bit for bit.

use dc_objective::{
    CorrelationObjective, DbIndexObjective, DensityObjective, KMeansObjective, ObjectiveFunction,
};
use dc_similarity::fixtures::graph_from_edges;
use dc_similarity::{ClusterAggregates, GraphConfig, SimilarityGraph};
use dc_types::{Clustering, Dataset, ObjectId, RecordBuilder};
use proptest::prelude::*;
use std::collections::BTreeSet;

const N_OBJECTS: u64 = 10;
const TOLERANCE: f64 = 1e-7;

/// One random structural operation, resolved against the live clustering by
/// indexing modulo the current cluster/member counts.
#[derive(Debug, Clone)]
enum Op {
    Merge(usize, usize),
    Split(usize, usize),
    Move(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64, 0usize..64).prop_map(|(a, b)| Op::Merge(a, b)),
        (0usize..64, 0usize..64).prop_map(|(a, b)| Op::Split(a, b)),
        (0usize..64, 0usize..64).prop_map(|(a, b)| Op::Move(a, b)),
    ]
}

fn arbitrary_edges() -> impl Strategy<Value = Vec<(u64, u64, f64)>> {
    proptest::collection::vec(
        (1u64..=N_OBJECTS, 1u64..=N_OBJECTS, 0.05f64..1.0)
            .prop_filter("no self loops", |(a, b, _)| a != b),
        0..24,
    )
}

fn arbitrary_assignment() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..4, N_OBJECTS as usize)
}

fn clustering_from_assignment(assignment: &[u64]) -> Clustering {
    let mut groups: std::collections::BTreeMap<u64, Vec<ObjectId>> =
        std::collections::BTreeMap::new();
    for (i, &g) in assignment.iter().enumerate() {
        groups
            .entry(g)
            .or_default()
            .push(ObjectId::new(i as u64 + 1));
    }
    Clustering::from_groups(groups.into_values()).unwrap()
}

fn numeric_graph(points: &[(f64, f64)]) -> SimilarityGraph {
    let mut ds = Dataset::new();
    for (i, &(x, y)) in points.iter().enumerate() {
        ds.insert_with_id(
            ObjectId::new(i as u64 + 1),
            RecordBuilder::new().vector(vec![x, y]).build(),
        )
        .unwrap();
    }
    SimilarityGraph::build(GraphConfig::numeric_euclidean(2.0, 4.0, 2, 0.05), &ds)
}

fn objectives() -> Vec<Box<dyn ObjectiveFunction>> {
    vec![
        Box::new(CorrelationObjective),
        Box::new(KMeansObjective),
        Box::new(DbIndexObjective),
        Box::new(DensityObjective::default()),
    ]
}

/// Drive one objective through the op sequence, checking every reported
/// delta against a full recompute before applying the operation.
fn check_sequence(
    objective: &dyn ObjectiveFunction,
    graph: &SimilarityGraph,
    mut clustering: Clustering,
    ops: &[Op],
) {
    for op in ops {
        let before = objective.evaluate(graph, &clustering);
        let after = match *op {
            Op::Merge(a, b) => {
                let cids = clustering.cluster_ids();
                if cids.len() < 2 {
                    continue;
                }
                let (a, b) = (cids[a % cids.len()], cids[b % cids.len()]);
                if a == b {
                    continue;
                }
                let delta = objective.merge_delta(graph, &clustering, a, b);
                let mut after = clustering.clone();
                after.merge(a, b).unwrap();
                let full = objective.evaluate(graph, &after) - before;
                assert!(
                    (delta - full).abs() < TOLERANCE,
                    "{}: merge_delta {delta} != recompute {full}",
                    objective.name()
                );
                after
            }
            Op::Split(c, k) => {
                let cids = clustering.cluster_ids();
                let cid = cids[c % cids.len()];
                let members: Vec<ObjectId> = clustering.cluster(cid).unwrap().iter().collect();
                if members.len() < 2 {
                    continue;
                }
                // Carve out a strict, non-empty prefix of the members.
                let take = 1 + k % (members.len() - 1);
                let part: BTreeSet<ObjectId> = members[..take].iter().copied().collect();
                let delta = objective.split_delta(graph, &clustering, cid, &part);
                let mut after = clustering.clone();
                after.split(cid, &part).unwrap();
                let full = objective.evaluate(graph, &after) - before;
                assert!(
                    (delta - full).abs() < TOLERANCE,
                    "{}: split_delta {delta} != recompute {full}",
                    objective.name()
                );
                after
            }
            Op::Move(o, t) => {
                let oids = clustering.object_ids();
                let cids = clustering.cluster_ids();
                let oid = oids[o % oids.len()];
                let target = cids[t % cids.len()];
                if clustering.cluster_of(oid) == Some(target) {
                    continue;
                }
                let delta = objective.move_delta(graph, &clustering, oid, target);
                let mut after = clustering.clone();
                after.move_object(oid, target).unwrap();
                let full = objective.evaluate(graph, &after) - before;
                assert!(
                    (delta - full).abs() < TOLERANCE,
                    "{}: move_delta {delta} != recompute {full}",
                    objective.name()
                );
                after
            }
        };
        clustering = after;
        clustering.check_invariants().unwrap();
    }
}

/// Drive the DB-index `_with` path through the op sequence on one
/// maintained aggregate (the way the serving passes use it), requiring
/// every delta to equal the change in `evaluate_with` bit for bit.
fn check_dbindex_bit_exact(graph: &SimilarityGraph, mut clustering: Clustering, ops: &[Op]) {
    let obj = DbIndexObjective;
    let mut agg = ClusterAggregates::new(graph, &clustering);
    for op in ops {
        let before = obj.evaluate_with(&agg, graph, &clustering);
        let delta = match *op {
            Op::Merge(a, b) => {
                let cids = clustering.cluster_ids();
                let (a, b) = (cids[a % cids.len()], cids[b % cids.len()]);
                if a == b {
                    continue;
                }
                let delta = obj.merge_delta_with(&agg, graph, &clustering, a, b);
                let merged = clustering.merge(a, b).unwrap();
                agg.apply_merge(a, b, merged);
                delta
            }
            Op::Split(c, k) => {
                let cids = clustering.cluster_ids();
                let cid = cids[c % cids.len()];
                let members: Vec<ObjectId> = clustering.cluster(cid).unwrap().iter().collect();
                if members.len() < 2 {
                    continue;
                }
                let take = 1 + k % (members.len() - 1);
                let part: BTreeSet<ObjectId> = members[..take].iter().copied().collect();
                let delta = obj.split_delta_with(&agg, graph, &clustering, cid, &part);
                let (p, r) = clustering.split(cid, &part).unwrap();
                agg.apply_split(graph, &clustering, cid, p, r);
                delta
            }
            Op::Move(o, t) => {
                let oids = clustering.object_ids();
                let cids = clustering.cluster_ids();
                let oid = oids[o % oids.len()];
                let target = cids[t % cids.len()];
                let source = clustering.cluster_of(oid).unwrap();
                if source == target {
                    continue;
                }
                let delta = obj.move_delta_with(&agg, graph, &clustering, oid, target);
                clustering.move_object(oid, target).unwrap();
                agg.apply_move(graph, &clustering, oid, source, target);
                delta
            }
        };
        let after = obj.evaluate_with(&agg, graph, &clustering);
        assert_eq!(
            delta.to_bits(),
            (after - before).to_bits(),
            "db-index {op:?}: delta {delta} != evaluate_with difference {}",
            after - before
        );
        // The memo must describe the mutated state: the same state in a new
        // aggregate, whose memo starts empty, scores the same bits.
        let copy = ClusterAggregates::import_state(agg.export_state()).unwrap();
        assert_eq!(
            after.to_bits(),
            obj.evaluate_with(&copy, graph, &clustering).to_bits(),
            "db-index {op:?}: memoised score differs from a fresh one"
        );
    }
}

/// A mutation after an evaluation must not leave the previous state's
/// memoised sum behind: every `&mut` method of the aggregate drops it.
#[test]
fn dbindex_scores_follow_every_aggregate_mutation() {
    let graph = graph_from_edges(
        6,
        &[
            (1, 2, 0.9),
            (2, 3, 0.8),
            (3, 4, 0.3),
            (4, 5, 0.85),
            (5, 6, 0.2),
            (1, 6, 0.4),
        ],
    );
    let mut clustering = Clustering::singletons((1..=6).map(ObjectId::new));
    let obj = DbIndexObjective;
    let mut agg = ClusterAggregates::new(&graph, &clustering);
    // The same state in a new aggregate, whose memo starts empty.
    let fresh = |agg: &ClusterAggregates, clustering: &Clustering| {
        let copy = ClusterAggregates::import_state(agg.export_state()).unwrap();
        obj.evaluate_with(&copy, &graph, clustering)
    };
    let c = |clustering: &Clustering, raw: u64| clustering.cluster_of(ObjectId::new(raw)).unwrap();

    let mut last = obj.evaluate_with(&agg, &graph, &clustering);
    let (a, b) = (c(&clustering, 1), c(&clustering, 2));
    let merged = clustering.merge(a, b).unwrap();
    agg.apply_merge(a, b, merged);
    let now = obj.evaluate_with(&agg, &graph, &clustering);
    assert_ne!(now.to_bits(), last.to_bits(), "a merge changes the score");
    assert_eq!(now.to_bits(), fresh(&agg, &clustering).to_bits());
    last = now;

    let (source, target) = (c(&clustering, 4), c(&clustering, 3));
    clustering.move_object(ObjectId::new(4), target).unwrap();
    agg.apply_move(&graph, &clustering, ObjectId::new(4), source, target);
    let now = obj.evaluate_with(&agg, &graph, &clustering);
    assert_ne!(now.to_bits(), last.to_bits(), "a move changes the score");
    assert_eq!(now.to_bits(), fresh(&agg, &clustering).to_bits());
    last = now;

    let cid = c(&clustering, 3);
    let part: BTreeSet<ObjectId> = [ObjectId::new(4)].into_iter().collect();
    let (p, r) = clustering.split(cid, &part).unwrap();
    agg.apply_split(&graph, &clustering, cid, p, r);
    let now = obj.evaluate_with(&agg, &graph, &clustering);
    assert_ne!(now.to_bits(), last.to_bits(), "a split changes the score");
    assert_eq!(now.to_bits(), fresh(&agg, &clustering).to_bits());
    last = now;

    // A cross edge injected the way the sharded refiner does.
    agg.add_inter_edge(c(&clustering, 1), c(&clustering, 5), 1.9);
    let now = obj.evaluate_with(&agg, &graph, &clustering);
    assert_ne!(
        now.to_bits(),
        last.to_bits(),
        "an injected edge changes the score"
    );
    assert_eq!(now.to_bits(), fresh(&agg, &clustering).to_bits());
    last = now;

    // Detaching an object, as a removal does.
    let from = c(&clustering, 6);
    agg.apply_remove(&graph, &clustering, ObjectId::new(6), from);
    clustering.remove_object(ObjectId::new(6)).unwrap();
    let now = obj.evaluate_with(&agg, &graph, &clustering);
    assert_ne!(now.to_bits(), last.to_bits(), "a removal changes the score");
    assert_eq!(now.to_bits(), fresh(&agg, &clustering).to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Weighted similarity graphs (the correlation / DB-index / density
    /// habitat; k-means sees zero-vectors and must still be consistent).
    #[test]
    fn deltas_match_recompute_on_weighted_graphs(
        edges in arbitrary_edges(),
        assignment in arbitrary_assignment(),
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        let graph = graph_from_edges(N_OBJECTS, &edges);
        let clustering = clustering_from_assignment(&assignment);
        for objective in objectives() {
            check_sequence(objective.as_ref(), &graph, clustering.clone(), &ops);
        }
    }

    /// Numeric point graphs (the k-means habitat; the graph-based objectives
    /// see the induced similarity edges and must still be consistent).
    #[test]
    fn deltas_match_recompute_on_numeric_graphs(
        points in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), N_OBJECTS as usize),
        assignment in arbitrary_assignment(),
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        let graph = numeric_graph(&points);
        let clustering = clustering_from_assignment(&assignment);
        for objective in objectives() {
            check_sequence(objective.as_ref(), &graph, clustering.clone(), &ops);
        }
    }

    /// The DB-index `_with` deltas on a maintained aggregate are bit-exact
    /// on weighted graphs (the record-linkage habitat).
    #[test]
    fn dbindex_local_deltas_are_bit_exact_on_weighted_graphs(
        edges in arbitrary_edges(),
        assignment in arbitrary_assignment(),
        ops in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        let graph = graph_from_edges(N_OBJECTS, &edges);
        check_dbindex_bit_exact(&graph, clustering_from_assignment(&assignment), &ops);
    }

    /// …and on numeric point graphs, whose induced weights are less round.
    #[test]
    fn dbindex_local_deltas_are_bit_exact_on_numeric_graphs(
        points in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), N_OBJECTS as usize),
        assignment in arbitrary_assignment(),
        ops in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        let graph = numeric_graph(&points);
        check_dbindex_bit_exact(&graph, clustering_from_assignment(&assignment), &ops);
    }
}
