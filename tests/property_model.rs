//! Property-based model checking of the transactional API.
//!
//! A random sequence of graph mutations is applied through committed
//! LiveGraph transactions and, in parallel, to a trivially-correct in-memory
//! model. After every sequence the committed LiveGraph state must match the
//! model exactly — vertex payloads, deletion status, per-label adjacency
//! sets and edge payloads. A snapshot taken halfway through must keep
//! matching the halfway model even as later mutations commit (snapshot
//! isolation), which is the invariant the paper's design hinges on.

use std::collections::HashMap;

use livegraph::core::{LiveGraph, LiveGraphOptions, ReadTxn};
use proptest::prelude::*;

const VERTICES: u64 = 24;
const LABELS: u16 = 3;

/// One mutation, expressed over a small id space so collisions are common.
#[derive(Debug, Clone)]
enum Op {
    PutVertex { vertex: u64, tag: u8 },
    DeleteVertex { vertex: u64 },
    PutEdge { src: u64, label: u16, dst: u64, tag: u8 },
    DeleteEdge { src: u64, label: u16, dst: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..VERTICES, any::<u8>()).prop_map(|(vertex, tag)| Op::PutVertex { vertex, tag }),
        (0..VERTICES).prop_map(|vertex| Op::DeleteVertex { vertex }),
        (0..VERTICES, 0..LABELS, 0..VERTICES, any::<u8>())
            .prop_map(|(src, label, dst, tag)| Op::PutEdge { src, label, dst, tag }),
        (0..VERTICES, 0..LABELS, 0..VERTICES)
            .prop_map(|(src, label, dst)| Op::DeleteEdge { src, label, dst }),
    ]
}

/// Trivially-correct reference model.
#[derive(Debug, Clone, Default)]
struct Model {
    /// vertex -> Some(payload) if alive, None if deleted.
    vertices: HashMap<u64, Option<Vec<u8>>>,
    /// (src, label, dst) -> payload.
    edges: HashMap<(u64, u16, u64), Vec<u8>>,
}

impl Model {
    /// Whether an application-level client would issue this operation.
    ///
    /// LiveGraph (like the paper) does not re-validate liveness of the source
    /// vertex on every edge write — recovery replay depends on being able to
    /// append edges before the vertex record arrives — so a client that kept
    /// adding edges to a vertex it already deleted would see them until the
    /// deleted vertex is reclaimed. The model mirrors a well-behaved client
    /// and simply never issues such writes.
    fn should_apply(&self, op: &Op) -> bool {
        match op {
            Op::PutEdge { src, .. } => !matches!(self.vertices.get(src), Some(None)),
            _ => true,
        }
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::PutVertex { vertex, tag } => {
                self.vertices.insert(*vertex, Some(vec![*tag]));
            }
            Op::DeleteVertex { vertex } => {
                // Mirrors LiveGraph semantics: the tombstone hides the vertex
                // and the same transaction invalidates all of its out-edges.
                if matches!(self.vertices.get(vertex), Some(Some(_))) {
                    self.vertices.insert(*vertex, None);
                    self.edges.retain(|&(src, _, _), _| src != *vertex);
                }
            }
            Op::PutEdge { src, label, dst, tag } => {
                self.edges.insert((*src, *label, *dst), vec![*tag]);
            }
            Op::DeleteEdge { src, label, dst } => {
                self.edges.remove(&(*src, *label, *dst));
            }
        }
    }
}

fn apply_to_graph(graph: &LiveGraph, op: &Op) {
    let mut txn = graph.begin_write().unwrap();
    match op {
        Op::PutVertex { vertex, tag } => {
            txn.put_vertex(*vertex, &[*tag]).unwrap();
        }
        Op::DeleteVertex { vertex } => {
            txn.delete_vertex(*vertex).unwrap();
        }
        Op::PutEdge { src, label, dst, tag } => {
            txn.put_edge(*src, *label, *dst, &[*tag]).unwrap();
        }
        Op::DeleteEdge { src, label, dst } => {
            txn.delete_edge(*src, *label, *dst).unwrap();
        }
    }
    txn.commit().unwrap();
}

/// Checks that a snapshot agrees with a model on every vertex and edge.
fn assert_matches(read: &ReadTxn<'_>, model: &Model, context: &str) {
    for vertex in 0..VERTICES {
        let expected = model.vertices.get(&vertex).cloned().flatten();
        let got = read.get_vertex(vertex).map(|p| p.to_vec());
        assert_eq!(got, expected, "{context}: vertex {vertex} payload diverged");
        for label in 0..LABELS {
            let mut got_edges: Vec<(u64, Vec<u8>)> = read
                .edges(vertex, label)
                .map(|e| (e.dst, e.properties.to_vec()))
                .collect();
            got_edges.sort();
            let mut expected_edges: Vec<(u64, Vec<u8>)> = model
                .edges
                .iter()
                .filter(|&(&(s, l, _), _)| s == vertex && l == label)
                .map(|(&(_, _, d), payload)| (d, payload.clone()))
                .collect();
            expected_edges.sort();
            assert_eq!(
                got_edges, expected_edges,
                "{context}: adjacency of ({vertex}, {label}) diverged"
            );
        }
    }
}

fn graph_under_test() -> LiveGraph {
    LiveGraph::open(
        LiveGraphOptions::in_memory()
            .with_capacity(1 << 24)
            .with_max_vertices(1 << 12)
            // Recycling ids would make the model's id space drift; the
            // dedicated deletion tests cover recycling.
            .with_auto_compaction(false),
    )
    .unwrap()
}

fn setup(graph: &LiveGraph, model: &mut Model) {
    let mut txn = graph.begin_write().unwrap();
    for v in 0..VERTICES {
        let id = txn.create_vertex(&[v as u8]).unwrap();
        assert_eq!(id, v);
        model.vertices.insert(v, Some(vec![v as u8]));
    }
    txn.commit().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn committed_state_matches_the_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let graph = graph_under_test();
        let mut model = Model::default();
        setup(&graph, &mut model);

        for op in &ops {
            if !model.should_apply(op) {
                continue;
            }
            apply_to_graph(&graph, op);
            model.apply(op);
        }
        let read = graph.begin_read().unwrap();
        assert_matches(&read, &model, "final state");
    }

    #[test]
    fn snapshots_are_stable_while_later_transactions_commit(
        ops in proptest::collection::vec(op_strategy(), 2..100)
    ) {
        let graph = graph_under_test();
        let mut model = Model::default();
        setup(&graph, &mut model);

        let split = ops.len() / 2;
        for op in &ops[..split] {
            if !model.should_apply(op) {
                continue;
            }
            apply_to_graph(&graph, op);
            model.apply(op);
        }
        // Pin a snapshot and remember the model at this point.
        let pinned = graph.begin_read().unwrap();
        let pinned_model = model.clone();

        for op in &ops[split..] {
            if !model.should_apply(op) {
                continue;
            }
            apply_to_graph(&graph, op);
            model.apply(op);
        }

        // The pinned snapshot must still match the halfway model …
        assert_matches(&pinned, &pinned_model, "pinned snapshot");
        // … and a fresh snapshot matches the final model.
        let fresh = graph.begin_read().unwrap();
        assert_matches(&fresh, &model, "fresh snapshot");
    }

    #[test]
    fn compaction_never_changes_the_visible_state(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let graph = graph_under_test();
        let mut model = Model::default();
        setup(&graph, &mut model);
        for op in &ops {
            if !model.should_apply(op) {
                continue;
            }
            apply_to_graph(&graph, op);
            model.apply(op);
        }
        // Run compaction repeatedly (retire + free) and re-check.
        graph.compact();
        graph.compact();
        let read = graph.begin_read().unwrap();
        assert_matches(&read, &model, "after compaction");
    }

    #[test]
    fn compaction_slices_never_change_the_visible_state(
        ops in proptest::collection::vec(op_strategy(), 2..120)
    ) {
        // Automatic compaction with a tiny interval, so slices run between
        // the committed operations while a snapshot stays pinned. No op
        // creates vertices, so a reclaimed id is never handed out again.
        let graph = LiveGraph::open(
            LiveGraphOptions::in_memory()
                .with_capacity(1 << 24)
                .with_max_vertices(1 << 12)
                .with_auto_compaction(true)
                .with_compaction_interval(4),
        )
        .unwrap();
        let mut model = Model::default();
        setup(&graph, &mut model);
        let split = ops.len() / 2;
        let mut pinned = None;
        for (i, op) in ops.iter().enumerate() {
            if i == split {
                pinned = Some((graph.begin_read().unwrap(), model.clone()));
            }
            if !model.should_apply(op) {
                continue;
            }
            apply_to_graph(&graph, op);
            model.apply(op);
        }
        let (pinned, pinned_model) = pinned.unwrap();
        assert_matches(&pinned, &pinned_model, "pinned snapshot under slices");
        drop(pinned);
        let read = graph.begin_read().unwrap();
        assert_matches(&read, &model, "after slices");
        drop(read);
        graph.compact();
        let read = graph.begin_read().unwrap();
        assert_matches(&read, &model, "after slices and compaction");
    }
}
