//! The model every run is checked against.
//!
//! The model replays the base load and then exactly the ops each driver
//! thread executed. Because no two threads write the same vertex or
//! adjacency list (see `inputs::linkbench_stream`), the final state is a
//! function of the per-thread op counts alone, so the engine — read back
//! after a restart from its directory — must match the model's vertex
//! count, live-edge count and checksums exactly: nothing acknowledged may
//! be lost, nothing unacknowledged may appear.

use std::collections::BTreeMap;

use crate::engine::{edge_term, vertex_term, Digest};
use crate::inputs::{tag, Op, OpKind, Stream};

pub struct Model {
    base_n: u64,
    /// Payload tag of each base vertex.
    vertex_tags: Vec<u64>,
    /// Vertices created during the run: count and checksum share.
    created: u64,
    created_sum: u64,
    /// Live edges and their payload tags.
    edges: BTreeMap<(u64, u64), u64>,
}

impl Model {
    /// The state `engine::load_base` produces.
    pub fn after_base_load(n: u64, base_edges: &[(u64, u64)]) -> Self {
        let mut edges = BTreeMap::new();
        for (i, &pair) in base_edges.iter().enumerate() {
            edges.insert(pair, i as u64);
        }
        Self {
            base_n: n,
            vertex_tags: (0..n).collect(),
            created: 0,
            created_sum: 0,
            edges,
        }
    }

    fn apply(&mut self, op: Op, tag: u64) {
        match op.kind {
            OpKind::AddNode => {
                self.created += 1;
                self.created_sum =
                    self.created_sum
                        .wrapping_add(vertex_term(self.base_n, self.base_n, tag));
            }
            OpKind::UpdateNode => self.vertex_tags[op.src as usize] = tag,
            OpKind::AddLink | OpKind::UpdateLink => {
                self.edges.insert((op.src, op.dst), tag);
            }
            OpKind::DeleteLink => {
                self.edges.remove(&(op.src, op.dst));
            }
            OpKind::GetNode | OpKind::GetLink | OpKind::GetLinkList | OpKind::CountLinks => {}
        }
    }

    /// Replays ops `0..executed` of `thread`'s stream.
    pub fn replay(&mut self, stream: &Stream, thread: u64, executed: u64) {
        for seq in 0..executed {
            self.apply(stream.at(seq), tag(thread, seq));
        }
    }

    pub fn digest(&self) -> Digest {
        let mut d = Digest {
            vertices: self.base_n + self.created,
            edges: self.edges.len() as u64,
            vertex_sum: self.created_sum,
            edge_sum: 0,
        };
        for (id, &t) in self.vertex_tags.iter().enumerate() {
            d.vertex_sum = d
                .vertex_sum
                .wrapping_add(vertex_term(id as u64, self.base_n, t));
        }
        for (&(src, dst), &t) in &self.edges {
            d.edge_sum = d.edge_sum.wrapping_add(edge_term(src, dst, t));
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, Flush};
    use crate::inputs::{base_graph, linkbench_stream, OpMix, Payload};
    use crate::trace::NoTrace;

    /// The model and the engine agree after the same ops — including after
    /// the stream wrapped around — and a lost write is noticed.
    #[test]
    fn model_matches_the_engine_and_notices_a_lost_write() {
        let dir = crate::data_root().join(format!("oracle-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let n = 1u64 << 10;
        let edges = base_graph(10, 4);
        let g = engine::open(&dir, Flush::NoSync, 1 << 16).unwrap();
        engine::load_base(&g, n, &edges).unwrap();
        let stream = linkbench_stream(OpMix::dflt(), n, 3, 0, 1, 2_000);
        let mut payload = Payload::new();
        let executed = 5_000u64;
        for seq in 0..executed {
            engine::direct(&g, stream.at(seq), tag(0, seq), &mut payload, &mut NoTrace).unwrap();
        }
        let mut model = Model::after_base_load(n, &edges);
        model.replay(&stream, 0, executed);
        assert_eq!(engine::digest(&g, n).unwrap(), model.digest());

        let mut short = Model::after_base_load(n, &edges);
        short.replay(&stream, 0, executed - 200);
        assert_ne!(engine::digest(&g, n).unwrap(), short.digest());
        drop(g);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
