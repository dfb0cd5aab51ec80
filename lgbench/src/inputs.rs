//! Seeded input generation: the engine and the server only ever see what
//! this module produced from `--seed`.
//!
//! Inputs come from the generators of `livegraph-workloads`
//! (`kronecker::generate_kronecker`, `linkbench::{OpMix, RequestGenerator}`);
//! the pinning test at the bottom catches a change there that would silently
//! alter what every later benchmark run measures.

use livegraph_workloads::kronecker::{generate_kronecker, KroneckerConfig};
use livegraph_workloads::linkbench::RequestGenerator;
pub use livegraph_workloads::linkbench::{OpKind, OpMix};

/// LinkBench's access skew (the repository's drivers use the same value).
pub const ZIPF_EXPONENT: f64 = 0.8;
/// Node property payload in bytes; the first 8 carry the write's tag.
pub const NODE_PAYLOAD: usize = 64;
/// Link property payload in bytes; the first 8 carry the write's tag.
pub const LINK_PAYLOAD: usize = 32;
/// Added to `dst` once per pass over a stream, so that a run which outlasts
/// its pre-generated block keeps inserting and deleting fresh pairs instead
/// of replaying a block whose inserts have all become updates.
const PASS_STRIDE: u64 = 0x9E37_79B1;

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub src: u64,
    pub dst: u64,
}

/// SplitMix64: the benchmark's own generator for the choices the
/// `livegraph-workloads` generators do not cover.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, bound)`; the modulo bias is below 2^-40 for the
    /// bounds used here.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The SplitMix64 finaliser, also the hash behind the oracle's checksums.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent seed for one purpose (`salt`) of one run (`seed`).
pub fn subseed(seed: u64, salt: u64) -> u64 {
    mix64(seed ^ mix64(salt))
}

/// The base graph's own seed. The graph is the same for every `--seed`:
/// what the analytics kernels have to do — ConnComp's number of label
/// rounds above all, which moved a round's time by ±25 % from one seeded
/// graph to the next — depends on the graph's shape, and a benchmark whose
/// graph changes shape with the seed measures the shape. `--seed` drives
/// what is *done* to the graph: every op stream.
const BASE_GRAPH_SEED: u64 = 1;

/// Kronecker base graph: `2^scale` vertices, `avg_degree * 2^scale` edges
/// (duplicates included; loading upserts them).
pub fn base_graph(scale: u32, avg_degree: u64) -> Vec<(u64, u64)> {
    generate_kronecker(&KroneckerConfig {
        avg_degree,
        seed: subseed(BASE_GRAPH_SEED, 1),
        ..KroneckerConfig::new(scale)
    })
}

/// A pre-generated block of operations that a driver thread walks in
/// order, wrapping around with a shifted `dst` on every further pass.
pub struct Stream {
    ops: Vec<Op>,
    /// Vertex-id space the ops were drawn from.
    n: u64,
}

impl Stream {
    /// The `seq`-th operation of the (endless) stream.
    #[inline]
    pub fn at(&self, seq: u64) -> Op {
        let len = self.ops.len() as u64;
        let op = self.ops[(seq % len) as usize];
        let pass = seq / len;
        if pass == 0 {
            op
        } else {
            Op {
                dst: (op.dst + pass.wrapping_mul(PASS_STRIDE)) % self.n,
                ..op
            }
        }
    }

    /// The generated block (first pass).
    pub fn block(&self) -> &[Op] {
        &self.ops
    }
}

/// LinkBench stream of `len` ops for driver thread `thread` of `threads`.
///
/// Every write (except `AddNode`, which targets no existing id) is moved
/// into the thread's own `src mod threads` residue class: no two threads
/// ever write the same vertex or adjacency list, so the final state depends
/// only on how many ops each thread executed, and the oracle can replay it.
pub fn linkbench_stream(
    mix: OpMix,
    n: u64,
    seed: u64,
    thread: u64,
    threads: u64,
    len: usize,
) -> Stream {
    assert!(
        n % threads == 0,
        "vertex count must be a multiple of the driver threads"
    );
    let mut gen = RequestGenerator::new(mix, n, ZIPF_EXPONENT, subseed(seed, 100 + thread));
    let ops = (0..len)
        .map(|_| {
            let r = gen.next_request();
            let src = if r.kind.is_read() || r.kind == OpKind::AddNode {
                r.src
            } else {
                r.src - r.src % threads + thread
            };
            Op {
                kind: r.kind,
                src,
                dst: r.dst,
            }
        })
        .collect();
    Stream { ops, n }
}

/// The paced serving stream of `analytics_fresh`: 20 % `get_link_list`,
/// 48 % insert of a random (almost always new) pair, 16 % update and 16 %
/// delete of a base-graph edge — i.e. 80 % commits split 60/20/20.
pub fn serving_stream(base_edges: &[(u64, u64)], n: u64, seed: u64, len: usize) -> Stream {
    let mut rng = SplitMix64::new(subseed(seed, 200));
    let ops = (0..len)
        .map(|_| {
            let pick = rng.below(100);
            let existing = base_edges[rng.below(base_edges.len() as u64) as usize];
            let (kind, (src, dst)) = match pick {
                0..=19 => (OpKind::GetLinkList, existing),
                20..=67 => (OpKind::AddLink, (rng.below(n), rng.below(n))),
                68..=83 => (OpKind::UpdateLink, existing),
                _ => (OpKind::DeleteLink, existing),
            };
            Op { kind, src, dst }
        })
        .collect();
    Stream { ops, n }
}

/// Tag of the `seq`-th op executed by driver thread `thread`; base-load
/// writes use thread field 0 (plain index).
#[inline]
pub fn tag(thread: u64, seq: u64) -> u64 {
    ((thread + 1) << 48) | seq
}

/// Reads a tag back out of a stored payload.
#[inline]
pub fn tag_of(payload: &[u8]) -> u64 {
    payload.get(..8).map_or(u64::MAX, |b| {
        u64::from_le_bytes(b.try_into().expect("8 bytes"))
    })
}

/// Per-thread payload buffers; only the 8 tag bytes change between writes.
pub struct Payload {
    node: [u8; NODE_PAYLOAD],
    link: [u8; LINK_PAYLOAD],
}

impl Payload {
    pub fn new() -> Self {
        Self {
            node: [0x6E; NODE_PAYLOAD],
            link: [0x6C; LINK_PAYLOAD],
        }
    }

    #[inline]
    pub fn node(&mut self, tag: u64) -> &[u8] {
        self.node[..8].copy_from_slice(&tag.to_le_bytes());
        &self.node
    }

    #[inline]
    pub fn link(&mut self, tag: u64) -> &[u8] {
        self.link[..8].copy_from_slice(&tag.to_le_bytes());
        &self.link
    }
}

/// FNV-1a over the ops' kind, src and dst — the input fingerprint recorded
/// with every run.
pub fn fnv1a(ops: &[Op]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for op in ops {
        eat(op.kind as u64);
        eat(op.src);
        eat(op.dst);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dflt_hash(seed: u64) -> u64 {
        fnv1a(linkbench_stream(OpMix::dflt(), 1 << 17, seed, 0, 2, 10_000).block())
    }

    /// Pins the inputs: a change to `linkbench` (mix weights, Zipf sampling,
    /// the id spread) or to the vendored RNG that alters the op stream makes
    /// every earlier benchmark figure incomparable, and must show up here.
    #[test]
    fn first_10k_dflt_ops_for_seed_1_are_pinned() {
        assert_eq!(
            dflt_hash(1),
            0x22EB_9BF5_F833_7212,
            "got {:#018X}",
            dflt_hash(1)
        );
        assert_ne!(
            dflt_hash(1),
            dflt_hash(2),
            "another seed must give other inputs"
        );
    }

    #[test]
    fn base_graph_is_pinned() {
        let edges = base_graph(10, 8);
        let ops: Vec<Op> = edges
            .iter()
            .map(|&(src, dst)| Op {
                kind: OpKind::AddLink,
                src,
                dst,
            })
            .collect();
        assert_eq!(
            fnv1a(&ops),
            0x9F2A_DF8C_9B2A_5AAB,
            "got {:#018X}",
            fnv1a(&ops)
        );
    }

    #[test]
    fn writes_stay_in_the_threads_residue_class() {
        for thread in 0..2 {
            let s = linkbench_stream(OpMix::dflt(), 1 << 12, 7, thread, 2, 5_000);
            for seq in 0..12_000 {
                let op = s.at(seq);
                assert!(op.src < 1 << 12 && op.dst < 1 << 12);
                if !op.kind.is_read() && op.kind != OpKind::AddNode {
                    assert_eq!(op.src % 2, thread);
                }
            }
        }
    }

    #[test]
    fn later_passes_shift_dst_only() {
        let s = linkbench_stream(OpMix::dflt(), 1 << 12, 7, 0, 2, 100);
        assert_eq!(s.at(5), s.block()[5]);
        assert_eq!(s.at(105).src, s.at(5).src);
        assert_eq!(s.at(105).kind, s.at(5).kind);
        assert_ne!(s.at(105).dst, s.at(5).dst);
    }

    #[test]
    fn tags_round_trip_through_payloads() {
        let mut p = Payload::new();
        assert_eq!(tag_of(p.link(tag(1, 99))), tag(1, 99));
        assert_eq!(tag_of(p.node(7)), 7);
        assert_eq!(tag_of(&[1, 2]), u64::MAX);
    }
}
