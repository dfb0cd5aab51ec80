//! The benchmark's contract: workloads, end-to-end metrics with bounds, and
//! per-layer metrics with the end-to-end metric each should move.
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`lgbench --emit-benchmark-json`), and a test keeps the two equal.

use crate::stats::json_str;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric on which workload it should move (README).
    pub moves: &'static str,
}

/// Seconds one run measures (`run_seconds` of BENCHMARK.json, and the
/// default of `--seconds`).
pub const RUN_SECONDS: u64 = 8;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 1;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "dflt_inproc",
        "LinkBench DFLT mix straight on the engine: core::txn, core::tel, core::commit and WAL encoding do all the work, server::* none; an engine CPU gain must show here",
    ),
    (
        "dflt_remote",
        "The same op streams over 2 loopback connections to the reactor server: protocol, session, reactor and client dominate; a codec or wakeup gain must show here and leave dflt_inproc flat",
    ),
    (
        "analytics_fresh",
        "Sweep + PageRank + ConnComp on fresh snapshots beside an open-loop paced read/write stream: long sealed scans against the apply/seal path, the paper's headline case",
    ),
    (
        "write_durable",
        "LinkBench writes only on a simulated 100 us log device with a checkpoint under load: group commit, WAL, checkpoint and recovery are the critical path, scans are off it",
    ),
];

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.20),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("read_p99_us", "us", Lower, 0.25),
    e2e("write_p50_us", "us", Lower, 0.25),
    e2e("write_p99_us", "us", Lower, 0.25),
    e2e("scan_edges_per_s", "edges/s", Higher, 0.25),
    e2e("recovery_s", "s", Lower, 0.25),
    e2e("arena_bytes_per_edge", "B/edge", Lower, 0.03),
];

const TXN_MOVES: &str =
    "ops_per_s, read_p50_us, write_p50_us @ dflt_inproc; flat: ops_per_s @ dflt_remote";
const TEL_MOVES: &str = "scan_edges_per_s, analytics.round_s @ analytics_fresh; read_p50_us @ dflt_inproc; flat: ops_per_s @ write_durable";
const COMMIT_MOVES: &str = "ops_per_s, write_p99_us @ write_durable; write_p50_us @ dflt_inproc; flat: scan_edges_per_s @ analytics_fresh";
const WAL_MOVES: &str = "ops_per_s @ write_durable; flat: dflt_inproc beyond encode cost";
const COMPACTION_MOVES: &str = "arena_bytes_per_edge, core.tel.sealed_scan_ratio and through it scan_edges_per_s @ analytics_fresh";
const CHECKPOINT_MOVES: &str = "recovery_s @ write_durable";
const STORE_MOVES: &str = "arena_bytes_per_edge @ every workload";
const SERVER_MOVES: &str =
    "ops_per_s, read_p50_us, read_p99_us, write_p99_us @ dflt_remote; flat: dflt_inproc";
const ANALYTICS_MOVES: &str = "analytics.round_s, scan_edges_per_s @ analytics_fresh";
const BENCH_MOVES: &str = "nothing: the harness's own cost and steadiness";

pub const PER_LAYER: [PerLayer; 58] = [
    layer("core.txn.begin_read_ns", "ns", Lower, TXN_MOVES),
    layer("core.txn.begin_write_ns", "ns", Lower, TXN_MOVES),
    layer("core.txn.get_vertex_ns", "ns", Lower, TXN_MOVES),
    layer("core.txn.put_vertex_ns", "ns", Lower, TXN_MOVES),
    layer("core.txn.create_vertex_ns", "ns", Lower, TXN_MOVES),
    layer("core.txn.put_edge_ns", "ns", Lower, TXN_MOVES),
    layer("core.txn.delete_edge_ns", "ns", Lower, TXN_MOVES),
    layer("core.txn.retry_ratio", "ratio", Lower, TXN_MOVES),
    layer("core.tel.list_scan_ns", "ns", Lower, TEL_MOVES),
    layer(
        "core.tel.list_scan_ns_per_edge",
        "ns/edge",
        Lower,
        TEL_MOVES,
    ),
    layer("core.tel.get_edge_ns", "ns", Lower, TEL_MOVES),
    layer("core.tel.degree_ns", "ns", Lower, TEL_MOVES),
    layer("core.tel.sweep_ns_per_edge", "ns/edge", Lower, TEL_MOVES),
    layer("core.tel.sealed_scan_ratio", "ratio", Higher, TEL_MOVES),
    layer(
        "core.tel.lookup_entries_per_get_edge",
        "count",
        Lower,
        TEL_MOVES,
    ),
    layer("core.tel.bloom_negative_ratio", "ratio", Higher, TEL_MOVES),
    layer("core.commit.commit_ns", "ns", Lower, COMMIT_MOVES),
    layer("core.commit.commit_p99_ns", "ns", Lower, COMMIT_MOVES),
    layer("core.commit.share_of_write", "ratio", Lower, COMMIT_MOVES),
    layer("core.commit.lock_wait_mean_us", "us", Lower, COMMIT_MOVES),
    layer("core.commit.fsync_wait_mean_us", "us", Lower, COMMIT_MOVES),
    layer("core.commit.apply_mean_us", "us", Lower, COMMIT_MOVES),
    layer("core.wal.bytes_per_commit", "B", Lower, WAL_MOVES),
    layer("core.wal.syncs_per_commit", "ratio", Lower, WAL_MOVES),
    layer("core.wal.records_per_group", "count", Higher, WAL_MOVES),
    PerLayer {
        name: "core.wal.real_fsync_us",
        unit: "us",
        better: Lower,
        moves: "informational, never gated: the host's disk",
    },
    layer("core.compaction.passes", "count", Lower, COMPACTION_MOVES),
    layer(
        "core.compaction.entries_dropped",
        "count",
        Higher,
        COMPACTION_MOVES,
    ),
    layer(
        "core.compaction.blocks_freed",
        "count",
        Higher,
        COMPACTION_MOVES,
    ),
    layer(
        "core.compaction.explicit_pass_ms",
        "ms",
        Lower,
        COMPACTION_MOVES,
    ),
    layer("core.checkpoint.write_s", "s", Lower, CHECKPOINT_MOVES),
    layer("core.checkpoint.bytes", "B", Lower, CHECKPOINT_MOVES),
    layer(
        "core.checkpoint.recovered_records_per_s",
        "1/s",
        Higher,
        CHECKPOINT_MOVES,
    ),
    layer("storage.block_store.live_bytes", "B", Lower, STORE_MOVES),
    layer("storage.block_store.bump_bytes", "B", Lower, STORE_MOVES),
    layer(
        "storage.block_store.occupancy",
        "ratio",
        Higher,
        STORE_MOVES,
    ),
    layer(
        "server.protocol.request_encode_ns",
        "ns",
        Lower,
        SERVER_MOVES,
    ),
    layer(
        "server.protocol.request_decode_ns",
        "ns",
        Lower,
        SERVER_MOVES,
    ),
    layer(
        "server.protocol.response_encode_ns",
        "ns",
        Lower,
        SERVER_MOVES,
    ),
    layer(
        "server.protocol.response_decode_ns",
        "ns",
        Lower,
        SERVER_MOVES,
    ),
    layer("server.protocol.codec_ns_per_op", "ns", Lower, SERVER_MOVES),
    layer(
        "server.protocol.wire_bytes_per_op",
        "B",
        Lower,
        SERVER_MOVES,
    ),
    layer("server.session.handle_ns_per_op", "ns", Lower, SERVER_MOVES),
    layer("server.session.self_ns_per_op", "ns", Lower, SERVER_MOVES),
    layer("server.client.rtt_ns_per_op", "ns", Lower, SERVER_MOVES),
    layer("server.reactor.ping_rtt_ns", "ns", Lower, SERVER_MOVES),
    layer(
        "server.reactor.transport_ns_per_op",
        "ns",
        Lower,
        SERVER_MOVES,
    ),
    layer(
        "server.ladder.attributed_ratio",
        "ratio",
        Higher,
        SERVER_MOVES,
    ),
    layer("analytics.snapshot_open_ns", "ns", Lower, ANALYTICS_MOVES),
    layer("analytics.sweep_s", "s", Lower, ANALYTICS_MOVES),
    layer("analytics.pagerank_s_per_iter", "s", Lower, ANALYTICS_MOVES),
    layer("analytics.conncomp_s", "s", Lower, ANALYTICS_MOVES),
    layer("analytics.round_s", "s", Lower, ANALYTICS_MOVES),
    layer("bench.gen_ns_per_op", "ns", Lower, BENCH_MOVES),
    layer("bench.op_self_ns", "ns", Lower, BENCH_MOVES),
    layer("bench.trace_overhead_pct", "%", Lower, BENCH_MOVES),
    layer("bench.driver_lateness_us", "us", Lower, BENCH_MOVES),
    layer("bench.run_spread_pct", "%", Lower, BENCH_MOVES),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"lgbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"lgbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            json_str(name),
            json_str(why)
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.name()),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.name())
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_respect_the_contract_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(
            names.iter().all(|n| name_ok(n)),
            "a name breaks the contract's limits"
        );
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    /// `BENCHMARK.json` is the generated text, byte for byte.
    #[test]
    fn benchmark_json_on_disk_matches_the_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `lgbench --emit-benchmark-json`"
        );
    }
}
