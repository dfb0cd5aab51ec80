//! Table 5 — LinkBench TAO, out of core (SIMULATED).
//!
//! The paper caps the systems to 4 GB with cgroups so that block accesses
//! hit the SSD. This reproduction feeds every operation through the
//! user-level page-cache model (`ColdAccessSimulator`): graph-aware stores
//! pay one contiguous span per adjacency list, edge-table stores pay one
//! potentially-cold page per edge. Both an Optane-like and a NAND-like miss
//! penalty are reported. The engine itself stays in memory, so every number
//! here comes from that model, not from a real storage device.

use livegraph_bench::{Device, LinkBenchExperiment, ResultTable, ScaleMode};
use livegraph_workloads::OpMix;

fn main() {
    let mode = ScaleMode::from_env();
    let mut table = ResultTable::new(
        "Table 5 — LinkBench TAO out of core, SIMULATED: ColdAccessSimulator over the in-memory engine (latency in ms)",
        &["device", "system", "mean", "p99", "p999", "throughput_req_s"],
    );
    for device in [Device::Optane, Device::Nand] {
        let exp = LinkBenchExperiment {
            num_vertices: mode.pick(20_000, 1 << 20),
            avg_degree: 4,
            clients: mode.pick(4, 24),
            ops_per_client: mode.pick(5_000, 100_000),
            mix: OpMix::tao(),
            // Cache sized to hold ~10% of the simulated working set.
            ooc: Some((mode.pick(20_000u64, 1 << 20) * 256 / 10, device)),
        };
        let reports = livegraph_bench::run_linkbench_comparison(&exp);
        for report in &reports {
            table.add_row(vec![
                format!("{device:?}"),
                report.backend.clone(),
                livegraph_bench::fmt_ms(report.latency.mean),
                livegraph_bench::fmt_ms(report.latency.p99),
                livegraph_bench::fmt_ms(report.latency.p999),
                format!("{:.0}", report.throughput()),
            ]);
        }
    }
    table.finish("table5_tao_ooc");
    println!(
        "\nExpected shape (paper): LiveGraph keeps the best mean latency out of core on both \
         devices for the read-heavy TAO mix (2.19x better than LMDB on Optane, 1.46x better \
         than RocksDB on NAND)."
    );
}
