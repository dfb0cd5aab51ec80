//! Table 6 — LinkBench DFLT, out of core (SIMULATED).
//!
//! Same methodology as Table 5 — the `ColdAccessSimulator` model over the
//! in-memory engine — but with the 31%-write DFLT mix. The paper's
//! shape: LiveGraph still leads on the low-latency device (Optane) while the
//! LSM store narrows the gap on NAND thanks to its large sequential writes.

use livegraph_bench::{Device, LinkBenchExperiment, ResultTable, ScaleMode};
use livegraph_workloads::OpMix;

fn main() {
    let mode = ScaleMode::from_env();
    let mut table = ResultTable::new(
        "Table 6 — LinkBench DFLT out of core, SIMULATED: ColdAccessSimulator over the in-memory engine (latency in ms)",
        &["device", "system", "mean", "p99", "p999", "throughput_req_s"],
    );
    for device in [Device::Optane, Device::Nand] {
        let exp = LinkBenchExperiment {
            num_vertices: mode.pick(20_000, 1 << 20),
            avg_degree: 4,
            clients: mode.pick(4, 24),
            ops_per_client: mode.pick(5_000, 100_000),
            mix: OpMix::dflt(),
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
    table.finish("table6_dflt_ooc");
    println!(
        "\nExpected shape (paper): LiveGraph beats RocksDB by 1.79x (Optane) and 1.15x (NAND) \
         on mean latency; LMDB falls far behind under writes."
    );
}
