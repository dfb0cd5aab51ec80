//! Table 8 — LDBC SNB-lite interactive throughput, out of core (SIMULATED).
//!
//! Same workload as Table 7 but with every backend behind the user-level
//! page-cache model (3 GB cap in the paper; here a small simulated cache).
//! The engine itself stays in memory: every number comes from the
//! `ColdAccessSimulator` model, not from a real storage device.

use std::sync::Arc;

use livegraph_bench::{bench_graph, Device, OocSnbBackend, ResultTable, ScaleMode};
use livegraph_workloads::snb::{
    generate_snb, run_snb, EdgeTableSnb, LiveGraphSnb, SnbBackend, SnbConfig, SnbMix, SnbRunConfig,
};

fn main() {
    let mode = ScaleMode::from_env();
    let dataset = generate_snb(SnbConfig {
        persons: mode.pick(2_000, 100_000),
        avg_friends: mode.pick(20, 50),
        posts_per_person: 10,
        likes_per_person: 10,
        seed: 42,
    });
    let cache_bytes = dataset.num_vertices() * 256 / 20; // ~5% of the working set
    let run = |mix: SnbMix| SnbRunConfig {
        clients: mode.pick(4, 48),
        ops_per_client: mode.pick(100, 2_000),
        mix,
        seed: 7,
    };

    let lg_inner = LiveGraphSnb::new(bench_graph(
        (dataset.num_vertices() as usize * 4).next_power_of_two(),
    ));
    lg_inner.load(&dataset);
    let livegraph: Arc<dyn SnbBackend> = Arc::new(OocSnbBackend::new(
        lg_inner,
        Device::Optane.simulator(cache_bytes),
        true,
    ));
    let et_inner = EdgeTableSnb::new();
    et_inner.load(&dataset);
    let edge_table: Arc<dyn SnbBackend> = Arc::new(OocSnbBackend::new(
        et_inner,
        Device::Optane.simulator(cache_bytes),
        false,
    ));

    let mut table = ResultTable::new(
        "Table 8 — SNB interactive throughput out of core, SIMULATED: ColdAccessSimulator over the in-memory engine (req/s)",
        &["mix", "system", "throughput_req_s"],
    );
    for mix in [SnbMix::ComplexOnly, SnbMix::Overall] {
        for backend in [&livegraph, &edge_table] {
            let report = run_snb(Arc::clone(backend), &dataset, run(mix));
            table.add_row(vec![
                format!("{mix:?}"),
                report.backend.clone(),
                format!("{:.0}", report.throughput()),
            ]);
        }
    }
    table.finish("table8_snb_ooc");
    println!(
        "\nExpected shape (paper): both systems drop sharply out of core, but LiveGraph stays \
         roughly an order of magnitude ahead (31.0 vs 2.91 req/s Complex-Only; 350 vs 14.7 \
         Overall)."
    );
}
