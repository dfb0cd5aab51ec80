//! One run, step by step: set-up, measured phase, compaction, checkpoint,
//! restart, oracle, probes — and in a traced run the ladder and the side
//! probe. This module only *observes*; `report.rs` turns the observations
//! into metrics.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::cpu;
use crate::engine::{self, Digest, Failure, Readout, Round};
use crate::oracle;
use crate::probes::{self, Ladder, ReadProbe};
use crate::trace::Spans;
use crate::workloads::{self, Phase, PhaseOut, Prepared, Sizes, Workload};
use crate::Config;

/// Span buffer of the probes (read probe + traced ladder pass).
const PROBE_SPAN_CAPACITY: usize = 2 << 20;

/// What only a traced run observes.
pub struct Traced {
    /// The window's untraced first and last quarter.
    pub untraced: Vec<PhaseOut>,
    /// Counters after the first quarter.
    pub first_quarter: Readout,
    /// Counters of the restarted graph after the probes.
    pub probed: Readout,
    pub probe_spans: Spans,
    pub ladder: Ladder,
    pub real_fsync_us: f64,
}

/// Everything one run observed.
pub struct Observed {
    pub window: Duration,
    pub setup_s: Vec<f64>,
    pub gen_ns_per_op: f64,
    pub input_fnv: u64,
    /// The whole window, or in a traced run its traced middle half.
    pub main: PhaseOut,
    /// Ops each stream executed in total (what the oracle replayed).
    pub op_counts: Vec<u64>,
    /// Counters before the phase, after it, and after the explicit
    /// compaction pass that follows it.
    pub before: Readout,
    pub after: Readout,
    pub compacted: Readout,
    pub explicit_pass_ms: f64,
    pub checkpoint_s: f64,
    pub checkpoint_bytes: u64,
    pub recovery_s: Vec<f64>,
    /// The model of the executed ops, and what the restarted graph holds.
    pub expected: Digest,
    pub found: Digest,
    pub read_probe: ReadProbe,
    pub probe_rounds: Vec<Round>,
    /// Further sweeps of the probe, as (edges, seconds).
    pub probe_sweeps: Vec<(u64, f64)>,
    pub traced: Option<Traced>,
    /// Wall time per step.
    pub wall_s: Vec<(&'static str, f64)>,
    /// Idle-policy spinners that kept the cores awake (0: the kernel
    /// refused the policy).
    pub keep_awake_spinners: usize,
}

/// Runs the configured workload once in a directory of its own under `root`.
pub fn observe(cfg: &Config, root: &Path) -> Result<Observed, Failure> {
    // See `cpu.rs`: no core halts while the run measures.
    let awake = cpu::KeepAwake::start();
    let run_dir = root.join(format!(
        "run-{}-{}",
        cfg.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| Failure(format!("{}: {e}", run_dir.display())))?;
    cpu::unpin();
    let observed = steps(cfg, &run_dir, awake.spinners());
    drop(awake);
    let _ = std::fs::remove_dir_all(&run_dir);
    observed
}

/// Set-up, several times; the last one is measured on.
fn set_up(cfg: &Config, sizes: &Sizes, run_dir: &Path) -> Result<(Prepared, Vec<f64>), Failure> {
    let mut seconds = Vec::with_capacity(sizes.setups);
    let mut prepared: Option<Prepared> = None;
    for i in 0..sizes.setups.max(1) {
        if let Some(p) = prepared.take() {
            drop(p.target.into_graph()?);
            let _ = std::fs::remove_dir_all(&p.dir);
        }
        let dir: PathBuf = run_dir.join(format!("data-{i}"));
        let t0 = Instant::now();
        prepared = Some(workloads::setup(cfg.workload, cfg.seed, sizes, &dir)?);
        seconds.push(t0.elapsed().as_secs_f64());
    }
    Ok((prepared.expect("at least one set-up"), seconds))
}

fn steps(cfg: &Config, run_dir: &Path, keep_awake_spinners: usize) -> Result<Observed, Failure> {
    let w = cfg.workload;
    let sizes = Sizes::of(w, cfg.quick);
    let origin = Instant::now();
    let mut wall_s = Vec::new();
    let mut step = Instant::now();
    let mut lap = |name: &'static str| {
        wall_s.push((name, step.elapsed().as_secs_f64()));
        step = Instant::now();
    };

    let (mut prepared, setup_s) = set_up(cfg, &sizes, run_dir)?;
    lap("setup");

    // ---- Measured phase. --------------------------------------------------
    let window = Duration::from_secs_f64(cfg.seconds);
    let durable = w == Workload::WriteDurable;
    let mut positions = vec![0u64; prepared.streams.len()];
    let before = engine::readout(prepared.target.graph());
    let phase = |share: (u32, u32), traced: bool, checkpoint_at: Option<Duration>| Phase {
        window: window * share.0 / share.1,
        traced,
        checkpoint_at,
        paced_rate: sizes.paced_rate,
        origin,
    };
    // A traced run is untraced for its first and last quarter: the two
    // rates come from the same process and state, and with the traced half
    // centred between them a steady drift of the rate over the window
    // cancels out of the tracing overhead.
    let mut quarters = Vec::new();
    let mut first_quarter = None;
    let main = if cfg.trace {
        quarters.push(workloads::run_phase(
            w,
            &mut prepared,
            &mut positions,
            &phase((1, 4), false, None),
        )?);
        first_quarter = Some(engine::readout(prepared.target.graph()));
        let checkpoint_at = durable.then_some(window * 5 / 12);
        let main = workloads::run_phase(
            w,
            &mut prepared,
            &mut positions,
            &phase((1, 2), true, checkpoint_at),
        )?;
        quarters.push(workloads::run_phase(
            w,
            &mut prepared,
            &mut positions,
            &phase((1, 4), false, None),
        )?);
        main
    } else {
        let checkpoint_at = durable.then_some(window * 2 / 3);
        workloads::run_phase(
            w,
            &mut prepared,
            &mut positions,
            &phase((1, 1), false, checkpoint_at),
        )?
    };
    let after = engine::readout(prepared.target.graph());
    lap("measured");

    // ---- Compact, checkpoint, restart. -------------------------------------
    // From here on everything is single-threaded; it stays on one core.
    cpu::pin(0);
    // Live bytes are a sawtooth between automatic compaction passes, so the
    // footprint is read after one explicit pass over what the phase left
    // dirty.
    let explicit_pass_ms = probes::explicit_compaction_ms(prepared.target.graph());
    let compacted = engine::readout(prepared.target.graph());
    let Prepared {
        dir,
        n,
        base_edges,
        streams,
        gen_ns_per_op,
        input_fnv,
        target,
    } = prepared;
    let graph = target.into_graph()?;
    let checkpoint_s = match main.checkpoint_s {
        Some(under_load) => under_load,
        None => {
            let t0 = Instant::now();
            engine::checkpoint(&graph)?;
            t0.elapsed().as_secs_f64()
        }
    };
    drop(graph);
    let checkpoint_bytes = engine::checkpoint_bytes(&dir);
    let (graph, recovery_s) = probes::recover(&dir, workloads::max_vertices(n), sizes.recoveries)?;
    lap("compact_checkpoint_restart");

    // ---- Oracle on the restarted graph. -----------------------------------
    let mut model = oracle::Model::after_base_load(n, &base_edges);
    for (i, stream) in streams.iter().enumerate() {
        model.replay(stream, i as u64, positions[i]);
    }
    let expected = model.digest();
    drop(model);
    let found = engine::digest(&graph, n)?;
    lap("oracle");

    // ---- Probes on the restarted graph. -----------------------------------
    let mut probe_spans = cfg.trace.then(|| Spans::new(origin, PROBE_SPAN_CAPACITY));
    let evictor = probes::CacheEvictor::new();
    let read_probe = probes::read_probe(
        &graph,
        n,
        cfg.seed,
        sizes.probe_reads,
        &evictor,
        probe_spans.as_mut(),
    );
    let probe_rounds = probes::analytics_probe(&graph, sizes.probe_rounds, &evictor)?;
    let probe_sweeps = probes::sweep_probe(&graph, sizes.probe_sweeps, &evictor)?;
    drop(evictor);
    lap("probes");

    // ---- Traced extras: ladder and side probe. -----------------------------
    let traced = match (first_quarter, probe_spans) {
        (Some(first_quarter), Some(mut probe_spans)) => {
            let probed = engine::readout(&graph);
            let (graph, ladder) =
                probes::ladder(graph, n, cfg.seed, &sizes, Some(&mut probe_spans))?;
            drop(graph);
            let real_fsync_us =
                probes::real_fsync_us(&run_dir.join("fsync-probe"), sizes.fsync_commits)?;
            lap("ladder_and_side_probe");
            Some(Traced {
                untraced: quarters,
                first_quarter,
                probed,
                probe_spans,
                ladder,
                real_fsync_us,
            })
        }
        _ => {
            drop(graph);
            None
        }
    };

    Ok(Observed {
        window,
        setup_s,
        gen_ns_per_op,
        input_fnv,
        main,
        op_counts: positions,
        before,
        after,
        compacted,
        explicit_pass_ms,
        checkpoint_s,
        checkpoint_bytes,
        recovery_s,
        expected,
        found,
        read_probe,
        probe_rounds,
        probe_sweeps,
        traced,
        wall_s,
        keep_awake_spinners,
    })
}
