//! lgbench — one repeatable benchmark for the LiveGraph reproduction.
//!
//! `lgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>` builds
//! the inputs from the seed, runs the workload's measured phase for the given
//! time, restarts the graph from its directory, checks it against the
//! oracle, and prints every metric by name with its unit — the end-to-end
//! metrics for `--trace 0`, the per-layer metrics for `--trace 1`. The last
//! line on standard output is the result object; everything else goes to
//! standard error and to files under `<target dir>/lgbench/`.
//!
//! See `README.md` beside this crate for the metric glossary.

mod cpu;
mod engine;
mod inputs;
mod metrics;
mod oracle;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use metrics::{Better, END_TO_END, PER_LAYER};
use report::{unit_of, RunResult};
use stats::{json_num, json_str};
use workloads::Workload;

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub check_repeat: bool,
}

const USAGE: &str = "usage: lgbench --workload <dflt_inproc|dflt_remote|analytics_fresh|write_durable> \
[--seed <u64>] [--seconds <s>] [--trace <0|1>] [--quick] [--check-repeat]\n       lgbench --emit-benchmark-json";

/// `Ok(None)`: print `BENCHMARK.json` and exit.
fn parse_args(args: &[String]) -> Result<Option<Config>, String> {
    let mut workload = None;
    let mut cfg = Config {
        workload: Workload::DfltInproc,
        seed: metrics::DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        check_repeat: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--emit-benchmark-json" => return Ok(None),
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                cfg.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cfg.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cfg.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => cfg.quick = true,
            "--check-repeat" => cfg.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(Some(cfg))
}

/// `<target dir>/lgbench`: the only place lgbench writes. Found from the
/// executable's own path (`<target dir>/<profile>/...`), so it is inside the
/// checkout wherever the build put its artefacts.
fn data_root() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe
        .ancestors()
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("lgbench")
}

/// `--check-repeat`: every gated metric of the second set must be within
/// its own bound of the first.
fn disagreements(a: &RunResult, b: &RunResult) -> Vec<String> {
    let mut out = Vec::new();
    for m in &END_TO_END {
        let (Some(x), Some(y)) = (a.metrics.get(m.name), b.metrics.get(m.name)) else {
            continue;
        };
        let worse = match m.better {
            Better::Lower => (y.value - x.value) / x.value,
            Better::Higher => (x.value - y.value) / x.value,
        };
        if worse.abs() > m.bound {
            out.push(format!(
                "{}: {} vs {} {} differ by {:.1} % (bound {:.0} %)",
                m.name,
                x.value,
                y.value,
                m.unit,
                worse.abs() * 100.0,
                m.bound * 100.0
            ));
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(Some(cfg)) => cfg,
        Ok(None) => {
            print!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("lgbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before anything pins a thread: the CPUs this process may use.
    let cores = cpu::cpus().len();
    if cores < workloads::DRIVER_THREADS {
        eprintln!(
            "lgbench: {} driver threads on {cores} core(s) would measure the scheduler, not the system; refusing to start",
            workloads::DRIVER_THREADS
        );
        return ExitCode::from(2);
    }
    if cfg.quick {
        eprintln!("lgbench: --quick: sizes cut to smoke-test the path; THESE NUMBERS ARE NOT COMPARABLE with any other run");
    }
    let root = data_root();
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("lgbench: {}: {e}", root.display());
        return ExitCode::FAILURE;
    }

    let mut sets = Vec::new();
    for _ in 0..if cfg.check_repeat { 2 } else { 1 } {
        match run::observe(&cfg, &root).and_then(|observed| report::report(&cfg, &root, observed)) {
            Ok(set) => sets.push(set),
            Err(e) => {
                eprintln!("lgbench: {} failed: {e}", cfg.workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let disagree = if cfg.check_repeat && !cfg.quick && !cfg.trace {
        disagreements(&sets[0], &sets[1])
    } else {
        Vec::new()
    };

    let record_path = root.join(format!(
        "result-{}-trace{}.json",
        cfg.workload.name(),
        u8::from(cfg.trace)
    ));
    if let Err(e) = std::fs::write(
        &record_path,
        report::record_json(&cfg, &sets, &root, &disagree),
    ) {
        eprintln!("lgbench: {}: {e}", record_path.display());
        return ExitCode::FAILURE;
    }

    let first = &sets[0];
    let expected: Vec<&'static str> = if cfg.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    eprintln!(
        "lgbench: {} seed {} {} s trace {} ({cores} cores)",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let mut out = Vec::new();
    for name in &expected {
        let Some(m) = first.metrics.get(name) else {
            eprintln!("lgbench: internal error: metric {name} was not produced");
            return ExitCode::FAILURE;
        };
        eprintln!(
            "  {name:<44} {:>18.4} {:<8} n={}",
            m.value,
            unit_of(name),
            m.n
        );
        out.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(m.value),
            json_str(unit_of(name))
        ));
    }
    for set in &sets {
        for (what, ok, detail) in &set.checks {
            let (verdict, detail) = if *ok {
                ("ok  ", String::new())
            } else {
                ("FAIL", format!(" — {detail}"))
            };
            eprintln!("  check {verdict}: {what}{detail}");
        }
        if set.keep_awake_spinners < cores {
            eprintln!(
                "  note: only {} of {cores} cores were kept awake; blocking workloads will be noisier",
                set.keep_awake_spinners
            );
        }
        if set.spans_dropped > 0 {
            eprintln!(
                "  note: {} spans did not fit the span buffers",
                set.spans_dropped
            );
        }
    }
    for d in &disagree {
        eprintln!("  repeat FAIL: {d}");
    }
    eprintln!("  record: {}", record_path.display());

    let correct = sets.iter().all(RunResult::correct) && disagree.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        first.attempted,
        first.failed,
        out.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
