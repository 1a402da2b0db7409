//! The repo's benchmark of record: four seeded workloads, end-to-end and
//! per-crate metrics. See `benchmark/README.md`.

mod benchmodel;
mod common;
mod compare;
mod inputs;
mod micro;
mod report;
mod runner;
mod search;
mod serve;
mod stats;
mod timed;
mod trace;
mod train;

use std::process::ExitCode;

use common::{scratch_dir, RunConfig};
use inputs::Sizes;
use report::Outcome;

/// The defaults every mode shares: `--threads 2` (this box has two
/// cores, and every later number is relative to that load shape),
/// `--seed 1`, and the run length `BENCHMARK.json` fixes.
const DEFAULT_THREADS: usize = 2;
const DEFAULT_SEED: u64 = 1;
const RUN_SECONDS: u64 = 15;

const USAGE: &str = "usage:
  run [--seed N] [--threads N] [--seconds S] [--workload NAME] [--out FILE] [--smoke]
      every workload (or the one named) in a fresh child process, untraced then traced
  run --workload NAME --trace 0|1 [--seed N] [--threads N] [--seconds S] [--out FILE] [--smoke]
      one child run; the last line of standard output is its result object
  compare A.json B.json
      A is the base; exits 1 on a breach or a raised failure ratio
  manifest
      prints BENCHMARK.json from the metric registry";

/// `--name value` from the command line.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{name} {raw}: not a valid value")),
    }
}

fn smoke(args: &[String]) -> bool {
    args.iter().any(|a| a == "--smoke")
}

/// Runs one workload in this process, inside a scratch directory that is
/// removed again.
fn run_workload(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let outcome = match workload {
        "serve_cold" => Ok(serve::run(serve::Kind::Cold, cfg)),
        "serve_hot" => Ok(serve::run(serve::Kind::Hot, cfg)),
        "search_suite" => Ok(search::run(cfg)),
        "train_pipeline" => Ok(train::run(cfg)),
        other => Err(format!("unknown workload `{other}`")),
    };
    // Best effort: a leftover scratch directory is build output.
    let _unused = std::fs::remove_dir_all(&cfg.scratch);
    outcome
}

fn run_child(workload: &str, args: &[String]) -> Result<bool, String> {
    let traced = match flag(args, "--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        other => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    let cfg = RunConfig {
        seed: parsed(args, "--seed", DEFAULT_SEED)?,
        threads: parsed(args, "--threads", DEFAULT_THREADS)?.max(1),
        seconds: parsed(args, "--seconds", RUN_SECONDS as f64)?,
        traced,
        sizes: if smoke(args) {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        scratch: scratch_dir(workload)?,
    };
    let outcome = run_workload(workload, &cfg)?;
    let def = report::WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .expect("run_workload accepted the name");
    println!(
        "{workload}: seed {}, threads {}, {}",
        cfg.seed,
        cfg.threads,
        if traced {
            "traced (per-layer metrics)"
        } else {
            "untraced (end-to-end metrics)"
        }
    );
    println!("  operation = {}; work = {}", def.op, def.work);
    outcome.print_table(traced);
    if let Some(out) = flag(args, "--out") {
        let detail = outcome.detail(workload, traced);
        let text = serde_json::to_string(&detail).map_err(|e| e.to_string())?;
        std::fs::write(&out, text).map_err(|e| format!("{out}: {e}"))?;
    }
    println!("{}", outcome.result_line(traced));
    Ok(outcome.correct())
}

fn full_run(workload: Option<String>, args: &[String]) -> Result<bool, String> {
    runner::run_full(&runner::FullRun {
        workload,
        seed: parsed(args, "--seed", DEFAULT_SEED)?,
        threads: parsed(args, "--threads", DEFAULT_THREADS)?.max(1),
        seconds: parsed(args, "--seconds", RUN_SECONDS as f64)?,
        smoke: smoke(args),
        out: flag(args, "--out"),
        scratch: scratch_dir("full")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("manifest") => {
            println!("{}", report::manifest_json(RUN_SECONDS));
            Ok(true)
        }
        // `--trace` marks a single child run (the form the contract's
        // driver calls); without it, `run` is the full run that spawns
        // one child per workload and mode.
        Some("run") => match (flag(&args, "--workload"), flag(&args, "--trace")) {
            (Some(workload), Some(_)) => run_child(&workload, &args),
            (None, Some(_)) => Err("--trace needs --workload".into()),
            (workload, None) => full_run(workload, &args),
        },
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare::run(a, b),
            _ => Err(USAGE.into()),
        },
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("dlcm-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, WORKLOADS};

    /// Every workload, both modes, at 1/100 of the operation counts and
    /// the minimum number of repetitions: every operation succeeds,
    /// every output check holds, and the result line can be printed
    /// (which needs every end-to-end metric).
    #[test]
    fn every_workload_runs_correct_at_smoke_scale_in_both_modes() {
        for workload in &WORKLOADS {
            for traced in [false, true] {
                let cfg = RunConfig {
                    seed: 3,
                    threads: 2,
                    seconds: 0.0,
                    traced,
                    sizes: Sizes::smoke(),
                    scratch: scratch_dir(&format!("{}-{traced}", workload.name)).unwrap(),
                };
                let outcome = run_workload(workload.name, &cfg).unwrap();
                assert!(
                    outcome.correct(),
                    "{} traced={traced}: {:?}",
                    workload.name,
                    outcome.failures
                );
                assert!(outcome.attempted >= 1);
                assert!(!outcome.result_line(traced).is_empty());
                if traced {
                    assert!(!outcome.spans.is_empty());
                    assert!(outcome.metrics["trace.overhead_ratio"].value > 0.0);
                } else {
                    for def in &END_TO_END {
                        assert!(outcome.metrics[def.name].value > 0.0, "{}", def.name);
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_workload_is_an_error_not_a_panic() {
        let cfg = RunConfig {
            seed: 1,
            threads: 1,
            seconds: 0.0,
            traced: false,
            sizes: Sizes::smoke(),
            scratch: scratch_dir("unknown").unwrap(),
        };
        assert!(run_workload("no_such_workload", &cfg).is_err());
    }
}
