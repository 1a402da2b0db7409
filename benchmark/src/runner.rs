//! The full run: every workload in a fresh child process of this
//! binary, untraced first (end-to-end metrics) and then traced
//! (per-layer metrics), merged into one result file with the
//! environment it was measured in.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use serde::{Deserialize, Serialize};

use crate::report::{RunDetail, WORKLOADS};

/// Where and how a result file was measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Environment {
    /// Hardware threads the machine offers.
    pub nproc: usize,
    /// `--threads`: connections, service, search and datagen threads.
    pub threads: usize,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: length of each timed phase.
    pub seconds: f64,
    /// `git rev-parse HEAD` of the measured tree, or `unknown`.
    pub git_commit: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Whether operation counts were the 1/100 smoke scale.
    pub smoke: bool,
}

/// One full run: the environment and every child run's detail
/// (per-workload operation and sample counts are in each detail's
/// `counts`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultFile {
    /// Where and how it was measured.
    pub env: Environment,
    /// Child runs in execution order: per workload, untraced then traced.
    pub runs: Vec<RunDetail>,
}

impl ResultFile {
    /// The run of `workload` in the given mode, if the file has one.
    pub fn run(&self, workload: &str, traced: bool) -> Option<&RunDetail> {
        self.runs
            .iter()
            .find(|r| r.workload == workload && r.traced == traced)
    }
}

/// First line of a command's standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Parameters of a full run, as parsed from the command line.
pub struct FullRun {
    /// The one workload to run, or all four.
    pub workload: Option<String>,
    /// `--seed`.
    pub seed: u64,
    /// `--threads`.
    pub threads: usize,
    /// `--seconds`.
    pub seconds: f64,
    /// `--smoke`.
    pub smoke: bool,
    /// `--out`: where the merged result file goes.
    pub out: Option<String>,
    /// Directory for the children's detail files.
    pub scratch: PathBuf,
}

/// Runs the children, prints the cross-run lines no child can print, and
/// writes the result file. Returns whether every run was correct.
pub fn run_full(full: &FullRun) -> Result<bool, String> {
    let names: Vec<&str> = match &full.workload {
        Some(name) => vec![
            WORKLOADS
                .iter()
                .find(|w| w.name == name)
                .ok_or_else(|| format!("unknown workload `{name}`"))?
                .name,
        ],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&full.scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let mut runs = Vec::new();
    for name in &names {
        for trace in ["0", "1"] {
            let detail_path = full.scratch.join(format!("{name}-{trace}.json"));
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", name, "--trace", trace])
                .args(["--seed", &full.seed.to_string()])
                .args(["--threads", &full.threads.to_string()])
                .args(["--seconds", &full.seconds.to_string()])
                .arg("--out")
                .arg(&detail_path);
            if full.smoke {
                child.arg("--smoke");
            }
            // The child prints its own table; `status` waits for it.
            let status = child.status().map_err(|e| format!("spawn {name}: {e}"))?;
            let text = std::fs::read_to_string(&detail_path).map_err(|e| {
                format!("{name} --trace {trace} left no detail file ({status}): {e}")
            })?;
            let mut detail: RunDetail = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            // Spans stay in a child's own `--out`; the merged file is the
            // record two runs are compared by.
            detail.spans.clear();
            runs.push(detail);
        }
    }
    let _unused = std::fs::remove_dir_all(&full.scratch);

    let result = ResultFile {
        env: Environment {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            threads: full.threads,
            seed: full.seed,
            seconds: full.seconds,
            git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
            rustc: first_line_of("rustc", &["-V"]),
            smoke: full.smoke,
        },
        runs,
    };
    print_budgets(&result);
    println!(
        "environment: nproc {} threads {} seed {} seconds {} commit {} ({})",
        result.env.nproc,
        result.env.threads,
        result.env.seed,
        result.env.seconds,
        result.env.git_commit,
        result.env.rustc
    );
    if let Some(out) = &full.out {
        let text = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
        std::fs::write(out, text).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(result.runs.iter().all(|r| r.correct))
}

/// For each serve workload: the traced stage medians and the residual
/// beside the round trip they sum to, and the single-connection round
/// trip beside the contended one, so the cost of contention is itself a
/// number.
fn print_budgets(result: &ResultFile) {
    for name in ["serve_cold", "serve_hot"] {
        let (Some(untraced), Some(traced)) = (result.run(name, false), result.run(name, true))
        else {
            continue;
        };
        let median = |metrics: &BTreeMap<String, crate::stats::Summary>, key: &str| {
            metrics.get(key).map_or(0.0, |s| s.value)
        };
        let stages = [
            "net.encode_request_us",
            "net.decode_request_us",
            "serve.call_us",
            "net.encode_response_us",
            "net.decode_response_us",
            "net.residual_us",
        ];
        let parts: Vec<String> = stages
            .iter()
            .map(|s| format!("{} {:.1}", s, median(&traced.metrics, s)))
            .collect();
        let sum: f64 = stages.iter().map(|s| median(&traced.metrics, s)).sum();
        println!("{name} budget: {} = {sum:.1} us", parts.join(" + "));
        println!(
            "{name} contention: net.rtt_us {:.1} us (traced, 1 connection) beside op_p50_us {:.1} us \
             (untraced, {} connections)",
            median(&traced.metrics, "net.rtt_us"),
            median(&untraced.metrics, "op_p50_us"),
            result.env.threads
        );
    }
}
