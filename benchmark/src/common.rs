//! What every workload shares: the run configuration, the repeated
//! set-up clock, and how the end-to-end metrics are reduced.

use std::path::PathBuf;
use std::time::Instant;

use crate::inputs::Sizes;
use crate::report::{Better, Outcome};
use crate::stats::Summary;

/// One child run's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Client connections, `ServeConfig.threads`, search threads and
    /// datagen/featurize fan-out alike; never more than this.
    pub threads: usize,
    /// How long the timed phase measures, in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Operation counts.
    pub sizes: Sizes,
    /// Directory this run may write under; removed when the run ends.
    pub scratch: PathBuf,
}

/// Scratch space under the directory the executable was built into: the
/// one place that is inside the checkout wherever the benchmark is run
/// from, and already ignored as build output.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("path of this executable: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    Ok(dir.join(format!("bench-scratch-{}-{tag}", std::process::id())))
}

/// Fewest repetitions of a timed phase: the median over fewer than five
/// is not robust to one noisy phase.
pub const MIN_REPS: usize = 5;

/// Runs `setup` `reps` times, timing each, and returns the last product
/// with the times in seconds. Set-up is repeated because a single
/// set-up time is one sample; a later change that moves work into
/// set-up has to show against a median.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut product = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        product = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (product.expect("at least one set-up"), times)
}

/// What one repetition of a timed phase observed.
#[derive(Debug, Clone, Copy)]
pub struct RepSample {
    /// The repetition's operation time in microseconds (its median round
    /// trip, or its own wall-clock).
    pub op_us: f64,
    /// Units of work per second of the repetition.
    pub work_per_s: f64,
}

/// Records the end-to-end metrics over a run's repetitions.
///
/// `op_p50_us` and `work_per_s` report the *best* repetition (the
/// fastest time, the highest rate), not the median over repetitions. On
/// this box a repetition is only ever slowed — by a neighbour on the
/// host, or by where the scheduler happened to put that repetition's
/// client and server threads — and the slow repetitions come in phases
/// that can outlast a run: between a quiet hour and a noisy one the
/// median `search_suite` pass moved by 40%, the fastest by 11%; across
/// two sets of ten `serve_hot` runs the median over repetitions spread
/// by 13.5% and 21.5% of its own median, the best repetition by 8.6% and
/// 16.0%. The best repetition is the steadiest estimate of what the code
/// does when left alone, which is what two commits are compared on. The
/// median and both quartiles are printed and stored beside the value.
/// `setup_s` is the median of the set-up times.
pub fn record_end_to_end(outcome: &mut Outcome, setup_s: &[f64], reps: &[RepSample]) {
    let op: Vec<f64> = reps.iter().map(|r| r.op_us).collect();
    let work: Vec<f64> = reps.iter().map(|r| r.work_per_s).collect();
    outcome.set("op_p50_us", Summary::best_of(&op, Better::Lower));
    outcome.set("work_per_s", Summary::best_of(&work, Better::Higher));
    outcome.set("setup_s", Summary::of(setup_s));
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Records what every traced run reports about its own process: peak
/// memory, and failures over attempts.
pub fn record_traced_process(outcome: &mut Outcome) {
    outcome.set_exact("process.peak_rss_mb", peak_rss_mb());
    outcome.set_exact(
        "check.failed_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(op_us: f64) -> RepSample {
        RepSample {
            op_us,
            work_per_s: 1e6 / op_us,
        }
    }

    #[test]
    fn slow_repetitions_do_not_move_the_reported_value() {
        // Five quiet repetitions, then a phase in which six more run
        // 1.5x to 10x slower: the mean and the median both move, the
        // best repetition does not.
        let quiet = [rep(100.0), rep(101.0), rep(99.0), rep(100.0), rep(100.0)];
        let mut noisy = quiet.to_vec();
        noisy.extend([150.0, 1000.0, 160.0, 155.0, 170.0, 152.0].map(rep));
        let value = |reps: &[RepSample], name: &str| {
            let mut outcome = Outcome::default();
            record_end_to_end(&mut outcome, &[2.0, 3.0, 2.5], reps);
            outcome.metrics[name]
        };
        assert_eq!(value(&quiet, "op_p50_us").value, 99.0);
        assert_eq!(value(&noisy, "op_p50_us").value, 99.0);
        assert_eq!(value(&quiet, "op_p50_us").median, 100.0);
        assert_eq!(value(&noisy, "op_p50_us").median, 150.0);
        assert_eq!(value(&noisy, "op_p50_us").n, 11);
        assert_eq!(value(&noisy, "work_per_s").value, 1e6 / 99.0);
        assert_eq!(value(&noisy, "setup_s").value, 2.5);
    }
}
