//! The flywheel's check stage: [`band_for`] grades a served score
//! against ground truth, and a [`MispredictCapture`] keeps the rows
//! worth learning from for `run_flywheel` to append to the corpus.

use std::collections::{HashSet, VecDeque};

use dlcm_datagen::AppendSample;
use dlcm_eval::SyncEvaluator;
use dlcm_ir::fingerprint::stable_fingerprint;
use dlcm_ir::{Program, Schedule};
use serde::Serialize;

/// Relative error below which a prediction is on target.
const BAND_WARN_THRESHOLD: f64 = 0.10;
/// Relative error at which a divergence escalates from WARN to HIGH.
const BAND_HIGH_THRESHOLD: f64 = 0.25;
/// Relative error at which a divergence escalates from HIGH to CRITICAL.
const BAND_CRITICAL_THRESHOLD: f64 = 0.50;

/// Mispredicts a [`MispredictCapture`] keeps; the oldest drop first.
const LOG_CAPACITY: usize = 1024;

/// Severity of one prediction's divergence from ground truth, by
/// relative error (see [`band_for`]). Ordered: `Pass < Warn < High <
/// Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ErrorBand {
    /// Relative error below 0.10 — on target; never kept.
    Pass,
    /// Relative error in `[0.10, 0.25)`.
    Warn,
    /// Relative error in `[0.25, 0.50)`.
    High,
    /// Relative error `>= 0.50`, or a non-finite one.
    Critical,
}

/// Grades `predicted` against `measured` ground truth: a pure function
/// of its two arguments, so bands are identical on every replay.
///
/// The relative error is `|predicted - measured| / max(|measured|, ε)`;
/// a non-finite error (NaN or infinite inputs) is [`ErrorBand::Critical`].
pub fn band_for(predicted: f64, measured: f64) -> ErrorBand {
    let rel = (predicted - measured).abs() / measured.abs().max(f64::EPSILON);
    if !rel.is_finite() {
        return ErrorBand::Critical;
    }
    if rel < BAND_WARN_THRESHOLD {
        ErrorBand::Pass
    } else if rel < BAND_HIGH_THRESHOLD {
        ErrorBand::Warn
    } else if rel < BAND_CRITICAL_THRESHOLD {
        ErrorBand::High
    } else {
        ErrorBand::Critical
    }
}

/// What a [`MispredictCapture`] counted, reported in `flywheel.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct MispredictCounters {
    /// Rows checked against ground truth (first occurrence only).
    pub checked: usize,
    /// Checked rows graded [`ErrorBand::Warn`].
    pub warn: usize,
    /// Checked rows graded [`ErrorBand::High`].
    pub high: usize,
    /// Checked rows graded [`ErrorBand::Critical`].
    pub critical: usize,
    /// WARN+ rows kept, drops included.
    pub logged: usize,
    /// Kept rows dropped oldest-first to stay within 1024.
    pub dropped: usize,
}

/// The flywheel's check stage: grades served scores against ground
/// truth and keeps the rows worth learning from.
///
/// A row is checked the first time its `(program content fingerprint,
/// stable fingerprint of the literal schedule)` is offered, never
/// again — so what is checked depends on the window's content alone,
/// not on the service's cache or thread count. WARN+ rows become
/// [`AppendSample`]s labeled by the *measured* speedup; the newest 1024
/// are kept.
#[derive(Debug)]
pub struct MispredictCapture<E> {
    truth: E,
    seen: HashSet<(u64, u64)>,
    kept: VecDeque<AppendSample>,
    counters: MispredictCounters,
}

impl<E: SyncEvaluator> MispredictCapture<E> {
    /// A capture that asks `truth` — in the flywheel the execution
    /// harness behind a `ParallelEvaluator` — for ground truth.
    pub fn new(truth: E) -> Self {
        Self {
            truth,
            seen: HashSet::new(),
            kept: VecDeque::new(),
            counters: MispredictCounters::default(),
        }
    }

    /// Checks the first-seen rows of one served wave: `served[i]` is the
    /// score the service answered for `schedules[i]`.
    pub fn check(&mut self, program: &Program, schedules: &[Schedule], served: &[f64]) {
        let program_fp = program.content_fingerprint();
        let fresh: Vec<usize> = (0..schedules.len())
            .filter(|&i| {
                self.seen
                    .insert((program_fp, stable_fingerprint(&schedules[i])))
            })
            .collect();
        if fresh.is_empty() {
            return;
        }
        let subset: Vec<Schedule> = fresh.iter().map(|&i| schedules[i].clone()).collect();
        let (measured, _) = self.truth.speedup_batch_shared(program, &subset);
        self.counters.checked += fresh.len();
        for (&i, speedup) in fresh.iter().zip(measured) {
            let count = match band_for(served[i], speedup) {
                ErrorBand::Pass => continue,
                ErrorBand::Warn => &mut self.counters.warn,
                ErrorBand::High => &mut self.counters.high,
                ErrorBand::Critical => &mut self.counters.critical,
            };
            *count += 1;
            self.keep(AppendSample {
                program: program.clone(),
                schedule: schedules[i].clone(),
                speedup,
                family: None,
            });
        }
    }

    /// Keeps one WARN+ row, dropping the oldest kept row at the bound.
    fn keep(&mut self, sample: AppendSample) {
        if self.kept.len() == LOG_CAPACITY {
            self.kept.pop_front();
            self.counters.dropped += 1;
        }
        self.kept.push_back(sample);
        self.counters.logged += 1;
    }

    /// What has been counted so far.
    pub fn counters(&self) -> MispredictCounters {
        self.counters
    }

    /// The kept rows, oldest first.
    pub fn into_samples(self) -> Vec<AppendSample> {
        self.kept.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_eval::EvalStats;
    use dlcm_ir::{Expr, ProgramBuilder};

    /// The ring alone is under test: no ground truth is ever asked for.
    struct NoTruth;

    impl SyncEvaluator for NoTruth {
        fn speedup_batch_shared(&self, _: &Program, _: &[Schedule]) -> (Vec<f64>, EvalStats) {
            unreachable!("keep never consults ground truth")
        }

        fn total_stats(&self) -> EvalStats {
            EvalStats::default()
        }
    }

    fn sample(tag: u64) -> AppendSample {
        let mut b = ProgramBuilder::new("p");
        let i = b.iter("i", 0, 8);
        let inp = b.input("in", &[8]);
        let out = b.buffer("out", &[8]);
        let acc = b.access(inp, &[i.into()], &[i]);
        b.assign("c", &[i], out, &[i.into()], Expr::Load(acc));
        AppendSample {
            program: b.build().unwrap(),
            schedule: Schedule::empty(),
            speedup: tag as f64,
            family: None,
        }
    }

    #[test]
    fn bounded_log_drops_oldest_first() {
        let mut capture = MispredictCapture::new(NoTruth);
        let pushed = LOG_CAPACITY as u64 + 5;
        for tag in 0..pushed {
            capture.keep(sample(tag));
        }
        let counters = capture.counters();
        assert_eq!(counters.logged, LOG_CAPACITY + 5);
        assert_eq!(counters.dropped, 5, "one drop per row past the bound");
        let tags: Vec<u64> = capture
            .into_samples()
            .iter()
            .map(|s| s.speedup as u64)
            .collect();
        assert_eq!(
            tags,
            (5..pushed).collect::<Vec<u64>>(),
            "oldest rows fell out first"
        );
    }
}
