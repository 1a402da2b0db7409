//! Mispredict capture: ground-truth spot checks of served predictions,
//! banded by relative error, retained in a bounded log.
//!
//! The serving tier sees exactly the traffic that exposes the cost
//! model's blind spots; this module is the capture half of the data
//! flywheel that turns those blind spots into training data:
//!
//! - **every first-seen row is checked**: whether a row is checked
//!   depends only on whether its `(model fingerprint, program
//!   fingerprint, schedule fingerprint)` was checked before, never on
//!   thread interleaving or cache state — so a fixed-seed serve window
//!   checks the same rows at any `--threads` setting;
//! - **ground truth** comes from a caller-supplied [`SyncEvaluator`]
//!   (in practice `dlcm_eval::ParallelEvaluator` over the execution
//!   harness, fanned behind the shared worker pool), queried only for
//!   not-yet-seen rows;
//! - **banding** ([`band_for`]) grades each divergence
//!   PASS/WARN/HIGH/CRITICAL by relative error — a pure function of
//!   `(predicted, measured)` — and only WARN+ rows are retained;
//! - **bounding**: the log holds at most 1024 records, dropping
//!   oldest-first with an exact [`MispredictCounters::dropped`] count,
//!   and a seen-set LRU of 2¹⁶ rows ensures a row whose cache entry was
//!   evicted and re-served is never double-counted.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dlcm_eval::{LruMap, SyncEvaluator};
use dlcm_ir::fingerprint::stable_fingerprint;
use dlcm_ir::{Program, Schedule};
use serde::{Deserialize, Serialize};

/// Relative error below which a prediction is considered on target.
pub const BAND_WARN_THRESHOLD: f64 = 0.10;
/// Relative error at which a divergence escalates from WARN to HIGH.
pub const BAND_HIGH_THRESHOLD: f64 = 0.25;
/// Relative error at which a divergence escalates from HIGH to CRITICAL.
pub const BAND_CRITICAL_THRESHOLD: f64 = 0.50;

/// Records the mispredict log retains; oldest records are dropped first
/// on overflow.
const LOG_CAPACITY: usize = 1024;

/// Entry bound of the seen-set LRU that de-duplicates repeat checks of
/// the same `(model, program, schedule)` row.
const SEEN_CAPACITY: usize = 1 << 16;

/// Severity of one prediction's divergence from ground truth, by
/// relative error (see [`band_for`]). Ordered: `Pass < Warn < High <
/// Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ErrorBand {
    /// Relative error below [`BAND_WARN_THRESHOLD`] — not worth
    /// learning from; never retained.
    Pass,
    /// Relative error in `[0.10, 0.25)`.
    Warn,
    /// Relative error in `[0.25, 0.50)`.
    High,
    /// Relative error `>= 0.50`, or a non-finite prediction.
    Critical,
}

impl std::fmt::Display for ErrorBand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorBand::Pass => "PASS",
            ErrorBand::Warn => "WARN",
            ErrorBand::High => "HIGH",
            ErrorBand::Critical => "CRITICAL",
        })
    }
}

/// Grades `predicted` against `measured` ground truth: a pure function
/// of its two arguments (no clock, no RNG, no global state), so band
/// assignment is identical at any thread count and on every replay.
///
/// The relative error is `|predicted - measured| / max(|measured|, ε)`;
/// non-finite error (NaN/infinite inputs) is graded [`ErrorBand::Critical`].
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

/// One retained mispredict: everything the flywheel needs to turn the
/// divergence into a labeled corpus sample (the *measured* speedup is
/// the label; the prediction and band are provenance).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MispredictRecord {
    /// The program the query was served against.
    pub program: Program,
    /// The transformation sequence queried.
    pub schedule: Schedule,
    /// What the served model answered.
    pub predicted: f64,
    /// Ground-truth speedup from the truth evaluator.
    pub measured: f64,
    /// Severity band of the divergence (always `>=` [`ErrorBand::Warn`]
    /// for retained records).
    pub band: ErrorBand,
    /// Fingerprint of the model epoch that produced `predicted`.
    pub model_fingerprint: u64,
}

/// Monotonic capture accounting, surfaced through
/// `dlcm_serve::ServeStats` (and thence the network `Stats` frame).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MispredictCounters {
    /// Rows spot-checked against ground truth (first occurrence only).
    pub checked: usize,
    /// Checked rows graded [`ErrorBand::Warn`].
    pub warn: usize,
    /// Checked rows graded [`ErrorBand::High`].
    pub high: usize,
    /// Checked rows graded [`ErrorBand::Critical`].
    pub critical: usize,
    /// WARN+ records pushed into the log (monotonic — unaffected by
    /// drains or drops).
    pub logged: usize,
    /// Records dropped oldest-first to honor the log capacity.
    pub dropped: usize,
}

#[derive(Debug, Default)]
struct LogInner {
    entries: VecDeque<MispredictRecord>,
    logged: usize,
    dropped: usize,
}

/// A bounded, thread-safe FIFO of retained mispredicts: at most
/// [`LOG_CAPACITY`] records, oldest dropped first, with exact `logged` /
/// `dropped` accounting. Draining returns records in capture order.
#[derive(Debug, Default)]
pub(crate) struct MispredictLog {
    inner: Mutex<LogInner>,
}

impl MispredictLog {
    /// Records pushed so far (monotonic).
    fn logged(&self) -> usize {
        self.inner.lock().expect("mispredict log").logged
    }

    /// Records dropped oldest-first to stay within capacity (monotonic).
    fn dropped(&self) -> usize {
        self.inner.lock().expect("mispredict log").dropped
    }

    /// Appends a record, evicting the oldest if the log is full.
    fn push(&self, record: MispredictRecord) {
        let mut inner = self.inner.lock().expect("mispredict log");
        if inner.entries.len() == LOG_CAPACITY {
            inner.entries.pop_front();
            inner.dropped += 1;
        }
        inner.entries.push_back(record);
        inner.logged += 1;
    }

    /// Removes and returns every retained record, oldest first. The
    /// `logged`/`dropped` counters are unaffected (they are monotonic
    /// totals, not gauges).
    fn drain(&self) -> Vec<MispredictRecord> {
        let mut inner = self.inner.lock().expect("mispredict log");
        inner.entries.drain(..).collect()
    }
}

/// The capture half of the flywheel, installed once per service via
/// `InferenceService::enable_mispredict_capture`.
pub(crate) struct CaptureState {
    truth: Box<dyn SyncEvaluator>,
    log: MispredictLog,
    /// `(model_fp, program_fp, schedule_fp)` rows already checked —
    /// bounded, so sustained traffic cannot grow it; checked under one
    /// lock so concurrent repeats of a row serialize and exactly one
    /// claims it.
    seen: Mutex<LruMap<(u64, u64, u64), ()>>,
    checked: AtomicUsize,
    warn: AtomicUsize,
    high: AtomicUsize,
    critical: AtomicUsize,
}

impl CaptureState {
    pub(crate) fn new(truth: Box<dyn SyncEvaluator>) -> Self {
        Self {
            truth,
            log: MispredictLog::default(),
            seen: Mutex::new(LruMap::with_capacity(SEEN_CAPACITY)),
            checked: AtomicUsize::new(0),
            warn: AtomicUsize::new(0),
            high: AtomicUsize::new(0),
            critical: AtomicUsize::new(0),
        }
    }

    /// Spot-checks one served batch: claims the not-yet-seen rows,
    /// scores them against ground truth, and retains WARN+ divergences.
    /// Runs after the response values are fixed — it can never change an
    /// answer, only observe it.
    pub(crate) fn observe(
        &self,
        program: &Program,
        schedules: &[Schedule],
        predicted: &[f64],
        model_fp: u64,
    ) {
        let program_fp = program.content_fingerprint();
        let fresh: Vec<usize> = {
            let mut seen = self.seen.lock().expect("mispredict seen set");
            (0..schedules.len())
                .filter(|&i| {
                    let key = (model_fp, program_fp, stable_fingerprint(&schedules[i]));
                    if seen.get(&key).is_some() {
                        false
                    } else {
                        seen.insert(key, ());
                        true
                    }
                })
                .collect()
        };
        if fresh.is_empty() {
            return;
        }
        let subset: Vec<Schedule> = fresh.iter().map(|&i| schedules[i].clone()).collect();
        let (measured, _) = self.truth.speedup_batch_shared(program, &subset);
        self.checked.fetch_add(fresh.len(), Ordering::Relaxed);
        for (i, measured) in fresh.iter().zip(&measured) {
            let band = band_for(predicted[*i], *measured);
            let counter = match band {
                ErrorBand::Pass => continue,
                ErrorBand::Warn => &self.warn,
                ErrorBand::High => &self.high,
                ErrorBand::Critical => &self.critical,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            self.log.push(MispredictRecord {
                program: program.clone(),
                schedule: schedules[*i].clone(),
                predicted: predicted[*i],
                measured: *measured,
                band,
                model_fingerprint: model_fp,
            });
        }
    }

    pub(crate) fn drain(&self) -> Vec<MispredictRecord> {
        self.log.drain()
    }

    pub(crate) fn counters(&self) -> MispredictCounters {
        MispredictCounters {
            checked: self.checked.load(Ordering::Relaxed),
            warn: self.warn.load(Ordering::Relaxed),
            high: self.high.load(Ordering::Relaxed),
            critical: self.critical.load(Ordering::Relaxed),
            logged: self.log.logged(),
            dropped: self.log.dropped(),
        }
    }
}

impl std::fmt::Debug for CaptureState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaptureState")
            .field("counters", &self.counters())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_ir::{Expr, ProgramBuilder};

    fn record(tag: u64) -> MispredictRecord {
        let mut b = ProgramBuilder::new("p");
        let i = b.iter("i", 0, 8);
        let inp = b.input("in", &[8]);
        let out = b.buffer("out", &[8]);
        let acc = b.access(inp, &[i.into()], &[i]);
        b.assign("c", &[i], out, &[i.into()], Expr::Load(acc));
        MispredictRecord {
            program: b.build().unwrap(),
            schedule: Schedule::empty(),
            predicted: tag as f64,
            measured: 1.0,
            band: ErrorBand::Critical,
            model_fingerprint: tag,
        }
    }

    #[test]
    fn banding_thresholds() {
        assert_eq!(band_for(1.0, 1.0), ErrorBand::Pass);
        assert_eq!(band_for(1.09, 1.0), ErrorBand::Pass);
        assert_eq!(band_for(1.10, 1.0), ErrorBand::Warn);
        assert_eq!(band_for(0.80, 1.0), ErrorBand::Warn);
        assert_eq!(band_for(1.25, 1.0), ErrorBand::High);
        assert_eq!(band_for(0.60, 1.0), ErrorBand::High);
        assert_eq!(band_for(1.50, 1.0), ErrorBand::Critical);
        assert_eq!(band_for(10.0, 1.0), ErrorBand::Critical);
        assert_eq!(band_for(f64::NAN, 1.0), ErrorBand::Critical);
        assert_eq!(band_for(f64::INFINITY, 1.0), ErrorBand::Critical);
        // Banding is symmetric in error magnitude, scaled by |measured|.
        assert_eq!(band_for(2.15, 2.0), ErrorBand::Pass);
        assert_eq!(band_for(2.6, 2.0), ErrorBand::High);
        assert!(ErrorBand::Pass < ErrorBand::Warn);
        assert!(ErrorBand::Warn < ErrorBand::High);
        assert!(ErrorBand::High < ErrorBand::Critical);
    }

    #[test]
    fn bounded_log_drops_oldest_first() {
        let log = MispredictLog::default();
        let pushed = LOG_CAPACITY as u64 + 5;
        for tag in 0..pushed {
            log.push(record(tag));
        }
        assert_eq!(log.logged(), LOG_CAPACITY + 5);
        assert_eq!(log.dropped(), 5, "one drop per record past the bound");
        let drained = log.drain();
        let tags: Vec<u64> = drained.iter().map(|r| r.model_fingerprint).collect();
        assert_eq!(
            tags,
            (5..pushed).collect::<Vec<u64>>(),
            "oldest records fell out first"
        );
        assert!(log.drain().is_empty());
        assert_eq!(
            log.logged(),
            LOG_CAPACITY + 5,
            "monotonic counters survive a drain"
        );
        assert_eq!(log.dropped(), 5);
    }
}
