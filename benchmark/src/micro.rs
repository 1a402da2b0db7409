//! Direct timed calls into single crates, on the same inputs the
//! workload feeds the whole system — the per-layer numbers a decorator
//! cannot reach because the call is not behind a trait.

use std::hint::black_box;
use std::time::Instant;

use dlcm_eval::pool::parallel_map;
use dlcm_eval::{EvalStats, SyncEvaluator};
use dlcm_ir::{apply_schedule, Program, Schedule};
use dlcm_machine::Measurement;
use dlcm_model::{Featurizer, ModelArtifact};
use dlcm_tensor::kernel::matmul_into;

use crate::report::Outcome;
use crate::stats::Summary;
use crate::timed::MODEL_INFER;
use crate::trace::{durations_ns, total_ns_and_units, Span, Tracer};

const FEATURIZE: &str = "model.featurize";
const FINGERPRINT: &str = "ir.fingerprint";
const CACHE_PROBE: &str = "eval.cache_probe";
const APPLY_SCHEDULE: &str = "ir.apply_schedule";
const MEASURE: &str = "machine.measure";

/// A no-op tier under a result cache: what is left of a cached call when
/// scoring costs nothing is the probe path itself.
pub struct ConstantScores;

impl SyncEvaluator for ConstantScores {
    fn speedup_batch_shared(
        &self,
        _program: &Program,
        schedules: &[Schedule],
    ) -> (Vec<f64>, EvalStats) {
        (vec![1.0; schedules.len()], EvalStats::default())
    }

    fn total_stats(&self) -> EvalStats {
        EvalStats::default()
    }
}

/// `Featurizer::featurize`, one span per schedule.
pub fn featurize(
    tracer: &Tracer,
    featurizer: &Featurizer,
    program: &Program,
    schedules: &[Schedule],
) {
    for schedule in schedules {
        black_box(tracer.time(FEATURIZE, 1, || featurizer.featurize(program, schedule)));
    }
}

/// Mean nanoseconds of one direct featurize call.
pub fn featurize_ns_per_row(spans: &[Span]) -> f64 {
    let (ns, rows) = total_ns_and_units(spans, FEATURIZE);
    ns / rows.max(1.0)
}

/// Sets `model.infer_ns_per_row` and `model.infer_rows_per_call` from
/// the forward-pass spans of a [`crate::timed::TimedPredictor`].
pub fn record_infer(spans: &[Span], outcome: &mut Outcome) {
    let (ns, rows) = total_ns_and_units(spans, MODEL_INFER);
    let calls = durations_ns(spans, MODEL_INFER).len();
    outcome.set_exact("model.infer_ns_per_row", ns / rows.max(1.0));
    outcome.set_exact("model.infer_rows_per_call", rows / calls.max(1) as f64);
}

/// The cache-key computation of one wave: the program's
/// `content_fingerprint` once plus `Schedule::cache_key` per schedule.
pub fn fingerprint(tracer: &Tracer, program: &Program, schedules: &[Schedule]) {
    tracer.time(FINGERPRINT, schedules.len(), || {
        black_box(program.content_fingerprint());
        for schedule in schedules {
            black_box(schedule.cache_key());
        }
    });
}

/// The hit path of the sharded result cache on one wave: a first call
/// inserts the keys, the timed second call finds every one of them. The
/// tier underneath costs nothing, so the span is program memo, key
/// construction and shard probes.
pub fn cache_probe(
    tracer: &Tracer,
    probe: &impl SyncEvaluator,
    program: &Program,
    schedules: &[Schedule],
) {
    probe.speedup_batch_shared(program, schedules);
    black_box(tracer.time(CACHE_PROBE, schedules.len(), || {
        probe.speedup_batch_shared(program, schedules)
    }));
}

/// Sets `ir.fingerprint_ns` and `eval.cache_probe_ns_per_key` (both per
/// cache key) from the spans of [`fingerprint`] and [`cache_probe`].
pub fn record_fingerprint_and_probe(spans: &[Span], outcome: &mut Outcome) {
    let (ns, keys) = total_ns_and_units(spans, FINGERPRINT);
    outcome.set_exact("ir.fingerprint_ns", ns / keys.max(1.0));
    let (ns, keys) = total_ns_and_units(spans, CACHE_PROBE);
    outcome.set_exact("eval.cache_probe_ns_per_key", ns / keys.max(1.0));
}

/// `apply_schedule` and, on its result, `Measurement::measure`: the
/// legality-and-lowering cost and the simulated execution cost of one
/// candidate, separately.
pub fn apply_and_measure(
    tracer: &Tracer,
    harness: &Measurement,
    program: &Program,
    schedule: &Schedule,
) {
    let scheduled = tracer
        .time(APPLY_SCHEDULE, 1, || apply_schedule(program, schedule))
        .expect("a schedule the system produced is legal");
    black_box(tracer.time(MEASURE, 1, || harness.measure(&scheduled, 0)));
}

/// Sets `ir.apply_schedule_ns` and `machine.measure_ns` from the spans
/// of [`apply_and_measure`].
pub fn record_apply_and_measure(spans: &[Span], outcome: &mut Outcome) {
    outcome.set(
        "ir.apply_schedule_ns",
        Summary::of(&durations_ns(spans, APPLY_SCHEDULE)),
    );
    outcome.set(
        "machine.measure_ns",
        Summary::of(&durations_ns(spans, MEASURE)),
    );
}

/// `kernel::matmul_into` at the bench model's first embedding layer for
/// a batch of 8 computation vectors taken from a real request (the
/// kernel skips zeros, so synthetic dense input would misstate it), and
/// the model's dense-layer flop count per row, computed from its layer
/// shapes — not measured.
pub fn matmul(
    artifact: &ModelArtifact,
    program: &Program,
    schedule: &Schedule,
    outcome: &mut Outcome,
) {
    const ROWS: usize = 8;
    let cfg = artifact.model().config();
    let (k, n) = (cfg.input_dim, cfg.embed_widths[0]);
    let feats = artifact.featurizer().featurize(program, schedule);
    let a: Vec<f32> = feats
        .comp_vectors
        .iter()
        .cycle()
        .take(ROWS)
        .flatten()
        .copied()
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|i| ((i * 7) % 13) as f32 * 0.01 - 0.06)
        .collect();
    let mut out = vec![0.0f32; ROWS * n];
    let times: Vec<f64> = (0..400)
        .map(|_| {
            out.fill(0.0);
            let start = Instant::now();
            matmul_into(black_box(&a), ROWS, k, black_box(&b), n, &mut out);
            black_box(&out);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    outcome.set("tensor.matmul_ns_per_call", Summary::of(&times));

    // Multiply-adds x 2 through every dense layer one computation row
    // crosses in a one-loop program: the embedding MLP, one step of each
    // LSTM (4 gates over [input, state]), the merge MLP, the regression
    // head.
    let h = cfg.hidden();
    let chain = |widths: &[usize]| -> usize { widths.windows(2).map(|w| w[0] * w[1]).sum() };
    let mut embed = vec![cfg.input_dim];
    embed.extend(&cfg.embed_widths);
    let mut regress = vec![h];
    regress.extend(&cfg.regress_widths);
    regress.push(1);
    let lstm_step = 2 * h * 4 * h;
    let macs =
        chain(&embed) + 2 * lstm_step + chain(&[2 * h, cfg.merge_hidden, h]) + chain(&regress);
    outcome.set_exact("tensor.matmul_flops_per_row", (2 * macs) as f64);
}

/// `parallel_map` over 64 no-op items: what every fan-out pays before
/// any work is done.
pub fn pool_dispatch(threads: usize, outcome: &mut Outcome) {
    let times: Vec<f64> = (0..400)
        .map(|_| {
            let start = Instant::now();
            black_box(parallel_map(threads, 64, |i| i));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    outcome.set("eval.pool_dispatch_us", Summary::of(&times));
}
