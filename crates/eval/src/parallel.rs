//! Evaluation by (simulated) compilation and execution: the paper's
//! ground-truth evaluator and the slow path of Table 2.
//!
//! Every candidate pays a simulated compile (Tiramisu → Halide → LLVM is
//! not cheap) plus `repeats` measured runs on the simulated machine. The
//! paper evaluates candidates on a cluster (dual-socket 12-core nodes,
//! median of 30 runs); [`ParallelEvaluator`] is that fan-out applied to
//! the simulated harness, and with one thread it is the plain sequential
//! evaluator.
//!
//! Scoring is *pure*: every score is a function of `(measurement, seed,
//! program, schedule)` only, so a batch scored across N workers returns
//! exactly the sequential values — same measurements, same simulated time
//! accounting, folded in candidate order so even the floating-point sums
//! match bit for bit. Deliberately, the candidate's position in a batch
//! does **not** enter the seed: the same `(program, schedule)` must
//! measure the same at any batch index, or the result cache would perturb
//! results.
//!
//! Mutable bookkeeping (accumulated stats, per-program baseline times)
//! lives behind a mutex, so the evaluator is also a [`SyncEvaluator`]:
//! several concurrent searches can score batches through one shared
//! instance (typically behind a [`crate::SharedCachedEvaluator`]), each
//! receiving its own per-call [`EvalStats`] delta while the heavy scoring
//! itself runs outside any lock.

use std::sync::Mutex;

use dlcm_ir::{Program, Schedule};
use dlcm_machine::Measurement;

use crate::{pool, EvalStats, Evaluator, SyncEvaluator};

/// Batches smaller than this run inline on the caller's thread. At
/// ~4.5µs per simulated execution, a sub-8-candidate batch finishes in the
/// same order of magnitude as the pool's enqueue + wakeup cost, so
/// fanning it out can only lose.
const PAR_CUTOVER: usize = 8;

/// Simulated seconds charged to compile one candidate.
const COMPILE_COST: f64 = 2.0;

/// Execution evaluation fanned out across the persistent worker pool.
///
/// A batch of candidates is scored by up to `threads` concurrent workers,
/// with scores and accounted stats equal to one-thread scoring —
/// `tests/batch_parity.rs` enforces both. The accounted `search_time`
/// remains the *simulated* sequential cost (the paper's cluster hides
/// compile+run latency the same way; Table 2 still reports total machine
/// seconds).
///
/// Batches smaller than 8 candidates skip the pool and run inline —
/// scores are bit-identical either way (the pool assembles by index), so
/// the cutover is purely a latency choice.
#[derive(Debug)]
pub struct ParallelEvaluator {
    measurement: Measurement,
    seed: u64,
    threads: usize,
    state: Mutex<State>,
}

/// Interior bookkeeping, grouped under one lock. The lock is held only
/// for baseline measurement and stats folding — never across candidate
/// scoring.
#[derive(Debug, Clone, Default)]
struct State {
    stats: EvalStats,
    /// Baseline time per program seen, keyed by [`Program::cache_key`]
    /// (names are not unique — generated programs and scaled benchmark
    /// builders reuse them — so the key covers the whole structure, and
    /// a renamed copy is the same workload with the same baseline). A
    /// FIFO-bounded map, not a last-seen memo: concurrent searches
    /// interleave batches for different programs, while corpus-scale
    /// labeling must not grow it with the corpus. Keying hashes the
    /// program before the state lock is taken, so the lock guards a scan
    /// of at most 64 words. An evicted program re-measures (and
    /// re-charges) its baseline, so per-search stats determinism needs
    /// the concurrently active program set to fit the window — suite
    /// sweeps hold tens of programs against a cap of 64.
    base_times: Vec<(u64, f64)>,
}

impl Clone for ParallelEvaluator {
    fn clone(&self) -> Self {
        Self {
            measurement: self.measurement.clone(),
            seed: self.seed,
            threads: self.threads,
            state: Mutex::new(self.state.lock().expect("evaluator state").clone()),
        }
    }
}

impl ParallelEvaluator {
    /// Creates an execution evaluator scoring each batch on up to
    /// `threads` workers, charging a 2-second simulated compile per
    /// candidate. `threads == 1` is inline sequential scoring.
    pub fn new(measurement: Measurement, seed: u64, threads: usize) -> Self {
        Self {
            measurement,
            seed,
            threads: threads.max(1),
            state: Mutex::new(State::default()),
        }
    }

    /// Accounting snapshot (inherent, so callers never need to pick
    /// between the [`Evaluator`] and [`SyncEvaluator`] spellings).
    pub fn stats(&self) -> EvalStats {
        self.state.lock().expect("evaluator state").stats
    }

    /// Baseline time for `program`, measuring it exactly once per distinct
    /// program. Returns the time plus the stats charged *by this call*
    /// (zero when another call already paid for the measurement). Held
    /// under the state lock so concurrent callers racing on a brand-new
    /// program still measure it once.
    fn base_time(&self, program: &Program) -> (f64, EvalStats) {
        let key = program.cache_key();
        let mut state = self.state.lock().expect("evaluator state");
        let mut charged = EvalStats::default();
        let t = crate::cache::memoized(&mut state.base_times, key, || {
            let repeats = f64::from(self.measurement.repeats.max(1));
            let t = self
                .measurement
                .measure_schedule(program, &Schedule::empty(), self.seed ^ 0xBA5E)
                .expect("empty schedule is legal");
            charged = EvalStats {
                compile_time: COMPILE_COST,
                search_time: COMPILE_COST + repeats * t,
                ..EvalStats::default()
            };
            t
        });
        state.stats += charged;
        (t, charged)
    }

    /// Scores one candidate against a baseline time, returning the speedup
    /// and the stats to charge for it. Pure: no `&mut`, no batch-position
    /// dependence.
    fn score(&self, program: &Program, base: f64, schedule: &Schedule) -> (f64, EvalStats) {
        let repeats = f64::from(self.measurement.repeats.max(1));
        match self
            .measurement
            .measure_schedule(program, schedule, self.seed)
        {
            Ok(t) => (
                base / t.max(f64::MIN_POSITIVE),
                EvalStats {
                    num_evals: 1,
                    compile_time: COMPILE_COST,
                    search_time: COMPILE_COST + repeats * t,
                    ..EvalStats::default()
                },
            ),
            // Candidates are validated before evaluation; an illegal one
            // contributes a failed compile.
            Err(_) => (
                0.0,
                EvalStats {
                    num_evals: 1,
                    compile_time: COMPILE_COST,
                    search_time: COMPILE_COST,
                    ..EvalStats::default()
                },
            ),
        }
    }
}

impl SyncEvaluator for ParallelEvaluator {
    fn speedup_batch_shared(
        &self,
        program: &Program,
        schedules: &[Schedule],
    ) -> (Vec<f64>, EvalStats) {
        if schedules.is_empty() {
            return (Vec::new(), EvalStats::default());
        }
        // The baseline is charged once, before the fan-out, exactly like
        // a sequence of single-candidate calls charges it on the first.
        let (base, mut delta) = self.base_time(program);
        // A batch too small to amortize the pool's enqueue + wakeup runs
        // inline (threads = 1 short-circuits to a plain sequential loop
        // inside `parallel_map`).
        let threads = if schedules.len() < PAR_CUTOVER {
            1
        } else {
            self.threads
        };
        let scored = pool::parallel_map(threads, schedules.len(), |i| {
            self.score(program, base, &schedules[i])
        });
        // Fold stats in candidate order, one += per candidate on both the
        // global accumulator and the returned delta: the same association
        // a sequence of single-candidate calls produces, so batched and
        // sequential accounting stay bit-identical.
        let mut out = Vec::with_capacity(scored.len());
        let mut state = self.state.lock().expect("evaluator state");
        for (speedup, d) in scored {
            state.stats += d;
            delta += d;
            out.push(speedup);
        }
        drop(state);
        (out, delta)
    }

    fn total_stats(&self) -> EvalStats {
        self.stats()
    }
}

impl Evaluator for ParallelEvaluator {
    fn speedup_batch(&mut self, program: &Program, schedules: &[Schedule]) -> Vec<f64> {
        self.speedup_batch_shared(program, schedules).0
    }

    fn stats(&self) -> EvalStats {
        ParallelEvaluator::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_ir::{BinOp, CompId, Expr, ProgramBuilder, Transform};
    use dlcm_machine::Machine;

    fn mm(n: i64) -> Program {
        let mut b = ProgramBuilder::new("mm");
        let i = b.iter("i", 0, n);
        let j = b.iter("j", 0, n);
        let k = b.iter("k", 0, n);
        let a_buf = b.input("a", &[n, n]);
        let b_buf = b.input("b", &[n, n]);
        let out = b.buffer("out", &[n, n]);
        let iters = [i, j, k];
        let a_acc = b.access(a_buf, &[i.into(), k.into()], &iters);
        let b_acc = b.access(b_buf, &[k.into(), j.into()], &iters);
        b.reduce(
            "mm",
            &iters,
            BinOp::Add,
            out,
            &[i.into(), j.into()],
            Expr::binary(BinOp::Mul, Expr::Load(a_acc), Expr::Load(b_acc)),
        );
        b.build().unwrap()
    }

    /// An `n × n` copy: one computation, two loops.
    fn copy(n: i64) -> Program {
        let mut b = ProgramBuilder::new("p");
        let i = b.iter("i", 0, n);
        let j = b.iter("j", 0, n);
        let inp = b.input("in", &[n, n]);
        let out = b.buffer("out", &[n, n]);
        let acc = b.access(inp, &[i.into(), j.into()], &[i, j]);
        b.assign("c", &[i, j], out, &[i.into(), j.into()], Expr::Load(acc));
        b.build().unwrap()
    }

    fn wave() -> Vec<Schedule> {
        vec![
            Schedule::empty(),
            Schedule::new(vec![Transform::Parallelize {
                comp: CompId(0),
                level: 0,
            }]),
            Schedule::new(vec![Transform::Tile {
                comp: CompId(0),
                level_a: 0,
                level_b: 1,
                size_a: 32,
                size_b: 32,
            }]),
            Schedule::new(vec![Transform::Unroll {
                comp: CompId(0),
                factor: 4,
            }]),
            Schedule::new(vec![Transform::Vectorize {
                comp: CompId(0),
                factor: 8,
            }]),
        ]
    }

    #[test]
    fn execution_evaluator_tracks_time_and_count() {
        let p = copy(1024);
        let mut ev = ParallelEvaluator::new(Measurement::exact(Machine::default()), 0, 1);
        let s1 = ev.speedup(&p, &Schedule::empty());
        assert!((s1 - 1.0).abs() < 1e-9);
        let s2 = ev.speedup(
            &p,
            &Schedule::new(vec![Transform::Parallelize {
                comp: CompId(0),
                level: 0,
            }]),
        );
        assert!(s2 > 1.0);
        assert_eq!(ev.stats().num_evals, 2);
        assert!(ev.stats().search_time > 2.0 * COMPILE_COST);
        assert!(ev.stats().compile_time >= 3.0 * COMPILE_COST);
        assert_eq!(ev.stats().infer_time, 0.0);
    }

    #[test]
    fn baseline_tracks_the_program_being_scored() {
        // One evaluator scoring candidates for two different programs
        // must not reuse the first program's baseline for the second —
        // even when the programs share a name (generated programs and
        // scaled benchmark builders reuse names).
        let small = {
            let mut b = ProgramBuilder::new("p");
            let i = b.iter("i", 0, 64);
            let inp = b.input("in", &[64]);
            let out = b.buffer("out", &[64]);
            let acc = b.access(inp, &[i.into()], &[i]);
            b.assign("c", &[i], out, &[i.into()], Expr::Load(acc));
            b.build().unwrap()
        };
        let big = copy(1024);
        let mut ev = ParallelEvaluator::new(Measurement::exact(Machine::default()), 0, 1);
        let s_small = ev.speedup(&small, &Schedule::empty());
        let s_big = ev.speedup(&big, &Schedule::empty());
        // Empty schedule over the correct baseline is exactly 1.0 for
        // both; with a stale baseline the second would be wildly off.
        assert!((s_small - 1.0).abs() < 1e-9);
        assert!((s_big - 1.0).abs() < 1e-9);
    }

    #[test]
    fn execution_base_time_charged_once() {
        let p = copy(1024);
        let mut ev = ParallelEvaluator::new(Measurement::exact(Machine::default()), 0, 1);
        ev.speedup(&p, &Schedule::empty());
        let t1 = ev.stats().search_time;
        ev.speedup(&p, &Schedule::empty());
        let t2 = ev.stats().search_time;
        // The second call pays one compile+run, not two.
        assert!(t2 - t1 < t1);
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let p = mm(128);
        let schedules = wave();
        let mut seq = ParallelEvaluator::new(Measurement::new(Machine::default()), 11, 1);
        let expected: Vec<f64> = schedules.iter().map(|s| seq.speedup(&p, s)).collect();
        for threads in [1, 2, 4, 8] {
            let mut par = ParallelEvaluator::new(Measurement::new(Machine::default()), 11, threads);
            let got = par.speedup_batch(&p, &schedules);
            assert_eq!(got, expected, "threads={threads} changed scores");
            assert_eq!(par.stats().num_evals, seq.stats().num_evals);
            assert_eq!(par.stats().search_time, seq.stats().search_time);
            assert_eq!(par.stats().compile_time, seq.stats().compile_time);
        }
    }

    #[test]
    fn cutover_never_changes_scores_or_stats() {
        // Batches of 7 (below the cutover: inline) and 9 (above it: fans
        // out) at 4 threads must both equal one-thread scoring.
        const { assert!(7 < PAR_CUTOVER && 9 >= PAR_CUTOVER) };
        let p = mm(96);
        let mut schedules = wave();
        schedules.extend([
            Schedule::new(vec![Transform::Parallelize {
                comp: CompId(0),
                level: 1,
            }]),
            Schedule::new(vec![Transform::Unroll {
                comp: CompId(0),
                factor: 8,
            }]),
            Schedule::new(vec![Transform::Vectorize {
                comp: CompId(0),
                factor: 4,
            }]),
            Schedule::new(vec![Transform::Tile {
                comp: CompId(0),
                level_a: 0,
                level_b: 1,
                size_a: 16,
                size_b: 16,
            }]),
        ]);
        for len in [7, 9] {
            let batch = &schedules[..len];
            let mut one = ParallelEvaluator::new(Measurement::new(Machine::default()), 11, 1);
            let mut four = ParallelEvaluator::new(Measurement::new(Machine::default()), 11, 4);
            let want = one.speedup_batch(&p, batch);
            let got = four.speedup_batch(&p, batch);
            assert_eq!(got, want, "batch of {len} changed scores");
            assert_eq!(four.stats().num_evals, one.stats().num_evals);
            assert_eq!(
                four.stats().search_time,
                one.stats().search_time,
                "batch of {len} changed accounting"
            );
        }
    }

    #[test]
    fn base_time_charged_once_across_batches() {
        let p = mm(64);
        let mut ev = ParallelEvaluator::new(Measurement::exact(Machine::default()), 0, 4);
        ev.speedup_batch(&p, &wave());
        let t1 = ev.stats().search_time;
        ev.speedup_batch(&p, &wave());
        let t2 = ev.stats().search_time;
        // Second batch pays 5 compile+runs but no second baseline.
        assert!(t2 - t1 < t1);
    }

    #[test]
    fn baselines_are_kept_per_program_not_last_seen() {
        // Interleaving two programs (what concurrent searches do through
        // one shared evaluator) must not re-measure either baseline after
        // the first time. With the old single-entry memo the alternation
        // below would re-pay a baseline on every batch.
        let a = mm(32);
        let b = mm(48);
        let mut ev = ParallelEvaluator::new(Measurement::exact(Machine::default()), 0, 1);
        ev.speedup_batch(&a, &wave());
        ev.speedup_batch(&b, &wave());
        let warm = ev.stats().search_time;
        ev.speedup_batch(&a, &wave());
        ev.speedup_batch(&b, &wave());
        let again = ev.stats().search_time - warm;
        // The second round charges exactly the candidate cost: compare
        // against a fresh evaluator scoring the same two waves minus the
        // baselines it pays.
        let mut fresh = ParallelEvaluator::new(Measurement::exact(Machine::default()), 0, 1);
        fresh.speedup_batch(&a, &wave());
        fresh.speedup_batch(&b, &wave());
        let fresh_round = fresh.stats().search_time;
        assert!(
            again < fresh_round,
            "warm interleaved round ({again}) must not re-pay baselines ({fresh_round})"
        );
    }

    #[test]
    fn base_time_memo_is_bounded() {
        // Corpus-scale labeling sweeps thousands of distinct programs,
        // one batch each: the baseline memo must stay a bounded window,
        // not a second copy of the corpus.
        let ev = ParallelEvaluator::new(Measurement::exact(Machine::default()), 0, 1);
        for i in 0..80 {
            let p = mm(16 + i);
            ev.speedup_batch_shared(&p, &[Schedule::empty()]);
        }
        let memo_len = ev.state.lock().unwrap().base_times.len();
        assert!(
            memo_len <= crate::cache::PROGRAM_MEMO_CAP,
            "memo grew unbounded: {memo_len} entries"
        );
    }

    #[test]
    fn shared_calls_return_per_call_deltas() {
        let p = mm(64);
        let ev = ParallelEvaluator::new(Measurement::exact(Machine::default()), 0, 2);
        let (first, d1) = ev.speedup_batch_shared(&p, &wave());
        let (second, d2) = ev.speedup_batch_shared(&p, &wave());
        assert_eq!(first, second, "shared scoring is deterministic");
        assert_eq!(d1.num_evals, 5);
        assert_eq!(d2.num_evals, 5);
        assert!(
            d1.search_time > d2.search_time,
            "only the first call pays the baseline"
        );
        assert_eq!(ev.stats().num_evals, 10);
    }
}
