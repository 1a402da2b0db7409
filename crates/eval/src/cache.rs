//! Schedule-keyed result caching: never score the same candidate twice.
//!
//! Beam waves re-derive the skip-equivalent schedules of their parents,
//! MCTS rollouts revisit the same finalized schedules across iterations,
//! and both searches finalize partial candidates onto a shared tail of
//! tag transforms. [`crate::SharedCachedEvaluator`] memoizes speedups
//! under content-derived keys so every re-derived candidate is answered
//! without paying the wrapped evaluator's compile / run / inference
//! cost; this module holds the pieces it is built from — the default
//! capacity and the bounded per-program memo.
//!
//! Correctness rests on the determinism contract of [`crate::Evaluator`]:
//! implementations return the same value for the same `(program,
//! schedule)` given their construction seed, so replaying a cached value
//! is indistinguishable from re-evaluating — `tests/cache_props.rs`
//! asserts this over randomized schedule sequences.

use dlcm_ir::Program;

/// Default entry bound for the result cache
/// ([`crate::SharedCachedEvaluator`]) and for the serving tier built on
/// it. An entry is a small fingerprint tuple plus an `f64` and
/// map/list overhead —
/// on the order of 100 bytes — so the default bounds a cache at roughly
/// 100 MB while staying far above any search's working set (suite runs
/// observe tens of thousands of unique candidates; exact hit/miss
/// assertions in tests and Table 2 accounting are unaffected).
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

/// Cap on the per-program memos (fingerprints in
/// [`crate::SharedCachedEvaluator`], baseline times in
/// [`crate::ParallelEvaluator`]): entries hold whole programs, and a
/// corpus-scale run labels thousands of distinct programs exactly once
/// each — the memo must stay a small recent window, not a second copy of
/// the corpus.
pub(crate) const PROGRAM_MEMO_CAP: usize = 64;

/// Looks up `program` in a FIFO-bounded `(program, value)` memo,
/// computing and inserting via `compute` on a miss (evicting the oldest
/// entry at [`PROGRAM_MEMO_CAP`]). Shared by the fingerprint memo of
/// the result cache and the baseline-time memo of the parallel
/// evaluator.
pub(crate) fn memoized<T: Copy>(
    memo: &mut Vec<(Program, T)>,
    program: &Program,
    compute: impl FnOnce() -> T,
) -> (T, bool) {
    if let Some((_, value)) = memo.iter().find(|(p, _)| p == program) {
        return (*value, true);
    }
    let value = compute();
    if memo.len() == PROGRAM_MEMO_CAP {
        memo.remove(0);
    }
    memo.push((program.clone(), value));
    (value, false)
}
