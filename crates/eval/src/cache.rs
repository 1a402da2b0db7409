//! Schedule-keyed result caching: never score the same candidate twice.
//!
//! Beam waves re-derive the skip-equivalent schedules of their parents,
//! MCTS rollouts revisit the same finalized schedules across iterations,
//! and both searches finalize partial candidates onto a shared tail of
//! tag transforms. [`crate::SharedCachedEvaluator`] memoizes speedups
//! under content-derived keys so every re-derived candidate is answered
//! without paying the wrapped evaluator's compile / run / inference
//! cost; this module holds the pieces it is built from — the default
//! capacity, the bounded per-program memo, and the hit/fresh split of a
//! keyed batch.
//!
//! Correctness rests on the determinism contract of [`crate::Evaluator`]:
//! implementations return the same value for the same `(program,
//! schedule)` given their construction seed, so replaying a cached value
//! is indistinguishable from re-evaluating — `tests/cache_props.rs`
//! asserts this over randomized schedule sequences.

use std::collections::HashSet;
use std::hash::Hash;

use dlcm_ir::{Program, Schedule};

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

/// Splits a keyed batch into cache hits and the first occurrence of each
/// missing key, preserving batch order: the wrapped evaluator must see a
/// deduplicated sub-batch. The ordered `Vec` carries the batch order; the
/// `HashSet` answers the "already queued?" probe in O(1) (a linear
/// `fresh.contains` made large batches quadratic). `lookup` is called
/// at most once per batch position, and hit values come back in
/// `cached`, so the caller never probes a key twice.
pub(crate) struct FreshSplit<K> {
    /// Per batch position: the cached value, or `None` for candidates the
    /// wrapped evaluator must score (first occurrences *and* their
    /// in-batch duplicates — resolve the latter from the fresh values).
    pub cached: Vec<Option<f64>>,
    /// Unique missing keys, in first-occurrence batch order.
    pub fresh: Vec<K>,
    /// The schedules behind `fresh`, index-aligned.
    pub fresh_schedules: Vec<Schedule>,
    /// Candidates answered without touching the wrapped evaluator.
    pub hits: usize,
}

pub(crate) fn split_fresh<K: Copy + Eq + Hash>(
    keys: &[K],
    schedules: &[Schedule],
    mut lookup: impl FnMut(&K) -> Option<f64>,
) -> FreshSplit<K> {
    let mut cached: Vec<Option<f64>> = Vec::with_capacity(keys.len());
    let mut fresh: Vec<K> = Vec::new();
    let mut fresh_set: HashSet<K> = HashSet::new();
    let mut fresh_schedules: Vec<Schedule> = Vec::new();
    let mut hits = 0;
    for (key, schedule) in keys.iter().zip(schedules) {
        if fresh_set.contains(key) {
            hits += 1;
            cached.push(None);
            continue;
        }
        let known = lookup(key);
        if known.is_some() {
            hits += 1;
        } else {
            fresh.push(*key);
            fresh_set.insert(*key);
            fresh_schedules.push(schedule.clone());
        }
        cached.push(known);
    }
    FreshSplit {
        cached,
        fresh,
        fresh_schedules,
        hits,
    }
}
