//! Shareable evaluation: the `&self` tier of the evaluation API.
//!
//! [`crate::Evaluator`] takes `&mut self`, which is the right shape for a
//! single search loop but makes an evaluator impossible to share across
//! concurrent searches — the suite driver (`dlcm_search::driver`) runs
//! whole searches in parallel and wants them all answering from **one**
//! schedule-keyed result cache. [`SyncEvaluator`] is the concurrent
//! counterpart: `&self` methods that return, alongside the scores, the
//! [`EvalStats`] delta charged *by that call*, so each caller can keep its
//! own standalone accounting (Table 2 needs per-search numbers, and diffing
//! a shared evaluator's global counters would interleave other searches'
//! work).
//!
//! Two adapters tie the tiers together:
//!
//! - `impl Evaluator for &E where E: SyncEvaluator` — a shared reference
//!   to any sync evaluator *is* an ordinary evaluator, so every existing
//!   `&mut dyn Evaluator` call-site (beam search, MCTS, the experiment
//!   binaries) accepts a shared evaluator unchanged;
//! - [`ScopedEvaluator`] — the same adapter with standalone stats: it
//!   accumulates only the deltas of its own calls, which is what a search
//!   running concurrently with others must report.
//!
//! Every shareable evaluator implements [`SyncEvaluator`] natively, so
//! its scoring runs outside any lock: [`crate::ParallelEvaluator`],
//! [`SharedCachedEvaluator`], and the serving tier's
//! `dlcm_serve::InferenceService`.
//!
//! [`SharedCachedEvaluator`] is the centerpiece: the one result cache,
//! memoizing speedups under `(model fingerprint, program key,
//! normalized schedule key)` triples behind sharded locks so
//! concurrent searches share measurements without serializing on one
//! table — and so a serving tier that hot-swaps model artifacts can
//! never alias entries across them. A single search loop uses it through
//! the `&E` adapter like any other [`Evaluator`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dlcm_ir::{Program, Schedule};

use crate::lru::LruMap;
use crate::{EvalStats, Evaluator, DEFAULT_CACHE_CAPACITY};

/// Scores `(program, schedule)` candidates through a shared reference, so
/// one evaluator can serve many concurrent searches.
///
/// The determinism contract of [`Evaluator`] carries over unchanged:
/// scores are a pure function of `(construction seed, program, schedule)`
/// regardless of which thread asks, in which order, or what else runs
/// concurrently. Stats are returned per call instead of diffed from a
/// global counter precisely because the global counter is shared.
pub trait SyncEvaluator: Send + Sync {
    /// Scores each candidate schedule (input order), returning the scores
    /// plus the [`EvalStats`] delta this call charged — the concurrent
    /// replacement for snapshotting [`Evaluator::stats`] before and after.
    fn speedup_batch_shared(
        &self,
        program: &Program,
        schedules: &[Schedule],
    ) -> (Vec<f64>, EvalStats);

    /// Single-candidate convenience wrapper over
    /// [`SyncEvaluator::speedup_batch_shared`].
    fn speedup_shared(&self, program: &Program, schedule: &Schedule) -> (f64, EvalStats) {
        let (mut values, delta) =
            self.speedup_batch_shared(program, std::slice::from_ref(schedule));
        (
            values.pop().expect("one candidate in, one score out"),
            delta,
        )
    }

    /// Accounting accumulated across *all* callers of this evaluator.
    ///
    /// Integer counters are exact; the floating-point time fields are
    /// folded in completion order when callers run concurrently, so
    /// deterministic output must be derived from per-call deltas (or from
    /// the integer fields), never from differences of this total.
    fn total_stats(&self) -> EvalStats;
}

/// A shared reference to a [`SyncEvaluator`] is an ordinary [`Evaluator`]:
/// pass `&mut &shared` anywhere a `&mut dyn Evaluator` is expected.
///
/// [`Evaluator::stats`] reports the evaluator-wide totals; a search that
/// needs standalone accounting while others run concurrently should use a
/// [`ScopedEvaluator`] instead.
impl<E: SyncEvaluator + ?Sized> Evaluator for &E {
    fn speedup_batch(&mut self, program: &Program, schedules: &[Schedule]) -> Vec<f64> {
        (**self).speedup_batch_shared(program, schedules).0
    }

    fn stats(&self) -> EvalStats {
        (**self).total_stats()
    }
}

/// Per-search adapter over a shared evaluator: forwards scoring to the
/// shared instance but accumulates only the stats deltas of **its own**
/// calls, so [`Evaluator::stats`] (and the before/after snapshots the
/// searches take) see this search's accounting alone — unpolluted by
/// whatever other searches charge to the same shared evaluator
/// concurrently.
///
/// # Examples
///
/// ```
/// # use dlcm_ir::*;
/// use dlcm_eval::{
///     Evaluator, ParallelEvaluator, ScopedEvaluator, SharedCachedEvaluator,
/// };
/// use dlcm_machine::{Machine, Measurement};
/// # let mut b = ProgramBuilder::new("p");
/// # let i = b.iter("i", 0, 64);
/// # let inp = b.input("in", &[64]);
/// # let out = b.buffer("out", &[64]);
/// # let acc = b.access(inp, &[i.into()], &[i]);
/// # b.assign("c", &[i], out, &[i.into()], Expr::Load(acc));
/// # let program = b.build().unwrap();
/// let shared = SharedCachedEvaluator::new(ParallelEvaluator::new(
///     Measurement::exact(Machine::default()),
///     0,
///     1,
/// ));
/// // Each concurrent search would hold its own scope onto the one cache.
/// let mut scope = ScopedEvaluator::new(&shared);
/// scope.speedup(&program, &Schedule::empty());
/// assert_eq!(scope.stats().num_evals, 1);
/// ```
pub struct ScopedEvaluator<'a, E: ?Sized> {
    shared: &'a E,
    local: EvalStats,
}

impl<'a, E: SyncEvaluator + ?Sized> ScopedEvaluator<'a, E> {
    /// Opens a fresh scope (zero accumulated stats) onto `shared`.
    pub fn new(shared: &'a E) -> Self {
        Self {
            shared,
            local: EvalStats::default(),
        }
    }
}

impl<E: SyncEvaluator + ?Sized> Evaluator for ScopedEvaluator<'_, E> {
    fn speedup_batch(&mut self, program: &Program, schedules: &[Schedule]) -> Vec<f64> {
        let (values, delta) = self.shared.speedup_batch_shared(program, schedules);
        self.local += delta;
        values
    }

    fn stats(&self) -> EvalStats {
        self.local
    }
}

/// Number of independently locked cache shards. Keys are structural
/// hashes, so any power of two spreads them evenly; 16 keeps lock
/// contention negligible at suite-level concurrency (≤ a few dozen
/// searches) without bloating the struct.
const CACHE_SHARDS: usize = 16;

/// Cache key of the sharded tier: `(model fingerprint, program key,
/// schedule key)`, the last two being [`Program::cache_key`] and
/// [`Schedule::cache_key`]. The leading model component is what keeps
/// entries from aliasing across model swaps — two artifacts scoring the
/// identical `(program, schedule)` produce different values, so they
/// must occupy different entries. Evaluators that never swap
/// models key under the constant `0`.
pub type SharedCacheKey = (u64, u64, u64);

/// Thread-safe memoizing decorator over any [`SyncEvaluator`].
///
/// Cache keys are content-derived triples — a model fingerprint (`0` on
/// the [`SyncEvaluator`] path, whose wrapped evaluator never changes
/// model; the epoch's fingerprint on the serving tier's
/// [`SharedCachedEvaluator::speedup_batch_pinned`] path),
/// [`Program::cache_key`]
/// (names are not unique across generated and scaled programs — and
/// conversely, regenerated programs that differ *only* by name are the
/// same workload and share an entry), [`Schedule::cache_key`]
/// (normalized, so equivalent tag orders share an entry) — held in 16
/// independently locked shards selected by key hash, so concurrent
/// searches hit disjoint shards with high probability and never
/// serialize on one table. Both halves hash the IR's structure in
/// place ([`dlcm_ir::fingerprint::structural_key`]), so keying a call
/// takes no lock, keeps no program memo and clones no program.
///
/// Lock traffic is **batched**: each call deduplicates its keys once,
/// probes them with one lock acquisition per *touched* shard (every
/// unique key in first-occurrence order), scores misses entirely
/// lock-free, and merges fresh values back with one more acquisition per
/// touched shard at batch end. A 64-wide candidate wave thus takes at
/// most 2×16 shard locks instead of 64 probes + up to 64 insert locks on
/// the hot path.
///
/// The cache is **bounded**: a shared capacity budget
/// ([`DEFAULT_CACHE_CAPACITY`] unless
/// [`SharedCachedEvaluator::with_capacity`] says otherwise) is split
/// evenly across the shards, each of which evicts its own
/// least-recently-used keys on overflow — so a long-lived serving
/// process stays within a fixed memory envelope no matter how many
/// distinct candidates open-loop traffic pushes through it. Keys spread
/// by key hash, so shard loads stay near the mean and a working
/// set comfortably under the budget is never evicted (the hot-set
/// regression test below pins this).
///
/// Determinism: **values** are deterministic unconditionally (the wrapped
/// evaluator is pure per key, so even two racing misses on the same key
/// insert the same value, and a key evicted and recomputed gets the exact
/// same value back). **Per-call stats deltas** are deterministic
/// whenever concurrent callers touch disjoint programs (the suite driver's
/// situation — keys embed the program key, so distinct benchmarks
/// never interact) or are ordered (searches of one program run
/// sequentially within a driver job). Two racing searches of the *same*
/// program may split hits and misses between them differently from run to
/// run — totals stay exact, the split does not. Eviction adds one more
/// caveat of the same kind: hit/miss splits near the capacity boundary
/// depend on access order, values never do.
pub struct SharedCachedEvaluator<E> {
    inner: E,
    shards: Vec<Mutex<LruMap<SharedCacheKey, f64>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

impl<E> SharedCachedEvaluator<E> {
    /// Wraps `inner` with an empty sharded cache bounded at
    /// [`DEFAULT_CACHE_CAPACITY`] entries.
    pub fn new(inner: E) -> Self {
        Self::with_capacity(inner, DEFAULT_CACHE_CAPACITY)
    }

    /// Wraps `inner` with an empty sharded cache holding at most
    /// `capacity` entries in total. The budget is split evenly across
    /// the 16 lock shards (rounded up to a whole entry per shard, so the
    /// effective bound — what [`SharedCachedEvaluator::capacity`]
    /// reports — is `capacity` rounded up to the next multiple of 16).
    ///
    /// `inner` need not be a [`SyncEvaluator`]: a caller that only uses
    /// [`SharedCachedEvaluator::speedup_batch_pinned`] (the serving
    /// tier) supplies the scorer per call and keeps its own state here.
    pub fn with_capacity(inner: E, capacity: usize) -> Self {
        let per_shard = capacity.max(1).div_ceil(CACHE_SHARDS);
        Self {
            inner,
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(LruMap::with_capacity(per_shard)))
                .collect(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// The wrapped evaluator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The effective entry bound across all shards:
    /// [`SharedCachedEvaluator::len`] never exceeds this.
    pub fn capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").capacity())
            .sum()
    }

    /// Entries evicted to stay within the capacity budget so far.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of cached `(program, schedule)` entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").len())
            .sum()
    }

    /// `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Candidates answered from the cache so far, across all callers
    /// (duplicates within one batch count as hits: the wrapped evaluator
    /// never saw them).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Candidates forwarded to the wrapped evaluator so far, across all
    /// callers.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    fn shard_index(&self, key: SharedCacheKey) -> usize {
        // The model fingerprint is raw FNV, whose low bits disperse
        // poorly; a splitmix64 finalizer over the XOR of the triple
        // spreads every key across all shards before the modulus, so
        // neither lock contention nor the per-shard LRU budgets skew.
        let mut h = key.0 ^ key.1 ^ key.2;
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h as usize) % CACHE_SHARDS
    }

    /// Scores a batch with the model identity **pinned for the whole
    /// call**: every cache key carries `model_fp`, and every miss is
    /// scored by `score` — a closure the caller derives from the same
    /// pinned model. This is the only way to key the cache by model, and
    /// it is hot-swap-safe: a model swap landing mid-call can neither mix
    /// fingerprints within the batch nor make keyed-under-A entries hold
    /// model-B values, because both the keys and the scorer come from one
    /// epoch the caller captured up front.
    ///
    /// `score` receives the deduplicated fresh sub-batch (first-occurrence
    /// order) and must return one value per schedule plus the stats delta
    /// it charged. The plain [`SyncEvaluator`] path is this method with
    /// `model_fp = 0` and `score` = the wrapped evaluator.
    pub fn speedup_batch_pinned(
        &self,
        model_fp: u64,
        program: &Program,
        schedules: &[Schedule],
        score: impl FnOnce(&[Schedule]) -> (Vec<f64>, EvalStats),
    ) -> (Vec<f64>, EvalStats) {
        let pkey = program.cache_key();

        // The one dedupe of the call: unique keys in first-occurrence
        // order (each with the schedule it first occurred on) and, per
        // batch position, the index of its key among them.
        let mut unique: Vec<(SharedCacheKey, &Schedule)> = Vec::with_capacity(schedules.len());
        let mut index_of: HashMap<SharedCacheKey, usize> = HashMap::with_capacity(schedules.len());
        let positions: Vec<usize> = schedules
            .iter()
            .map(|schedule| {
                let key = (model_fp, pkey, schedule.cache_key());
                *index_of.entry(key).or_insert_with(|| {
                    unique.push((key, schedule));
                    unique.len() - 1
                })
            })
            .collect();

        // Probe: take each *touched* shard's lock exactly once for all of
        // its keys (at most 16 locks, typically 1–2). Each unique key is
        // probed exactly once, in first-occurrence order within its
        // shard, so per-shard LRU recency is updated in the same relative
        // order as per-candidate probing would produce.
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); CACHE_SHARDS];
        for (u, &(key, _)) in unique.iter().enumerate() {
            by_shard[self.shard_index(key)].push(u);
        }
        let mut values: Vec<Option<f64>> = vec![None; unique.len()];
        for (idx, members) in by_shard.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let mut shard = self.shards[idx].lock().expect("cache shard");
            for &u in members {
                values[u] = shard.get(&unique[u].0).copied();
            }
        }

        // Fresh = unique keys still unanswered. Everything else — cached
        // keys and every in-batch duplicate — is a hit: the scorer never
        // sees it. Scoring and assembly below touch no shard lock (and
        // cannot depend on what concurrent callers insert meanwhile).
        let fresh: Vec<usize> = (0..unique.len()).filter(|&u| values[u].is_none()).collect();
        let call_hits = schedules.len() - fresh.len();
        self.hits.fetch_add(call_hits, Ordering::Relaxed);
        self.misses.fetch_add(fresh.len(), Ordering::Relaxed);

        let mut delta = EvalStats {
            cache_hits: call_hits,
            cache_misses: fresh.len(),
            ..EvalStats::default()
        };
        if !fresh.is_empty() {
            let fresh_schedules: Vec<Schedule> =
                fresh.iter().map(|&u| unique[u].1.clone()).collect();
            let (scores, inner_delta) = score(&fresh_schedules);
            debug_assert_eq!(scores.len(), fresh.len());
            delta += inner_delta;
            // Deterministic merge at batch end: fresh values are grouped
            // by shard (first-occurrence order preserved within each) and
            // published with one lock acquisition per touched shard. The
            // values being pure per key, a concurrent caller racing on the
            // same keys inserts the identical values — merge order only
            // moves the already-caveated hit/miss split, never a score.
            let mut merges: Vec<Vec<(SharedCacheKey, f64)>> = vec![Vec::new(); CACHE_SHARDS];
            for (&u, value) in fresh.iter().zip(scores) {
                values[u] = Some(value);
                merges[self.shard_index(unique[u].0)].push((unique[u].0, value));
            }
            for (idx, batch) in merges.into_iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let mut shard = self.shards[idx].lock().expect("cache shard");
                for (key, value) in batch {
                    if shard.insert(key, value).is_some() {
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }

        let out = positions
            .iter()
            .map(|&u| values[u].expect("every unique key is cached or freshly scored"))
            .collect();
        (out, delta)
    }
}

impl<E: SyncEvaluator> SyncEvaluator for SharedCachedEvaluator<E> {
    fn speedup_batch_shared(
        &self,
        program: &Program,
        schedules: &[Schedule],
    ) -> (Vec<f64>, EvalStats) {
        // One wrapped evaluator, one model: the key's model component is
        // the constant 0.
        self.speedup_batch_pinned(0, program, schedules, |fresh| {
            self.inner.speedup_batch_shared(program, fresh)
        })
    }

    fn total_stats(&self) -> EvalStats {
        let mut stats = self.inner.total_stats();
        stats.cache_hits += self.hits();
        stats.cache_misses += self.misses();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParallelEvaluator;
    use dlcm_ir::{CompId, Expr, ProgramBuilder, Transform};
    use dlcm_machine::{Machine, Measurement};

    fn program(name: &str, n: i64) -> Program {
        let mut b = ProgramBuilder::new(name);
        let i = b.iter("i", 0, n);
        let j = b.iter("j", 0, n);
        let inp = b.input("in", &[n, n]);
        let out = b.buffer("out", &[n, n]);
        let acc = b.access(inp, &[i.into(), j.into()], &[i, j]);
        b.assign("c", &[i, j], out, &[i.into(), j.into()], Expr::Load(acc));
        b.build().unwrap()
    }

    fn tile(size: i64) -> Schedule {
        Schedule::new(vec![Transform::Tile {
            comp: CompId(0),
            level_a: 0,
            level_b: 1,
            size_a: size,
            size_b: size,
        }])
    }

    fn wave() -> Vec<Schedule> {
        vec![tile(16), tile(32), tile(64), tile(16)]
    }

    fn exact_cache() -> SharedCachedEvaluator<ParallelEvaluator> {
        SharedCachedEvaluator::new(ParallelEvaluator::new(
            Measurement::exact(Machine::default()),
            0,
            1,
        ))
    }

    #[test]
    fn shared_cache_matches_uncached_scoring_on_interleaved_programs() {
        // Interleaved multi-program batches — exactly the access pattern
        // the concurrent driver produces — must return the values an
        // uncached evaluator measures, paying for each unique key once.
        let a = program("a", 96);
        let b = program("b", 128);
        let shared = SharedCachedEvaluator::new(ParallelEvaluator::new(
            Measurement::new(Machine::default()),
            7,
            1,
        ));
        let mut uncached = ParallelEvaluator::new(Measurement::new(Machine::default()), 7, 1);
        for round in 0..3 {
            for p in [&a, &b] {
                let (got, _) = shared.speedup_batch_shared(p, &wave());
                let want = uncached.speedup_batch(p, &wave());
                assert_eq!(got, want, "round {round}, program {}", p.name);
            }
        }
        assert_eq!(shared.misses(), 6, "3 unique tiles per program");
        assert_eq!(shared.hits(), 18, "everything else answers from cache");
        assert_eq!(shared.len(), 6);
    }

    #[test]
    fn repeats_and_duplicates_hit_the_cache() {
        let p = program("p", 512);
        let shared = SharedCachedEvaluator::new(ParallelEvaluator::new(
            Measurement::new(Machine::default()),
            3,
            1,
        ));
        let mut ev = &shared;
        // Batch with an internal duplicate: 3 candidates, 2 unique.
        let batch = vec![tile(32), tile(64), tile(32)];
        let first = ev.speedup_batch(&p, &batch);
        assert_eq!(first[0], first[2]);
        assert_eq!(shared.hits(), 1);
        assert_eq!(shared.misses(), 2);
        assert_eq!(ev.stats().num_evals, 2, "inner saw only unique candidates");

        // A later wave re-deriving the same schedules pays nothing.
        let before = ev.stats();
        let again = ev.speedup_batch(&p, &batch);
        assert_eq!(again, first);
        let delta = ev.stats().since(&before);
        assert_eq!(delta.num_evals, 0);
        assert_eq!(delta.search_time, 0.0);
        assert_eq!(delta.cache_hits, 3);
        assert_eq!(ev.stats().cache_hit_rate(), Some(4.0 / 6.0));
    }

    #[test]
    fn equivalent_tag_orders_share_one_entry() {
        let p = program("p", 256);
        let par = Transform::Parallelize {
            comp: CompId(0),
            level: 0,
        };
        let vec = Transform::Vectorize {
            comp: CompId(0),
            factor: 8,
        };
        let a = Schedule::new(vec![par.clone(), vec.clone()]);
        let b = Schedule::new(vec![vec, par]);
        let shared = exact_cache();
        let sa = shared.speedup_shared(&p, &a).0;
        let sb = shared.speedup_shared(&p, &b).0;
        assert_eq!(sa, sb);
        assert_eq!(shared.misses(), 1);
        assert_eq!(shared.hits(), 1);
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn keys_follow_program_content_not_names() {
        // Random corpora re-draw small programs under fresh names; the
        // content key must recognize them as one workload — and keep two
        // different programs that share a name apart.
        let a = program("p", 64);
        let renamed = program("renamed", 64);
        let big = program("p", 128);
        let shared = exact_cache();
        let sa = shared.speedup_shared(&a, &Schedule::empty()).0;
        let sr = shared.speedup_shared(&renamed, &Schedule::empty()).0;
        assert_eq!(sa, sr);
        assert_eq!(shared.misses(), 1, "renamed duplicate must hit the cache");
        assert_eq!(shared.hits(), 1);
        let s_big = shared.speedup_shared(&big, &Schedule::empty()).0;
        assert!((s_big - 1.0).abs() < 1e-9);
        assert_eq!(
            shared.misses(),
            2,
            "different programs must not share entries"
        );
        // Returning to the first program still hits its entry.
        shared.speedup_shared(&a, &Schedule::empty());
        assert_eq!(shared.hits(), 2);
    }

    #[test]
    fn batch_with_many_duplicates_dedups_each_unique_key_once() {
        // 120 candidates, 3 unique: the HashSet-backed probe must forward
        // exactly the unique sub-batch (same semantics the linear scan
        // had, minus the O(n²)).
        let p = program("p", 128);
        let shared = exact_cache();
        let batch: Vec<Schedule> = (0..120).map(|i| tile(16 << (i % 3))).collect();
        let (scores, delta) = shared.speedup_batch_shared(&p, &batch);
        assert_eq!(shared.misses(), 3);
        assert_eq!(shared.hits(), 117);
        assert_eq!(delta.num_evals, 3, "inner saw only unique candidates");
        for (i, s) in scores.iter().enumerate() {
            assert_eq!(*s, scores[i % 3], "duplicates share their key's value");
        }
    }

    #[test]
    fn in_batch_duplicate_resolves_after_its_entry_is_evicted() {
        // One entry per shard, and a batch of 64 unique keys followed by
        // a duplicate of the first: whichever keys share the first key's
        // shard evict it before the duplicate is assembled, so the
        // duplicate must resolve from the batch-local fresh values, not
        // the cache.
        let p = program("p", 128);
        let bounded = SharedCachedEvaluator::with_capacity(
            ParallelEvaluator::new(Measurement::exact(Machine::default()), 0, 1),
            1,
        );
        assert_eq!(bounded.capacity(), CACHE_SHARDS);
        let unbounded = exact_cache();
        let mut batch: Vec<Schedule> = (1..=64).map(tile).collect();
        batch.push(tile(1));
        let (got, _) = bounded.speedup_batch_shared(&p, &batch);
        let (want, _) = unbounded.speedup_batch_shared(&p, &batch);
        assert_eq!(got, want, "eviction must never change scores");
        assert_eq!(bounded.len(), CACHE_SHARDS);
        assert_eq!(unbounded.len(), 64);
        // The evicted key recomputes to the identical value (pure per
        // key) — it just pays the wrapped evaluator again.
        let (again, delta) = bounded.speedup_shared(&p, &tile(1));
        assert_eq!(again, got[0]);
        assert_eq!(delta.cache_misses, 1, "tile(1) fell out");
    }

    #[test]
    fn scoped_stats_stay_standalone() {
        let p = program("p", 96);
        let q = program("q", 128);
        let shared = exact_cache();
        let mut scope_p = ScopedEvaluator::new(&shared);
        let mut scope_q = ScopedEvaluator::new(&shared);
        scope_p.speedup_batch(&p, &wave());
        scope_q.speedup_batch(&q, &wave());
        scope_p.speedup_batch(&p, &wave());

        let sp = scope_p.stats();
        let sq = scope_q.stats();
        assert_eq!(sp.cache_misses, 3, "first wave pays 3 unique tiles");
        assert_eq!(sp.cache_hits, 1 + 4, "in-batch dup + warm second wave");
        assert_eq!(sq.cache_misses, 3);
        assert_eq!(sq.cache_hits, 1);
        // The global totals combine both scopes.
        let total = shared.total_stats();
        assert_eq!(total.cache_hits, sp.cache_hits + sq.cache_hits);
        assert_eq!(total.cache_misses, sp.cache_misses + sq.cache_misses);
        assert_eq!(total.num_evals, sp.num_evals + sq.num_evals);
    }

    #[test]
    fn shared_reference_is_an_evaluator() {
        // The blanket adapter: `&mut &shared` drives any Evaluator
        // call-site without changes.
        let p = program("p", 64);
        let shared = exact_cache();
        let mut handle: &SharedCachedEvaluator<_> = &shared;
        let ev: &mut dyn Evaluator = &mut handle;
        let s = ev.speedup(&p, &Schedule::empty());
        assert!((s - 1.0).abs() < 1e-9);
        assert_eq!(ev.stats().num_evals, 1);
    }

    #[test]
    fn hot_working_set_under_capacity_never_evicts() {
        // Satellite regression: a hot working set smaller than the shared
        // capacity budget keeps hitting at 100% no matter how long the
        // traffic runs. 64 unique keys against a 256-entry budget
        // (16 per shard): keys spread by key hash, so the
        // deterministic shard loads stay under the per-shard bound and no
        // hot key is ever evicted.
        let p = program("hot", 96);
        let shared = SharedCachedEvaluator::with_capacity(
            ParallelEvaluator::new(Measurement::exact(Machine::default()), 0, 1),
            256,
        );
        let hot: Vec<Schedule> = (1..=64).map(tile).collect();
        let (first, _) = shared.speedup_batch_shared(&p, &hot);
        assert_eq!(shared.misses(), 64);
        for round in 0..10 {
            let (again, delta) = shared.speedup_batch_shared(&p, &hot);
            assert_eq!(again, first);
            assert_eq!(
                delta.cache_misses, 0,
                "round {round}: hot set must stay resident"
            );
        }
        assert_eq!(shared.misses(), 64, "warm traffic is 100% hits");
        assert_eq!(shared.evictions(), 0);
    }

    #[test]
    fn open_loop_traffic_stays_within_the_capacity_budget() {
        let p = program("flood", 96);
        let shared = SharedCachedEvaluator::with_capacity(
            ParallelEvaluator::new(Measurement::exact(Machine::default()), 0, 1),
            64,
        );
        assert_eq!(shared.capacity(), 64, "64 splits evenly across shards");
        // 1000 distinct keys — far past capacity: the cache must stay
        // within its budget the whole way, not just at the end.
        for wave in 0..25i64 {
            let batch: Vec<Schedule> = (0..40).map(|i| tile(1 + 40 * wave + i)).collect();
            shared.speedup_batch_shared(&p, &batch);
            assert!(shared.len() <= shared.capacity());
        }
        assert!(shared.evictions() > 0, "flood traffic must have evicted");
        // An evicted key recomputes to the exact same value a fresh cache
        // produces: eviction is invisible in scores.
        let recomputed = shared.speedup_shared(&p, &tile(1)).0;
        let fresh = exact_cache();
        assert_eq!(recomputed, fresh.speedup_shared(&p, &tile(1)).0);
    }

    #[test]
    fn distinct_model_fingerprints_never_alias_entries() {
        // Regression: keys used to be (program, schedule) only, so two
        // models scoring the identical candidate would alias one entry —
        // the second model silently served the first model's value. With
        // the model fingerprint in the key, a different pin must force a
        // recompute (a miss), and pinning the first identity again must
        // find the original entries still resident.
        let p = program("p", 96);
        let shared = exact_cache();
        let pinned = |fp: u64| {
            shared
                .speedup_batch_pinned(fp, &p, &wave(), |fresh| {
                    shared.inner().speedup_batch_shared(&p, fresh)
                })
                .1
        };
        assert_eq!(pinned(1).cache_misses, 3);
        assert_eq!(
            pinned(0xfeed).cache_misses,
            3,
            "a new model identity must never be answered from the old model's entries"
        );
        assert_eq!(shared.len(), 6, "both models' entries coexist");
        assert_eq!(
            pinned(1).cache_misses,
            0,
            "original entries stayed resident"
        );
    }

    #[test]
    fn pinned_calls_key_and_score_against_the_pinned_model() {
        // The hot-swap-safe entry point: the caller pins a fingerprint and
        // supplies the matching scorer. Scores and hit/miss accounting
        // must follow the *pinned* identity.
        let p = program("p", 96);
        let shared = exact_cache();
        let score_as = |bias: f64| {
            move |fresh: &[Schedule]| {
                let values = vec![bias; fresh.len()];
                (values, EvalStats::default())
            }
        };
        let (a, _) = shared.speedup_batch_pinned(1, &p, &wave(), score_as(1.25));
        let (b, _) = shared.speedup_batch_pinned(2, &p, &wave(), score_as(2.5));
        assert!(a.iter().all(|v| *v == 1.25));
        assert!(b.iter().all(|v| *v == 2.5));
        // Warm repeats under each pin return that model's values, scorer
        // untouched (a panicking scorer proves full hits).
        let boom = |_: &[Schedule]| -> (Vec<f64>, EvalStats) { panic!("must not score") };
        assert_eq!(shared.speedup_batch_pinned(1, &p, &wave(), boom).0, a);
        assert_eq!(shared.speedup_batch_pinned(2, &p, &wave(), boom).0, b);
    }

    #[test]
    fn concurrent_callers_share_measurements_deterministically() {
        // N threads, each sweeping its own program through the one shared
        // cache: per-thread deltas must equal a sequential run's (disjoint
        // programs — the determinism contract's guaranteed regime).
        let programs: Vec<Program> = (0..4).map(|i| program("p", 64 + 16 * i)).collect();
        let run = |threads: usize| -> Vec<(Vec<f64>, EvalStats)> {
            let shared = SharedCachedEvaluator::new(ParallelEvaluator::new(
                Measurement::new(Machine::default()),
                3,
                1,
            ));
            crate::pool::parallel_map(threads, programs.len(), |i| {
                let mut scope = ScopedEvaluator::new(&shared);
                let first = scope.speedup_batch(&programs[i], &wave());
                let again = scope.speedup_batch(&programs[i], &wave());
                assert_eq!(first, again);
                (first, scope.stats())
            })
        };
        assert_eq!(run(1), run(4));
    }
}
