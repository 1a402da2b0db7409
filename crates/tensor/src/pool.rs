//! A persistent, deterministic work-stealing pool: the two lanes of a
//! training step, batched evaluation and concurrent search all run on it.
//! It lives in this leaf crate so the tensor substrate can use it;
//! `dlcm_eval::pool` re-exports it for everything above.
//!
//! [`parallel_map`] distributes `0..len` across up to `threads` workers
//! through a shared atomic cursor (work stealing: a worker that draws a
//! cheap chunk simply comes back for the next one sooner), and returns
//! results **in index order** regardless of which thread computed what.
//! Combined with a pure per-candidate function this makes parallel
//! evaluation bit-identical to sequential evaluation: same values, same
//! order, same floating-point reduction order for any stats folded over
//! the returned vector.
//!
//! Distribution is **chunked**: each `fetch_add` on the cursor claims a
//! contiguous range of `grain` indices, not a single item, so the
//! per-item cost of dispatch is one atomic RMW divided by the grain
//! rather than one per candidate. The grain is `len / (threads * 4)`, at
//! least 1 — several chunks per worker, so stragglers still rebalance.
//! Chunking changes *which thread* computes an index, never the result:
//! assembly is by index, so any grain is bit-identical to sequential.
//!
//! Workers are **persistent**: the first call spawns OS threads into a
//! process-wide pool and later calls reuse them, so the per-batch cost is
//! an enqueue + wakeup rather than a `thread::spawn` per worker. That
//! matters now that whole searches fan out through the same pool (see
//! `dlcm_search::driver`): a suite run issues thousands of small waves,
//! and it lets nested parallelism compose — a pooled search task that
//! itself calls [`parallel_map`] for a candidate batch simply enqueues
//! more work on the same pool.
//!
//! The caller of [`parallel_map`] always participates in its own batch
//! (it drains the same cursor the helpers do), so progress never depends
//! on pool capacity: if every worker is busy with other batches, the
//! caller computes everything inline and the stale helper requests are
//! cancelled before they start. This is what makes nested use
//! deadlock-free by construction — a blocked "wait for my batch" never
//! exists; waiting is always "help until the cursor is drained".

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// How many chunks `auto_grain` aims to hand each worker. More chunks
/// per worker = better rebalancing when per-item cost is skewed; fewer =
/// less cursor traffic. Four is comfortably past the point where the
/// atomic RMW disappears from profiles while still letting a straggler
/// shed 3/4 of its share.
const CHUNKS_PER_WORKER: usize = 4;

/// Default chunk size for a batch of `len` items over `threads` workers:
/// `len / (threads * 4)`, clamped to at least 1. Small batches degrade to
/// grain 1 (identical to per-item dispatch); large batches claim ranges
/// big enough that dispatch cost vanishes per item.
fn auto_grain(len: usize, threads: usize) -> usize {
    (len / (threads.max(1) * CHUNKS_PER_WORKER)).max(1)
}

/// Maps `f` over `0..len` using up to `threads` concurrent workers (the
/// caller plus pool helpers), returning `f(0), f(1), …` in index order.
/// Work is claimed in contiguous chunks of several items each (see the
/// module docs).
///
/// `f` must be pure with respect to ordering: it is called at most once
/// per index, but from arbitrary threads in arbitrary order. With
/// `threads <= 1` (or a single-element batch) everything runs inline on
/// the caller's thread — no pool traffic, identical results.
///
/// If `f` panics on any thread, the batch is aborted (no new chunks are
/// claimed) and the panic is re-raised on the caller's thread once every
/// enlisted helper has stopped touching the batch.
pub fn parallel_map<R, F>(threads: usize, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    parallel_map_grained(threads, len, auto_grain(len, threads), f)
}

/// [`parallel_map`] with an explicit chunk size: each cursor claim hands
/// a worker the contiguous index range `[start, start + grain)` (clipped
/// to `len`). The grain trades dispatch overhead against rebalancing;
/// it never affects results — assembly is by index, so every grain
/// (including `grain >= len`, which runs single-chunk) returns exactly
/// the sequential output.
fn parallel_map_grained<R, F>(threads: usize, len: usize, grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let grain = grain.max(1);
    // No point enlisting more workers than there are chunks: with
    // grain >= len a single worker (the caller) claims everything, so
    // the whole call degenerates to the inline loop below.
    let workers = threads.min(len.div_ceil(grain));
    if workers <= 1 {
        return (0..len).map(f).collect();
    }

    let batch = Batch::<R, F> {
        f: &f,
        len,
        grain,
        cursor: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
        results: Mutex::new(Vec::new()),
        panic: Mutex::new(None),
    };
    let jobs: Vec<Arc<Job>> = (0..workers - 1)
        .map(|_| {
            Arc::new(Job {
                state: Mutex::new(JobState::Queued),
                run: helper_main::<R, F>,
                batch: std::ptr::from_ref(&batch).cast(),
            })
        })
        .collect();
    // Armed before the jobs are visible to any worker: if the caller's
    // inline drain below unwinds, the guard cancels every helper that has
    // not started and waits out every helper that has, so no worker can
    // touch `batch` (or `f`) after this frame dies.
    let guard = HelperGuard {
        jobs: &jobs,
        abort: &batch.abort,
    };
    pool().submit(&jobs);

    // The caller is always one of its own workers.
    let mut local: Vec<(usize, R)> = Vec::new();
    while !batch.abort.load(Ordering::SeqCst) {
        let start = batch.cursor.fetch_add(grain, Ordering::Relaxed);
        if start >= len {
            break;
        }
        for i in start..(start + grain).min(len) {
            local.push((i, f(i)));
        }
    }
    drop(guard);

    if let Some(payload) = batch.panic.lock().expect("panic slot").take() {
        panic::resume_unwind(payload);
    }
    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    for (i, r) in local {
        slots[i] = Some(r);
    }
    for (i, r) in batch.results.into_inner().expect("result slot") {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index computed exactly once"))
        .collect()
}

/// State shared between the caller of [`parallel_map`] and the pool
/// helpers enlisted for one batch. Lives on the caller's stack; helpers
/// reach it through the type-erased pointer in [`Job`]. Soundness
/// contract: the caller does not leave (return *or* unwind past)
/// [`HelperGuard`] until every enlisted helper has either finished
/// running or been cancelled before it started.
struct Batch<'a, R, F> {
    f: &'a F,
    len: usize,
    grain: usize,
    cursor: AtomicUsize,
    abort: AtomicBool,
    results: Mutex<Vec<(usize, R)>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// The body a pool worker runs for one enlisted helper: drain the batch
/// cursor alongside the caller, then deliver results (or the panic).
///
/// # Safety
///
/// `data` must point at a live `Batch<R, F>`; guaranteed by the
/// [`HelperGuard`] protocol (a job is only run while its state lock is
/// held, and the guard synchronizes on that same lock).
unsafe fn helper_main<R, F>(data: *const ())
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let batch = unsafe { &*data.cast::<Batch<R, F>>() };
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut local: Vec<(usize, R)> = Vec::new();
        while !batch.abort.load(Ordering::SeqCst) {
            let start = batch.cursor.fetch_add(batch.grain, Ordering::Relaxed);
            if start >= batch.len {
                break;
            }
            for i in start..(start + batch.grain).min(batch.len) {
                local.push((i, (batch.f)(i)));
            }
        }
        local
    }));
    match outcome {
        Ok(local) => batch.results.lock().expect("result slot").extend(local),
        Err(payload) => {
            // Payload first, abort second: whoever observes the abort flag
            // is guaranteed to find the payload.
            *batch.panic.lock().expect("panic slot") = Some(payload);
            batch.abort.store(true, Ordering::SeqCst);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    /// In the pool queue; may still be cancelled.
    Queued,
    /// A worker is executing it (and holds the state lock while doing so).
    Running,
    /// Finished normally.
    Done,
    /// Cancelled before any worker started it; must never touch its batch.
    Cancelled,
}

/// One enlisted helper: a type-erased "drain this batch" request that a
/// persistent worker can pick up. The state lock doubles as the
/// completion barrier — it is held for the whole run, so locking it from
/// [`HelperGuard::drop`] *is* waiting for the helper to finish.
struct Job {
    state: Mutex<JobState>,
    run: unsafe fn(*const ()),
    batch: *const (),
}

// SAFETY: the raw batch pointer is only dereferenced while the job state
// is `Running`, which the HelperGuard protocol keeps within the lifetime
// of the pointee; all mutation goes through the state mutex.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

/// Cancels this batch's queued helpers and waits out its running ones.
/// Runs on both the normal and the unwinding exit path of
/// [`parallel_map`], which is what makes lending stack references to the
/// persistent pool sound.
struct HelperGuard<'a> {
    jobs: &'a [Arc<Job>],
    abort: &'a AtomicBool,
}

impl Drop for HelperGuard<'_> {
    fn drop(&mut self) {
        // On the normal path the cursor is already drained and this is a
        // no-op for helpers mid-flight; on the unwinding path it stops
        // them from claiming further indices.
        self.abort.store(true, Ordering::SeqCst);
        for job in self.jobs {
            // Blocks while a worker runs the job (it holds this lock),
            // i.e. this loop is also the "wait for running helpers" step.
            let mut state = job.state.lock().expect("job state");
            if *state == JobState::Queued {
                *state = JobState::Cancelled;
            }
        }
    }
}

/// The process-wide persistent pool: a queue of pending helper jobs and
/// the count of spawned workers. The pool grows on demand to the largest
/// helper count any [`parallel_map`] call has requested (`threads - 1`
/// per call) and never shrinks; repeated calls at the same width reuse
/// the same workers.
struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    fn submit(&self, jobs: &[Arc<Job>]) {
        self.ensure_workers(jobs.len());
        let mut queue = self.queue.lock().expect("pool queue");
        queue.extend(jobs.iter().cloned());
        drop(queue);
        self.available.notify_all();
    }

    /// Grows the pool to at least `want` workers (never shrinks — workers
    /// park on the queue condvar between batches and live for the
    /// process).
    fn ensure_workers(&self, want: usize) {
        let mut spawned = self.spawned.lock().expect("pool size");
        while *spawned < want {
            *spawned += 1;
            std::thread::Builder::new()
                .name(format!("dlcm-pool-{}", *spawned))
                .spawn(worker_loop)
                .expect("spawn pool worker");
        }
    }
}

fn worker_loop() {
    let pool = pool();
    loop {
        let job = {
            let mut queue = pool.queue.lock().expect("pool queue");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = pool.available.wait(queue).expect("pool queue");
            }
        };
        let mut state = job.state.lock().expect("job state");
        if *state == JobState::Cancelled {
            continue;
        }
        *state = JobState::Running;
        // Run while holding the state lock: cancellation needs the same
        // lock, so acquiring it doubles as waiting for this helper.
        // `helper_main` catches panics, so the lock is never poisoned.
        unsafe { (job.run)(job.batch) };
        *state = JobState::Done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 4, 9] {
            let out = parallel_map(threads, 23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_grain_matches_sequential() {
        let expected: Vec<usize> = (0..37).map(|i| i * 3 + 1).collect();
        for threads in [2, 4, 8] {
            for grain in [1, 2, 3, 5, 8, 16, 37, 100] {
                let out = parallel_map_grained(threads, 37, grain, |i| i * 3 + 1);
                assert_eq!(out, expected, "threads={threads} grain={grain}");
            }
        }
    }

    #[test]
    fn grains_around_the_auto_choice_keep_index_order() {
        // Grains straddling the auto choice land chunk edges mid-batch at
        // every alignment; dlcm-eval's `tests/chunk_boundaries.rs` checks
        // the same edges stay invisible through the evaluator and the cache.
        let len = 23;
        let auto = auto_grain(len, 4);
        let reference: Vec<usize> = (0..len).map(|i| i * i + 1).collect();
        for grain in [1, auto, auto + 1, 7, len, len + 5] {
            for threads in [2, 4, 9] {
                let got = parallel_map_grained(threads, len, grain, |i| i * i + 1);
                assert_eq!(
                    got, reference,
                    "threads={threads}, grain={grain}: chunk assembly broke index order"
                );
            }
        }
    }

    #[test]
    fn auto_grain_is_sane() {
        // Small batches never skip indices or starve workers…
        assert_eq!(auto_grain(3, 8), 1);
        assert_eq!(auto_grain(0, 4), 1);
        // …large batches claim multi-item ranges, several per worker.
        let g = auto_grain(1024, 4);
        assert!(g > 1, "large batches must chunk (got grain {g})");
        assert!(
            g * CHUNKS_PER_WORKER * 4 <= 1024,
            "each worker still gets several chunks to rebalance with"
        );
    }

    #[test]
    fn chunks_cover_odd_batch_and_batch_smaller_than_workers() {
        // batch < workers: only ceil(len/grain) helpers are enlisted.
        assert_eq!(parallel_map_grained(8, 3, 2, |i| i), vec![0, 1, 2]);
        // Odd length not divisible by grain: the tail chunk is clipped.
        let out = parallel_map_grained(4, 11, 4, |i| i);
        assert_eq!(out, (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_batches() {
        assert_eq!(parallel_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn every_index_is_computed_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counts: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        parallel_map(8, 100, |i| counts[i].fetch_add(1, Ordering::SeqCst));
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn pool_workers_persist_across_batches() {
        // The pool never spawns more workers than the largest helper
        // request: repeated batches reuse parked threads instead of
        // spawning per call. (Other tests share the process-wide pool, so
        // assert the bound, not an exact count: no test here asks for
        // more than 9 threads = 8 helpers.)
        for _ in 0..5 {
            let out = parallel_map(4, 32, |i| i + 1);
            assert_eq!(out.len(), 32);
        }
        let workers = *pool().spawned.lock().unwrap();
        assert!(workers >= 3, "first batch must have grown the pool");
        assert!(
            workers <= 8,
            "pool grew past the largest request: {workers} workers"
        );
    }

    #[test]
    fn nested_parallel_maps_share_the_pool_without_deadlock() {
        let out = parallel_map(4, 8, |i| {
            parallel_map(2, 4, |j| i * 10 + j)
                .into_iter()
                .sum::<usize>()
        });
        let expected: Vec<usize> = (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let result = panic::catch_unwind(|| {
            parallel_map(4, 64, |i| {
                assert!(i != 17, "candidate 17 is poisoned");
                i
            })
        });
        assert!(result.is_err(), "panic in f must reach the caller");
        // The pool stays usable after a panicked batch.
        assert_eq!(parallel_map(4, 3, |i| i), vec![0, 1, 2]);
    }
}
