//! Concurrent suite driver: fan whole searches across the worker pool.
//!
//! PRs past parallelized candidate *evaluation*; this module lifts the
//! parallelism one level: a [`SearchDriver`] runs many searches — the
//! Figure 6 sweep is `{BSE, BSM, MCTS, Halide} × ten benchmarks` — as
//! tasks on the same persistent pool the evaluators use
//! (`dlcm_eval::pool`), with every execution-backed search borrowing
//! **one** shared, schedule-keyed result cache
//! ([`dlcm_eval::SharedCachedEvaluator`]).
//!
//! Determinism composes the same way it does below this layer:
//!
//! - **results in input order** — jobs fan out through
//!   `pool::parallel_map`, which gathers by index regardless of which
//!   thread ran what;
//! - **scores** are a pure function of `(seed, program, schedule)`, so a
//!   search returns the same `SearchResult::schedule`/`score` no matter
//!   what runs next to it;
//! - **validity** is per search — each `BeamSearch::search` /
//!   `Mcts::search` call builds its own `dlcm_ir::Legality` context
//!   (dependence analysis at most once per search, every child one
//!   `extend`), so nothing about legality is shared between jobs;
//! - **per-search stats stay standalone** — a search sums, from zero,
//!   the charges its own calls return
//!   ([`dlcm_eval::Evaluator::speedup_batch_charged`]). Each
//!   execution-backed search scores through its own
//!   [`dlcm_eval::ScopedEvaluator`], whose charges are the shared calls'
//!   own [`dlcm_eval::EvalStats`] deltas, so Table 2's per-search
//!   accounting never sees a concurrent neighbour's work; a job's
//!   model-driven searches share one model evaluator per role, handed to
//!   each as `&mut *boxed`, so sharing a `ModelEvaluator` moves no stat by
//!   a bit; and
//! - **cache-reuse accounting is ordered where it matters** — the specs
//!   of one [`SearchJob`] run sequentially on one worker (MCTS warms the
//!   cache BSE then reuses, exactly as the serial experiment ran), while
//!   distinct jobs interact through the cache not at all (keys embed the
//!   program's content fingerprint, and suite benchmarks are distinct
//!   programs).
//!
//! Under those conditions — distinct programs across jobs, fixed spec
//! order within a job — the driver's output, *stats included*, is
//! byte-identical at any `search_threads` setting; `modelctl reproduce`
//! leans on this to emit identical CSVs at any `--threads` value
//! (`tests/driver_parity.rs` and the CI diff job enforce it).

use dlcm_eval::pool::parallel_map;
use dlcm_eval::{Evaluator, ScopedEvaluator, SyncEvaluator};
use dlcm_ir::Program;

use crate::beam::{BeamSearch, SearchResult};
use crate::mcts::Mcts;

/// One search to run inside a [`SearchJob`].
///
/// Model-driven specs carry a `role` the caller's evaluator factory maps
/// to a concrete model (e.g. role 0 = the trained cost model, role 1 =
/// the Halide-style baseline). One model evaluator is built per role and
/// job and serves every spec of that role in the job, so what it learned
/// scoring one search's candidates (a model evaluator remembers the
/// scores of the program it is scoring) answers the next search's; each
/// search still reports only what its own calls were charged.
#[derive(Debug, Clone)]
pub enum SearchSpec {
    /// Beam search driven by the shared execution-backed evaluator
    /// (the paper's BSE).
    BeamExec(BeamSearch),
    /// Beam search driven by the job's model evaluator for `role` (BSM,
    /// Halide).
    BeamModel {
        /// Beam configuration.
        search: BeamSearch,
        /// Which model the evaluator factory should produce.
        role: usize,
    },
    /// MCTS: per-spec model rollouts plus the shared execution evaluator
    /// for the top-k correction step.
    Mcts {
        /// MCTS configuration.
        search: Mcts,
        /// Which model drives the rollouts.
        role: usize,
    },
}

/// One unit of driver work: a program and the ordered list of searches to
/// run on it. Specs run **sequentially on one worker**, so any cache
/// reuse between them (MCTS measurements answering BSE candidates) is
/// deterministic; parallelism happens across jobs.
#[derive(Debug, Clone)]
pub struct SearchJob {
    /// The program every spec searches.
    pub program: Program,
    /// Searches to run, in order.
    pub specs: Vec<SearchSpec>,
}

/// Fans [`SearchJob`]s across the persistent worker pool.
///
/// `search_threads == 1` runs the whole suite inline on the caller's
/// thread — the reference every other setting must reproduce.
///
/// # Examples
///
/// ```no_run
/// # use dlcm_ir::*;
/// use dlcm_eval::{
///     Evaluator, ParallelEvaluator, SharedCachedEvaluator,
/// };
/// use dlcm_machine::{Machine, Measurement};
/// use dlcm_search::{BeamSearch, SearchDriver, SearchJob, SearchSpec};
/// # let mut b = ProgramBuilder::new("p");
/// # let i = b.iter("i", 0, 512);
/// # let inp = b.input("in", &[512]);
/// # let out = b.buffer("out", &[512]);
/// # let acc = b.access(inp, &[i.into()], &[i]);
/// # b.assign("c", &[i], out, &[i.into()], Expr::Load(acc));
/// # let program = b.build().unwrap();
/// let shared = SharedCachedEvaluator::new(ParallelEvaluator::new(
///     Measurement::new(Machine),
///     0,
///     2,
/// ));
/// fn model(_role: usize) -> Box<dyn Evaluator> {
///     Box::new(ParallelEvaluator::new(Measurement::new(Machine), 0, 1))
/// }
/// let jobs = vec![SearchJob {
///     program,
///     specs: vec![SearchSpec::BeamExec(BeamSearch::default())],
/// }];
/// let results = SearchDriver::new(4).run_suite(&jobs, &shared, &model);
/// assert_eq!(results.len(), 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SearchDriver {
    /// Number of searches run concurrently (jobs in flight at once).
    pub search_threads: usize,
}

impl SearchDriver {
    /// Creates a driver running up to `search_threads` jobs concurrently.
    pub fn new(search_threads: usize) -> Self {
        Self {
            search_threads: search_threads.max(1),
        }
    }

    /// Runs every job's specs, jobs fanned across the pool, and returns
    /// `out[j][k]` = result of job `j`'s spec `k` — input order, whatever
    /// the execution interleaving was.
    ///
    /// `exec` is the one shared execution-backed evaluator every
    /// [`SearchSpec::BeamExec`] and MCTS correction step borrows;
    /// `model_eval` builds an exclusive evaluator for a model `role`
    /// (called once per job and role, when the job's first spec of that
    /// role runs, on the worker running the job).
    pub fn run_suite<'m, E, F>(
        &self,
        jobs: &[SearchJob],
        exec: &E,
        model_eval: &F,
    ) -> Vec<Vec<SearchResult>>
    where
        E: SyncEvaluator + ?Sized,
        F: Fn(usize) -> Box<dyn Evaluator + 'm> + Sync,
    {
        parallel_map(self.search_threads, jobs.len(), |j| {
            let job = &jobs[j];
            let mut models = Vec::new();
            job.specs
                .iter()
                .map(|spec| run_one(&job.program, spec, exec, model_eval, &mut models))
                .collect()
        })
    }
}

/// The job's model evaluators, one per role, in the order first asked for.
type Models<'m> = Vec<(usize, Box<dyn Evaluator + 'm>)>;

fn run_one<'m, E, F>(
    program: &Program,
    spec: &SearchSpec,
    exec: &E,
    model_eval: &F,
    models: &mut Models<'m>,
) -> SearchResult
where
    E: SyncEvaluator + ?Sized,
    F: Fn(usize) -> Box<dyn Evaluator + 'm> + Sync,
{
    match spec {
        SearchSpec::BeamExec(search) => search.search(program, &mut ScopedEvaluator::new(exec)),
        SearchSpec::BeamModel { search, role } => {
            search.search(program, model(models, *role, model_eval))
        }
        SearchSpec::Mcts { search, role } => search.search(
            program,
            model(models, *role, model_eval),
            &mut ScopedEvaluator::new(exec),
        ),
    }
}

/// The job's evaluator for `role`, built by `model_eval` if no earlier
/// spec of the job asked for it.
fn model<'a, 'm, F>(
    models: &'a mut Models<'m>,
    role: usize,
    model_eval: &F,
) -> &'a mut (dyn Evaluator + 'm)
where
    F: Fn(usize) -> Box<dyn Evaluator + 'm>,
{
    let at = match models.iter().position(|(r, _)| *r == role) {
        Some(at) => at,
        None => {
            models.push((role, model_eval(role)));
            models.len() - 1
        }
    };
    &mut *models[at].1
}
