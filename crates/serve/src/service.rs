//! The inference service: cached, concurrent speedup queries over a
//! hot-swappable model. Calls share the result cache and counters,
//! nothing else, so a panicking forward pass unwinds only its own call.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use dlcm_eval::{
    score_wave, EvalStats, SharedCachedEvaluator, SyncEvaluator, DEFAULT_CACHE_CAPACITY,
};
use dlcm_ir::{Program, Schedule};
use dlcm_model::{Featurizer, ModelArtifact, SpeedupPredictor};
use serde::{Deserialize, Serialize};

use crate::epoch::{ModelEpoch, ModelSlot};
use crate::mispredict::{CaptureState, MispredictCounters, MispredictRecord};

/// Service tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Worker-pool width used for parallel featurization and for fanning
    /// the structure groups of one call's misses across forward passes.
    /// Like every `--threads` knob in this workspace, it changes
    /// wall-clock only, never scores.
    pub threads: usize,
    /// Entry bound for the shared result cache (rounded up to a whole
    /// entry per lock shard). Under open-loop traffic every request can
    /// carry fresh `(program, schedule)` keys, so the serving tier's
    /// memory is bounded by this knob — least-recently-used entries are
    /// evicted on overflow, which never changes a score (values are pure
    /// per key), only whether a repeat pays a forward pass again.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
        }
    }
}

/// Observability snapshot of an [`InferenceService`]: throughput,
/// latency, cache effectiveness, and admission-control outcomes.
/// Counters describe *how* queries were served (which calls hit the
/// cache depends on arrival order under concurrency); the scores
/// themselves are deterministic regardless.
///
/// Snapshot coherence: the client-call ledger fields (`queries`,
/// `client_calls`, `total_latency`, and the `mean_latency` derived from
/// them) are read as **one coherent snapshot** under the ledger lock —
/// they always describe the same set of completed calls. The cache,
/// forward-pass, and admission counters are owned by their subsystems and
/// sampled separately: each is monotonic and internally consistent, but
/// across groups a snapshot taken while requests are in flight may
/// observe e.g. a query already counted whose forward rows are not yet
/// (the documented tearing — bounded by the number of in-flight calls,
/// and zero in a quiesced service).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Candidate queries received (rows, before cache dedup).
    pub queries: usize,
    /// `speedup_batch_shared` calls received.
    pub client_calls: usize,
    /// Queries answered from the shared result cache.
    pub cache_hits: usize,
    /// Queries that missed the cache and went through a forward pass.
    pub cache_misses: usize,
    /// `cache_hits / (cache_hits + cache_misses)`, `0.0` before the
    /// first query (the wire's JSON cannot carry a `NaN`).
    pub hit_rate: f64,
    /// Entries currently resident in the shared result cache.
    pub cache_entries: usize,
    /// The cache's configured entry bound: `cache_entries` never
    /// exceeds it.
    pub cache_capacity: usize,
    /// Entries evicted to stay within `cache_capacity` so far.
    pub cache_evictions: usize,
    /// Structure-pure forward passes run.
    pub micro_batches: usize,
    /// Always 0: a forward pass only holds rows of one client call. The
    /// field stays because the frozen `benchmark/` reads it.
    pub coalesced_batches: usize,
    /// Rows scored by forward passes (`== cache_misses` after dedup).
    pub forward_rows: usize,
    /// Mean rows per forward pass.
    pub mean_batch_rows: f64,
    /// Requests turned away at admission because the front end was
    /// full (always 0 for a bare in-process service —
    /// populated through [`InferenceService::note_rejected_overload`]
    /// by admission-controlled front ends such as `dlcm-net`).
    pub rejected_overload: usize,
    /// Requests rejected because their deadline had already expired
    /// before evaluation started (see
    /// [`InferenceService::note_rejected_deadline`]).
    pub rejected_deadline: usize,
    /// Requests that completed evaluation but blew their deadline doing
    /// so (see [`InferenceService::note_deadline_missed`]).
    pub deadline_missed: usize,
    /// Hot model swaps completed since the service started (see
    /// [`InferenceService::reload`]).
    pub model_swaps: usize,
    /// Served rows spot-checked against ground truth by mispredict
    /// capture (0 unless [`InferenceService::enable_mispredict_capture`]
    /// was called).
    pub mispredict_checked: usize,
    /// Checked rows banded WARN (relative error in `[0.10, 0.25)`).
    pub mispredict_warn: usize,
    /// Checked rows banded HIGH (relative error in `[0.25, 0.50)`).
    pub mispredict_high: usize,
    /// Checked rows banded CRITICAL (relative error `>= 0.50`).
    pub mispredict_critical: usize,
    /// WARN+ records pushed into the bounded mispredict log (monotonic).
    pub mispredict_logged: usize,
    /// Mispredict records dropped oldest-first to honor the log bound.
    pub mispredict_dropped: usize,
    /// Summed wall-clock seconds spent inside client calls.
    pub total_latency: f64,
    /// Mean wall-clock seconds per client call.
    pub mean_latency: f64,
}

/// The coherent client-call ledger behind [`ServeStats`]: one lock, one
/// snapshot — a reader can never observe a call's latency without its
/// query count (the old field-by-field atomics could tear).
#[derive(Debug, Clone, Copy, Default)]
struct ClientLedger {
    calls: usize,
    queries: usize,
    latency: f64,
    /// What the cache and the miss path charged.
    charged: EvalStats,
}

/// What the service keeps beside its result cache: the swappable model,
/// the query schema, and the forward-pass counters.
struct ServeCore<M> {
    slot: ModelSlot<M>,
    featurizer: Featurizer,
    threads: usize,
    micro_batches: AtomicUsize,
    forward_rows: AtomicUsize,
}

impl<M: SpeedupPredictor> ServeCore<M> {
    /// Scores the deduplicated fresh rows of one call against exactly
    /// `epoch` — the hot-swap-safe miss path. The caller pins the epoch
    /// before building cache keys, so keys and forward passes always
    /// agree on the model identity no matter when a swap lands.
    fn speedup_batch_epoch(
        &self,
        epoch: &ModelEpoch<M>,
        program: &Program,
        schedules: &[Schedule],
    ) -> (Vec<f64>, EvalStats) {
        let start = Instant::now();
        let (values, passes) = score_wave(
            epoch.model(),
            &self.featurizer,
            self.threads,
            program,
            schedules,
        );
        self.micro_batches.fetch_add(passes, Ordering::Relaxed);
        self.forward_rows
            .fetch_add(schedules.len(), Ordering::Relaxed);
        let dt = start.elapsed().as_secs_f64();
        let delta = EvalStats {
            num_evals: schedules.len(),
            search_time: dt,
            infer_time: dt,
            ..EvalStats::default()
        };
        (values, delta)
    }
}

/// Typed failure of [`InferenceService::reload`]-family operations. A
/// failed reload never touches the incumbent model: the service keeps
/// serving exactly what it served before the attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum ReloadError {
    /// The candidate artifact was trained under a different featurizer
    /// schema than the one this service encodes queries with — its
    /// scores would be meaningless for the feature vectors the service
    /// produces.
    SchemaMismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
}

impl fmt::Display for ReloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReloadError::SchemaMismatch { detail } => {
                write!(f, "artifact featurizer schema mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for ReloadError {}

/// Artifact-driven hot reload, as a trait so front ends generic over the
/// model type (the `dlcm-net` server) can require it without naming
/// `CostModel`. Implemented by [`InferenceService`] over
/// `dlcm_model::CostModel` — the model type artifacts deserialize to.
pub trait ArtifactReloadable {
    /// Validates `artifact` against the service's query schema and, on
    /// success, atomically swaps it in (returning its weights
    /// fingerprint). On error the incumbent model keeps serving,
    /// untouched.
    fn reload_artifact(&self, artifact: ModelArtifact) -> Result<u64, ReloadError>;
}

/// A served cost model: answers concurrent `(program, schedule)` speedup
/// queries through one shared, schedule-keyed result cache
/// ([`SharedCachedEvaluator`]); each call's misses are scored in
/// structure-pure batches ([`dlcm_eval::score_wave`]) over the
/// persistent evaluation pool.
///
/// The service implements [`SyncEvaluator`], so everything built on the
/// shared evaluation tier — `dlcm_search::SearchDriver` suites,
/// `ScopedEvaluator` per-search accounting, the `&service`-is-an-
/// `Evaluator` blanket adapter — runs against a *served* model
/// unchanged.
///
/// Determinism contract: served scores are bit-identical to in-process
/// evaluation (`dlcm_eval::ModelEvaluator` over the same model and
/// featurizer) at any client-thread count and any cache state — the
/// miss path *is* `ModelEvaluator`'s scoring function.
/// `tests/parity.rs` enforces this.
///
/// # Examples
///
/// ```
/// use dlcm_eval::SyncEvaluator;
/// use dlcm_ir::{Expr, ProgramBuilder, Schedule};
/// use dlcm_model::{CostModel, CostModelConfig, Featurizer, FeaturizerConfig};
/// use dlcm_serve::{InferenceService, ServeConfig};
///
/// let feat_cfg = FeaturizerConfig::default();
/// let model = CostModel::new(CostModelConfig::fast(feat_cfg.vector_width()), 0);
/// let service = InferenceService::new(model, Featurizer::new(feat_cfg), ServeConfig::default());
///
/// let mut b = ProgramBuilder::new("p");
/// let i = b.iter("i", 0, 64);
/// let inp = b.input("in", &[64]);
/// let out = b.buffer("out", &[64]);
/// let acc = b.access(inp, &[i.into()], &[i]);
/// b.assign("c", &[i], out, &[i.into()], Expr::Load(acc));
/// let program = b.build().unwrap();
///
/// let (score, _delta) = service.speedup_shared(&program, &Schedule::empty());
/// assert!(score > 0.0);
/// let again = service.speedup_shared(&program, &Schedule::empty()).0;
/// assert_eq!(score, again, "second query is a cache hit with the same score");
/// assert_eq!(service.stats().cache_hits, 1);
/// ```
pub struct InferenceService<M: SpeedupPredictor> {
    cache: SharedCachedEvaluator<ServeCore<M>>,
    ledger: Mutex<ClientLedger>,
    rejected_overload: AtomicUsize,
    rejected_deadline: AtomicUsize,
    deadline_missed: AtomicUsize,
    capture: OnceLock<CaptureState>,
}

impl<M: SpeedupPredictor> InferenceService<M> {
    /// Builds a service over a model and the featurizer schema its
    /// queries must be encoded with. The model gets identity fingerprint
    /// `0`; artifact-backed services
    /// ([`InferenceService::from_artifact`]) carry their artifact's
    /// weights fingerprint instead, and
    /// [`InferenceService::with_model_fingerprint`] sets one explicitly.
    pub fn new(model: M, featurizer: Featurizer, cfg: ServeConfig) -> Self {
        Self::with_model_fingerprint(model, 0, featurizer, cfg)
    }

    /// [`InferenceService::new`] with an explicit model identity
    /// fingerprint: the value cache keys carry and
    /// [`ServeStats`]/reload reports identify the model by.
    pub fn with_model_fingerprint(
        model: M,
        fingerprint: u64,
        featurizer: Featurizer,
        cfg: ServeConfig,
    ) -> Self {
        let cache = SharedCachedEvaluator::with_capacity(
            ServeCore {
                slot: ModelSlot::new(model, fingerprint),
                featurizer,
                threads: cfg.threads.max(1),
                micro_batches: AtomicUsize::new(0),
                forward_rows: AtomicUsize::new(0),
            },
            cfg.cache_capacity,
        );
        Self {
            cache,
            ledger: Mutex::new(ClientLedger::default()),
            rejected_overload: AtomicUsize::new(0),
            rejected_deadline: AtomicUsize::new(0),
            deadline_missed: AtomicUsize::new(0),
            capture: OnceLock::new(),
        }
    }

    /// Installs mispredict capture (at most once per service): every
    /// first-seen served row is spot-checked against `truth` — ground
    /// truth, in practice a `dlcm_eval::ParallelEvaluator` over the
    /// execution harness — and WARN+ divergences are retained in a log
    /// bounded at 1024 records (oldest dropped first). Returns `false`
    /// (and changes nothing) if capture was already enabled.
    ///
    /// The check runs *after* a response's values are fixed, so capture
    /// can never change an answer; it adds truth-evaluation latency
    /// only to calls that carry first-seen rows.
    pub fn enable_mispredict_capture(&self, truth: Box<dyn SyncEvaluator>) -> bool {
        self.capture.set(CaptureState::new(truth)).is_ok()
    }

    /// Removes and returns every retained mispredict record, oldest
    /// first (empty when capture is disabled or nothing diverged). The
    /// flywheel drains this into a new corpus generation.
    pub fn drain_mispredicts(&self) -> Vec<MispredictRecord> {
        self.capture
            .get()
            .map(CaptureState::drain)
            .unwrap_or_default()
    }

    /// Capture accounting (all zeros when capture is disabled).
    pub fn mispredict_counters(&self) -> MispredictCounters {
        self.capture
            .get()
            .map(CaptureState::counters)
            .unwrap_or_default()
    }

    /// Atomically replaces the served model: queries that pinned the old
    /// epoch finish on it (and their scores stay cached under *its*
    /// fingerprint), queries arriving after the swap pin the new epoch.
    /// Readers never block — the swap is one pointer replacement — and
    /// no cache entry can leak across the boundary, because every entry
    /// is keyed by the fingerprint of the epoch that produced it.
    ///
    /// The caller vouches that `fingerprint` identifies `model` (and
    /// differs whenever the weights differ); artifact-driven reloads get
    /// this from the artifact's manifest. Validation belongs *before*
    /// this call — see [`ArtifactReloadable::reload_artifact`] for the
    /// checked path.
    pub fn reload(&self, model: M, fingerprint: u64) {
        self.cache.inner().slot.swap(model, fingerprint);
    }

    /// Fingerprint of the epoch new queries currently pin.
    pub fn active_model_fingerprint(&self) -> u64 {
        self.cache.inner().slot.load().fingerprint()
    }

    /// Hot swaps completed since the service started.
    pub fn model_swaps(&self) -> usize {
        self.cache.inner().slot.swaps()
    }

    /// Records a request an admission-controlled front end turned away
    /// because it was full (`dlcm-net`'s accept queue). The request never
    /// reached evaluation; this keeps it visible in [`ServeStats`].
    pub fn note_rejected_overload(&self) {
        self.rejected_overload.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request rejected because its deadline had already
    /// expired before evaluation started.
    pub fn note_rejected_deadline(&self) {
        self.rejected_deadline.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request that was evaluated but finished after its
    /// deadline (the caller may have already given up on the answer).
    pub fn note_deadline_missed(&self) {
        self.deadline_missed.fetch_add(1, Ordering::Relaxed);
    }

    /// The featurizer queries are encoded with. Fixed for the service's
    /// lifetime: reloaded artifacts must match this schema
    /// ([`ReloadError::SchemaMismatch`] otherwise), because clients
    /// encode queries against it.
    pub fn featurizer(&self) -> &Featurizer {
        &self.cache.inner().featurizer
    }

    /// Current observability snapshot. See [`ServeStats`] for the
    /// coherence guarantee: ledger fields are one atomic snapshot,
    /// subsystem counters are sampled alongside it.
    pub fn stats(&self) -> ServeStats {
        let core = self.cache.inner();
        let ledger = *self.ledger.lock().expect("client ledger");
        let micro_batches = core.micro_batches.load(Ordering::Relaxed);
        let forward_rows = core.forward_rows.load(Ordering::Relaxed);
        let hits = self.cache.hits();
        let misses = self.cache.misses();
        let mispredict = self.mispredict_counters();
        ServeStats {
            queries: ledger.queries,
            client_calls: ledger.calls,
            cache_hits: hits,
            cache_misses: misses,
            hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
            cache_entries: self.cache.len(),
            cache_capacity: self.cache.capacity(),
            cache_evictions: self.cache.evictions(),
            micro_batches,
            coalesced_batches: 0,
            forward_rows,
            mean_batch_rows: if micro_batches > 0 {
                forward_rows as f64 / micro_batches as f64
            } else {
                0.0
            },
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
            model_swaps: core.slot.swaps(),
            mispredict_checked: mispredict.checked,
            mispredict_warn: mispredict.warn,
            mispredict_high: mispredict.high,
            mispredict_critical: mispredict.critical,
            mispredict_logged: mispredict.logged,
            mispredict_dropped: mispredict.dropped,
            total_latency: ledger.latency,
            mean_latency: if ledger.calls > 0 {
                ledger.latency / ledger.calls as f64
            } else {
                0.0
            },
        }
    }
}

impl InferenceService<dlcm_model::CostModel> {
    /// Builds a service straight from a saved [`ModelArtifact`]: the
    /// featurizer comes from the artifact's manifest schema, so queries
    /// are guaranteed to be encoded the way the model was trained, and
    /// the artifact's weights fingerprint becomes the model identity in
    /// cache keys and reload reports.
    pub fn from_artifact(artifact: ModelArtifact, cfg: ServeConfig) -> Self {
        let featurizer = artifact.featurizer();
        let fingerprint = artifact.weights_fingerprint();
        Self::with_model_fingerprint(artifact.into_model(), fingerprint, featurizer, cfg)
    }
}

impl ArtifactReloadable for InferenceService<dlcm_model::CostModel> {
    fn reload_artifact(&self, artifact: ModelArtifact) -> Result<u64, ReloadError> {
        // Validation happens entirely before the swap (the artifact
        // itself was already integrity-checked by `ModelArtifact::load`):
        // a rejected candidate leaves the incumbent epoch untouched.
        let expected = self.featurizer().config();
        let found = artifact.manifest().featurizer;
        if found != expected {
            return Err(ReloadError::SchemaMismatch {
                detail: format!(
                    "service encodes queries with {expected:?}, artifact was trained with {found:?}"
                ),
            });
        }
        let fingerprint = artifact.weights_fingerprint();
        self.reload(artifact.into_model(), fingerprint);
        Ok(fingerprint)
    }
}

impl<M: SpeedupPredictor> SyncEvaluator for InferenceService<M> {
    fn speedup_batch_shared(
        &self,
        program: &Program,
        schedules: &[Schedule],
    ) -> (Vec<f64>, EvalStats) {
        let start = Instant::now();
        // Pin the model epoch ONCE, before any cache key exists: keys are
        // built under the pinned fingerprint AND misses are scored
        // against the same pinned model, so a reload landing anywhere in
        // this call can neither mix models within the batch nor poison
        // the cache with wrong-keyed entries.
        let core = self.cache.inner();
        let epoch = core.slot.load();
        let (values, charged) =
            self.cache
                .speedup_batch_pinned(epoch.fingerprint(), program, schedules, |fresh| {
                    core.speedup_batch_epoch(&epoch, program, fresh)
                });
        let mut delta = charged;
        delta.num_evals = schedules.len();
        // Mispredict capture observes the *final* values under the same
        // pinned epoch that produced them — it can never change an
        // answer, and a swap landing mid-call attributes the check to
        // the epoch that actually served it.
        if let Some(capture) = self.capture.get() {
            capture.observe(program, schedules, &values, epoch.fingerprint());
        }
        {
            let mut ledger = self.ledger.lock().expect("client ledger");
            ledger.calls += 1;
            ledger.queries += schedules.len();
            ledger.latency += start.elapsed().as_secs_f64();
            ledger.charged += charged;
        }
        (values, delta)
    }

    fn total_stats(&self) -> EvalStats {
        let ledger = *self.ledger.lock().expect("client ledger");
        let mut stats = ledger.charged;
        stats.num_evals = ledger.queries;
        stats
    }
}
