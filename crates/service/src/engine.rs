//! The parallel query engine.
//!
//! [`QueryEngine`] wraps a shared, immutable [`ResistanceBackend`] behind an
//! [`Arc`] and turns it into a service: batches fan out as jobs on a
//! persistent [`WorkerPool`] (the engine's own, or one shared with the
//! estimator build via [`EngineOptions::pool`]), each job drawing a reusable
//! scratch column buffer from a pool-wide free list, in front of a sharded
//! LRU cache of recent pair results.
//!
//! Every batch goes through one call, [`QueryEngine::execute_with`], whose
//! [`ExecOptions`] choose the failure mode (fail-fast or partial results),
//! an optional [`CancelToken`], and whether the engine may reorder the
//! batch. The engine picks the plan: backends with a paged store run the
//! locality scheduler (see [`crate::scheduler`]), everything else answers
//! the batch hub-sorted in arrival order. Either way the batch is validated,
//! admitted against its deadline, run, booked into [`ServiceStats`] and
//! wrapped into one [`BatchResult`] (or a [`BatchAbort`]).
//!
//! The engine is generic over *where the columns live*: the resident
//! [`EffectiveResistanceEstimator`] backend reads them out of the in-memory
//! CSC arena behind a precomputed `‖z̃_j‖²` norm table, while the paged
//! [`effres_io::PagedSnapshot`] backend pages them in from a v2 snapshot
//! file on demand (per-column norms come off the decoded pages — the
//! [`ColumnStore`] contract pins them to the same bits, so both backends
//! return bit-identical resistances). Column fetches are fallible for the
//! paged backend, so the batch paths propagate [`EffresError`] instead of
//! panicking a worker.
//!
//! The backends and every type they contain are plain owned data plus
//! independently locked caches, so sharing one across pool workers behind an
//! [`Arc`] is sound; the static assertions in the crate root pin the
//! `Send + Sync` audit down at compile time.

use crate::admission::{AdmissionLedger, AdmissionStats};
use crate::backend::ResistanceBackend;
use crate::batch::QueryBatch;
use crate::cache::ShardedLru;
use crate::cancel::CancelToken;
use crate::metrics::ServiceTimeEwma;
use effres::column_store::{self, ColumnStore, HubScratch, KernelStats};
use effres::{CancelReason, EffectiveResistanceEstimator, EffresError, WorkerPool};
use effres_io::{PageCacheStats, PagedColumnStore};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Tuning knobs of a [`QueryEngine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Parallel fan-out for batch execution; `0` means one job chunk per
    /// available core (or per worker of a shared [`EngineOptions::pool`]).
    /// Actual concurrency is capped by the worker-pool size.
    pub threads: usize,
    /// Total entries of the pair-result cache; `0` disables caching.
    pub cache_capacity: usize,
    /// Number of cache shards (rounded up to a power of two).
    pub cache_shards: usize,
    /// Batches smaller than this run on the calling thread — dispatching
    /// pool jobs costs more than it saves.
    pub parallel_threshold: usize,
    /// A persistent [`WorkerPool`] to run batch jobs on. `None` (the
    /// default) makes the engine spawn its own pool lazily on the first
    /// parallel batch; build-then-serve deployments pass the pool the
    /// estimator build used (`EffresConfig::with_worker_pool`) so the whole
    /// pipeline shares one set of workers.
    pub pool: Option<WorkerPool>,
    /// Readahead window of the locality scheduler (paged backends), in
    /// pages: how many upcoming non-resident pages each scheduling step pins
    /// with one coalesced read. `0` (the default) sizes the window
    /// automatically from the store's cache budget. Resident backends
    /// ignore it.
    pub readahead_pages: usize,
    /// Bound on the admission ledger's queue depth for scheduled paged
    /// batches. `None` (the default) keeps the PR-5 behavior — lease
    /// requests queue without bound and never fail. `Some(depth)` turns
    /// overload into a typed [`EffresError::Busy`]: a batch arriving when
    /// `depth` requests are already waiting is shed immediately, and a
    /// queued batch that waits out [`admission_timeout`](Self::admission_timeout)
    /// without capacity is shed too. Resident backends (no pin budget)
    /// ignore both knobs.
    pub admission_queue_depth: Option<usize>,
    /// How long a scheduled batch may wait for a pin-capacity lease before
    /// being shed, when [`admission_queue_depth`](Self::admission_queue_depth)
    /// is bounded.
    pub admission_timeout: Duration,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            threads: 0,
            cache_capacity: 1 << 16,
            cache_shards: 16,
            parallel_threshold: 1 << 10,
            pool: None,
            readahead_pages: 0,
            admission_queue_depth: None,
            admission_timeout: Duration::from_secs(2),
        }
    }
}

/// How [`QueryEngine::execute_with`] runs one batch. The default is
/// fail-fast, no cancellation token, scheduling allowed — what
/// [`QueryEngine::execute`] uses.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Partial-results mode: no single failure aborts the batch. An invalid
    /// pair fails with [`EffresError::NodeOutOfBounds`], a pair touching a
    /// page the store cannot produce fails with
    /// [`EffresError::StoreFailure`], and every other query still succeeds
    /// with the value a fail-fast run would have returned (same kernels,
    /// same order). The outcome of every slot lands in
    /// [`BatchResult::statuses`]. Off (fail-fast), every pair is validated
    /// before any work and the first failure aborts the batch.
    pub partial: bool,
    /// A cancellation token, checked at chunk boundaries (between pairs in
    /// arrival order; per block and readahead wave in the locality
    /// scheduler), never mid-kernel. A token that has already tripped, or
    /// whose deadline the service-time EWMA says cannot be met, rejects the
    /// batch up front ([`CancelReason::Unmeetable`]). A trip mid-batch types
    /// the abandoned tail [`EffresError::DeadlineExceeded`]: partial mode
    /// keeps the answered prefix, fail-fast mode reports a [`BatchAbort`].
    pub cancel: Option<Arc<CancelToken>>,
    /// Lets the engine run the locality scheduler when the backend has a
    /// paged store. `false` keeps arrival order — the same bits with far more
    /// page traffic, kept as the reference the scheduler is checked against.
    pub schedule: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            partial: false,
            cancel: None,
            schedule: true,
        }
    }
}

/// Cumulative service counters (monotonic across the engine's lifetime).
///
/// Every batch books once, on whichever path it leaves
/// [`QueryEngine::execute_with`]: a batch that passed validation and
/// deadline admission adds one to `batches`, and `queries` grows by the
/// number of slots it returned `Ok` — all of them for a complete batch, the
/// successful slots of a partial batch, none for a batch that aborted. A
/// batch rejected by validation or deadline admission books nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Queries answered (batch and single).
    pub queries: u64,
    /// Batches executed.
    pub batches: u64,
    /// Queries answered out of the pair cache.
    pub cache_hits: u64,
    /// Queries that had to run the sparse kernel.
    pub cache_misses: u64,
    /// Entries currently cached.
    pub cache_entries: usize,
    /// Total cache capacity (0 when caching is disabled).
    pub cache_capacity: usize,
    /// Page-cache hits of an out-of-core backend (column fetches served
    /// from resident decoded pages). Zero for resident backends.
    pub page_cache_hits: u64,
    /// Page-cache misses of an out-of-core backend (column fetches that
    /// read and decoded from disk). Zero for resident backends.
    pub page_cache_misses: u64,
    /// Bytes an out-of-core backend read from disk. Zero for resident
    /// backends.
    pub page_bytes_read: u64,
    /// Coalesced readahead reads an out-of-core backend issued (each covers
    /// a run of adjacent pages). Zero for resident backends.
    pub page_readahead_reads: u64,
    /// Page read attempts an out-of-core backend re-issued after a transient
    /// fault (including corruption re-fetches). Zero for resident backends
    /// and on fault-free storage.
    pub page_retries: u64,
    /// Page read attempts that faulted (I/O errors, short reads, validation
    /// failures) on an out-of-core backend. When this exceeds
    /// `page_retries`, faults burned through the retry budget and surfaced
    /// as typed per-column failures.
    pub page_faulted_reads: u64,
}

impl ServiceStats {
    /// Combines counters drained in an earlier window with counters accrued
    /// since: the monotone counters sum; the point-in-time gauges
    /// (`cache_entries`, `cache_capacity`) come from `later`.
    #[must_use]
    pub fn merged(&self, later: ServiceStats) -> ServiceStats {
        ServiceStats {
            queries: self.queries + later.queries,
            batches: self.batches + later.batches,
            cache_hits: self.cache_hits + later.cache_hits,
            cache_misses: self.cache_misses + later.cache_misses,
            cache_entries: later.cache_entries,
            cache_capacity: later.cache_capacity,
            page_cache_hits: self.page_cache_hits + later.page_cache_hits,
            page_cache_misses: self.page_cache_misses + later.page_cache_misses,
            page_bytes_read: self.page_bytes_read + later.page_bytes_read,
            page_readahead_reads: self.page_readahead_reads + later.page_readahead_reads,
            page_retries: self.page_retries + later.page_retries,
            page_faulted_reads: self.page_faulted_reads + later.page_faulted_reads,
        }
    }
}

/// Result of one batch execution.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Effective resistances, in the order of the batch's pairs; `0.0` at
    /// slots that failed (partial mode only — a fail-fast result has no
    /// failed slots).
    pub values: Vec<f64>,
    /// Per-query outcome, in the order of the batch's pairs, recorded in
    /// partial mode: the resistance, or the typed error that failed this
    /// query (out-of-bounds node, a store failure on a page the pair
    /// touches, admission shed, cancellation). Empty for fail-fast results,
    /// whose every slot succeeded.
    pub statuses: Vec<Result<f64, EffresError>>,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Parallel job chunks the batch fanned out into (1 for the sequential
    /// path); actual concurrency is additionally capped by the worker-pool
    /// size.
    pub threads: usize,
    /// Pair-cache hits within this batch.
    pub cache_hits: u64,
    /// Pair-cache misses within this batch.
    pub cache_misses: u64,
    /// Page traffic of **this batch** (hits, misses, bytes read, coalesced
    /// readahead reads), for out-of-core backends — taken with a
    /// snapshot/reset of the backend's relaxed counters around the batch, so
    /// the rates are per-batch, not process-lifetime. `None` for resident
    /// backends. Exact when batches on the engine do not overlap;
    /// overlapping batches split the totals between them.
    pub page_cache: Option<PageCacheStats>,
    /// What the multi-pair kernels streamed for **this batch** (hub loads,
    /// pairs per hub, arena bytes read) — exact per batch: the counters
    /// ride the scratch buffers each job drains before returning them, so
    /// concurrent batches never mix.
    pub kernel: KernelStats,
    /// How the locality scheduler organized this batch (scheduled paged
    /// executions only).
    pub schedule: Option<ScheduleReport>,
}

/// Shape of one locality-scheduled batch execution (see
/// [`crate::scheduler`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScheduleReport {
    /// Distinct `(page_lo, page_hi)` clusters the batch's cache-missing
    /// queries collapsed into.
    pub clusters: usize,
    /// Pinned page blocks the lo-side page space was partitioned into.
    pub blocks: usize,
    /// Readahead windows (hi-side page groups) processed across all blocks.
    pub windows: usize,
}

impl BatchResult {
    /// Queries answered per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            return f64::INFINITY;
        }
        self.values.len() as f64 / self.elapsed.as_secs_f64()
    }

    /// Queries that failed.
    pub fn failures(&self) -> usize {
        self.statuses.iter().filter(|s| s.is_err()).count()
    }

    /// `true` when every query succeeded.
    pub fn is_complete(&self) -> bool {
        self.statuses.iter().all(Result::is_ok)
    }

    /// Queries this batch never ran because its cancellation token tripped
    /// (statuses carrying [`EffresError::DeadlineExceeded`]) — the work the
    /// lifecycle layer reclaimed for live requests.
    pub fn abandoned_pairs(&self) -> u64 {
        count_abandoned(&self.statuses)
    }
}

fn count_abandoned(statuses: &[Result<f64, EffresError>]) -> u64 {
    statuses
        .iter()
        .filter(|s| matches!(s, Err(EffresError::DeadlineExceeded { .. })))
        .count() as u64
}

/// Why [`QueryEngine::execute_with`] produced no [`BatchResult`], and how
/// much of the batch never ran.
///
/// `abandoned_pairs` is the reclamation receipt: queries the engine *skipped*
/// because the token tripped (or the whole batch, when admission judged the
/// deadline unmeetable up front). It is zero for ordinary failures
/// (validation, store faults, admission `Busy`) — those batches failed, they
/// were not abandoned.
#[derive(Debug, Clone)]
pub struct BatchAbort {
    /// The typed error that ended the batch (for cancellation,
    /// [`EffresError::DeadlineExceeded`] carrying the [`CancelReason`]).
    pub error: EffresError,
    /// Queries the engine never ran because the batch was cancelled.
    pub abandoned_pairs: u64,
}

impl std::fmt::Display for BatchAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} pairs abandoned)",
            self.error, self.abandoned_pairs
        )
    }
}

impl BatchAbort {
    /// The abort of a fail-fast run that stopped short. A store fault or
    /// `Busy` in one parallel slice outranks a cancellation another slice
    /// hit meanwhile: the batch failed, it was not abandoned.
    fn from_fail_fast(mut statuses: Vec<Result<f64, EffresError>>) -> Self {
        let fault = statuses.iter().position(
            |s| matches!(s, Err(e) if !matches!(e, EffresError::DeadlineExceeded { .. })),
        );
        match fault {
            Some(at) => BatchAbort::from(statuses.swap_remove(at).unwrap_err()),
            None => BatchAbort {
                abandoned_pairs: count_abandoned(&statuses),
                error: statuses
                    .into_iter()
                    .find_map(Result::err)
                    .expect("a short fail-fast run carries its error"),
            },
        }
    }
}

impl From<EffresError> for BatchAbort {
    fn from(error: EffresError) -> Self {
        BatchAbort {
            error,
            abandoned_pairs: 0,
        }
    }
}

/// What one run of a batch produced, before it is booked and wrapped: a
/// status per slot (fail-fast runs stop at their first failure and leave
/// `Ok(0.0)` placeholders behind it) plus the run's counters.
pub(crate) struct Run {
    pub(crate) statuses: Vec<Result<f64, EffresError>>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) kernel: KernelStats,
    pub(crate) threads: usize,
    pub(crate) schedule: Option<ScheduleReport>,
}

/// Shards of the scratch free list: enough that concurrent batch jobs
/// rarely contend on the same `Mutex` (the PR-8 bench showed the single
/// shared list serializing multi-thread batches), small enough that stray
/// scratches (one dense column each) stay bounded.
const SCRATCH_SHARDS: usize = 8;

/// The shareable heart of the engine: everything a pool worker needs to
/// answer a slice of queries — the backend, the (optional) norm table, the
/// result cache and a free list of reusable scratch columns. Lives behind
/// one [`Arc`] so batch jobs are `'static` without copying any of it.
#[derive(Debug)]
pub(crate) struct EngineCore<B: ResistanceBackend> {
    pub(crate) backend: Arc<B>,
    /// `‖z̃_j‖²` per permuted column, when the backend can afford the table
    /// (resident stores, paged v3 snapshots) — shared with the backend, not
    /// copied. `None` for out-of-core backends without a persisted table,
    /// which serve per-column norms off their decoded pages — bit-identical
    /// either way.
    pub(crate) norms: Option<Arc<Vec<f64>>>,
    pub(crate) cache: Option<ShardedLru>,
    /// The pin-budget ledger concurrent scheduled batches lease capacity
    /// from, sized to the cache of the backend's paged store
    /// ([`ResistanceBackend::paged_store`]); `None` for resident backends,
    /// which pin nothing.
    pub(crate) admission: Option<Arc<AdmissionLedger>>,
    /// Reusable hub-scratch columns (see [`HubScratch`]), sharded so
    /// parallel batch jobs don't serialize on one free-list lock: each job
    /// hits the shard named by its job index first and steals from the
    /// others only when its own is empty.
    scratches: [Mutex<Vec<HubScratch>>; SCRATCH_SHARDS],
}

impl<B: ResistanceBackend> EngineCore<B> {
    /// Pops a scratch, preferring the `hint` shard (callers pass their job
    /// index so concurrent jobs start on distinct locks). Any stats a
    /// previous aborted batch left behind are discarded — per-batch kernel
    /// counters must start at zero.
    pub(crate) fn take_scratch(&self, hint: usize) -> HubScratch {
        for probe in 0..SCRATCH_SHARDS {
            let shard = &self.scratches[(hint + probe) % SCRATCH_SHARDS];
            if let Some(mut scratch) = shard.lock().expect("scratch free list poisoned").pop() {
                let _ = scratch.take_stats();
                return scratch;
            }
        }
        HubScratch::new(self.backend.node_count())
    }

    pub(crate) fn return_scratch(&self, hint: usize, scratch: HubScratch) {
        self.scratches[hint % SCRATCH_SHARDS]
            .lock()
            .expect("scratch free list poisoned")
            .push(scratch);
    }

    /// Squared norms of two permuted columns, from the table or the store.
    fn norms_of(&self, pp: usize, qq: usize) -> Result<(f64, f64), EffresError> {
        match &self.norms {
            Some(table) => Ok((table[pp], table[qq])),
            None => {
                let store = self.backend.store();
                Ok((
                    store.column_norm_squared(pp)?,
                    store.column_norm_squared(qq)?,
                ))
            }
        }
    }

    /// The resistance of one (permuted, distinct, in-bounds) pair through
    /// the norm identity `‖z̃_p − z̃_q‖² = ‖z̃_p‖² + ‖z̃_q‖² − 2⟨z̃_p, z̃_q⟩`.
    fn pair_value(&self, pp: usize, qq: usize) -> Result<f64, EffresError> {
        let dot = column_store::column_dot(self.backend.store(), pp, qq)?;
        let (np, nq) = self.norms_of(pp, qq)?;
        // Clamp: cancellation can go slightly negative for near-identical
        // columns, and resistances are nonnegative.
        Ok((np + nq - 2.0 * dot).max(0.0))
    }
}

/// A thread-safe, cache-fronted effective-resistance query service over a
/// shared immutable backend (resident estimator by default; see
/// [`ResistanceBackend`] for the paged alternative).
#[derive(Debug)]
pub struct QueryEngine<B: ResistanceBackend = EffectiveResistanceEstimator> {
    pub(crate) core: Arc<EngineCore<B>>,
    pub(crate) options: EngineOptions,
    /// The engine's own pool, created lazily on the first parallel batch
    /// when no shared pool was configured.
    owned_pool: OnceLock<WorkerPool>,
    queries: AtomicU64,
    batches: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Page traffic drained from the backend's snapshot/reset counters by
    /// finished batches, so cumulative [`ServiceStats`] survive the
    /// per-batch resets.
    drained_page_stats: Mutex<PageCacheStats>,
    /// Service counters drained by [`QueryEngine::take_service_stats`], so
    /// cumulative [`QueryEngine::stats`] survive the per-interval resets.
    drained_service_stats: Mutex<ServiceStats>,
    /// Smoothed per-pair service time of completed batches, feeding the
    /// doomed-deadline check of [`ExecOptions::cancel`].
    service_time: ServiceTimeEwma,
    /// Brownout flag (set by the server's overload controller): while on,
    /// the locality scheduler trims its readahead windows to the minimum so
    /// a pressured cache stops speculating.
    brownout: AtomicBool,
}

impl QueryEngine {
    /// Convenience constructor taking ownership of a resident estimator and
    /// using default options.
    pub fn from_estimator(estimator: EffectiveResistanceEstimator) -> Self {
        QueryEngine::new(Arc::new(estimator), EngineOptions::default())
    }

    /// The shared estimator of a resident engine.
    pub fn estimator(&self) -> &Arc<EffectiveResistanceEstimator> {
        &self.core.backend
    }
}

impl<B: ResistanceBackend> QueryEngine<B> {
    /// Builds an engine over a shared backend.
    pub fn new(backend: Arc<B>, options: EngineOptions) -> Self {
        let norms = backend.precomputed_norms();
        let cache = if options.cache_capacity > 0 {
            Some(ShardedLru::new(
                options.cache_capacity,
                options.cache_shards,
            ))
        } else {
            None
        };
        // Concurrent scheduled batches share the paged store's cache budget
        // through the ledger. It needs at least two pages (one per side of a
        // pair), the same floor the scheduler's own budget math applies.
        let admission = backend
            .paged_store()
            .map(|store| Arc::new(AdmissionLedger::new(store.cache_capacity_pages().max(2))));
        QueryEngine {
            core: Arc::new(EngineCore {
                backend,
                norms,
                cache,
                admission,
                scratches: std::array::from_fn(|_| Mutex::new(Vec::new())),
            }),
            options,
            owned_pool: OnceLock::new(),
            queries: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            drained_page_stats: Mutex::new(PageCacheStats::default()),
            drained_service_stats: Mutex::new(ServiceStats::default()),
            service_time: ServiceTimeEwma::new(),
            brownout: AtomicBool::new(false),
        }
    }

    /// The smoothed per-pair service time of completed batches (the figure
    /// the doomed-deadline admission check divides deadlines by).
    pub fn service_time(&self) -> &ServiceTimeEwma {
        &self.service_time
    }

    /// Flips brownout mode (see the field docs); idempotent.
    pub fn set_brownout(&self, on: bool) {
        self.brownout.store(on, Ordering::Relaxed);
    }

    /// Whether the engine is currently in brownout mode.
    pub fn brownout_active(&self) -> bool {
        self.brownout.load(Ordering::Relaxed)
    }

    /// The shared backend.
    pub fn backend(&self) -> &Arc<B> {
        &self.core.backend
    }

    /// Number of nodes served.
    pub fn node_count(&self) -> usize {
        self.core.backend.node_count()
    }

    /// The worker pool batches run on: the shared pool from
    /// [`EngineOptions::pool`] when configured, otherwise the engine's own
    /// (created lazily, persistent across batches).
    pub fn worker_pool(&self) -> &WorkerPool {
        match &self.options.pool {
            Some(pool) => pool,
            None => self
                .owned_pool
                .get_or_init(|| WorkerPool::new(self.options.threads)),
        }
    }

    /// Cumulative service counters: the page-cache figures combine what
    /// finished batches drained from the backend's snapshot/reset counters
    /// with whatever has accrued since (single queries, an in-flight batch),
    /// and the service counters survive [`QueryEngine::take_service_stats`]
    /// windows the same way.
    pub fn stats(&self) -> ServiceStats {
        let live = self
            .core
            .backend
            .paged_store()
            .map(PagedColumnStore::page_cache_stats)
            .unwrap_or_default();
        let page = self
            .drained_page_stats
            .lock()
            .expect("page stats lock poisoned")
            .merged(live);
        let live = self.service_counters(page, |counter| counter.load(Ordering::Relaxed));
        self.drained_service_stats
            .lock()
            .expect("service stats lock poisoned")
            .merged(live)
    }

    /// The engine's counters plus `page`, each read through `read` (a load
    /// for [`QueryEngine::stats`], a swap for
    /// [`QueryEngine::take_service_stats`]).
    fn service_counters(
        &self,
        page: PageCacheStats,
        read: impl Fn(&AtomicU64) -> u64,
    ) -> ServiceStats {
        ServiceStats {
            queries: read(&self.queries),
            batches: read(&self.batches),
            cache_hits: read(&self.cache_hits),
            cache_misses: read(&self.cache_misses),
            cache_entries: self.core.cache.as_ref().map_or(0, ShardedLru::len),
            cache_capacity: self.core.cache.as_ref().map_or(0, ShardedLru::capacity),
            page_cache_hits: page.hits,
            page_cache_misses: page.misses,
            page_bytes_read: page.bytes_read,
            page_readahead_reads: page.readahead_reads,
            page_retries: page.retries,
            page_faulted_reads: page.faulted_reads,
        }
    }

    /// Snapshots the service counters accrued since the previous call and
    /// resets the interval, mirroring
    /// [`take_page_cache_stats`](effres_io::PagedColumnStore::take_page_cache_stats):
    /// a long-lived server calls this once per reporting interval to get
    /// per-interval hit rates under sustained traffic, while
    /// [`QueryEngine::stats`] keeps reporting cumulative totals (the drained
    /// intervals are folded into a lifetime pool). The gauges
    /// (`cache_entries`, `cache_capacity`) are point-in-time in both views.
    ///
    /// Taking an interval while a batch is in flight attributes the batch's
    /// traffic so far to the closing interval and the rest to the next one —
    /// nothing is lost or double-counted.
    pub fn take_service_stats(&self) -> ServiceStats {
        // Drain the backend's live page counters into the per-engine pool
        // first, then empty the pool into the interval delta.
        self.drain_page_window();
        let page = std::mem::take(
            &mut *self
                .drained_page_stats
                .lock()
                .expect("page stats lock poisoned"),
        );
        let delta = self.service_counters(page, |counter| counter.swap(0, Ordering::Relaxed));
        let mut pool = self
            .drained_service_stats
            .lock()
            .expect("service stats lock poisoned");
        *pool = pool.merged(delta);
        delta
    }

    /// Counters of the pin-budget admission ledger, for backends that pin
    /// pages out of a bounded cache; `None` for resident backends.
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.core.admission.as_deref().map(AdmissionLedger::stats)
    }

    /// Answers one query through the cache and the norm identity.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::NodeOutOfBounds`] for invalid node indices and
    /// [`EffresError::StoreFailure`] if an out-of-core backend fails to
    /// produce a column.
    pub fn query(&self, p: usize, q: usize) -> Result<f64, EffresError> {
        let n = self.core.backend.node_count();
        if p >= n || q >= n {
            return Err(EffresError::NodeOutOfBounds {
                node: p.max(q),
                node_count: n,
            });
        }
        self.queries.fetch_add(1, Ordering::Relaxed);
        if p == q {
            return Ok(0.0);
        }
        let key = cache_key(p, q);
        if let Some(cache) = &self.core.cache {
            if let Some(value) = cache.get(key) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(value);
            }
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let permutation = self.core.backend.permutation();
        let value = self
            .core
            .pair_value(permutation.new(p), permutation.new(q))?;
        if let Some(cache) = &self.core.cache {
            cache.insert(key, value);
        }
        Ok(value)
    }

    /// [`QueryEngine::execute_with`] with the default [`ExecOptions`]:
    /// fail-fast, no token, scheduled when the backend has a paged store.
    ///
    /// # Errors
    ///
    /// Returns [`EffresError::NodeOutOfBounds`] naming the first invalid
    /// node (no query has run), [`EffresError::StoreFailure`] if an
    /// out-of-core backend failed mid-batch, or [`EffresError::Busy`] if
    /// bounded admission shed the batch.
    pub fn execute(&self, batch: &QueryBatch) -> Result<BatchResult, EffresError> {
        self.execute_with(batch, &ExecOptions::default())
            .map_err(|abort| abort.error)
    }

    /// Executes a batch — the one batch entry point. Results come back in
    /// the batch's original pair order, bit-identical whatever the plan,
    /// the mode or the thread count.
    ///
    /// The sequence is the same for every batch: validate (fail-fast mode
    /// only; partial mode fails invalid pairs per slot), admit against the
    /// token's deadline, run — through the locality scheduler when the
    /// backend has a paged store and `opts.schedule` allows it, hub-sorted
    /// in arrival order otherwise — then book [`ServiceStats`] (see its
    /// counting rule) and wrap.
    ///
    /// # Errors
    ///
    /// A [`BatchAbort`] when validation fails, the deadline is judged
    /// unmeetable or the token has already tripped (the whole batch counts
    /// as abandoned), bounded admission sheds the batch before anything ran
    /// ([`EffresError::Busy`]), or — in fail-fast mode — any query fails or
    /// the token trips mid-batch. When parallel slices of one fail-fast
    /// batch hit both, the failure (a store fault, say) is reported with no
    /// abandoned pairs rather than the cancellation.
    pub fn execute_with(
        &self,
        batch: &QueryBatch,
        opts: &ExecOptions,
    ) -> Result<BatchResult, BatchAbort> {
        if !opts.partial {
            self.validate(batch)?;
        }
        if let Some(cancel) = &opts.cancel {
            self.admit_deadline(batch, cancel)
                .map_err(|error| BatchAbort {
                    error,
                    abandoned_pairs: batch.len() as u64,
                })?;
        }
        self.drain_page_window();
        let start = Instant::now();
        let run = match self.core.backend.paged_store() {
            Some(store) if opts.schedule => self.run_scheduled(batch, store, opts),
            _ => Ok(self.run_arrival(batch, opts)),
        };
        let elapsed = start.elapsed();
        let page_cache = self.drain_page_window();
        self.batches.fetch_add(1, Ordering::Relaxed);
        let run = run?;
        self.cache_hits.fetch_add(run.hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(run.misses, Ordering::Relaxed);
        let answered = run.statuses.iter().filter(|s| s.is_ok()).count();
        if !opts.partial && answered < batch.len() {
            return Err(BatchAbort::from_fail_fast(run.statuses));
        }
        self.queries.fetch_add(answered as u64, Ordering::Relaxed);
        if answered == batch.len() {
            self.service_time.record(batch.len(), elapsed);
        }
        let (values, statuses) = if opts.partial {
            let values = run.statuses.iter().map(|s| *s.as_ref().unwrap_or(&0.0));
            (values.collect(), run.statuses)
        } else {
            // Every slot is `Ok`; consuming the statuses reuses their buffer.
            let values = run.statuses.into_iter().map(|s| s.unwrap_or(0.0));
            (values.collect(), Vec::new())
        };
        Ok(BatchResult {
            values,
            statuses,
            elapsed,
            threads: run.threads,
            cache_hits: run.hits,
            cache_misses: run.misses,
            page_cache,
            kernel: run.kernel,
            schedule: run.schedule,
        })
    }

    fn validate(&self, batch: &QueryBatch) -> Result<(), EffresError> {
        let n = self.core.backend.node_count();
        match batch.pairs().iter().find(|&&(p, q)| p >= n || q >= n) {
            Some(&(p, q)) => Err(EffresError::NodeOutOfBounds {
                node: p.max(q),
                node_count: n,
            }),
            None => Ok(()),
        }
    }

    /// Snapshots and resets the paged store's live page counters, folds them
    /// into the cumulative pool and returns them (`None` for resident
    /// backends). A batch calls it on entry, so counters accrued *before* it
    /// (single queries, stats polling) are not billed to it, and again on
    /// every exit, where the delta is the batch's own page traffic.
    fn drain_page_window(&self) -> Option<PageCacheStats> {
        let delta = self
            .core
            .backend
            .paged_store()
            .map(PagedColumnStore::take_page_cache_stats)?;
        let mut drained = self
            .drained_page_stats
            .lock()
            .expect("page stats lock poisoned");
        *drained = drained.merged(delta);
        Some(delta)
    }

    /// The doomed-deadline gate of [`ExecOptions::cancel`]: an
    /// already-tripped token fails immediately, and a deadline the
    /// service-time EWMA says cannot be met is shed up front
    /// ([`CancelReason::Unmeetable`]) — through the admission ledger when the
    /// backend has one (so the shed is counted in
    /// [`AdmissionStats::shed_doomed`]), directly otherwise. With no
    /// estimate yet (cold engine) every deadline is admitted: the gate only
    /// sheds on evidence.
    fn admit_deadline(&self, batch: &QueryBatch, cancel: &CancelToken) -> Result<(), EffresError> {
        cancel.check()?;
        let Some(deadline) = cancel.deadline() else {
            return Ok(());
        };
        // `distinct_len` is the tighter work bound (duplicates are cache
        // hits, self-pairs short-circuit), and only deadline-carrying
        // requests pay for computing it.
        let Some(estimated) = self.service_time.estimate(batch.distinct_len()) else {
            return Ok(());
        };
        match &self.core.admission {
            Some(ledger) => ledger.admit_by_deadline(estimated, deadline),
            None if Instant::now() + estimated > deadline => Err(EffresError::DeadlineExceeded {
                reason: CancelReason::Unmeetable,
            }),
            None => Ok(()),
        }
    }

    pub(crate) fn effective_threads(&self, batch_len: usize) -> usize {
        if batch_len < self.options.parallel_threshold.max(2) {
            return 1;
        }
        let configured = if self.options.threads != 0 {
            self.options.threads
        } else if let Some(pool) = &self.options.pool {
            pool.threads()
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        // No point in more job chunks than work of a sensible size.
        configured.min(batch_len.div_ceil(256)).max(1)
    }

    /// The arrival-order plan, sequential (`threads <= 1`) or parallel.
    /// Both modes sort and scatter back identically — the sequential mode
    /// just answers the whole sorted batch inline instead of dispatching
    /// chunk jobs to the pool — so values are bit-identical across modes.
    /// Sorting even the sequential batch is what lets the hub-run kernel
    /// engage on a single worker.
    fn run_arrival(&self, batch: &QueryBatch, opts: &ExecOptions) -> Run {
        let pairs = batch.pairs();
        let threads = self.effective_threads(pairs.len());
        let fail_fast = !opts.partial;
        // Sort query indices by **permuted** normalized pair so queries
        // sharing a permuted endpoint land in the same chunk and reuse the
        // scattered column (and, on the paged backend, the same decoded
        // pages). Sorting in the permuted domain also makes the suffix
        // bounds ascend within a run, so one suffix-bounded scatter serves
        // the whole run. Out-of-bounds pairs (possible in partial mode)
        // sort last, past every valid pair.
        let n = self.core.backend.node_count();
        let permutation = self.core.backend.permutation();
        let mut order: Vec<u32> = (0..pairs.len() as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let (p, q) = pairs[i as usize];
            if p >= n || q >= n {
                return (usize::MAX, usize::MAX);
            }
            let (pp, qq) = (permutation.new(p), permutation.new(q));
            (pp.min(qq), pp.max(qq))
        });
        // One shared copy of the sorted batch: jobs borrow disjoint ranges
        // of it through the Arc instead of each owning a `to_vec` of its
        // chunk (the per-job copies were measurable at batch sizes where
        // the parallel path engages).
        let sorted_pairs: Arc<Vec<(usize, usize)>> =
            Arc::new(order.iter().map(|&i| pairs[i as usize]).collect());

        let results = if threads <= 1 {
            let mut scratch = self.core.take_scratch(0);
            let out = self.core.run_slice_statuses(
                &sorted_pairs,
                &mut scratch,
                fail_fast,
                opts.cancel.as_deref(),
            );
            self.core.return_scratch(0, scratch);
            vec![out]
        } else {
            let chunk_len = sorted_pairs.len().div_ceil(threads);
            // One pool job per chunk: the job takes a clone of the engine
            // core and its chunk's range, answers it with a scratch column
            // drawn from the core's sharded free list (the job index spreads
            // jobs over distinct shards), and hands back the statuses plus
            // the kernel counters its scratch accumulated.
            let jobs: Vec<_> = (0..sorted_pairs.len())
                .step_by(chunk_len)
                .enumerate()
                .map(|(job, lo)| {
                    let hi = (lo + chunk_len).min(sorted_pairs.len());
                    let core = Arc::clone(&self.core);
                    let sorted_pairs = Arc::clone(&sorted_pairs);
                    let cancel = opts.cancel.clone();
                    move || {
                        let mut scratch = core.take_scratch(job);
                        let out = core.run_slice_statuses(
                            &sorted_pairs[lo..hi],
                            &mut scratch,
                            fail_fast,
                            cancel.as_deref(),
                        );
                        core.return_scratch(job, scratch);
                        out
                    }
                })
                .collect();
            self.worker_pool().run(jobs)
        };

        let mut sorted_statuses = Vec::with_capacity(pairs.len());
        let (mut hits, mut misses, mut kernel) = (0u64, 0u64, KernelStats::default());
        for (statuses, h, m, k) in results {
            sorted_statuses.extend(statuses);
            hits += h;
            misses += m;
            kernel.merge(k);
        }
        let mut statuses: Vec<Result<f64, EffresError>> =
            (0..pairs.len()).map(|_| Ok(0.0)).collect();
        for (&original, status) in order.iter().zip(sorted_statuses) {
            statuses[original as usize] = status;
        }
        Run {
            statuses,
            hits,
            misses,
            kernel,
            threads,
            schedule: None,
        }
    }
}

pub(crate) fn cache_key(p: usize, q: usize) -> u64 {
    let (a, b) = if p < q { (p, q) } else { (q, p) };
    ((a as u64) << 32) | b as u64
}

impl<B: ResistanceBackend> EngineCore<B> {
    /// The status-returning heart of the arrival-order plan: answers `pairs`
    /// in order, producing one `Result` per query. With `fail_fast` the
    /// first failure ends the slice (the queries behind it keep `Ok(0.0)`
    /// placeholders — the batch aborts, so they are never returned); without
    /// it the failure is recorded as that query's status and the slice
    /// continues. Both modes run the **same kernels in the same order**, so
    /// the values a query succeeds with are bit-identical regardless of
    /// mode and of failures elsewhere in the slice (a failed scratch load
    /// leaves the scratch empty, which only means the next run re-scatters —
    /// same arithmetic).
    ///
    /// A `cancel` token is checked **between pairs, never mid-kernel**: when
    /// it trips, the pair about to run and everything after it get
    /// [`EffresError::DeadlineExceeded`] statuses and the slice stops.
    /// Answers produced before the trip are untouched, which keeps them
    /// bit-identical to an uncancelled run.
    #[allow(clippy::type_complexity)]
    fn run_slice_statuses(
        &self,
        pairs: &[(usize, usize)],
        scratch: &mut HubScratch,
        fail_fast: bool,
        cancel: Option<&CancelToken>,
    ) -> (Vec<Result<f64, EffresError>>, u64, u64, KernelStats) {
        let mut statuses = Vec::with_capacity(pairs.len());
        let mut hits = 0u64;
        let mut misses = 0u64;
        let n = self.backend.node_count();
        let store = self.backend.store();
        let permutation = self.backend.permutation();
        for (slot, &(p, q)) in pairs.iter().enumerate() {
            if let Some(reason) = cancel.and_then(CancelToken::cancelled) {
                statuses.extend(
                    (slot..pairs.len()).map(|_| Err(EffresError::DeadlineExceeded { reason })),
                );
                break;
            }
            if p >= n || q >= n {
                statuses.push(Err(EffresError::NodeOutOfBounds {
                    node: p.max(q),
                    node_count: n,
                }));
                if fail_fast {
                    break;
                }
                continue;
            }
            if p == q {
                statuses.push(Ok(0.0));
                continue;
            }
            let key = cache_key(p, q);
            if let Some(cache) = &self.cache {
                if let Some(value) = cache.get(key) {
                    hits += 1;
                    statuses.push(Ok(value));
                    continue;
                }
            }
            misses += 1;
            let pp = permutation.new(p);
            let qq = permutation.new(q);
            // Batches are sorted by permuted `(min, max)`, so runs of
            // queries sharing a permuted anchor are contiguous and their
            // suffix bounds ascend. For a run, scatter the anchor column's
            // suffix once — from the run's first (smallest) bound — and
            // answer each query with suffix lookups; isolated queries use
            // the two-pointer suffix merge directly (a scatter would cost
            // more than it saves).
            let (hub, partner) = (pp.min(qq), pp.max(qq));
            let shares_hub = |other: &(usize, usize)| {
                let (op, oq) = *other;
                op < n && oq < n && {
                    let (opp, oqq) = (permutation.new(op), permutation.new(oq));
                    opp.min(oqq) == hub
                }
            };
            let run = scratch.hub() == Some(hub) || pairs.get(slot + 1).is_some_and(shares_hub);
            let outcome = (|| {
                let dot = if run {
                    scratch.load_suffix(store, hub, partner as u32)?;
                    scratch.suffix_dot(store, partner)?
                } else {
                    scratch.isolated_dot(store, pp, qq)?
                };
                let (np, nq) = self.norms_of(pp, qq)?;
                Ok((np + nq - 2.0 * dot).max(0.0))
            })();
            match outcome {
                Ok(value) => {
                    if let Some(cache) = &self.cache {
                        cache.insert(key, value);
                    }
                    statuses.push(Ok(value));
                }
                Err(err) => {
                    statuses.push(Err(err));
                    if fail_fast {
                        break;
                    }
                }
            }
        }
        statuses.resize_with(pairs.len(), || Ok(0.0));
        (statuses, hits, misses, scratch.take_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use effres::EffresConfig;
    use effres_graph::generators;

    fn with_token(cancel: &Arc<CancelToken>) -> ExecOptions {
        ExecOptions {
            cancel: Some(Arc::clone(cancel)),
            ..ExecOptions::default()
        }
    }

    fn engine_for(nodes: usize, options: EngineOptions) -> QueryEngine {
        let side = (nodes as f64).sqrt() as usize;
        let graph = generators::grid_2d(side, side, 0.5, 2.0, 5).expect("generator");
        let estimator =
            EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
        QueryEngine::new(Arc::new(estimator), options)
    }

    #[test]
    fn a_fail_fast_abort_reports_a_fault_over_a_cancellation() {
        let deadline = || EffresError::DeadlineExceeded {
            reason: CancelReason::DeadlineExpired,
        };
        let fault = EffresError::StoreFailure {
            column: 7,
            message: "poisoned page".into(),
        };
        // One slice cancelled (slots 1-2), another stopped at a fault.
        let abort = BatchAbort::from_fail_fast(vec![
            Ok(1.0),
            Err(deadline()),
            Err(deadline()),
            Ok(2.0),
            Err(fault),
        ]);
        assert!(matches!(abort.error, EffresError::StoreFailure { .. }));
        assert_eq!(abort.abandoned_pairs, 0);

        let abort = BatchAbort::from_fail_fast(vec![Ok(1.0), Err(deadline()), Err(deadline())]);
        assert!(matches!(abort.error, EffresError::DeadlineExceeded { .. }));
        assert_eq!(abort.abandoned_pairs, 2);
    }

    #[test]
    fn single_queries_match_estimator() {
        let engine = engine_for(256, EngineOptions::default());
        let estimator = Arc::clone(engine.estimator());
        for &(p, q) in &[(0, 255), (3, 200), (17, 17), (100, 101)] {
            let a = engine.query(p, q).expect("query");
            let b = estimator.query(p, q).expect("query");
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "({p},{q}): {a} vs {b}"
            );
        }
        assert!(engine.query(0, 9999).is_err());
    }

    #[test]
    fn batch_results_match_sequential_queries_in_order() {
        let engine = engine_for(
            400,
            EngineOptions {
                parallel_threshold: 8, // force the parallel path
                threads: 4,
                ..EngineOptions::default()
            },
        );
        let batch = QueryBatch::random(5000, engine.node_count(), 42);
        let result = engine.execute(&batch).expect("batch");
        assert_eq!(result.values.len(), batch.len());
        assert!(result.threads > 1, "expected parallel execution");
        let estimator = Arc::clone(engine.estimator());
        for (&(p, q), &value) in batch.pairs().iter().zip(&result.values) {
            let reference = estimator.query(p, q).expect("query");
            assert!(
                (value - reference).abs() <= 1e-9 * reference.abs().max(1.0),
                "({p},{q}): {value} vs {reference}"
            );
        }
    }

    #[test]
    fn invalid_batches_fail_before_any_work() {
        let engine = engine_for(64, EngineOptions::default());
        let before = engine.stats().queries;
        let batch = QueryBatch::from_pairs(vec![(0, 1), (2, 1_000_000)]);
        assert!(engine.execute(&batch).is_err());
        assert_eq!(engine.stats().queries, before);
    }

    #[test]
    fn cache_serves_repeats() {
        let engine = engine_for(64, EngineOptions::default());
        let first = engine.query(1, 40).expect("query");
        let stats_after_miss = engine.stats();
        assert_eq!(stats_after_miss.cache_misses, 1);
        let second = engine.query(40, 1).expect("query"); // symmetric key
        assert_eq!(first, second);
        let stats_after_hit = engine.stats();
        assert_eq!(stats_after_hit.cache_hits, 1);
        assert!(stats_after_hit.cache_entries >= 1);
    }

    #[test]
    fn cache_can_be_disabled() {
        let engine = engine_for(
            64,
            EngineOptions {
                cache_capacity: 0,
                ..EngineOptions::default()
            },
        );
        engine.query(0, 10).expect("query");
        engine.query(0, 10).expect("query");
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_capacity, 0);
    }

    #[test]
    fn stats_accumulate_across_batches() {
        let engine = engine_for(100, EngineOptions::default());
        let batch = QueryBatch::random(100, engine.node_count(), 3);
        engine.execute(&batch).expect("batch");
        engine.execute(&batch).expect("batch");
        let stats = engine.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.queries, 200);
        // Second run should be answered almost entirely from cache.
        assert!(stats.cache_hits > 0);
        assert!(stats.cache_hits + stats.cache_misses <= 200);
        // A resident backend has no page cache to report on.
        assert_eq!(stats.page_cache_hits, 0);
        assert_eq!(stats.page_cache_misses, 0);
    }

    /// A store whose fetches always fail, for exercising the engine's
    /// error paths (the resident arena can never produce one).
    struct FailingStore {
        order: usize,
    }

    impl ColumnStore for FailingStore {
        fn order(&self) -> usize {
            self.order
        }

        fn nnz(&self) -> usize {
            0
        }

        fn with_column<R>(
            &self,
            j: usize,
            _f: impl FnOnce(effres::approx_inverse::ColumnView<'_>) -> R,
        ) -> Result<R, EffresError> {
            Err(EffresError::StoreFailure {
                column: j,
                message: "injected failure".into(),
            })
        }
    }

    #[test]
    fn a_failed_scratch_load_leaves_no_stale_column_behind() {
        // Regression test: scratches return to a shared free list even when
        // a batch aborts, so a load that fails halfway must leave the
        // scratch *empty* — a stale hub marker over a cleared buffer would
        // make a later batch silently compute dot = 0.
        let engine = engine_for(64, EngineOptions::default());
        let estimator = Arc::clone(engine.estimator());
        let store = estimator.approximate_inverse();
        let mut scratch = HubScratch::new(store.order());
        scratch.load(store, 3).expect("resident load");
        assert_eq!(scratch.hub(), Some(3));
        let reference = scratch.suffix_dot(store, 5).expect("resident dot");

        // A failing fetch clears the hub marker...
        let failing = FailingStore {
            order: store.order(),
        };
        assert!(scratch.load(&failing, 7).is_err());
        assert_eq!(scratch.hub(), None);

        // ...so reloading the original column really rescatters it instead
        // of trusting a stale marker, and the dot product is unchanged.
        scratch.load(store, 3).expect("resident reload");
        let again = scratch.suffix_dot(store, 5).expect("resident dot");
        assert_eq!(reference.to_bits(), again.to_bits());
    }

    #[test]
    fn pair_value_clamps_negative_cancellation_to_zero() {
        // Pins the clamp in `pair_value` and `run_slice_statuses`:
        // floating-point cancellation in ‖z̃_p‖² + ‖z̃_q‖² − 2⟨z̃_p, z̃_q⟩ can
        // go slightly negative for near-identical columns, and resistances
        // are nonnegative, so the engine must return exactly 0.0 — never a
        // negative value. Drive the identity negative deterministically with
        // a norm table that understates the true norms.
        let engine = engine_for(64, EngineOptions::default());
        let estimator = Arc::clone(engine.estimator());
        let store = estimator.approximate_inverse();
        let permutation = estimator.permutation();
        let n = store.order();
        let (a, b, pp, qq, dot) = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .find_map(|(a, b)| {
                let (pp, qq) = (permutation.new(a), permutation.new(b));
                let dot = column_store::column_dot(store, pp, qq).expect("resident dot");
                (dot > 0.0).then_some((a, b, pp, qq, dot))
            })
            .expect("some pair of columns overlaps");
        let mut norms = vec![1.0; n];
        norms[pp] = 0.9 * dot;
        norms[qq] = 0.9 * dot;
        let unclamped = norms[pp] + norms[qq] - 2.0 * dot;
        assert!(
            unclamped < 0.0,
            "identity must evaluate negative: {unclamped}"
        );
        let core = EngineCore {
            backend: Arc::clone(&estimator),
            norms: Some(Arc::new(norms)),
            cache: None,
            admission: None,
            scratches: std::array::from_fn(|_| Mutex::new(Vec::new())),
        };
        let value = core.pair_value(pp, qq).expect("pair value");
        assert_eq!(value, 0.0, "clamped exactly to zero, not {unclamped}");
        // The batch kernel path applies the same clamp.
        let mut scratch = HubScratch::new(n);
        let (statuses, _, _, _) = core.run_slice_statuses(&[(a, b)], &mut scratch, true, None);
        assert_eq!(*statuses[0].as_ref().expect("status"), 0.0);
    }

    #[test]
    fn a_pretripped_token_abandons_the_whole_batch() {
        let engine = engine_for(64, EngineOptions::default());
        let batch = QueryBatch::random(100, engine.node_count(), 5);
        let cancel = Arc::new(CancelToken::unbounded());
        cancel.cancel(CancelReason::Disconnected);
        let before = engine.stats();
        let abort = engine
            .execute_with(&batch, &with_token(&cancel))
            .unwrap_err();
        assert_eq!(
            abort.error,
            EffresError::DeadlineExceeded {
                reason: CancelReason::Disconnected
            }
        );
        assert_eq!(abort.abandoned_pairs, batch.len() as u64);
        assert_eq!(engine.stats().queries, before.queries, "no query ran");
    }

    #[test]
    fn an_untripped_token_changes_nothing() {
        let engine = engine_for(
            400,
            EngineOptions {
                parallel_threshold: 8,
                threads: 4,
                cache_capacity: 0,
                ..EngineOptions::default()
            },
        );
        let batch = QueryBatch::random(3000, engine.node_count(), 13);
        let reference = engine.execute(&batch).expect("reference");
        let cancel = Arc::new(CancelToken::after(Duration::from_secs(3600)));
        let result = engine
            .execute_with(&batch, &with_token(&cancel))
            .expect("nowhere near the deadline");
        assert_eq!(result.values.len(), reference.values.len());
        for (value, reference) in result.values.iter().zip(&reference.values) {
            assert_eq!(value.to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn cancellation_keeps_completed_answers_bit_identical() {
        let engine = engine_for(
            400,
            EngineOptions {
                parallel_threshold: 8,
                threads: 4,
                cache_capacity: 0,
                ..EngineOptions::default()
            },
        );
        let batch = QueryBatch::random(20_000, engine.node_count(), 11);
        let reference = engine.execute(&batch).expect("reference").values;
        let cancel = Arc::new(CancelToken::unbounded());
        let canceller = {
            let cancel = Arc::clone(&cancel);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(300));
                cancel.cancel(CancelReason::Disconnected);
            })
        };
        let outcome = engine
            .execute_with(
                &batch,
                &ExecOptions {
                    partial: true,
                    ..with_token(&cancel)
                },
            )
            .map_err(|abort| abort.error);
        canceller.join().expect("canceller");
        match outcome {
            Ok(result) => {
                // Whatever the race decided, every completed answer is
                // bit-identical to the solo run and the abandoned tail is
                // typed and fully accounted.
                let mut completed = 0u64;
                for (status, reference) in result.statuses.iter().zip(&reference) {
                    match status {
                        Ok(value) => {
                            completed += 1;
                            assert_eq!(value.to_bits(), reference.to_bits());
                        }
                        Err(EffresError::DeadlineExceeded { reason }) => {
                            assert_eq!(*reason, CancelReason::Disconnected);
                        }
                        Err(other) => panic!("unexpected status: {other}"),
                    }
                }
                assert_eq!(completed + result.abandoned_pairs(), batch.len() as u64);
            }
            // The canceller won the race to admission: nothing ran at all.
            Err(EffresError::DeadlineExceeded { .. }) => {}
            Err(other) => panic!("unexpected batch error: {other}"),
        }
    }

    #[test]
    fn a_doomed_deadline_is_rejected_up_front() {
        let engine = engine_for(100, EngineOptions::default());
        // Teach the service-time estimator that pairs are outrageously slow
        // (one second each), so a 100-pair batch estimates at 100 s — far
        // beyond a 5 s deadline that itself has no chance of expiring
        // spuriously before admission runs. Deterministic either way.
        engine.service_time().record(1, Duration::from_secs(1));
        let batch = QueryBatch::random(100, engine.node_count(), 8);
        let before = engine.stats();
        let cancel = Arc::new(CancelToken::after(Duration::from_secs(5)));
        let abort = engine
            .execute_with(&batch, &with_token(&cancel))
            .unwrap_err();
        assert_eq!(
            abort.error,
            EffresError::DeadlineExceeded {
                reason: CancelReason::Unmeetable
            }
        );
        assert_eq!(abort.abandoned_pairs, batch.len() as u64);
        assert_eq!(engine.stats().queries, before.queries, "no query ran");
    }

    #[test]
    fn throughput_is_finite_and_positive() {
        let engine = engine_for(100, EngineOptions::default());
        let batch = QueryBatch::random(256, engine.node_count(), 1);
        let result = engine.execute(&batch).expect("batch");
        assert!(result.throughput() > 0.0);
    }
}
