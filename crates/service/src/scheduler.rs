//! The locality scheduler: the batch plan [`QueryEngine::execute_with`]
//! picks for backends with a paged store
//! ([`ResistanceBackend::paged_store`]). It reorders queries by the
//! **pages** they touch instead of answering them in arrival order.
//!
//! Arrival-order paged batches are an I/O disaster: every query touches the
//! pages of two essentially random columns, so a cache smaller than the file
//! thrashes — the PR-4 bench measured ~400× below resident throughput with
//! the work being pure page decode, not arithmetic. The fix is the classic
//! external-memory discipline (PEERS; Yang et al., "Efficient Estimation of
//! Pairwise Effective Resistance"): *amortize every fetched block over all
//! the queries that need it before letting it go*.
//!
//! The plan has three steps:
//!
//! 1. **Cluster** — each cache-missing query is mapped to its page pair
//!    `(page_lo, page_hi)` (permuted endpoints, unordered) and the batch is
//!    sorted into page-pair clusters.
//! 2. **Block** — the `page_lo` side is partitioned into blocks of pinned
//!    pages sized to the store's cache budget minus a readahead window.
//!    Each block is fetched once with coalesced reads
//!    ([`PagedColumnStore::pin_pages`](effres_io::PagedColumnStore::pin_pages))
//!    and stays resident while *all* of its queries drain.
//! 3. **Sweep** — within a block, queries are re-sorted by `page_hi`, and
//!    the hi side becomes a sorted sweep: successive readahead windows of
//!    upcoming hi pages are pinned with one coalesced read each, drained,
//!    and dropped. Windows fan out as jobs on the engine's
//!    [`WorkerPool`](effres::WorkerPool) — each worker pins its own window
//!    (its private cache shard, in effect) while sharing the block pin.
//!
//! Every page is therefore read `O(blocks)` times instead of `O(queries)`
//! times, and every read is a large sequential one. Pin capacity is not
//! assumed but **leased**: every block acquires its pages from the engine's
//! [`AdmissionLedger`](crate::admission::AdmissionLedger) first, so
//! concurrent batches on one engine split the cache budget between them
//! (block by block) instead of over-pinning it — an uncontended lease gets
//! the full budget and the plan is exactly the solo plan. Results are scattered
//! back into the batch's original request order, and each query is evaluated
//! by exactly the same store-generic kernels as the unscheduled path (the
//! grouped multi-pair kernel
//! [`column_distances_squared_grouped`](effres::column_store::column_distances_squared_grouped),
//! property-pinned bit-identical to the pairwise
//! [`column_dot`](effres::column_store::column_dot) loop), so the values are
//! **bit-identical** to unscheduled paged — and to resident — execution;
//! only the evaluation order and the I/O pattern change. Query independence makes that reordering safe by construction,
//! and the property tests in `tests/io_service_end_to_end.rs` pin it.
//!
//! One body serves both failure modes, so the plan — and with it the
//! evaluation order — cannot depend on the mode. Fail-fast stops at the
//! first failure. Partial mode degrades instead: block pins go through
//! [`pin_pages_partial`](effres_io::PagedColumnStore::pin_pages_partial), so
//! a page the store cannot produce fails only the queries anchored on it,
//! and a window whose grouped kernel fails is re-run query by query to
//! isolate the poisoned page pair. Under bounded admission, a shed of the
//! first block rejects the batch whole ([`EffresError::Busy`]); a later shed
//! marks the remaining queries `Busy` and keeps what already drained. A
//! cancellation token is checked at every block and readahead-wave
//! boundary, where the lease and the pins release by RAII, so a trip frees
//! page-cache budget for live batches within one chunk and never interrupts
//! a kernel.

use crate::admission::PinLease;
use crate::backend::ResistanceBackend;
use crate::batch::QueryBatch;
use crate::cancel::CancelToken;
use crate::engine::{cache_key, EngineCore, ExecOptions, QueryEngine, Run, ScheduleReport};
use effres::column_store::{self, KernelStats};
use effres::EffresError;
use effres_io::{PagedColumnStore, PinnedPages, PinnedReader};
use std::collections::VecDeque;
use std::sync::Arc;

/// One cache-missing query, resolved into the permuted domain and mapped
/// onto its page pair.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Index into the batch (and the output vector).
    slot: u32,
    /// Permuted endpoints.
    pp: u32,
    qq: u32,
    /// Pair-cache key of the original `(p, q)`.
    key: u64,
    /// Unordered page pair: `page_lo <= page_hi`.
    page_lo: u32,
    page_hi: u32,
}

/// Per-slot statuses of one window: `(slot, outcome)`.
type WindowStatuses = Vec<(u32, Result<f64, EffresError>)>;

impl<B: ResistanceBackend> QueryEngine<B> {
    /// Leases pin capacity for one block, honoring the engine's admission
    /// bounds: unbounded blocking by default, shedding with a typed
    /// [`EffresError::Busy`] when
    /// [`admission_queue_depth`](crate::engine::EngineOptions::admission_queue_depth)
    /// is configured.
    /// A cancellation token bounds the wait further: an already-tripped
    /// token fails before queueing, a deadline caps the lease wait at the
    /// time actually left, and a wait that runs out the deadline surfaces as
    /// [`EffresError::DeadlineExceeded`] rather than a retryable `Busy`.
    fn lease_block(
        &self,
        desired: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Option<PinLease<'_>>, EffresError> {
        if let Some(token) = cancel {
            token.check()?;
        }
        let Some(ledger) = self.core.admission.as_deref() else {
            return Ok(None);
        };
        let remaining = cancel.and_then(CancelToken::remaining);
        let lease = match (self.options.admission_queue_depth, remaining) {
            (None, None) => Ok(ledger.lease(2, desired)),
            (None, Some(remaining)) => ledger.lease_within(2, desired, usize::MAX, remaining),
            (Some(depth), None) => {
                ledger.lease_within(2, desired, depth, self.options.admission_timeout)
            }
            (Some(depth), Some(remaining)) => ledger.lease_within(
                2,
                desired,
                depth,
                self.options.admission_timeout.min(remaining),
            ),
        };
        match lease {
            Ok(lease) => Ok(Some(lease)),
            Err(err) => {
                // A lease timeout that coincides with the token's deadline
                // *is* the deadline: report it as such, not as a retryable
                // overload shed.
                if let Some(token) = cancel {
                    token.check()?;
                }
                Err(err)
            }
        }
    }

    /// Runs a batch through the locality scheduler (see the module docs).
    /// Returns `Err` only when bounded admission sheds the **first** block —
    /// nothing has been computed, so the caller should back off and resubmit
    /// the batch whole.
    pub(crate) fn run_scheduled(
        &self,
        batch: &QueryBatch,
        store: &PagedColumnStore,
        opts: &ExecOptions,
    ) -> Result<Run, EffresError> {
        let n = self.core.backend.node_count();
        let partial = opts.partial;
        let cancel = opts.cancel.as_deref();
        let permutation = self.core.backend.permutation();
        let mut statuses: Vec<Result<f64, EffresError>> =
            (0..batch.len()).map(|_| Ok(0.0)).collect();
        let mut hits = 0u64;
        let mut pending: Vec<Pending> = Vec::with_capacity(batch.len());
        // With a pair cache, in-batch repeats of a pair compute once and fan
        // out afterwards (the arrival-order path serves them from the cache
        // as it goes; here the cache is consulted before any work, so
        // duplicates must be folded explicitly — each entry maps a repeat's
        // slot to the slot of the pair's first occurrence, and counts as the
        // hit it would have been). With the cache disabled, repeats are
        // computed like the arrival-order path computes them, keeping the
        // hit/miss accounting of the two paths identical.
        let mut duplicates: Vec<(u32, u32)> = Vec::new();
        let mut first_slot_of: std::collections::HashMap<u64, u32> =
            std::collections::HashMap::new();
        for (slot, &(p, q)) in batch.pairs().iter().enumerate() {
            if p >= n || q >= n {
                statuses[slot] = Err(EffresError::NodeOutOfBounds {
                    node: p.max(q),
                    node_count: n,
                });
                continue;
            }
            if p == q {
                continue; // statuses[slot] stays Ok(0.0)
            }
            let key = cache_key(p, q);
            if let Some(cache) = &self.core.cache {
                if let Some(value) = cache.get(key) {
                    hits += 1;
                    statuses[slot] = Ok(value);
                    continue;
                }
                if let Some(&first) = first_slot_of.get(&key) {
                    hits += 1;
                    duplicates.push((slot as u32, first));
                    continue;
                }
                first_slot_of.insert(key, slot as u32);
            }
            let pp = permutation.new(p);
            let qq = permutation.new(q);
            let (pa, pb) = (store.page_of_column(pp), store.page_of_column(qq));
            pending.push(Pending {
                slot: slot as u32,
                pp: pp as u32,
                qq: qq as u32,
                key,
                page_lo: pa.min(pb) as u32,
                page_hi: pa.max(pb) as u32,
            });
        }
        drop(first_slot_of);
        let misses = pending.len() as u64;

        // 1. Cluster: queries sharing a page pair become adjacent; the slot
        // tiebreak keeps the plan deterministic for identical batches.
        pending.sort_unstable_by_key(|t| (t.page_lo, t.page_hi, t.slot));
        let clusters = pending
            .windows(2)
            .filter(|w| (w[0].page_lo, w[0].page_hi) != (w[1].page_lo, w[1].page_hi))
            .count()
            + usize::from(!pending.is_empty());

        // 2. Budget split: the store's page budget funds one long-lived
        // block pin plus a readahead window per concurrent worker. The
        // scheduler needs at least two pages of budget (one per side of a
        // pair) — a smaller cache still works, it just re-reads more.
        //
        // Under concurrent batches the budget is not ours to assume: each
        // block **leases** its pin capacity from the engine's admission
        // ledger (full budget when uncontended — identical plan to solo
        // execution — a fair share otherwise), and the block/window split is
        // recomputed from the actual grant. Leasing per block, not per
        // batch, is what lets a large batch split: it re-queues at every
        // block boundary, so competing traffic interleaves.
        let budget = store.cache_capacity_pages().max(2);
        let threads = self.effective_threads(batch.len()).max(1);
        // Brownout trims readahead to the single-page minimum: a pressured
        // cache stops speculating, at the cost of more, smaller reads. The
        // plan changes shape but the kernels and their inputs do not, so
        // values stay bit-identical.
        let brownout = self.brownout_active();
        let window_of = |grant: usize| {
            if brownout {
                1
            } else {
                match self.options.readahead_pages {
                    0 => (grant / 8).clamp(1, 64),
                    w => w,
                }
            }
            .min(grant - 1)
            .max(1)
        };
        let full_window = window_of(budget);
        let full_block_cap = budget.saturating_sub(full_window * threads).max(1);

        // Distinct lo pages in `pending[i..]`, for sizing the lease of a
        // final partial block to what it can actually use.
        let mut distinct_lo_from = vec![0usize; pending.len() + 1];
        for i in (0..pending.len()).rev() {
            let new_page = i + 1 == pending.len() || pending[i].page_lo != pending[i + 1].page_lo;
            distinct_lo_from[i] = distinct_lo_from[i + 1] + usize::from(new_page);
        }

        let mut report = ScheduleReport {
            clusters,
            blocks: 0,
            windows: 0,
        };
        let mut kernel = KernelStats::default();
        let mut parallel_fan = 1usize;
        let mut at = 0usize;
        'blocks: while at < pending.len() {
            // Block boundary: the cheapest place to notice a tripped token —
            // no lease held, nothing pinned, everything after `at` unread.
            if let Some(reason) = cancel.and_then(CancelToken::cancelled) {
                for t in &pending[at..] {
                    statuses[t.slot as usize] = Err(EffresError::DeadlineExceeded { reason });
                }
                break;
            }
            let desired = if distinct_lo_from[at] >= full_block_cap {
                budget
            } else {
                (distinct_lo_from[at] + full_window * threads).min(budget)
            };
            // Two pages is the smallest viable grant: one block page plus
            // one window page. The lease blocks until capacity is free and
            // returns it when dropped at the end of the block (or sheds
            // with `Busy` under bounded admission).
            let lease = match self.lease_block(desired, cancel) {
                Ok(lease) => lease,
                Err(busy @ EffresError::Busy { .. }) if at == 0 => return Err(busy),
                Err(err) => {
                    // Mid-batch shed (or a deadline run out waiting for the
                    // lease): everything drained so far stands; the rest is
                    // typed — `Busy` to retry, `DeadlineExceeded` to give up
                    // on.
                    for t in &pending[at..] {
                        statuses[t.slot as usize] = Err(err.clone());
                    }
                    break;
                }
            };
            let grant = lease.as_ref().map_or(budget, |l| l.granted());
            // Re-derive the split from the grant. `fan` caps how many
            // windows may be pinned at once so block + concurrent windows
            // never exceed the grant (`block_cap + fan·window ≤ grant`).
            let window = window_of(grant.max(2));
            let fan = threads.min((grant.saturating_sub(1) / window).max(1));
            let block_cap = grant.saturating_sub(window * fan).max(1);

            // Grow the block until it holds `block_cap` distinct lo pages.
            let block_start = at;
            let mut lo_pages: Vec<usize> = Vec::new();
            while at < pending.len() {
                let lo = pending[at].page_lo as usize;
                if lo_pages.last() != Some(&lo) {
                    if lo_pages.len() == block_cap {
                        break;
                    }
                    lo_pages.push(lo);
                }
                at += 1;
            }
            report.blocks += 1;
            let block = &mut pending[block_start..at];
            // 3. Pin the block (coalesced) and sweep its hi side in sorted
            // order, so every hi fetch is sequential readahead. In partial
            // mode the pin degrades: pages that cannot be produced fail only
            // the queries anchored on them, and the rest of the block
            // proceeds over whatever did pin.
            let (pinned, pin_failures) = if partial {
                store.pin_pages_partial(&lo_pages)
            } else {
                match store.pin_pages(&lo_pages) {
                    Ok(pinned) => (pinned, Vec::new()),
                    Err(err) => {
                        statuses[block[0].slot as usize] = Err(err);
                        break;
                    }
                }
            };
            let pinned = Arc::new(pinned);
            block.sort_unstable_by_key(|t| (t.page_hi, t.page_lo, t.slot));
            let mut drainable: Vec<Pending> = Vec::with_capacity(block.len());
            for t in block.iter() {
                match pin_failures
                    .iter()
                    .find(|(pid, _)| *pid == t.page_lo as usize)
                {
                    Some((_, err)) => statuses[t.slot as usize] = Err(err.clone()),
                    None => drainable.push(*t),
                }
            }

            // Cut the sweep into window jobs: each accumulates up to
            // `window` distinct hi pages that are not already pinned with
            // the block.
            let mut job_bounds: Vec<(Vec<usize>, usize, usize)> = Vec::new();
            let mut job_pids: Vec<usize> = Vec::new();
            let mut job_start = 0usize;
            for (i, t) in drainable.iter().enumerate() {
                let hi = t.page_hi as usize;
                let needed = lo_pages.binary_search(&hi).is_err() && job_pids.last() != Some(&hi);
                if needed && job_pids.len() == window {
                    job_bounds.push((std::mem::take(&mut job_pids), job_start, i));
                    job_start = i;
                }
                if needed {
                    job_pids.push(hi);
                }
            }
            job_bounds.push((job_pids, job_start, drainable.len()));
            report.windows += job_bounds.len();

            // Fan the windows out: each worker pins its own window (its
            // per-worker shard of the grant) over the shared block pin.
            // Jobs are submitted in waves of at most `fan`, because the pin
            // bound is per *concurrent* window — a pool with more workers
            // than `fan` would otherwise pin every window of the block at
            // once and blow through the lease. The closures are built per
            // wave, not up front, so a token that trips between waves
            // abandons the un-dispatched windows without ever materializing
            // them. A wave of one window runs inline.
            if job_bounds.len() > 1 {
                parallel_fan = parallel_fan.max(job_bounds.len().min(fan));
            }
            let mut bounds: VecDeque<(Vec<usize>, usize, usize)> = job_bounds.into();
            let mut job_index = 0usize;
            while !bounds.is_empty() {
                // Wave boundary: abandon the un-dispatched windows of this
                // block (the sticky token marks the later blocks at the top
                // of the outer loop).
                if let Some(reason) = cancel.and_then(CancelToken::cancelled) {
                    for &(_, lo, hi) in &bounds {
                        for t in &drainable[lo..hi] {
                            statuses[t.slot as usize] =
                                Err(EffresError::DeadlineExceeded { reason });
                        }
                    }
                    break;
                }
                let wave: Vec<_> = bounds.drain(..fan.min(bounds.len())).collect();
                let results = if let [(pids, lo, hi)] = wave.as_slice() {
                    let queries = &drainable[*lo..*hi];
                    vec![drain_window(
                        &self.core, &pinned, pids, queries, job_index, partial,
                    )]
                } else {
                    let jobs: Vec<_> = wave
                        .into_iter()
                        .enumerate()
                        .map(|(offset, (pids, lo, hi))| {
                            let core = Arc::clone(&self.core);
                            let pinned = Arc::clone(&pinned);
                            let queries = drainable[lo..hi].to_vec();
                            let job = job_index + offset;
                            move || drain_window(&core, &pinned, &pids, &queries, job, partial)
                        })
                        .collect();
                    self.worker_pool().run(jobs)
                };
                job_index += fan;
                let mut failed = false;
                for (window_statuses, window_kernel) in results {
                    kernel.merge(window_kernel);
                    for (slot, status) in window_statuses {
                        failed |= status.is_err();
                        statuses[slot as usize] = status;
                    }
                }
                if failed && !partial {
                    break 'blocks;
                }
            }
        }

        for (slot, first) in duplicates {
            statuses[slot as usize] = statuses[first as usize].clone();
        }
        Ok(Run {
            statuses,
            hits,
            misses,
            kernel,
            threads: parallel_fan,
            schedule: Some(report),
        })
    }
}

/// Drains one readahead window: pins its hi pages (one coalesced read for
/// adjacent pages — the sweep keeps them mostly adjacent), then answers the
/// window's queries through the store-generic grouped multi-pair kernel
/// ([`column_store::column_distances_squared_grouped`]) — bit-identical to
/// the pairwise kernel, but a window's queries sharing a hub column stream
/// that column once — via a reader that prefers the pinned pages and never
/// touches the cache locks for them. The hub scratch comes from the
/// engine's sharded free list (`scratch_hint` spreads concurrent windows
/// over distinct shards), and the kernel counters it accumulated ride back
/// alongside the statuses.
///
/// Fail-fast, the first failure (a window pin or the kernel) is reported on
/// one slot and ends the window. In partial mode, window pins degrade page
/// by page, and a failed grouped kernel is re-run **query by query** over
/// the same pinned reader — the grouped kernel on a one-pair slice computes
/// the bit-identical per-pair value (the multi-pair property tests pin
/// this), so the successes stay bit-identical and only queries actually
/// touching an unproducible page fail.
fn drain_window<B: ResistanceBackend>(
    core: &EngineCore<B>,
    block_pin: &PinnedPages,
    window_pids: &[usize],
    queries: &[Pending],
    scratch_hint: usize,
    partial: bool,
) -> (WindowStatuses, KernelStats) {
    let store = core
        .backend
        .paged_store()
        .expect("the scheduler only runs over paged stores");
    let Some(first) = queries.first() else {
        return (Vec::new(), KernelStats::default());
    };
    // Failed window pins are not fatal in partial mode: the reader falls
    // back to the store for unpinned pages, and any page that truly cannot
    // be produced fails its queries in the per-query pass below.
    let window_pin = if partial {
        store.pin_pages_partial(window_pids).0
    } else {
        match store.pin_pages(window_pids) {
            Ok(pin) => pin,
            Err(err) => return (vec![(first.slot, Err(err))], KernelStats::default()),
        }
    };
    let reader = PinnedReader::new(store, block_pin, Some(&window_pin));
    let norms = core.norms.as_ref().map(|table| table.as_slice());
    // Re-sort the window by normalized column pair: pages hold neighbouring
    // columns, so the page-sorted window is nearly column-sorted already,
    // and this makes runs sharing a hub column contiguous for the grouped
    // kernel. Safe because queries are independent and answers scatter back
    // by slot.
    let mut sorted: Vec<Pending> = queries.to_vec();
    sorted.sort_unstable_by_key(|t| (t.pp.min(t.qq), t.pp.max(t.qq), t.slot));
    let pairs: Vec<(usize, usize)> = sorted
        .iter()
        .map(|t| (t.pp as usize, t.qq as usize))
        .collect();
    let mut scratch = core.take_scratch(scratch_hint);
    let answer = |t: &Pending, value: f64| {
        if let Some(cache) = &core.cache {
            cache.insert(t.key, value);
        }
        (t.slot, Ok(value))
    };
    let out = match column_store::column_distances_squared_grouped(
        &reader,
        &pairs,
        norms,
        &mut scratch,
    ) {
        Ok(values) => sorted
            .iter()
            .zip(&values)
            .map(|(t, &value)| answer(t, value))
            .collect(),
        Err(err) if !partial => vec![(first.slot, Err(err))],
        Err(_) => sorted
            .iter()
            .zip(&pairs)
            .map(|(t, pair)| {
                match column_store::column_distances_squared_grouped(
                    &reader,
                    std::slice::from_ref(pair),
                    norms,
                    &mut scratch,
                ) {
                    Ok(values) => answer(t, values[0]),
                    Err(err) => (t.slot, Err(err)),
                }
            })
            .collect(),
    };
    let kernel = scratch.take_stats();
    core.return_scratch(scratch_hint, scratch);
    (out, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use effres::{EffectiveResistanceEstimator, EffresConfig};
    use effres_graph::generators;
    use effres_io::paged::{open_paged, PagedOptions};
    use effres_io::snapshot::save_snapshot;
    use effres_io::PagedSnapshot;

    fn temp_snapshot(name: &str) -> (std::path::PathBuf, EffectiveResistanceEstimator) {
        let graph = generators::grid_2d(16, 16, 0.5, 2.0, 7).expect("generator");
        let estimator =
            EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
        let dir = std::env::temp_dir().join("effres-scheduler-unit");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(name);
        save_snapshot(&path, &estimator, None).expect("save");
        (path, estimator)
    }

    fn paged_engine(
        path: &std::path::Path,
        paged_options: &PagedOptions,
        options: EngineOptions,
    ) -> QueryEngine<PagedSnapshot> {
        let paged = open_paged(path, paged_options).expect("open paged");
        QueryEngine::new(Arc::new(paged), options)
    }

    #[test]
    fn scheduled_matches_unscheduled_bitwise_in_original_order() {
        let (path, _estimator) = temp_snapshot("sched16.snap");
        let batch = QueryBatch::random(3000, 256, 99);
        for paged_options in [
            PagedOptions {
                columns_per_page: 4,
                cache_pages: 8,
                cache_shards: 2,
                ..PagedOptions::default()
            },
            PagedOptions {
                columns_per_page: 1,
                cache_pages: 1,
                cache_shards: 1,
                ..PagedOptions::default()
            },
            PagedOptions {
                columns_per_page: 64,
                cache_pages: 2,
                cache_shards: 1,
                ..PagedOptions::default()
            },
        ] {
            // Fresh engines, pair caches off: both sides take the kernel
            // path for every query.
            let options = || EngineOptions {
                cache_capacity: 0,
                parallel_threshold: usize::MAX,
                ..EngineOptions::default()
            };
            let reference = paged_engine(&path, &paged_options, options());
            let scheduled = paged_engine(&path, &paged_options, options());
            let a = reference
                .execute_with(
                    &batch,
                    &ExecOptions {
                        schedule: false,
                        ..ExecOptions::default()
                    },
                )
                .expect("unscheduled");
            let b = scheduled.execute(&batch).expect("scheduled");
            assert_eq!(a.values.len(), b.values.len());
            for (slot, (x, y)) in a.values.iter().zip(&b.values).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{paged_options:?} slot {slot} {:?}",
                    batch.pairs()[slot]
                );
            }
            let schedule = b.schedule.expect("scheduled path reports its shape");
            assert!(schedule.blocks >= 1);
            assert!(schedule.windows >= schedule.blocks);
            assert!(schedule.clusters >= 1);
            let page = b.page_cache.expect("paged backend reports page traffic");
            assert!(page.misses > 0);
            assert!(page.bytes_read > 0);
        }
    }

    #[test]
    fn scheduled_parallel_fan_out_is_bit_identical_too() {
        let (path, _estimator) = temp_snapshot("sched16_par.snap");
        let batch = QueryBatch::random(4000, 256, 5);
        let paged_options = PagedOptions {
            columns_per_page: 2,
            cache_pages: 16,
            cache_shards: 2,
            ..PagedOptions::default()
        };
        let sequential = paged_engine(
            &path,
            &paged_options,
            EngineOptions {
                cache_capacity: 0,
                parallel_threshold: usize::MAX,
                ..EngineOptions::default()
            },
        );
        let parallel = paged_engine(
            &path,
            &paged_options,
            EngineOptions {
                cache_capacity: 0,
                threads: 4,
                parallel_threshold: 8,
                readahead_pages: 2,
                ..EngineOptions::default()
            },
        );
        let a = sequential.execute(&batch).expect("sequential");
        let b = parallel.execute(&batch).expect("parallel");
        assert!(b.threads > 1, "expected window fan-out");
        for (x, y) in a.values.iter().zip(&b.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn scheduled_batches_hit_the_pair_cache_and_count_queries() {
        let (path, _estimator) = temp_snapshot("sched16_cache.snap");
        let engine = paged_engine(
            &path,
            &PagedOptions {
                columns_per_page: 8,
                cache_pages: 4,
                cache_shards: 1,
                ..PagedOptions::default()
            },
            EngineOptions::default(),
        );
        let batch = QueryBatch::random(500, 256, 11);
        let first = engine.execute(&batch).expect("first");
        // A few in-batch duplicate pairs fold into hits; everything else
        // takes the kernel on a cold cache.
        assert!(first.cache_misses > 400);
        let second = engine.execute(&batch).expect("second");
        assert!(second.cache_hits > 400, "repeat served from the pair cache");
        for (x, y) in first.values.iter().zip(&second.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let stats = engine.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.queries, 1000);
        // Cumulative page stats survive the per-batch snapshot/reset cycle.
        let first_page = first.page_cache.expect("paged");
        let second_page = second.page_cache.expect("paged");
        assert_eq!(
            stats.page_cache_misses,
            first_page.misses + second_page.misses
        );
        assert_eq!(
            stats.page_bytes_read,
            first_page.bytes_read + second_page.bytes_read
        );
        // The repeat batch paged almost nothing back in.
        assert!(second_page.bytes_read < first_page.bytes_read / 2);
    }

    #[test]
    fn a_pretripped_token_abandons_the_scheduled_batch() {
        use effres::CancelReason;
        let (path, _estimator) = temp_snapshot("sched16_cancel.snap");
        let engine = paged_engine(
            &path,
            &PagedOptions {
                columns_per_page: 4,
                cache_pages: 8,
                cache_shards: 2,
                ..PagedOptions::default()
            },
            EngineOptions {
                cache_capacity: 0,
                ..EngineOptions::default()
            },
        );
        let batch = QueryBatch::random(500, 256, 21);
        let cancel = Arc::new(CancelToken::unbounded());
        cancel.cancel(CancelReason::Disconnected);
        let with_token = |cancel: &Arc<CancelToken>| ExecOptions {
            cancel: Some(Arc::clone(cancel)),
            ..ExecOptions::default()
        };
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
        // Nothing was pinned or leased: the full budget is still available.
        let admission = engine.admission_stats().expect("paged ledger");
        assert_eq!(admission.available, admission.budget);
        // The partial twin rejects whole too when nothing has run.
        assert!(matches!(
            engine
                .execute_with(
                    &batch,
                    &ExecOptions {
                        partial: true,
                        ..with_token(&cancel)
                    }
                )
                .map_err(|abort| abort.error),
            Err(EffresError::DeadlineExceeded { .. })
        ));
        // An untripped token executes normally, bit-identical.
        let live = Arc::new(CancelToken::unbounded());
        let reference = engine.execute(&batch).expect("reference");
        let result = engine
            .execute_with(&batch, &with_token(&live))
            .expect("live batch");
        for (x, y) in reference.values.iter().zip(&result.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn brownout_trims_readahead_windows_but_not_values() {
        let (path, _estimator) = temp_snapshot("sched16_brownout.snap");
        let paged_options = PagedOptions {
            columns_per_page: 2,
            cache_pages: 16,
            cache_shards: 2,
            ..PagedOptions::default()
        };
        let options = || EngineOptions {
            cache_capacity: 0,
            parallel_threshold: usize::MAX,
            ..EngineOptions::default()
        };
        let normal = paged_engine(&path, &paged_options, options());
        let browned = paged_engine(&path, &paged_options, options());
        browned.set_brownout(true);
        assert!(browned.brownout_active());
        let batch = QueryBatch::random(2000, 256, 33);
        let a = normal.execute(&batch).expect("normal");
        let b = browned.execute(&batch).expect("brownout");
        // Brownout only reshapes the I/O plan — single-page readahead means
        // strictly more, smaller windows — while every value stays
        // bit-identical.
        for (x, y) in a.values.iter().zip(&b.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let (sa, sb) = (a.schedule.expect("normal"), b.schedule.expect("brownout"));
        assert!(
            sb.windows > sa.windows,
            "brownout must trim readahead: {} vs {}",
            sb.windows,
            sa.windows
        );
        // Clearing brownout restores the original plan.
        browned.set_brownout(false);
        let c = browned.execute(&batch).expect("recovered");
        assert_eq!(c.schedule.expect("recovered").windows, sa.windows);
    }

    #[test]
    fn invalid_scheduled_batches_fail_before_any_work() {
        let (path, _estimator) = temp_snapshot("sched16_invalid.snap");
        let engine = paged_engine(&path, &PagedOptions::default(), EngineOptions::default());
        let before = engine.stats().queries;
        let batch = QueryBatch::from_pairs(vec![(0, 1), (2, 1_000_000)]);
        assert!(engine.execute(&batch).is_err());
        assert_eq!(engine.stats().queries, before);
    }
}
