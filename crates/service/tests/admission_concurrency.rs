//! Cross-batch admission control, end to end: concurrent scheduled batches
//! on one shared paged engine must never pin more pages than the cache
//! budget, and splitting their pin leases must not change a single bit of
//! the answers.

use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use effres_io::paged::{open_paged, PagedOptions, PagedSnapshot};
use effres_io::snapshot::save_snapshot;
use effres_service::{EngineOptions, QueryBatch, QueryEngine};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_snapshot(name: &str) -> PathBuf {
    let graph = generators::grid_2d(24, 24, 0.5, 2.0, 9).expect("generator");
    let estimator =
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
    let dir = std::env::temp_dir().join("effres-admission-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    save_snapshot(&path, &estimator, None).expect("save");
    path
}

fn engine_over(paged: &Arc<PagedSnapshot>, threads: usize) -> QueryEngine<PagedSnapshot> {
    // Pair cache off so every run takes the kernel path and the comparison
    // below is about scheduling, not caching.
    QueryEngine::new(
        Arc::clone(paged),
        EngineOptions {
            cache_capacity: 0,
            threads,
            parallel_threshold: 8,
            ..EngineOptions::default()
        },
    )
}

/// The acceptance test of the admission ledger: two large batches race on a
/// page cache far too small for either, and the pinned-page high-water mark
/// (tracked by the store itself, underneath the ledger) must stay within
/// the ledger's budget — concurrency is allowed to *split* the budget, not
/// to add a second one.
#[test]
fn concurrent_scheduled_batches_never_over_pin_the_page_cache() {
    let path = temp_snapshot("overpin.snap");
    let paged_options = PagedOptions {
        columns_per_page: 2,
        cache_pages: 6,
        cache_shards: 1,
        ..PagedOptions::default()
    };
    let batch_a = QueryBatch::random(3000, 24 * 24, 11);
    let batch_b = QueryBatch::random(3000, 24 * 24, 22);

    // Solo reference runs on a private engine each: the values any correct
    // concurrent execution must reproduce exactly.
    let solo = Arc::new(open_paged(&path, &paged_options).expect("open"));
    let reference_a = engine_over(&solo, 2).execute(&batch_a).expect("solo a");
    let reference_b = engine_over(&solo, 2).execute(&batch_b).expect("solo b");

    let paged = Arc::new(open_paged(&path, &paged_options).expect("open"));
    let budget = paged.store.cache_capacity_pages().max(2);
    let engine = engine_over(&paged, 2);
    let (result_a, result_b) = std::thread::scope(|scope| {
        let racer = scope.spawn(|| engine.execute(&batch_a).expect("racing a"));
        let result_b = engine.execute(&batch_b).expect("racing b");
        (racer.join().expect("join"), result_b)
    });

    assert!(
        paged.store.pinned_pages_high_water() <= budget,
        "pinned {} pages concurrently on a budget of {budget}",
        paged.store.pinned_pages_high_water()
    );
    assert_eq!(
        paged.store.pinned_pages_now(),
        0,
        "all pins released once the batches returned"
    );
    // The ledger really was exercised by both batches.
    let admission = engine
        .admission_stats()
        .expect("paged engines have a ledger");
    assert_eq!(admission.budget, budget);
    assert_eq!(admission.available, budget);
    assert!(admission.leases >= 2, "both batches leased capacity");
    assert_eq!(admission.waiting, 0);

    for (slot, (solo_value, raced_value)) in
        reference_a.values.iter().zip(&result_a.values).enumerate()
    {
        assert_eq!(
            solo_value.to_bits(),
            raced_value.to_bits(),
            "batch a slot {slot} {:?}",
            batch_a.pairs()[slot]
        );
    }
    for (slot, (solo_value, raced_value)) in
        reference_b.values.iter().zip(&result_b.values).enumerate()
    {
        assert_eq!(
            solo_value.to_bits(),
            raced_value.to_bits(),
            "batch b slot {slot} {:?}",
            batch_b.pairs()[slot]
        );
    }
}

/// Many small batches from many threads: the FIFO queue must neither
/// deadlock nor leak capacity, and the ledger must end fully replenished.
#[test]
fn admission_capacity_is_fully_returned_after_a_storm() {
    let path = temp_snapshot("storm.snap");
    let paged = Arc::new(
        open_paged(
            &path,
            &PagedOptions {
                columns_per_page: 4,
                cache_pages: 4,
                cache_shards: 1,
                ..PagedOptions::default()
            },
        )
        .expect("open"),
    );
    let engine = engine_over(&paged, 2);
    let budget = paged.store.cache_capacity_pages().max(2);
    std::thread::scope(|scope| {
        for seed in 0..6u64 {
            let engine = &engine;
            scope.spawn(move || {
                for round in 0..4 {
                    let batch = QueryBatch::random(240, 24 * 24, seed * 101 + round);
                    engine.execute(&batch).expect("scheduled");
                }
            });
        }
    });
    assert!(paged.store.pinned_pages_high_water() <= budget);
    assert_eq!(paged.store.pinned_pages_now(), 0);
    let admission = engine.admission_stats().expect("ledger");
    assert_eq!(admission.available, admission.budget);
    assert_eq!(admission.waiting, 0);
}
