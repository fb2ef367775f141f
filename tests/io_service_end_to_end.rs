//! End-to-end test of the ingestion + query-service pipeline: a SNAP-style
//! (gzipped) edge list on disk → dataset ingestion → estimator build →
//! parallel batched queries → snapshot persistence → identical answers after
//! reload. This is the exact flow `effres-cli` drives from the shell.

use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use effres_io::dataset::{load_graph, IngestOptions};
use effres_io::{edge_list, gzip, snapshot};
use effres_service::{EngineOptions, ExecOptions, QueryBatch, QueryEngine};
use proptest::prelude::*;
use std::sync::Arc;
use std::sync::OnceLock;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("effres-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn dataset_to_batched_queries_to_snapshot_and_back() {
    // 1. A realistic dataset file: a generated social-like graph written as a
    //    gzipped edge list with comments and a stray small component.
    let graph = generators::preferential_attachment(600, 3, 0.5, 1.5, 9).expect("generator");
    let mut text = Vec::new();
    edge_list::write_edge_list(&mut text, &graph, None).expect("write");
    // Append a 2-node component that ingestion must drop.
    text.extend_from_slice(b"100000 100001\n");
    let path = temp_path("social.txt.gz");
    std::fs::write(&path, gzip::gzip_stored(&text)).expect("write file");

    // 2. Ingest: the largest component is the original graph.
    let ds = load_graph(&path, &IngestOptions::default()).expect("ingest");
    assert_eq!(ds.stats.components, 2);
    assert_eq!(ds.graph.node_count(), 600);
    assert_eq!(ds.graph.edge_count(), graph.coalesced().edge_count());

    // 3. Build the estimator and serve a parallel batch of 10k+ queries.
    let estimator =
        EffectiveResistanceEstimator::build(&ds.graph, &EffresConfig::default()).expect("build");
    let engine = QueryEngine::new(
        Arc::new(estimator),
        EngineOptions {
            threads: 4,
            parallel_threshold: 64,
            ..EngineOptions::default()
        },
    );
    let batch = QueryBatch::random(12_000, engine.node_count(), 2024);
    let result = engine.execute(&batch).expect("batch");
    assert_eq!(result.values.len(), 12_000);
    assert!(result.threads >= 1);

    // 4. Spot-check the batch against direct estimator queries.
    let estimator = Arc::clone(engine.estimator());
    for (&(p, q), &value) in batch.pairs().iter().zip(&result.values).step_by(487) {
        let reference = estimator.query(p, q).expect("query");
        assert!(
            (value - reference).abs() <= 1e-9 * reference.abs().max(1.0),
            "({p},{q}): {value} vs {reference}"
        );
    }

    // 5. Snapshot, reload, and verify answers are bit-identical.
    let snap_path = temp_path("social.snap");
    snapshot::save_snapshot(&snap_path, &estimator, Some(&ds.labels)).expect("save");
    let restored = snapshot::load_snapshot(&snap_path).expect("load");
    assert_eq!(restored.labels.as_deref(), Some(ds.labels.as_slice()));
    for &(p, q) in batch.pairs().iter().step_by(631) {
        assert_eq!(
            restored.estimator.query(p, q).expect("query"),
            estimator.query(p, q).expect("query"),
            "({p},{q})"
        );
    }

    // 6. Repeating the batch is served mostly from cache.
    let again = engine.execute(&batch).expect("batch");
    assert!(again.cache_hits > (batch.len() / 2) as u64);
    for (&a, &b) in result.values.iter().zip(&again.values) {
        assert_eq!(a, b);
    }

    // 7. Out-of-core serving: the same snapshot opened *paged* (only the
    //    header, permutation and column pointers resident, columns paged in
    //    through a deliberately tiny cache) must answer the whole batch
    //    bit-identically to a fresh resident engine — same options, same
    //    batch, fresh pair caches on both sides so both take the same code
    //    paths.
    let paged = effres_io::paged::open_paged(
        &snap_path,
        &effres_io::paged::PagedOptions {
            columns_per_page: 16,
            cache_pages: 8,
            cache_shards: 2,
            ..effres_io::paged::PagedOptions::default()
        },
    )
    .expect("open paged");
    assert_eq!(paged.node_count(), 600);
    assert_eq!(paged.labels.as_deref(), Some(ds.labels.as_slice()));
    let engine_options = || EngineOptions {
        threads: 4,
        parallel_threshold: 64,
        ..EngineOptions::default()
    };
    let resident_engine = QueryEngine::new(Arc::new(restored.estimator.clone()), engine_options());
    let paged_engine = QueryEngine::new(Arc::new(paged), engine_options());
    // The engine would schedule a paged batch; this step measures the
    // arrival-order path the scheduler is compared against below.
    let arrival_order = ExecOptions {
        schedule: false,
        ..ExecOptions::default()
    };
    let resident_result = resident_engine.execute(&batch).expect("resident batch");
    let paged_result = paged_engine
        .execute_with(&batch, &arrival_order)
        .expect("paged batch");
    assert_eq!(resident_result.values.len(), paged_result.values.len());
    for (slot, (&a, &b)) in resident_result
        .values
        .iter()
        .zip(&paged_result.values)
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "query {slot} {:?}: resident {a} vs paged {b}",
            batch.pairs()[slot]
        );
    }
    // The page cache was actually exercised (8 pages cannot hold all 600
    // columns), and only the paged engine reports page traffic.
    let paged_stats = paged_engine.stats();
    assert!(paged_stats.page_cache_misses > 0);
    assert!(paged_stats.page_cache_hits > 0);
    assert!(paged_stats.page_bytes_read > 0);
    let resident_stats = resident_engine.stats();
    assert_eq!(resident_stats.page_cache_hits, 0);
    assert_eq!(resident_stats.page_cache_misses, 0);
    assert_eq!(resident_stats.page_bytes_read, 0);
    // Per-batch page traffic rides on the result; resident batches have none.
    assert!(paged_result.page_cache.expect("paged batch").misses > 0);
    assert!(resident_result.page_cache.is_none());

    // 8. The locality scheduler: the same batch through
    //    the default (scheduled) `execute` must reproduce the resident answers
    //    bit-identically, in the original request order, while reading far
    //    fewer pages than the arrival-order paged run above.
    let scheduled_engine = QueryEngine::new(
        Arc::new(
            effres_io::paged::open_paged(
                &snap_path,
                &effres_io::paged::PagedOptions {
                    columns_per_page: 16,
                    cache_pages: 8,
                    cache_shards: 2,
                    ..effres_io::paged::PagedOptions::default()
                },
            )
            .expect("open paged"),
        ),
        engine_options(),
    );
    let scheduled_result = scheduled_engine.execute(&batch).expect("scheduled batch");
    for (slot, (&a, &b)) in resident_result
        .values
        .iter()
        .zip(&scheduled_result.values)
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "query {slot} {:?}: resident {a} vs scheduled {b}",
            batch.pairs()[slot]
        );
    }
    let schedule = scheduled_result.schedule.expect("schedule report");
    assert!(schedule.blocks >= 1 && schedule.windows >= schedule.blocks);
    let scheduled_page = scheduled_result.page_cache.expect("page stats");
    let unscheduled_page = paged_result.page_cache.expect("page stats");
    assert!(
        scheduled_page.misses < unscheduled_page.misses / 2,
        "locality scheduling should slash page misses: {} vs {}",
        scheduled_page.misses,
        unscheduled_page.misses
    );
    assert!(scheduled_page.readahead_reads > 0, "coalesced reads used");
}

/// A prebuilt snapshot shared by the scheduler property test: building the
/// estimator once keeps the proptest cases cheap.
fn shared_snapshot_path() -> &'static std::path::Path {
    static PATH: OnceLock<std::path::PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let graph = generators::grid_2d(14, 14, 0.5, 2.0, 21).expect("generator");
        let estimator =
            EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
        let path = temp_path("scheduler_prop.snap");
        snapshot::save_snapshot(&path, &estimator, None).expect("save");
        path
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The locality-scheduler contract, as a property over random page
    /// geometries (including a one-page cache), cache budgets, readahead
    /// windows and batches: the scheduled `execute` returns its values in the
    /// batch's original request order and bit-identical to the unscheduled
    /// paged path.
    #[test]
    fn scheduler_preserves_order_and_bits_across_page_geometries(
        (columns_per_page, cache_pages, readahead, queries, seed) in
            (1usize..48, 1usize..32, 0usize..8, 1usize..600, any::<u64>()),
    ) {
        let path = shared_snapshot_path();
        let paged_options = effres_io::paged::PagedOptions {
            columns_per_page,
            cache_pages,
            cache_shards: 1 + (seed as usize % 4),
            ..effres_io::paged::PagedOptions::default()
        };
        let engine_options = |readahead: usize| EngineOptions {
            cache_capacity: 0,
            parallel_threshold: usize::MAX,
            readahead_pages: readahead,
            ..EngineOptions::default()
        };
        let reference = QueryEngine::new(
            Arc::new(effres_io::paged::open_paged(path, &paged_options).expect("open")),
            engine_options(0),
        );
        let scheduled = QueryEngine::new(
            Arc::new(effres_io::paged::open_paged(path, &paged_options).expect("open")),
            engine_options(readahead),
        );
        let batch = QueryBatch::random(queries, reference.node_count(), seed);
        let a = reference
            .execute_with(&batch, &ExecOptions { schedule: false, ..ExecOptions::default() })
            .expect("unscheduled");
        let b = scheduled.execute(&batch).expect("scheduled");
        prop_assert_eq!(a.values.len(), b.values.len());
        for (slot, (x, y)) in a.values.iter().zip(&b.values).enumerate() {
            prop_assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "slot {} {:?} (geometry {:?})",
                slot,
                batch.pairs()[slot],
                paged_options
            );
        }
    }
}
