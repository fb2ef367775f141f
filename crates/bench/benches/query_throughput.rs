//! Batched query throughput: the single-threaded
//! `EffectiveResistanceEstimator::query_many` baseline against the
//! `effres-service` engine's batched path (precomputed column norms,
//! reusable scratch columns over a sorted batch, and — on multi-core hosts
//! — jobs on a persistent worker pool), all reading columns out of the flat
//! CSC arena with its narrowed `u32` row indices. Both now answer through
//! the hub-grouped multi-pair kernel; the `all_edges` section additionally
//! times that kernel against the plain pairwise merge on identical sorted
//! input, isolating the multi-pair gain itself.
//!
//! This is the acceptance workload of the ingestion/service subsystem: a
//! ≥ 100k-node generated graph answering tens of thousands of `(p, q)`
//! queries per invocation. Besides the human-readable table the bench
//! writes `BENCH_query_throughput.json` at the repository root so the perf
//! trajectory is tracked across PRs.
//!
//! The `paged_query` variant serves the same batch **out of core**: the
//! estimator is snapshotted to disk (v3: delta-varint rows + persisted
//! norms) and a paged engine answers straight from the file through the LRU
//! page cache, recording the cold-start (time-to-first-query) and the paged
//! vs resident throughput at two cache sizes — first in arrival order (the
//! PR-4 baseline path), then through the **locality scheduler**
//! (`paged_scheduled`): queries clustered by page pair, blocks pinned and
//! drained, the hi side swept with coalesced readahead. Bytes read,
//! readahead reads and page-cache hit rates are recorded per variant. The
//! paged answers are asserted bit-identical to the resident ones before
//! anything is timed.
//!
//! Two further sections ride the same graph: `all_edges` times the
//! spanning-edge-centrality workload (every edge as a pair — the natural
//! stress for the hub-grouped multi-pair kernel, pinned bit-identical to
//! the pairwise loop in the same run) and `value_mode` times the f32
//! narrowed arena against the f64 baseline, recording the halved value
//! stream and the measured rounding error.

use effres::prelude::*;
use effres_bench::report::{min_seconds, write_report, Json};
use effres_io::paged::{open_paged, PagedOptions};
use effres_io::snapshot::save_snapshot;
use effres_service::{EngineOptions, ExecOptions, QueryBatch, QueryEngine};
use std::sync::Arc;
use std::time::Instant;

const SIDE: usize = 320; // 320 × 320 = 102 400 nodes
const QUERIES: usize = 20_000;
const SAMPLES: usize = 10;

fn main() {
    let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("== query_throughput ({SIDE}x{SIDE} grid, {QUERIES} queries, {hardware} core(s))");

    let graph = effres_graph::generators::grid_2d(SIDE, SIDE, 0.5, 2.0, 7).expect("generator");
    let estimator = Arc::new(
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build"),
    );
    let batch = QueryBatch::random(QUERIES, estimator.node_count(), 42);
    let pairs = batch.pairs().to_vec();

    let sequential_seconds = min_seconds(SAMPLES, true, || {
        estimator.query_many(&pairs).expect("in bounds")
    });
    let sequential_qps = QUERIES as f64 / sequential_seconds;
    println!("sequential query_many: {sequential_seconds:.3}s  ({sequential_qps:.0} queries/s)");

    let mut engine_reports = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        // A fresh engine per configuration: the cache must not carry answers
        // across configurations, and is disabled so the kernel itself is
        // what's measured.
        let engine = QueryEngine::new(
            Arc::clone(&estimator),
            EngineOptions {
                threads,
                cache_capacity: 0,
                parallel_threshold: if threads == 1 { usize::MAX } else { 1 },
                ..EngineOptions::default()
            },
        );
        let seconds = min_seconds(SAMPLES, true, || engine.execute(&batch).expect("in bounds"));
        let qps = QUERIES as f64 / seconds;
        println!(
            "engine_batched/{threads}_threads: {seconds:.3}s  ({qps:.0} queries/s, {:.2}x sequential)",
            sequential_seconds / seconds
        );
        engine_reports.push(Json::Obj(vec![
            ("threads", Json::Int(threads as u64)),
            ("seconds", Json::Num(seconds)),
            ("queries_per_second", Json::Num(qps)),
            (
                "speedup_vs_sequential",
                Json::Num(sequential_seconds / seconds),
            ),
        ]));
    }

    // The all-edges centrality workload: every graph edge as a query pair.
    // An edge list shares endpoints heavily, so this is the natural stress
    // for the hub-grouped multi-pair kernel — the engine sorts the batch and
    // streams each shared column once per run instead of once per pair.
    // Answers are asserted bit-identical to the pairwise merge kernel (the
    // same-run baseline) before anything is timed.
    let edge_batch = QueryBatch::all_edges(&graph);
    let edge_pairs = edge_batch.pairs().to_vec();
    let edge_queries = edge_pairs.len();

    // Kernel-vs-kernel on identical sorted input: the pairwise two-pointer
    // merge against the hub-grouped scatter, outside the engine, so the
    // multi-pair gain is isolated from sorting/dispatch overheads.
    let inverse = estimator.approximate_inverse();
    let norms_table = inverse.column_norms_squared();
    let mut sorted_edges: Vec<(usize, usize)> = edge_pairs
        .iter()
        .map(|&(p, q)| {
            let (a, b) = (
                estimator.permutation().new(p),
                estimator.permutation().new(q),
            );
            (a.min(b), a.max(b))
        })
        .collect();
    sorted_edges.sort_unstable();
    let pairwise_kernel_seconds = min_seconds(SAMPLES, true, || {
        effres::column_store::column_distances_squared_batch(
            inverse,
            &sorted_edges,
            Some(&norms_table),
        )
        .expect("resident store never fails")
    });
    let mut kernel_scratch = effres::column_store::HubScratch::new(inverse.order());
    let grouped_kernel_seconds = min_seconds(SAMPLES, true, || {
        effres::column_store::column_distances_squared_grouped(
            inverse,
            &sorted_edges,
            Some(&norms_table),
            &mut kernel_scratch,
        )
        .expect("resident store never fails")
    });
    kernel_scratch.take_stats();
    let kernel_speedup = pairwise_kernel_seconds / grouped_kernel_seconds;
    println!(
        "all_edges kernels: pairwise merge {pairwise_kernel_seconds:.3}s \
         ({:.0} q/s), grouped scatter {grouped_kernel_seconds:.3}s ({:.0} q/s, \
         {kernel_speedup:.2}x pairwise)",
        edge_queries as f64 / pairwise_kernel_seconds,
        edge_queries as f64 / grouped_kernel_seconds,
    );
    let all_edges_sequential_seconds = min_seconds(SAMPLES, true, || {
        estimator.query_many(&edge_pairs).expect("in bounds")
    });
    let all_edges_sequential_qps = edge_queries as f64 / all_edges_sequential_seconds;
    let edge_reference = estimator.query_many(&edge_pairs).expect("in bounds");
    let edge_engine = QueryEngine::new(
        Arc::clone(&estimator),
        EngineOptions {
            threads: 1,
            cache_capacity: 0,
            parallel_threshold: usize::MAX,
            ..EngineOptions::default()
        },
    );
    let edge_check = edge_engine.execute(&edge_batch).expect("in bounds");
    assert!(
        edge_check
            .values
            .iter()
            .zip(&edge_reference)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "grouped all-edges answers diverged from the pairwise loop"
    );
    let kernel = edge_check.kernel;
    let all_edges_seconds = min_seconds(SAMPLES, true, || {
        edge_engine.execute(&edge_batch).expect("in bounds")
    });
    let all_edges_qps = edge_queries as f64 / all_edges_seconds;
    let centralities =
        effres::centrality::centralities_from_resistances(&graph, &edge_check.values);
    let centrality_sum: f64 = centralities.iter().sum();
    println!(
        "all_edges ({edge_queries} edges): sequential {all_edges_sequential_seconds:.3}s \
         ({all_edges_sequential_qps:.0} q/s), grouped engine {all_edges_seconds:.3}s \
         ({all_edges_qps:.0} q/s, {:.2}x); kernel {} hub load(s) x {:.1} pair(s)/hub, \
         {} isolated, {:.1} MiB streamed; centrality sum {centrality_sum:.1} (n-1 = {})",
        all_edges_sequential_seconds / all_edges_seconds,
        kernel.hub_loads,
        kernel.pairs_per_hub_load(),
        kernel.isolated_pairs,
        kernel.bytes_streamed as f64 / (1024.0 * 1024.0),
        estimator.node_count() - 1,
    );
    let all_edges_report = Json::Obj(vec![
        ("edges", Json::Int(edge_queries as u64)),
        (
            "pairwise_kernel_seconds",
            Json::Num(pairwise_kernel_seconds),
        ),
        ("grouped_kernel_seconds", Json::Num(grouped_kernel_seconds)),
        ("kernel_speedup", Json::Num(kernel_speedup)),
        (
            "sequential_seconds",
            Json::Num(all_edges_sequential_seconds),
        ),
        (
            "sequential_queries_per_second",
            Json::Num(all_edges_sequential_qps),
        ),
        ("engine_seconds", Json::Num(all_edges_seconds)),
        ("engine_queries_per_second", Json::Num(all_edges_qps)),
        (
            "speedup_vs_sequential",
            Json::Num(all_edges_sequential_seconds / all_edges_seconds),
        ),
        ("hub_loads", Json::Int(kernel.hub_loads)),
        ("hub_pairs", Json::Int(kernel.hub_pairs)),
        ("isolated_pairs", Json::Int(kernel.isolated_pairs)),
        ("bytes_streamed", Json::Int(kernel.bytes_streamed)),
        ("centrality_sum", Json::Num(centrality_sum)),
    ]);

    // Out-of-core serving: snapshot to disk, then answer the same batch
    // straight from the file. Cold start = open (header + col_ptr only) +
    // the first answered query, measured from a fresh store.
    let snap_path = std::env::temp_dir().join("effres_bench_query_throughput.snap");
    save_snapshot(&snap_path, &estimator, None).expect("snapshot");
    let snapshot_bytes = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
    println!(
        "-- paged_query (snapshot {:.1} MiB at {})",
        snapshot_bytes as f64 / (1024.0 * 1024.0),
        snap_path.display()
    );

    let cold = Instant::now();
    let paged = open_paged(&snap_path, &PagedOptions::default()).expect("open paged");
    let open_seconds = cold.elapsed().as_secs_f64();
    let row_codec = match paged.store.row_codec() {
        effres_io::RowCodec::Raw => "raw",
        effres_io::RowCodec::Varint => "delta-varint",
    };
    let paged_engine = QueryEngine::new(
        Arc::new(paged),
        EngineOptions {
            threads: 1,
            cache_capacity: 0,
            parallel_threshold: usize::MAX,
            ..EngineOptions::default()
        },
    );
    let (p0, q0) = pairs[0];
    let first_value = paged_engine.query(p0, q0).expect("first query");
    let time_to_first_query = cold.elapsed().as_secs_f64();
    println!(
        "paged cold start: open {open_seconds:.4}s, first query answered after \
         {time_to_first_query:.4}s"
    );
    // Sanity before timing anything: paged must reproduce resident bits.
    let resident_first = {
        let norms = estimator.column_norms_squared();
        estimator
            .query_with_norms(p0, q0, &norms)
            .expect("in bounds")
    };
    assert_eq!(
        first_value.to_bits(),
        resident_first.to_bits(),
        "paged and resident answers diverged"
    );

    let paged_engine_options = || EngineOptions {
        threads: 1,
        cache_capacity: 0,
        parallel_threshold: usize::MAX,
        ..EngineOptions::default()
    };
    // The arrival-order rows opt out of the locality scheduler the engine
    // would otherwise pick for a paged backend.
    let arrival_order = ExecOptions {
        schedule: false,
        ..ExecOptions::default()
    };
    let mut paged_reports = Vec::new();
    for &cache_pages in &[64usize, PagedOptions::default().cache_pages] {
        let paged = open_paged(
            &snap_path,
            &PagedOptions::default().with_cache_pages(cache_pages),
        )
        .expect("open paged");
        let engine = QueryEngine::new(Arc::new(paged), paged_engine_options());
        // Fewer samples than the in-memory variants: each paged pass is
        // disk-bound and tens of times slower, and the min still lands on a
        // warm page cache.
        let mut last = None;
        let seconds = min_seconds(3, true, || {
            last = Some(
                engine
                    .execute_with(&batch, &arrival_order)
                    .expect("in bounds"),
            );
        });
        let qps = QUERIES as f64 / seconds;
        let page = last.and_then(|r| r.page_cache).unwrap_or_default();
        println!(
            "paged_query/{cache_pages}_pages: {seconds:.3}s  ({qps:.0} queries/s, \
             {:.2}x sequential resident; per batch: {} hits / {} misses, {:.1} MiB read)",
            sequential_seconds / seconds,
            page.hits,
            page.misses,
            page.bytes_read as f64 / (1024.0 * 1024.0),
        );
        paged_reports.push(Json::Obj(vec![
            ("cache_pages", Json::Int(cache_pages as u64)),
            ("seconds", Json::Num(seconds)),
            ("queries_per_second", Json::Num(qps)),
            (
                "speedup_vs_sequential_resident",
                Json::Num(sequential_seconds / seconds),
            ),
            ("page_cache_hits", Json::Int(page.hits)),
            ("page_cache_misses", Json::Int(page.misses)),
            ("bytes_read", Json::Int(page.bytes_read)),
            ("readahead_reads", Json::Int(page.readahead_reads)),
        ]));
    }

    // The locality-scheduled paged path: same file, same batch, same
    // engine options — queries re-ordered into page-sorted clusters with
    // pinned blocks and coalesced readahead (results scattered back to
    // request order). Answers are asserted bit-identical to the resident
    // engine's batch before timing.
    let resident_reference = {
        let engine = QueryEngine::new(Arc::clone(&estimator), paged_engine_options());
        engine.execute(&batch).expect("in bounds").values
    };
    let mut scheduled_reports = Vec::new();
    for &cache_pages in &[64usize, PagedOptions::default().cache_pages] {
        let paged = open_paged(
            &snap_path,
            &PagedOptions::default().with_cache_pages(cache_pages),
        )
        .expect("open paged");
        let engine = QueryEngine::new(Arc::new(paged), paged_engine_options());
        let check = engine.execute(&batch).expect("in bounds");
        assert!(
            check
                .values
                .iter()
                .zip(&resident_reference)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "scheduled paged answers diverged from resident"
        );
        let mut last = None;
        let seconds = min_seconds(3, false, || {
            last = Some(engine.execute(&batch).expect("in bounds"));
        });
        let qps = QUERIES as f64 / seconds;
        let last = last.expect("at least one sample");
        let page = last.page_cache.unwrap_or_default();
        let schedule = last.schedule.unwrap_or_default();
        println!(
            "paged_scheduled/{cache_pages}_pages: {seconds:.3}s  ({qps:.0} queries/s, \
             {:.2}x sequential resident; per batch: {} hits / {} misses, {:.1} MiB read, \
             {} readahead read(s); {} cluster(s) -> {} block(s), {} window(s))",
            sequential_seconds / seconds,
            page.hits,
            page.misses,
            page.bytes_read as f64 / (1024.0 * 1024.0),
            page.readahead_reads,
            schedule.clusters,
            schedule.blocks,
            schedule.windows,
        );
        scheduled_reports.push(Json::Obj(vec![
            ("cache_pages", Json::Int(cache_pages as u64)),
            ("seconds", Json::Num(seconds)),
            ("queries_per_second", Json::Num(qps)),
            (
                "speedup_vs_sequential_resident",
                Json::Num(sequential_seconds / seconds),
            ),
            ("page_cache_hits", Json::Int(page.hits)),
            ("page_cache_misses", Json::Int(page.misses)),
            ("bytes_read", Json::Int(page.bytes_read)),
            ("readahead_reads", Json::Int(page.readahead_reads)),
            ("clusters", Json::Int(schedule.clusters as u64)),
            ("blocks", Json::Int(schedule.blocks as u64)),
            ("windows", Json::Int(schedule.windows as u64)),
        ]));
    }
    // The f32 value mode: reload the (f64-canonical) snapshot, narrow the
    // arena, and answer the same random batch. Records the halved value
    // stream, the measured narrowing error, the worst whole-query relative
    // error against the f64 answers, and the narrowed throughput.
    let narrow = effres_io::snapshot::load_snapshot(&snap_path)
        .expect("reload snapshot")
        .estimator
        .with_value_mode(ValueMode::F32)
        .expect("narrowing a healthy arena succeeds");
    let f64_vals_bytes = estimator.approximate_inverse().footprint().vals_bytes;
    let f32_vals_bytes = narrow.approximate_inverse().footprint().vals_bytes;
    let narrowing_error = narrow.approximate_inverse().narrowing_error();
    let narrow_engine = QueryEngine::new(
        Arc::new(narrow),
        EngineOptions {
            threads: 1,
            cache_capacity: 0,
            parallel_threshold: usize::MAX,
            ..EngineOptions::default()
        },
    );
    let narrow_values = narrow_engine.execute(&batch).expect("in bounds").values;
    let max_query_rel_error = narrow_values
        .iter()
        .zip(&resident_reference)
        .map(|(a, b)| (a - b).abs() / b.abs().max(1e-12))
        .fold(0.0_f64, f64::max);
    let f32_seconds = min_seconds(SAMPLES, true, || {
        narrow_engine.execute(&batch).expect("in bounds")
    });
    let f32_qps = QUERIES as f64 / f32_seconds;
    println!(
        "value_mode f32: vals {:.1} -> {:.1} MiB, narrowing error {narrowing_error:.2e}, \
         max query relative error {max_query_rel_error:.2e}, {f32_seconds:.3}s \
         ({f32_qps:.0} queries/s, {:.2}x sequential f64)",
        f64_vals_bytes as f64 / (1024.0 * 1024.0),
        f32_vals_bytes as f64 / (1024.0 * 1024.0),
        sequential_seconds / f32_seconds,
    );
    let value_mode_report = Json::Obj(vec![
        ("f64_vals_bytes", Json::Int(f64_vals_bytes as u64)),
        ("f32_vals_bytes", Json::Int(f32_vals_bytes as u64)),
        ("narrowing_error", Json::Num(narrowing_error)),
        ("max_query_relative_error", Json::Num(max_query_rel_error)),
        ("f32_seconds", Json::Num(f32_seconds)),
        ("f32_queries_per_second", Json::Num(f32_qps)),
        (
            "speedup_vs_sequential_f64",
            Json::Num(sequential_seconds / f32_seconds),
        ),
    ]);
    std::fs::remove_file(&snap_path).ok();

    let stats = estimator.stats();
    let footprint = estimator.approximate_inverse().footprint();
    let body = Json::Obj(vec![
        ("graph", Json::Str(format!("grid_2d_{SIDE}x{SIDE}"))),
        ("nodes", Json::Int(stats.node_count as u64)),
        ("inverse_nnz", Json::Int(stats.inverse_nnz as u64)),
        // Bytes of row indices the query kernels stream out of the arena —
        // halved by the usize→u32 index narrowing; `index_width_bytes`
        // records the width so the halving is visible across PRs.
        ("arena_index_bytes", Json::Int(footprint.rows_bytes as u64)),
        (
            "arena_index_width_bytes",
            Json::Int(footprint.index_width_bytes as u64),
        ),
        (
            "arena_total_bytes",
            Json::Int(footprint.total_bytes() as u64),
        ),
        ("queries", Json::Int(QUERIES as u64)),
        ("hardware_threads", Json::Int(hardware as u64)),
        ("samples", Json::Int(SAMPLES as u64)),
        ("sequential_seconds", Json::Num(sequential_seconds)),
        ("sequential_queries_per_second", Json::Num(sequential_qps)),
        ("engine", Json::Arr(engine_reports)),
        ("all_edges", all_edges_report),
        ("value_mode", value_mode_report),
        (
            "paged",
            Json::Obj(vec![
                ("snapshot_bytes", Json::Int(snapshot_bytes)),
                ("snapshot_version", Json::Int(3)),
                ("row_codec", Json::Str(row_codec.to_string())),
                (
                    "columns_per_page",
                    Json::Int(PagedOptions::default().columns_per_page as u64),
                ),
                ("open_seconds", Json::Num(open_seconds)),
                (
                    "time_to_first_query_seconds",
                    Json::Num(time_to_first_query),
                ),
                ("engine", Json::Arr(paged_reports)),
                ("scheduled", Json::Arr(scheduled_reports)),
            ]),
        ),
    ]);
    match write_report("query_throughput", body) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
}
