//! End-to-end throughput of the network front-end: real TCP clients against
//! an in-process `effres-server`, resident and paged, at 1/2/4/8 concurrent
//! connections.
//!
//! The request shape follows each backend's serving model. Resident
//! connections split one 20 000-query workload evenly and *stream* their
//! shares as 1 000-pair requests — the kernels don't care how a batch
//! arrives. Paged connections each drive their *own* full-size 20 000-pair
//! scheduled batch (total work scales with the connection count): the
//! locality scheduler amortizes page IO across the batch it is given, so
//! the sustained aggregate rate of full batches queuing through cross-batch
//! admission control is the served counterpart of
//! `BENCH_query_throughput.json`'s `paged.scheduled` row (the admission
//! ledger grants each batch the full pin budget FIFO — the exact solo plan
//! — so concurrency must not multiply IO; shredding the workload into
//! fragments would benchmark cache thrash instead). The direct (no-wire)
//! batched throughput is measured in the same run, so `ratio_vs_direct`
//! records how much the transport and admission queueing cost: every paged
//! row must stay within ~20% of the direct scheduled path.
//!
//! Per-request latency is recorded client-side into the service crate's
//! streaming histogram; p50/p99 go into the JSON. On small containers note
//! `hardware_threads`: clients, connection handlers and the engine's worker
//! pool all share those cores, so concurrency scaling flattens once the
//! host is saturated — the interesting signal is that throughput *holds*
//! under concurrency, not that it multiplies.
//!
//! Writes `BENCH_server_throughput.json` at the repository root.

use effres::prelude::*;
use effres_bench::report::{write_report, Json};
use effres_io::paged::{open_paged, PagedOptions};
use effres_io::snapshot::save_snapshot;
use effres_server::{Client, ClientError, ServedEngine, Server};
use effres_service::{EngineOptions, LatencyHistogram, QueryBatch, QueryEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIDE: usize = 320; // 320 × 320 = 102 400 nodes, same graph as query_throughput
const QUERIES: usize = 20_000;
const REQUEST_PAIRS: usize = 1_000; // pairs per wire batch request (resident)
const CONNECTIONS: [usize; 4] = [1, 2, 4, 8];
const SAMPLES: usize = 3;

fn main() {
    let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "== server_throughput ({SIDE}x{SIDE} grid, {QUERIES} queries, \
         {REQUEST_PAIRS}-pair requests, {hardware} core(s))"
    );

    let graph = effres_graph::generators::grid_2d(SIDE, SIDE, 0.5, 2.0, 7).expect("generator");
    let estimator = Arc::new(
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build"),
    );
    let node_count = estimator.node_count();
    let batch = QueryBatch::random(QUERIES, node_count, 42);

    // Engines mirror the query_throughput bench: pair cache off so the
    // kernel (not memoization) is measured.
    let engine_options = || EngineOptions {
        cache_capacity: 0,
        ..EngineOptions::default()
    };

    // ---- resident ----
    let direct = QueryEngine::new(Arc::clone(&estimator), engine_options());
    let direct_seconds = min_wall(SAMPLES, || {
        direct.execute(&batch).expect("in bounds");
    });
    let resident_direct_qps = QUERIES as f64 / direct_seconds;
    println!("resident direct batched: {direct_seconds:.3}s  ({resident_direct_qps:.0} queries/s)");
    let mut resident_rows = Vec::new();
    for &connections in &CONNECTIONS {
        let engine = QueryEngine::new(Arc::clone(&estimator), engine_options());
        // Round-robin split of the one workload into streamed requests.
        let chunks: Vec<Vec<(u64, u64)>> = batch
            .pairs()
            .chunks(REQUEST_PAIRS)
            .map(|chunk| chunk.iter().map(|&(p, q)| (p as u64, q as u64)).collect())
            .collect();
        let per_connection: Vec<Vec<Vec<(u64, u64)>>> = (0..connections)
            .map(|c| {
                chunks
                    .iter()
                    .skip(c)
                    .step_by(connections)
                    .cloned()
                    .collect()
            })
            .collect();
        let row = serve_and_load(
            ServedEngine::Resident(engine),
            None,
            REQUEST_PAIRS,
            &per_connection,
            resident_direct_qps,
            "resident",
        );
        resident_rows.push(row);
    }

    // ---- paged (locality scheduler + admission control behind the wire) ----
    let snap_path = std::env::temp_dir().join("effres_bench_server_throughput.snap");
    save_snapshot(&snap_path, &estimator, None).expect("snapshot");
    // Pull the file through the OS page cache once so every paged config
    // measures the engine, not the backing store's first-touch latency.
    let _ = std::fs::read(&snap_path).expect("prewarm");
    let paged_options = PagedOptions::default();
    let cache_pages = paged_options.cache_pages;
    let direct_snapshot = Arc::new(open_paged(&snap_path, &paged_options).expect("open"));
    let direct_paged = QueryEngine::new(Arc::clone(&direct_snapshot), engine_options());
    let direct_paged_seconds = min_wall(SAMPLES, || {
        direct_paged.execute(&batch).expect("in bounds");
    });
    let paged_direct_qps = QUERIES as f64 / direct_paged_seconds;
    println!(
        "paged direct scheduled:  {direct_paged_seconds:.3}s  ({paged_direct_qps:.0} queries/s)"
    );
    let probe = direct_paged.execute(&batch).expect("in bounds");
    if let (Some(page), Some(plan)) = (&probe.page_cache, &probe.schedule) {
        println!(
            "paged direct IO/plan:    {} misses, {:.1} MiB read, {} readahead read(s); \
             {} cluster(s) -> {} block(s), {} window(s)",
            page.misses,
            page.bytes_read as f64 / (1024.0 * 1024.0),
            page.readahead_reads,
            plan.clusters,
            plan.blocks,
            plan.windows
        );
    }
    let (recycled, fresh) = direct_snapshot.store.buffer_pool_stats();
    println!("paged direct buffer pool: {recycled} recycled, {fresh} fresh decode(s)");
    drop(direct_paged);
    drop(direct_snapshot);
    drop(direct);
    drop(estimator);
    let mut paged_rows = Vec::new();
    for &connections in &CONNECTIONS {
        let engine = QueryEngine::new(
            Arc::new(open_paged(&snap_path, &paged_options).expect("open")),
            engine_options(),
        );
        // Each connection drives its own full-size scheduled batch: the
        // admission-control workload (total work = connections × QUERIES).
        let per_connection: Vec<Vec<Vec<(u64, u64)>>> = (0..connections)
            .map(|c| {
                let own = QueryBatch::random(QUERIES, node_count, 42 + c as u64);
                vec![own
                    .pairs()
                    .iter()
                    .map(|&(p, q)| (p as u64, q as u64))
                    .collect()]
            })
            .collect();
        let row = serve_and_load(
            ServedEngine::Paged(engine),
            Some(3),
            QUERIES,
            &per_connection,
            paged_direct_qps,
            "paged",
        );
        paged_rows.push(row);
    }

    // ---- deadline: live goodput under an overload storm, on vs off ----
    std::fs::remove_file(&snap_path).ok();
    let deadline_report = deadline_goodput();

    let body = Json::Obj(vec![
        ("graph", Json::Str(format!("grid_2d_{SIDE}x{SIDE}"))),
        ("nodes", Json::Int(node_count as u64)),
        ("queries", Json::Int(QUERIES as u64)),
        ("resident_request_pairs", Json::Int(REQUEST_PAIRS as u64)),
        ("hardware_threads", Json::Int(hardware as u64)),
        ("samples", Json::Int(SAMPLES as u64)),
        (
            "resident",
            Json::Obj(vec![
                ("direct_queries_per_second", Json::Num(resident_direct_qps)),
                ("connections", Json::Arr(resident_rows)),
            ]),
        ),
        (
            "paged",
            Json::Obj(vec![
                ("cache_pages", Json::Int(cache_pages as u64)),
                (
                    "direct_scheduled_queries_per_second",
                    Json::Num(paged_direct_qps),
                ),
                ("connections", Json::Arr(paged_rows)),
            ]),
        ),
        ("deadline", deadline_report),
    ]);
    match write_report("server_throughput", body) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
}

/// Pulls `"key":<u64>` out of the hand-rendered stats JSON.
fn stats_u64(stats: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    stats[stats.find(&needle).expect("stats key") + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("stats number")
}

/// Measures what a well-behaved client gets out of an overloaded server:
/// one live connection streams small batches while a storm connection
/// hammers full-size batches it will never wait for. With the legacy
/// opcode (cancellation off) every storm batch grinds to completion,
/// monopolizing the page cache and the core; with 1 ms deadlines
/// (cancellation on) the service-time EWMA sheds the doomed batches
/// before they take a queue slot and the brownout controller keeps the
/// engine lean. The ratio of live goodput between the two modes is the
/// payoff of the deadline-aware lifecycle.
///
/// Runs in the cache-starved regime where overload actually bites — a
/// 16×16 grid served through a 6-page cache, one column per page, the
/// same setup the `deadline_lifecycle` chaos test pins at ≥2× (the
/// big-snapshot rows above have cache to spare, so a storm there
/// interleaves at block granularity instead of starving anyone). Each
/// measured phase starts only once the storm demonstrably has hold:
/// a lease taken (off) or brownout engaged (on).
fn deadline_goodput() -> Json {
    const GRID: usize = 16;
    const NODES: u64 = (GRID * GRID) as u64;
    const LIVE_REQUESTS: u64 = 4;
    const LIVE_PAIRS: u64 = 100;
    const STORM_PAIRS: u64 = 20_000;

    let graph = effres_graph::generators::grid_2d(GRID, GRID, 0.5, 2.0, 11).expect("generator");
    let estimator =
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
    let snap_path = std::env::temp_dir().join("effres_bench_deadline_storm.snap");
    save_snapshot(&snap_path, &estimator, None).expect("snapshot");
    drop(estimator);
    let engine = QueryEngine::new(
        Arc::new(
            open_paged(
                &snap_path,
                &PagedOptions {
                    columns_per_page: 1,
                    cache_pages: 6,
                    cache_shards: 1,
                    ..PagedOptions::default()
                },
            )
            .expect("open"),
        ),
        EngineOptions {
            cache_capacity: 0,
            threads: 2,
            parallel_threshold: 8,
            admission_queue_depth: Some(8),
            admission_timeout: Duration::from_secs(60),
            ..EngineOptions::default()
        },
    );
    let server = Server::bind("127.0.0.1:0", ServedEngine::Paged(engine), Some(3)).expect("bind");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());

    let live_pairs: Vec<(u64, u64)> = (0..LIVE_PAIRS)
        .map(|i| ((i * 7 + 3) % NODES, (i * 29 + 11) % NODES))
        .collect();
    let storm_pairs: Vec<(u64, u64)> = (0..STORM_PAIRS)
        .map(|i| ((i * 37 + 5) % NODES, (i * 13 + 1) % NODES))
        .collect();

    let mut live = Client::connect(addr).expect("live connect");
    // Seed the service-time EWMA so the deadline run can judge storm
    // batches doomed before they queue.
    live.query_batch(&live_pairs).expect("seed batch");

    let mut run_mode = |deadline: Option<Duration>| -> f64 {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let storm_pairs = storm_pairs.clone();
        let storm = std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("storm connect");
            while !flag.load(Ordering::Relaxed) {
                match deadline {
                    Some(budget) => match client.query_batch_deadline(&storm_pairs, budget) {
                        Ok(_) | Err(ClientError::DeadlineExceeded(_)) => {}
                        Err(other) => panic!("storm must be shed cleanly: {other}"),
                    },
                    None => {
                        client.query_batch(&storm_pairs).expect("legacy storm");
                    }
                }
            }
        });
        // Measure only once the storm demonstrably has hold of the engine.
        let waited = Instant::now();
        loop {
            let stats = live.stats_json().expect("stats");
            let storm_holds = match deadline {
                None => stats_u64(&stats, "available") < stats_u64(&stats, "budget"),
                Some(_) => stats_u64(&stats, "brownout_entries") >= 1,
            };
            if storm_holds {
                break;
            }
            assert!(
                waited.elapsed() < Duration::from_secs(30),
                "storm never took hold: {stats}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let begun = Instant::now();
        for _ in 0..LIVE_REQUESTS {
            live.query_batch(&live_pairs).expect("live batch");
        }
        let seconds = begun.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        storm.join().expect("storm thread");
        seconds
    };

    let off_seconds = run_mode(None);
    let off_qps = (LIVE_REQUESTS * LIVE_PAIRS) as f64 / off_seconds;
    println!("deadline storm, cancellation off: {off_seconds:.3}s  ({off_qps:.0} live queries/s)");
    let on_seconds = run_mode(Some(Duration::from_millis(1)));
    let on_qps = (LIVE_REQUESTS * LIVE_PAIRS) as f64 / on_seconds;
    println!("deadline storm, cancellation on:  {on_seconds:.3}s  ({on_qps:.0} live queries/s)");
    println!(
        "deadline storm goodput ratio:     {:.1}x with cancellation",
        on_qps / off_qps
    );

    let stats = live.stats_json().expect("stats");
    let counter = |key: &str| -> u64 { stats_u64(&stats, key) };
    let report = Json::Obj(vec![
        ("graph", Json::Str(format!("grid_2d_{GRID}x{GRID}"))),
        ("cache_pages", Json::Int(6)),
        ("storm_pairs", Json::Int(STORM_PAIRS)),
        ("live_requests", Json::Int(LIVE_REQUESTS)),
        ("live_request_pairs", Json::Int(LIVE_PAIRS)),
        (
            "cancellation_off",
            Json::Obj(vec![
                ("live_seconds", Json::Num(off_seconds)),
                ("live_queries_per_second", Json::Num(off_qps)),
            ]),
        ),
        (
            "cancellation_on",
            Json::Obj(vec![
                ("live_seconds", Json::Num(on_seconds)),
                ("live_queries_per_second", Json::Num(on_qps)),
                ("deadline_exceeded", Json::Int(counter("deadline_exceeded"))),
                ("abandoned_pairs", Json::Int(counter("abandoned_pairs"))),
                ("shed_doomed", Json::Int(counter("shed_doomed"))),
                ("brownout_entries", Json::Int(counter("brownout_entries"))),
                ("brownout_exits", Json::Int(counter("brownout_exits"))),
            ]),
        ),
        ("goodput_ratio", Json::Num(on_qps / off_qps)),
    ]);

    live.shutdown_server().expect("shutdown");
    runner.join().expect("server thread").expect("serve loop");
    std::fs::remove_file(&snap_path).ok();
    report
}

/// Minimum wall time over `samples` runs after one warm-up pass.
fn min_wall(samples: usize, mut work: impl FnMut()) -> f64 {
    let warmup = Instant::now();
    work();
    print!("  [warmup {:.3}s", warmup.elapsed().as_secs_f64());
    let min = (0..samples)
        .map(|_| {
            let started = Instant::now();
            work();
            let seconds = started.elapsed().as_secs_f64();
            print!(", sample {seconds:.3}s");
            seconds
        })
        .fold(f64::INFINITY, f64::min);
    println!("]");
    min
}

/// Serves `engine` on an ephemeral port, drives each connection's request
/// chunks through its own TCP client concurrently, and returns the JSON
/// row. `request_pairs` only labels the row; the chunks carry the pairs.
fn serve_and_load(
    engine: ServedEngine,
    snapshot_version: Option<u32>,
    request_pairs: usize,
    per_connection: &[Vec<Vec<(u64, u64)>>],
    direct_qps: f64,
    label: &str,
) -> Json {
    let server = Server::bind("127.0.0.1:0", engine, snapshot_version).expect("bind");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());

    let connections = per_connection.len();
    let total_queries: usize = per_connection
        .iter()
        .flat_map(|chunks| chunks.iter().map(Vec::len))
        .sum();
    let latency = Arc::new(LatencyHistogram::new());
    let run_once = || {
        std::thread::scope(|scope| {
            for chunks in per_connection {
                let latency = Arc::clone(&latency);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for chunk in chunks {
                        let sent = Instant::now();
                        client.query_batch(chunk).expect("batch request");
                        latency.record(sent.elapsed());
                    }
                });
            }
        });
    };
    let seconds = min_wall(SAMPLES, run_once);
    let qps = total_queries as f64 / seconds;
    let snapshot = latency.snapshot();
    let p50 = snapshot.quantile_micros(0.50);
    let p99 = snapshot.quantile_micros(0.99);
    println!(
        "{label}/{connections}_connections ({request_pairs}-pair requests): \
         {seconds:.3}s  ({qps:.0} queries/s, {:.2}x direct; \
         request p50 {p50} µs, p99 {p99} µs)",
        qps / direct_qps
    );

    Client::connect(addr)
        .expect("closer")
        .shutdown_server()
        .expect("shutdown");
    let final_stats = runner.join().expect("server thread").expect("serve loop");
    println!("{label}/{connections}_connections final: {final_stats}");

    Json::Obj(vec![
        ("connections", Json::Int(connections as u64)),
        ("request_pairs", Json::Int(request_pairs as u64)),
        ("total_queries", Json::Int(total_queries as u64)),
        ("seconds", Json::Num(seconds)),
        ("queries_per_second", Json::Num(qps)),
        ("ratio_vs_direct", Json::Num(qps / direct_qps)),
        ("request_p50_micros", Json::Int(p50)),
        ("request_p99_micros", Json::Int(p99)),
        ("request_max_micros", Json::Int(snapshot.max_micros)),
    ])
}
