//! `resident-uniform` and `paged-zipf`: the 192 x 192 grid's v3 snapshot
//! served over TCP, resident or out of core.
//!
//! For the first quarter of the run connection A sends single-pair
//! `OP_QUERY` lookups open-loop at a fixed rate; for the rest connection B
//! sends 1000-pair `OP_BATCH` requests closed-loop. On `paged-zipf` both
//! draw Zipf-skewed pairs and B issues one `OP_RELOAD` to a second name of
//! the snapshot file halfway through its phase. Every recorded answer is
//! checked bit for bit against a direct resident `query_many`.
//!
//! The streams take turns instead of running at once: on two cores the
//! bulk stream's throughput then moved by 15% between runs (IQR over
//! median) as the OS interleaved the lookup threads with it, against 8%
//! alone.

use crate::drive::{micros, open_loop, Sent};
use crate::fixture::{self, GridFixture, ZIPF_EXPONENT};
use crate::gen::{PairGen, Rng, Zipf};
use crate::hw::{self, RssSampler};
use crate::stats::median;
use crate::{gate, gate_bits, Ctx, Res};
use effres::column_store::{
    column_distances_squared_grouped, ColumnStore, HubScratch, KernelStats,
};
use effres::EffectiveResistanceEstimator;
use effres_io::{load_snapshot, open_paged, PagedOptions};
use effres_server::{Client, EngineEpoch, ServedEngine, Server, ServerHandle, ServerOptions};
use effres_service::{
    AdmissionStats, EngineOptions, QueryBatch, QueryEngine, ResistanceBackend, ServiceStats,
};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which serving backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `load_snapshot` into a resident arena (`resident-uniform`).
    Resident,
    /// `open_paged` with a small page cache (`paged-zipf`).
    Paged,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Resident => "resident-uniform",
            Mode::Paged => "paged-zipf",
        }
    }

    /// Open-loop lookup rate per second: well under what one connection
    /// sustains next to the bulk connection, so the backlog stays bounded
    /// and the tail measures service, not overload.
    fn lookup_rate(self) -> f64 {
        match self {
            Mode::Resident => 2000.0,
            Mode::Paged => 500.0,
        }
    }

    /// Set-ups per run; `setup_s` is their median. A paged set-up takes
    /// milliseconds, so it repeats more often.
    fn setup_reps(self) -> usize {
        match self {
            Mode::Resident => 5,
            Mode::Paged => 15,
        }
    }

    /// One in this many bulk requests and lookups is recorded for the gates
    /// and the traced replay (paged bulk requests are few and all kept).
    fn record_every(self) -> u64 {
        match self {
            Mode::Resident => 16,
            Mode::Paged => 1,
        }
    }

    /// Recorded bulk requests and lookups the traced run replays.
    fn replay(self) -> (usize, usize) {
        match self {
            Mode::Resident => (64, 2000),
            Mode::Paged => (8, 200),
        }
    }
}

/// Pairs per bulk request.
const BATCH_PAIRS: usize = 1000;

/// Share of the run given to the lookups; the bulk requests get the rest.
/// `queries_per_s`, the bounded figure, is the bulk stream's, and the
/// host's memory bandwidth dips for seconds at a time, so the bulk phase
/// gets the longer window.
const LOOKUP_SHARE: f64 = 0.25;

/// Decoded-page budget of the paged store: 48 pages of 64 columns, about
/// 8% of the snapshot's 576 pages.
const PAGED_CACHE_PAGES: usize = 48;

fn paged_options() -> PagedOptions {
    PagedOptions::default().with_cache_pages(PAGED_CACHE_PAGES)
}

fn paged_engine(path: &Path) -> Res<(ServedEngine, Option<u32>)> {
    let paged = open_paged(path, &paged_options())?;
    let version = paged.version;
    let engine = QueryEngine::new(Arc::new(paged), EngineOptions::default());
    Ok((ServedEngine::Paged(engine), Some(version)))
}

fn resident_engine(estimator: Arc<EffectiveResistanceEstimator>) -> ServedEngine {
    ServedEngine::Resident(QueryEngine::new(estimator, EngineOptions::default()))
}

/// A running in-process server.
struct Served {
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<String>>,
    addr: SocketAddr,
    /// The epoch the server was bound with.
    first_epoch: Arc<EngineEpoch>,
}

impl Served {
    fn start(mode: Mode, engine: ServedEngine, version: Option<u32>, path: &Path) -> Res<Served> {
        let server = Server::bind_with(
            "127.0.0.1:0",
            engine,
            version,
            Some(path.to_path_buf()),
            ServerOptions::default(),
        )?;
        if mode == Mode::Paged {
            server.set_reloader(|path: &Path| paged_engine(path).map_err(|e| e.to_string()));
        }
        let first_epoch = server.engine();
        let handle = server.handle();
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        Ok(Served {
            handle,
            thread,
            addr,
            first_epoch,
        })
    }

    fn stop(self) -> Res<String> {
        self.handle.shutdown();
        Ok(self.thread.join().expect("server thread panicked")?)
    }
}

/// One set-up: snapshot in hand to the first answered lookup. Returns the
/// server, the set-up time and the load/open time alone.
fn set_up(mode: Mode, snapshot: &Path) -> Res<(Served, f64, f64)> {
    let start = Instant::now();
    let (engine, version) = match mode {
        Mode::Resident => {
            let snapshot = load_snapshot(snapshot)?;
            (
                resident_engine(Arc::new(snapshot.estimator)),
                snapshot.version,
            )
        }
        Mode::Paged => paged_engine(snapshot)?,
    };
    let io_s = start.elapsed().as_secs_f64();
    let served = Served::start(mode, engine, version, snapshot)?;
    let mut client = Client::connect(served.addr)?;
    client.query(0, 1)?;
    Ok((served, start.elapsed().as_secs_f64(), io_s))
}

/// A recorded bulk request and the epoch that answered it.
struct Recorded {
    pairs: Vec<(usize, usize)>,
    values: Vec<f64>,
    epoch: u64,
}

/// What the measured phase saw: connection A's schedule and recorded
/// lookups `(p, q, answer)`, and connection B's totals.
type Traffic = (Vec<Sent>, Vec<(usize, usize, f64)>, Bulk);

/// What connection B saw.
#[derive(Default)]
struct Bulk {
    requests: u64,
    failed: u64,
    /// Round-trip seconds of each answered request.
    seconds: Vec<f64>,
    recorded: Vec<Recorded>,
    reload_s: Option<f64>,
}

fn wire(pairs: &[(usize, usize)]) -> Vec<(u64, u64)> {
    pairs.iter().map(|&(p, q)| (p as u64, q as u64)).collect()
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx, mode: Mode) -> Res<()> {
    let fixture = fixture::grid_fixture(&ctx.data)?;
    if ctx.traced() {
        ctx.measure_ceilings();
        let pread = hw::pread_gbps(&fixture.snapshot)?;
        ctx.report.set("bench.pread_gbps", pread);
        ctx.report.note(format!(
            "sequential pread of the snapshot: {pread:.2} GB/s; the file sits in the OS page \
             cache, so this is the OS-cache rate, not the device's"
        ));
    }
    ctx.report.set(
        "io.snapshot_mib",
        std::fs::metadata(&fixture.snapshot)?.len() as f64 / (1024.0 * 1024.0),
    );

    let reps = if ctx.traced() { 1 } else { mode.setup_reps() };
    let mut setups = Vec::new();
    let mut io_times = Vec::new();
    let mut served = None;
    for _ in 0..reps {
        if let Some(previous) = served.take() {
            Served::stop(previous)?;
        }
        let (next, setup_s, io_s) = set_up(mode, &fixture.snapshot)?;
        setups.push(setup_s);
        io_times.push(io_s);
        served = Some(next);
    }
    let served = served.expect("at least one set-up");
    if !ctx.traced() {
        ctx.report_setup(&setups);
    }
    let io_metric = match mode {
        Mode::Resident => "io.load_s",
        Mode::Paged => "io.open_s",
    };
    ctx.report.set(io_metric, median(&io_times));

    let n = served.first_epoch.engine.node_count();
    let gen = match mode {
        Mode::Resident => PairGen::Uniform(n),
        Mode::Paged => PairGen::Zipf(Zipf::new(n, ZIPF_EXPONENT, ctx.seed)),
    };
    let stats_before = served.first_epoch.engine.stats();
    let admission_before = served.first_epoch.engine.admission_stats();
    let sampler = RssSampler::start();
    let (sent, lookups, bulk) = traffic(ctx, mode, &served, &gen, &fixture)?;
    let peak = sampler.stop();
    ctx.report.set("peak_rss_mib", peak);

    // Counters of the measured phase: the first epoch's delta, plus the
    // epoch the reload swapped in (read from the server's stats document).
    let mut stats = delta(stats_before, served.first_epoch.engine.stats());
    let mut admission = admission_delta(
        admission_before,
        served.first_epoch.engine.admission_stats(),
    );
    let document = served.handle.stats_json();
    if bulk.reload_s.is_some() {
        stats = stats.merged(stats_from_document(&document)?);
        admission = add_admission(admission, admission_from_document(&document)?);
    }
    let busy = json_u64(&document, "busy_rejections")?;

    let sample = match mode {
        Mode::Resident => &fixture.uniform,
        Mode::Paged => &fixture.zipf,
    };
    let (sample_pairs, exact): (Vec<(usize, usize)>, Vec<f64>) = sample.iter().copied().unzip();
    let served_sample = Client::connect(served.addr)?.query_batch(&wire(&sample_pairs))?;
    ctx.report_accuracy(&served_sample, &exact);

    let resident = match &served.first_epoch.engine {
        ServedEngine::Resident(engine) => Some(Arc::clone(engine.backend())),
        ServedEngine::Paged(_) => None,
    };
    let version = served.first_epoch.snapshot_version;
    Served::stop(served)?;

    // Gates: every recorded answer, on both sides of the reload, equals a
    // direct resident `query_many` bit for bit.
    let direct = match resident {
        Some(estimator) => estimator,
        None => Arc::new(load_snapshot(&fixture.snapshot)?.estimator),
    };
    for (i, rec) in bulk.recorded.iter().enumerate() {
        let want = direct.query_many(&rec.pairs)?;
        gate_bits(
            &rec.values,
            &want,
            &format!("bulk request {i} (epoch {})", rec.epoch),
        )?;
    }
    let (lookup_pairs, lookup_values): (Vec<(usize, usize)>, Vec<f64>) =
        lookups.iter().map(|&(p, q, v)| ((p, q), v)).unzip();
    gate_bits(
        &lookup_values,
        &direct.query_many(&lookup_pairs)?,
        "lookups",
    )?;
    gate_bits(
        &served_sample,
        &direct.query_many(&sample_pairs)?,
        "accuracy sample",
    )?;
    if mode == Mode::Paged {
        for epoch in [1, 2] {
            gate(bulk.recorded.iter().any(|r| r.epoch == epoch), || {
                format!("no bulk answer from epoch {epoch} was checked")
            })?;
        }
    }

    let r = &mut ctx.report;
    // Pairs per second of the median request: one request stalled by the
    // host does not move it.
    r.set("queries_per_s", BATCH_PAIRS as f64 / median(&bulk.seconds));
    r.set("bench.bulk_requests", bulk.requests as f64);
    r.attempted += bulk.requests;
    r.failed += bulk.failed;
    let answered = (bulk.seconds.len() * BATCH_PAIRS + sent.len()) as f64;
    let cache = (stats.cache_hits + stats.cache_misses).max(1) as f64;
    r.set(
        "service.pair_cache_hit_ratio",
        stats.cache_hits as f64 / cache,
    );
    let pages = (stats.page_cache_hits + stats.page_cache_misses).max(1) as f64;
    r.set("io.page_hit_ratio", stats.page_cache_hits as f64 / pages);
    r.set(
        "io.bytes_read_per_query",
        stats.page_bytes_read as f64 / answered,
    );
    r.set("io.readahead_reads", stats.page_readahead_reads as f64);
    r.set(
        "service.admission_queued_frac",
        admission.queued as f64 / admission.leases.max(1) as f64,
    );
    r.set(
        "service.admission_shed",
        (admission.shed_queue_full + admission.shed_timeout + admission.shed_doomed) as f64,
    );
    r.set("server.busy_replies", busy as f64);
    if let Some(reload_s) = bulk.reload_s {
        r.set("io.reload_s", reload_s);
    }
    ctx.report_lookups(&sent)?;
    let r = &mut ctx.report;
    r.set("failed_frac", r.failed as f64 / r.attempted as f64);
    let stats = direct.stats();
    r.set("sparse.factor_nnz", stats.factor_nnz as f64);
    r.set("core.inverse_nnz", stats.inverse_nnz as f64);
    r.set(
        "core.arena_mib",
        direct.approximate_inverse().footprint().total_bytes() as f64 / (1024.0 * 1024.0),
    );

    if ctx.traced() {
        let (batches, lookups) = mode.replay();
        let replay = Replay {
            batches: bulk
                .recorded
                .iter()
                .take(batches)
                .map(|r| r.pairs.clone())
                .collect(),
            lookups: lookup_pairs.into_iter().take(lookups).collect(),
        };
        traced_replay(ctx, mode, &fixture.snapshot, version, &direct, &replay)?;
    }
    Ok(())
}

/// The measured phase: lookups on connection A, bulk requests on B.
fn traffic(
    ctx: &Ctx,
    mode: Mode,
    served: &Served,
    gen: &PairGen,
    fixture: &GridFixture,
) -> Res<Traffic> {
    let tracer = &ctx.tracer;
    let lookup_phase = Duration::from_secs_f64(ctx.seconds * LOOKUP_SHARE);
    let bulk_phase = Duration::from_secs_f64(ctx.seconds * (1.0 - LOOKUP_SHARE));

    // First connection A's lookups, open loop.
    let mut client = Client::connect(served.addr)?;
    let mut rng = Rng::stream(ctx.seed, 1);
    let mut lookups = Vec::new();
    let sent = open_loop(mode.lookup_rate(), Instant::now() + lookup_phase, |i| {
        let (p, q) = gen.pair(&mut rng);
        match tracer.span("server.query", 0, i, |_| client.query(p as u64, q as u64)) {
            Ok(value) => {
                if i % mode.record_every() == 0 {
                    lookups.push((p, q, value));
                }
                true
            }
            Err(_) => false,
        }
    });

    // Then connection B's bulk requests, closed loop, with the paged reload
    // halfway through.
    let mut client = Client::connect(served.addr)?;
    let mut rng = Rng::stream(ctx.seed, 2);
    let mut bulk = Bulk::default();
    let mut epoch = 1;
    let mut record_next = false;
    let mut last: Option<Recorded> = None;
    let start = Instant::now();
    let (reload_at, deadline) = (start + bulk_phase / 2, start + bulk_phase);
    loop {
        if mode == Mode::Paged && bulk.reload_s.is_none() && Instant::now() >= reload_at {
            let target = fixture
                .reload_copy
                .to_str()
                .ok_or("snapshot path is not UTF-8")?;
            let begin = Instant::now();
            let report =
                tracer.span("server.reload", 0, bulk.requests, |_| client.reload(target))?;
            bulk.reload_s = Some(begin.elapsed().as_secs_f64());
            gate(report.epoch == 2, || {
                format!("reload answered epoch {}", report.epoch)
            })?;
            epoch = report.epoch;
            // Check the last answer before the flip and the first after.
            bulk.recorded.extend(last.take());
            record_next = true;
        }
        let pairs = gen.pairs(BATCH_PAIRS, &mut rng);
        let i = bulk.requests;
        bulk.requests += 1;
        let begin = Instant::now();
        match tracer.span("server.batch", 0, i, |_| client.query_batch(&wire(&pairs))) {
            Ok(values) => {
                bulk.seconds.push(begin.elapsed().as_secs_f64());
                let rec = Recorded {
                    pairs,
                    values,
                    epoch,
                };
                if i % mode.record_every() == 0 || record_next {
                    bulk.recorded.push(rec);
                    record_next = false;
                } else {
                    last = Some(rec);
                }
            }
            Err(_) => bulk.failed += 1,
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    Ok((sent, lookups, bulk))
}

fn delta(before: ServiceStats, after: ServiceStats) -> ServiceStats {
    ServiceStats {
        queries: after.queries - before.queries,
        batches: after.batches - before.batches,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_entries: after.cache_entries,
        cache_capacity: after.cache_capacity,
        page_cache_hits: after.page_cache_hits - before.page_cache_hits,
        page_cache_misses: after.page_cache_misses - before.page_cache_misses,
        page_bytes_read: after.page_bytes_read - before.page_bytes_read,
        page_readahead_reads: after.page_readahead_reads - before.page_readahead_reads,
        page_retries: after.page_retries - before.page_retries,
        page_faulted_reads: after.page_faulted_reads - before.page_faulted_reads,
    }
}

fn admission_delta(
    before: Option<AdmissionStats>,
    after: Option<AdmissionStats>,
) -> AdmissionStats {
    let before = before.unwrap_or_default();
    let after = after.unwrap_or_default();
    AdmissionStats {
        leases: after.leases - before.leases,
        queued: after.queued - before.queued,
        shed_queue_full: after.shed_queue_full - before.shed_queue_full,
        shed_timeout: after.shed_timeout - before.shed_timeout,
        shed_doomed: after.shed_doomed - before.shed_doomed,
        ..after
    }
}

fn add_admission(a: AdmissionStats, b: AdmissionStats) -> AdmissionStats {
    AdmissionStats {
        leases: a.leases + b.leases,
        queued: a.queued + b.queued,
        shed_queue_full: a.shed_queue_full + b.shed_queue_full,
        shed_timeout: a.shed_timeout + b.shed_timeout,
        shed_doomed: a.shed_doomed + b.shed_doomed,
        ..b
    }
}

/// The unsigned integer after `"key":` in the server's stats document.
fn json_u64(document: &str, key: &str) -> Res<u64> {
    let needle = format!("\"{key}\":");
    let at = document
        .find(&needle)
        .ok_or_else(|| format!("stats document has no {key}"))?;
    let digits: String = document[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    Ok(digits.parse()?)
}

fn stats_from_document(document: &str) -> Res<ServiceStats> {
    Ok(ServiceStats {
        queries: json_u64(document, "queries")?,
        batches: json_u64(document, "batches")?,
        cache_hits: json_u64(document, "pair_cache_hits")?,
        cache_misses: json_u64(document, "pair_cache_misses")?,
        page_cache_hits: json_u64(document, "page_cache_hits")?,
        page_cache_misses: json_u64(document, "page_cache_misses")?,
        page_bytes_read: json_u64(document, "page_bytes_read")?,
        page_readahead_reads: json_u64(document, "page_readahead_reads")?,
        ..ServiceStats::default()
    })
}

fn admission_from_document(document: &str) -> Res<AdmissionStats> {
    if document.contains("\"admission\":null") {
        return Ok(AdmissionStats::default());
    }
    Ok(AdmissionStats {
        leases: json_u64(document, "leases")?,
        queued: json_u64(document, "queued")?,
        shed_queue_full: json_u64(document, "shed_queue_full")?,
        shed_timeout: json_u64(document, "shed_timeout")?,
        shed_doomed: json_u64(document, "shed_doomed")?,
        ..AdmissionStats::default()
    })
}

/// Requests recorded in the measured phase, replayed by the traced run.
struct Replay {
    batches: Vec<Vec<(usize, usize)>>,
    lookups: Vec<(usize, usize)>,
}

impl Replay {
    fn pairs(&self) -> f64 {
        self.batches.iter().map(Vec::len).sum::<usize>() as f64
    }
}

/// The traced run's layer split. The recorded requests are replayed, each
/// phase on a fresh engine with the same options: through the wire, then
/// straight to the engine, then straight to the `column_store` kernel on
/// the same sorted pairs, then (paged) as raw page pins. Each phase's time
/// minus the next one's is a layer's self time.
fn traced_replay(
    ctx: &mut Ctx,
    mode: Mode,
    snapshot: &Path,
    version: Option<u32>,
    direct: &Arc<EffectiveResistanceEstimator>,
    replay: &Replay,
) -> Res<()> {
    let fresh = || -> Res<(ServedEngine, Option<u32>)> {
        match mode {
            Mode::Resident => Ok((resident_engine(Arc::clone(direct)), version)),
            Mode::Paged => paged_engine(snapshot),
        }
    };
    let tracer = &ctx.tracer;

    // Phase 1: through the wire.
    let (engine, version) = fresh()?;
    let served = Served::start(mode, engine, version, snapshot)?;
    let mut client = Client::connect(served.addr)?;
    let wire_start = Instant::now();
    for (i, pairs) in replay.batches.iter().enumerate() {
        tracer.span("server.replay_batch", 0, i as u64, |_| {
            client.query_batch(&wire(pairs))
        })?;
    }
    for (i, &(p, q)) in replay.lookups.iter().enumerate() {
        tracer.span("server.replay_query", 0, i as u64, |_| {
            client.query(p as u64, q as u64)
        })?;
    }
    let wire_wall = wire_start.elapsed().as_secs_f64();
    drop(client);
    Served::stop(served)?;

    // Phase 2: the engine, no wire.
    let (engine, _) = fresh()?;
    let mut kernel = KernelStats::default();
    let mut schedule = [0usize; 3];
    let mut query_us = Vec::new();
    for (i, pairs) in replay.batches.iter().enumerate() {
        let batch = QueryBatch::from_pairs(pairs.clone());
        let result = tracer.span("service.replay_batch", 0, i as u64, |_| {
            engine.execute(&batch)
        })?;
        kernel.merge(result.kernel);
        if let Some(report) = result.schedule {
            schedule[0] += report.clusters;
            schedule[1] += report.blocks;
            schedule[2] += report.windows;
        }
    }
    for (i, &(p, q)) in replay.lookups.iter().enumerate() {
        let start = Instant::now();
        tracer.span("service.replay_query", 0, i as u64, |_| engine.query(p, q))?;
        query_us.push(micros(start.elapsed()));
    }
    drop(engine);

    // Phase 3: the kernel on the engine's sorted pairs, no service layer.
    let (kernel_batches, kernel_queries, streamed, kernel_read) = match mode {
        Mode::Resident => {
            let (batches, queries, streamed) = kernel_phase(tracer, direct.as_ref(), replay)?;
            (batches, queries, streamed, 0)
        }
        Mode::Paged => {
            let paged = open_paged(snapshot, &paged_options())?;
            let (batches, queries, streamed) = kernel_phase(tracer, &paged, replay)?;
            (
                batches,
                queries,
                streamed,
                paged.store.page_cache_stats().bytes_read,
            )
        }
    };

    // Phase 4 (paged): the pages of each request pinned straight from a
    // fresh store give the rate of page fetches (pread, decode and
    // validation); the bytes the kernel phase read at that rate are the io
    // layer's share of the kernel phase.
    let (io_s, io_gbps) = if mode == Mode::Paged {
        let (pin_s, bytes) = pin_phase(tracer, snapshot, direct, replay)?;
        let rate = bytes as f64 / pin_s;
        (kernel_read as f64 / rate, rate / 1e9)
    } else {
        (0.0, 0.0)
    };

    let wire_batches = tracer.total("server.replay_batch");
    let wire_queries = tracer.total("server.replay_query");
    let engine_batches = tracer.total("service.replay_batch");
    let engine_queries = tracer.total("service.replay_query");
    let wire_total = wire_batches + wire_queries;
    let engine_total = engine_batches + engine_queries;
    let kernel_total = kernel_batches + kernel_queries;
    let triad = ctx.report.get("bench.triad_gbps").unwrap_or(f64::NAN);
    let kernel_gbps = streamed as f64 / kernel_batches / 1e9;
    let served_qps = replay.pairs() / wire_batches;
    let direct_qps = replay.pairs() / engine_batches;
    let r = &mut ctx.report;
    r.set("service.execute_qps", direct_qps);
    r.set("service.query_us", median(&query_us));
    r.set(
        "server.lookup_overhead_us",
        r.get("lookup_p50_us").unwrap_or(0.0) - median(&query_us),
    );
    r.set("server.batch_overhead_frac", 1.0 - served_qps / direct_qps);
    if served_qps > direct_qps {
        r.note(format!(
            "open anomaly: served batches ran faster than the direct engine on the same pairs \
             and options ({served_qps:.0} against {direct_qps:.0} pairs/s)"
        ));
    }
    r.set("core.kernel_s", kernel_batches);
    r.set("core.kernel_gbps", kernel_gbps);
    r.set("core.kernel_ceiling_ratio", kernel_gbps / triad);
    r.set(
        "core.bytes_per_query",
        kernel.bytes_streamed as f64 / kernel.pairs().max(1) as f64,
    );
    r.set("core.hub_pairs_per_load", kernel.pairs_per_hub_load());
    r.set("service.sched_clusters", schedule[0] as f64);
    r.set("service.sched_blocks", schedule[1] as f64);
    r.set("service.sched_windows", schedule[2] as f64);
    if mode == Mode::Paged {
        r.set("io.read_gbps", io_gbps);
    }
    let self_times = [
        ("bench", wire_wall - wire_total),
        ("server", wire_total - engine_total),
        ("service", engine_total - kernel_total),
        ("core", kernel_total - io_s),
        ("io", io_s),
    ];
    ctx.finish_trace(mode.name(), &self_times, wire_wall)
}

/// Phase 3 of the replay: each recorded request's pairs, permuted and
/// sorted by `(min, max)` endpoint as the engine sorts them, through
/// `column_distances_squared_grouped`. Returns the batch and lookup seconds
/// and the arena bytes the batches streamed.
fn kernel_phase<B: ResistanceBackend>(
    tracer: &crate::trace::Tracer,
    backend: &B,
    replay: &Replay,
) -> Res<(f64, f64, u64)>
where
    B::Store: ColumnStore,
{
    let store = backend.store();
    let permutation = backend.permutation();
    let norms = backend.precomputed_norms();
    let norms = norms.as_deref().map(Vec::as_slice);
    let permuted = |pairs: &[(usize, usize)]| -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = pairs
            .iter()
            .map(|&(p, q)| {
                let (pp, qq) = (permutation.new(p), permutation.new(q));
                (pp.min(qq), pp.max(qq))
            })
            .collect();
        out.sort_unstable();
        out
    };
    let mut scratch = HubScratch::new(store.order());
    for (i, pairs) in replay.batches.iter().enumerate() {
        let sorted = permuted(pairs);
        tracer.span("core.kernel_batch", 0, i as u64, |_| {
            column_distances_squared_grouped(store, &sorted, norms, &mut scratch)
        })?;
    }
    let streamed = scratch.take_stats().bytes_streamed;
    for (i, &pair) in replay.lookups.iter().enumerate() {
        let sorted = permuted(&[pair]);
        tracer.span("core.kernel_query", 0, i as u64, |_| {
            column_distances_squared_grouped(store, &sorted, norms, &mut scratch)
        })?;
    }
    Ok((
        tracer.total("core.kernel_batch"),
        tracer.total("core.kernel_query"),
        streamed,
    ))
}

/// Phase 4 of the replay (paged): for each recorded request, the pages its
/// pairs touch pinned straight from a fresh store (`pread`, decode and
/// validation), in chunks of at most half the cache budget. Returns the
/// seconds and the bytes read.
fn pin_phase(
    tracer: &crate::trace::Tracer,
    snapshot: &Path,
    direct: &EffectiveResistanceEstimator,
    replay: &Replay,
) -> Res<(f64, u64)> {
    let paged = open_paged(snapshot, &paged_options())?;
    let store = &paged.store;
    let permutation = direct.permutation();
    let pages_of = |pairs: &[(usize, usize)]| -> Vec<usize> {
        let mut pages: Vec<usize> = pairs
            .iter()
            .flat_map(|&(p, q)| [permutation.new(p), permutation.new(q)])
            .map(|column| store.page_of_column(column))
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    };
    let requests = replay
        .batches
        .iter()
        .map(|pairs| pages_of(pairs))
        .chain(replay.lookups.iter().map(|&pair| pages_of(&[pair])));
    for (i, pages) in requests.enumerate() {
        for chunk in pages.chunks(PAGED_CACHE_PAGES / 2) {
            tracer.span("io.pin", 0, i as u64, |_| store.pin_pages(chunk).map(drop))?;
        }
    }
    Ok((tracer.total("io.pin"), store.page_cache_stats().bytes_read))
}
