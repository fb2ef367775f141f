//! `edges-pgmesh`: build the estimator with the CLI's defaults, then sweep
//! every edge's resistance through `QueryEngine::execute`, repeated to fill
//! the run. No disk, no wire; the pair cache is off because a real sweep
//! computes each edge once.

use crate::drive::micros;
use crate::gen::Rng;
use crate::hw::RssSampler;
use crate::stats::median;
use crate::{fixture, gate, gate_bits, Ctx, Res};
use effres::approx_inverse::SparseApproximateInverse;
use effres::centrality::centralities_from_resistances;
use effres::column_store::{column_distances_squared_grouped, HubScratch, KernelStats};
use effres::depth::FilledGraphDepth;
use effres::estimator::EstimatorStats;
use effres::{EffectiveResistanceEstimator, EffresConfig, Ordering};
use effres_graph::laplacian::grounded_laplacian;
use effres_graph::Graph;
use effres_service::{BatchResult, EngineOptions, QueryBatch, QueryEngine};
use effres_sparse::amd;
use effres_sparse::ichol::{IcholOptions, IncompleteCholesky};
use std::sync::Arc;
use std::time::Instant;

/// Builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 2;

/// Single-edge lookups checked against the sweep after the run, and timed
/// through `QueryEngine::query` alone in the traced run.
const LOOKUPS: usize = 2000;

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Res<()> {
    let graph = fixture::pgmesh_graph()?;
    let oracle = fixture::pgmesh_oracle(&ctx.data)?;
    if ctx.traced() {
        ctx.measure_ceilings();
    }
    // `effres-cli build` defaults: minimum degree (AMD), epsilon and drop
    // tolerance 1e-3, ground conductance 1.
    let config = EffresConfig::default().with_ordering(Ordering::MinimumDegree);
    let options = EngineOptions {
        cache_capacity: 0,
        ..EngineOptions::default()
    };
    let (engine, setup_wall) = if ctx.traced() {
        let start = Instant::now();
        let estimator = traced_build(ctx, &graph, &config)?;
        let engine = QueryEngine::new(Arc::new(estimator), options);
        engine.query(0, 1)?;
        (engine, start.elapsed().as_secs_f64())
    } else {
        let mut times = Vec::new();
        let mut engine = None;
        for _ in 0..SETUP_REPS {
            drop(engine.take());
            let start = Instant::now();
            let estimator = EffectiveResistanceEstimator::build(&graph, &config)?;
            let built = QueryEngine::new(Arc::new(estimator), options.clone());
            built.query(0, 1)?;
            times.push(start.elapsed().as_secs_f64());
            engine = Some(built);
        }
        ctx.report_setup(&times);
        (engine.expect("at least one set-up"), 0.0)
    };

    let batch = QueryBatch::all_edges(&graph);
    let edges = batch.pairs().to_vec();
    let tracer = &ctx.tracer;
    let sampler = RssSampler::start();
    // Gate: every sweep gives the first sweep's bits.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut first: Option<BatchResult> = None;
    let mut sweeps = Vec::new();
    loop {
        let start = Instant::now();
        let result = tracer.span("service.execute", 0, sweeps.len() as u64, |_| {
            engine.execute(&batch)
        })?;
        sweeps.push(start.elapsed().as_secs_f64());
        match &first {
            Some(first) => gate_bits(
                &result.values,
                &first.values,
                &format!("sweep {}", sweeps.len()),
            )?,
            None => first = Some(result),
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let first = first.expect("at least one sweep");
    let peak = sampler.stop();

    // Gates: single-edge lookups through `QueryEngine::query` match the
    // sweep's answers, and the spanning-edge centralities sum to n - 1
    // (Foster's theorem).
    let mut rng = Rng::stream(ctx.seed, 1);
    let lookups: Vec<usize> = (0..LOOKUPS).map(|_| rng.below(edges.len())).collect();
    for &k in &lookups {
        let (p, q) = edges[k];
        let value = engine.query(p, q)?;
        gate(value.to_bits() == first.values[k].to_bits(), || {
            format!(
                "lookup of edge {k} gave {value} but the sweep gave {}",
                first.values[k]
            )
        })?;
    }
    let n = graph.node_count() as f64;
    let centrality: f64 = centralities_from_resistances(&graph, &first.values)
        .iter()
        .sum();
    gate((centrality - (n - 1.0)).abs() <= 1e-2 * (n - 1.0), || {
        format!(
            "centrality sum {centrality} is not within 1% of n - 1 = {}",
            n - 1.0
        )
    })?;
    ctx.report.note(format!(
        "centrality sum {centrality:.3} against n - 1 = {}",
        n - 1.0
    ));

    // Pairs per second of the median sweep: one sweep stalled by the host
    // does not move it.
    let qps = edges.len() as f64 / median(&sweeps);
    ctx.report.set("queries_per_s", qps);
    ctx.report.set("service.execute_qps", qps);
    ctx.report.set("peak_rss_mib", peak);
    ctx.report.set("bench.bulk_requests", sweeps.len() as f64);
    ctx.report.attempted += sweeps.len() as u64;

    let (sample, exact): (Vec<(usize, usize)>, Vec<f64>) = oracle.into_iter().unzip();
    let approx = engine.execute(&QueryBatch::from_pairs(sample))?.values;
    ctx.report_accuracy(&approx, &exact);

    let estimator = engine.backend();
    let stats = estimator.stats();
    let kernel = first.kernel;
    let r = &mut ctx.report;
    r.set("sparse.factor_nnz", stats.factor_nnz as f64);
    r.set("core.inverse_nnz", stats.inverse_nnz as f64);
    r.set(
        "core.arena_mib",
        estimator.approximate_inverse().footprint().total_bytes() as f64 / (1024.0 * 1024.0),
    );
    r.set(
        "core.bytes_per_query",
        kernel.bytes_streamed as f64 / kernel.pairs() as f64,
    );
    r.set("core.hub_pairs_per_load", kernel.pairs_per_hub_load());
    r.set("failed_frac", r.failed as f64 / r.attempted as f64);

    if ctx.traced() {
        traced_replay(ctx, &engine, &edges, &lookups, setup_wall)?;
    }
    Ok(())
}

/// The set-up of the traced run: `EffectiveResistanceEstimator::build`
/// taken apart into its public steps, one span each, so ordering,
/// incomplete Cholesky and the approximate-inverse sweep get their own
/// times. The steps are the ones `build_from_laplacian` runs.
fn traced_build(
    ctx: &mut Ctx,
    graph: &Graph,
    config: &EffresConfig,
) -> Res<EffectiveResistanceEstimator> {
    let tracer = &ctx.tracer;
    let estimator = tracer.span("bench.setup", 0, 0, |root| -> Res<_> {
        let lap = tracer.span("sparse.laplacian", root, 0, |_| {
            grounded_laplacian(graph, config.ground_conductance)
        });
        let permutation = tracer.span("sparse.order", root, 0, |_| amd::amd(&lap))?;
        let permuted = tracer.span("sparse.permute", root, 0, |_| {
            lap.permute_symmetric(&permutation)
        })?;
        let ichol = tracer.span("sparse.ichol", root, 0, |_| {
            IncompleteCholesky::factor(
                &permuted,
                IcholOptions {
                    drop_tolerance: config.drop_tolerance,
                    ..IcholOptions::default()
                },
            )
        })?;
        let (factor_nnz, ichol_dropped) = (ichol.nnz(), ichol.stats().dropped);
        let factor = Arc::new(ichol.into_factor());
        let depth = tracer.span("core.depth", root, 0, |_| {
            FilledGraphDepth::from_factor(&factor)
        });
        let inverse = tracer.span("core.inverse_build", root, 0, |_| {
            SparseApproximateInverse::from_factor_shared(
                factor,
                config.epsilon,
                config.dense_column_threshold,
                &config.build,
                None,
            )
            .and_then(|inverse| inverse.with_value_mode(config.value_mode))
        })?;
        let stats = EstimatorStats {
            node_count: lap.ncols(),
            factor_nnz,
            inverse_nnz: inverse.nnz(),
            inverse_nnz_ratio: inverse.nnz_ratio(),
            max_depth: depth.max_depth(),
            ichol_dropped,
            pruned_entries: inverse.stats().pruned_entries,
        };
        Ok(EffectiveResistanceEstimator::from_parts(
            inverse,
            permutation,
            stats,
        )?)
    })?;
    let r = &mut ctx.report;
    r.set("sparse.order_s", tracer.total("sparse.order"));
    r.set("sparse.ichol_s", tracer.total("sparse.ichol"));
    r.set("core.inverse_build_s", tracer.total("core.inverse_build"));
    Ok(estimator)
}

/// The layer split of the traced run: one more sweep through the engine,
/// the same sorted pairs straight through the `column_store` kernel, and
/// the checked lookups through `QueryEngine::query` alone.
fn traced_replay(
    ctx: &mut Ctx,
    engine: &QueryEngine,
    edges: &[(usize, usize)],
    lookups: &[usize],
    setup_wall: f64,
) -> Res<()> {
    let tracer = &ctx.tracer;
    let batch = QueryBatch::from_pairs(edges.to_vec());
    let engine_sweep = tracer.span("service.replay", 0, 0, |_| -> Res<f64> {
        let start = Instant::now();
        engine.execute(&batch)?;
        Ok(start.elapsed().as_secs_f64())
    })?;

    let estimator = engine.backend();
    let permutation = estimator.permutation();
    let mut sorted: Vec<(usize, usize)> = edges
        .iter()
        .map(|&(p, q)| (permutation.new(p), permutation.new(q)))
        .collect();
    sorted.sort_unstable_by_key(|&(p, q)| (p.min(q), p.max(q)));
    let norms = estimator.column_norms_shared();
    let store = estimator.approximate_inverse();
    let threads = crate::hw::hardware_threads()
        .min(sorted.len().div_ceil(256))
        .max(1);
    let chunk = sorted.len().div_ceil(threads);
    let (kernel_s, kernel) = tracer.span("core.kernel", 0, 0, |_| -> Res<(f64, KernelStats)> {
        let start = Instant::now();
        let stats = std::thread::scope(|s| {
            let jobs: Vec<_> = sorted
                .chunks(chunk)
                .map(|pairs| {
                    let norms = &norms;
                    s.spawn(move || -> Res<KernelStats> {
                        let mut scratch = HubScratch::new(store.order());
                        column_distances_squared_grouped(store, pairs, Some(norms), &mut scratch)?;
                        Ok(scratch.stats())
                    })
                })
                .collect();
            let mut total = KernelStats::default();
            for job in jobs {
                total.merge(job.join().expect("kernel thread panicked")?);
            }
            Ok::<_, Box<dyn std::error::Error + Send + Sync>>(total)
        })?;
        Ok((start.elapsed().as_secs_f64(), stats))
    })?;

    let mut query_us = Vec::new();
    for (i, &k) in lookups.iter().enumerate() {
        let (p, q) = edges[k];
        let start = Instant::now();
        tracer.span("service.query_replay", 0, i as u64, |_| engine.query(p, q))?;
        query_us.push(micros(start.elapsed()));
    }

    let triad = ctx.report.get("bench.triad_gbps").unwrap_or(f64::NAN);
    let gbps = kernel.bytes_streamed as f64 / kernel_s / 1e9;
    let r = &mut ctx.report;
    r.set("core.kernel_s", kernel_s);
    r.set("core.kernel_gbps", gbps);
    r.set("core.kernel_ceiling_ratio", gbps / triad);
    r.set("service.query_us", median(&query_us));

    // The traced path is the set-up plus one engine sweep. Inside the
    // sweep, the kernel replay is core's share and the rest is service's.
    let sparse: f64 = [
        "sparse.laplacian",
        "sparse.order",
        "sparse.permute",
        "sparse.ichol",
    ]
    .iter()
    .map(|name| tracer.total(name))
    .sum();
    let core_build = tracer.total("core.depth") + tracer.total("core.inverse_build");
    let self_times = [
        ("bench", setup_wall - sparse - core_build),
        ("sparse", sparse),
        ("core", core_build + kernel_s),
        ("service", engine_sweep - kernel_s),
    ];
    ctx.finish_trace("edges-pgmesh", &self_times, setup_wall + engine_sweep)
}
