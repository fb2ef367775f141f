//! `pg-reduce`: the paper's Alg. 1 power-grid reduction with default
//! `ReductionOptions` on a ~100k-node synthetic grid, repeated to fill the
//! run.
//!
//! The workload's one request kind is a whole reduction, sent closed-loop,
//! so its throughput (`queries_per_s`) is reductions per second. Its
//! answers are the reduced model's port voltages, checked against a DC
//! solve of the full grid: `rel_err_mean` and `rel_err_max` are the mean
//! and largest port-voltage error relative to the largest IR drop.

use crate::hw::peak_rss_mib;
use crate::stats::median;
use crate::{fixture, gate, Ctx, Res};
use effres_powergrid::analysis::stamp;
use effres_powergrid::parser::parse_netlist;
use effres_powergrid::reduce::{compare_port_voltages, reduce, GridPartition, ReductionOptions};
use effres_powergrid::PowerGrid;
use effres_sparse::cg::{pcg, CgOptions};
use effres_sparse::ichol::{IcholOptions, IncompleteCholesky};
use std::time::{Duration, Instant};

/// Netlist parses before each reduction; `setup_s` is the median of all
/// of them. Spread between the reductions, the parses meet the same host
/// as the reductions do, over the whole run: the 2-core VM's speed swings
/// by half for seconds at a time, and parses bunched at the start of a run
/// would often fall into one such swing.
const PARSES_PER_REDUCTION: usize = 5;

/// Reductions per run at the least, however short `--seconds` is: the
/// repeatability gate needs two.
const MIN_REDUCTIONS: usize = 2;

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Res<()> {
    // Inputs: the grid's netlist text (the same for every seed).
    let netlist = fixture::pg_netlist(&ctx.data)?;
    let reduction = ReductionOptions::default();
    let tracer = &ctx.tracer;
    let start = Instant::now();
    let mut parses = Vec::new();
    let mut runs = Vec::new();
    let mut grid = None;
    let mut reduced = None;
    // Reductions fill `--seconds`; the parses come on top.
    let mut reducing = Duration::ZERO;
    while runs.len() < MIN_REDUCTIONS || reducing.as_secs_f64() < ctx.seconds {
        for _ in 0..PARSES_PER_REDUCTION {
            drop(grid.take());
            let begin = Instant::now();
            grid = Some(tracer.span("powergrid.parse", 0, parses.len() as u64, |_| {
                parse_netlist(&netlist)
            })?);
            parses.push(begin.elapsed().as_secs_f64());
        }
        let grid = grid.as_ref().expect("parsed above");
        drop(reduced.take());
        let begin = Instant::now();
        let result = tracer.span("powergrid.reduce", 0, runs.len() as u64, |_| {
            reduce(grid, &reduction)
        })?;
        let took = begin.elapsed();
        reducing += took;
        runs.push((took, result.stats));
        reduced = Some(result);
    }
    if !ctx.traced() {
        ctx.report_setup(&parses);
    }
    let wall = start.elapsed().as_secs_f64();
    // A reduction's memory comes in short spikes a sampler would miss, so
    // the peak is the kernel's high-water mark: nothing before this point
    // but reading and parsing the netlist and reducing it ran in this
    // process (and in a traced run, the STREAM arrays after it).
    let peak = peak_rss_mib();
    let grid = grid.expect("at least one parse");
    let reduced = reduced.expect("at least one reduction");
    // Untimed DC reference of the full grid.
    let reference = dc_voltages(&grid)?;
    if ctx.traced() {
        ctx.measure_ceilings();
    }

    let first = runs[0].1;
    for (i, (_, stats)) in runs.iter().enumerate() {
        gate(
            (stats.reduced_nodes, stats.reduced_resistors)
                == (first.reduced_nodes, first.reduced_resistors),
            || {
                format!(
                    "reduction {i} gave {} nodes and {} resistors, the first gave {} and {}",
                    stats.reduced_nodes,
                    stats.reduced_resistors,
                    first.reduced_nodes,
                    first.reduced_resistors
                )
            },
        )?;
    }

    // Port voltages of the reduced model against the full model, relative
    // to the full model's largest IR drop (Table II's normalization).
    let voltages = dc_voltages(&reduced.grid)?;
    let (_, port_err) = compare_port_voltages(&grid, &reference, &reduced, &voltages);
    let supply = grid.supply_voltage();
    let max_drop = reference
        .iter()
        .fold(0.0_f64, |m, &v| m.max(supply - v))
        .max(f64::MIN_POSITIVE);
    let port_err_max = grid
        .port_nodes()
        .iter()
        .filter_map(|&port| {
            reduced.node_map[port].map(|r| (reference[port] - voltages[r]).abs() / max_drop)
        })
        .fold(0.0_f64, f64::max);

    let seconds: Vec<f64> = runs.iter().map(|(t, _)| t.as_secs_f64()).collect();
    let er: Vec<f64> = runs.iter().map(|(_, s)| s.er_time.as_secs_f64()).collect();
    let schur: Vec<f64> = runs
        .iter()
        .map(|(_, s)| s.schur_time.as_secs_f64())
        .collect();
    let r = &mut ctx.report;
    r.set("queries_per_s", 1.0 / median(&seconds));
    r.set("rel_err_mean", port_err);
    r.set("rel_err_max", port_err_max);
    r.set("peak_rss_mib", peak);
    r.set("reduce_s", median(&seconds));
    r.set("port_err_pct", 100.0 * port_err);
    r.set("powergrid.er_s", median(&er));
    r.set("powergrid.schur_s", median(&schur));
    r.set("powergrid.blocks", first.blocks as f64);
    r.set("powergrid.reduced_nodes", first.reduced_nodes as f64);
    r.set(
        "powergrid.reduced_resistors",
        first.reduced_resistors as f64,
    );
    r.set("bench.bulk_requests", runs.len() as f64);
    r.note(format!(
        "{} -> {} nodes, {} -> {} resistors in {} blocks",
        first.original_nodes,
        first.reduced_nodes,
        first.original_resistors,
        first.reduced_resistors,
        first.blocks
    ));
    r.attempted += runs.len() as u64;
    r.set("failed_frac", 0.0);

    if ctx.traced() {
        let partition_s = ctx.tracer.span("powergrid.partition", 0, 0, |_| {
            let begin = Instant::now();
            GridPartition::build(&grid, &reduction).map(|_| begin.elapsed().as_secs_f64())
        })?;
        ctx.report.set("powergrid.partition_s", partition_s);
        // Inside a reduction the effective-resistance step (Alg. 3 on each
        // block) is core's share; partition, Schur and sparsify are the
        // power-grid layer's.
        let reducing = ctx.tracer.total("powergrid.reduce");
        let parsing = ctx.tracer.total("powergrid.parse");
        let er_total: f64 = er.iter().sum();
        let self_times = [
            ("bench", wall - reducing - parsing),
            ("core", er_total),
            ("powergrid", reducing + parsing - er_total),
        ];
        ctx.finish_trace("pg-reduce", &self_times, wall)?;
    }
    Ok(())
}

/// DC node voltages by preconditioned conjugate gradients on the stamped
/// conductance matrix (relative residual 1e-12). A direct solve orders the
/// 100k-node system with minimum degree, which alone takes longer than the
/// run; PCG gives the same reference in under a second.
fn dc_voltages(grid: &PowerGrid) -> Res<Vec<f64>> {
    let system = stamp(grid);
    let preconditioner = IncompleteCholesky::factor(
        &system.matrix,
        IcholOptions {
            drop_tolerance: 1e-4,
            ..IcholOptions::default()
        },
    )?;
    let solution = pcg(
        &system.matrix,
        &system.rhs,
        &preconditioner,
        CgOptions {
            tolerance: 1e-12,
            max_iterations: 20_000,
        },
    )?;
    Ok(solution.x)
}
