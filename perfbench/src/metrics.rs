//! Metric names, units and directions, and the report a run prints.
//!
//! `BENCHMARK.json` at the repository root lists the same workloads and
//! metrics; `tests/selftest.rs` fails when the two disagree.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction and (end-to-end only) the share of the
/// parent's median by which it may worsen before a change is a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound of an end-to-end metric.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The workloads, each with why it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "edges-pgmesh",
        "one large AMD factorization dominates setup and the hub-grouped kernel sweeps every edge; no disk, no wire",
    ),
    (
        "resident-uniform",
        "a 528 MiB resident arena, larger than the LLC; uniform pairs share nothing, so the pair cache only costs; wire and dispatch overhead",
    ),
    (
        "paged-zipf",
        "out-of-core serving with a small page cache under Zipf-skewed pairs and a mid-run hot reload: pread, decode, scheduler, pair-cache hits",
    ),
    (
        "pg-reduce",
        "the paper's Alg. 1 power-grid reduction: hundreds of small per-block builds plus partition, Schur and sparsify",
    ),
];

/// End-to-end metrics: every workload reports every one of them.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("rel_err_mean", "ratio", Lower, 0.05),
    e2e("rel_err_max", "ratio", Lower, 0.05),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
];

/// Per-layer metrics, reported by the traced run. A metric a workload does
/// not exercise reads 0. The first five are end-to-end figures that the
/// result line of an untraced run cannot carry: it holds only metrics that
/// every workload reports and that never read 0.
pub const PER_LAYER: [Metric; 63] = [
    layer("lookup_p50_us", "us", Lower),
    layer("lookup_p99_us", "us", Lower),
    layer("reduce_s", "s", Lower),
    layer("port_err_pct", "%", Lower),
    layer("failed_frac", "ratio", Lower),
    layer("sparse.order_s", "s", Lower),
    layer("sparse.ichol_s", "s", Lower),
    layer("sparse.factor_nnz", "count", Lower),
    layer("core.inverse_build_s", "s", Lower),
    layer("core.inverse_nnz", "count", Lower),
    layer("core.arena_mib", "MiB", Lower),
    layer("core.kernel_s", "s", Lower),
    layer("core.bytes_per_query", "B", Lower),
    layer("core.hub_pairs_per_load", "ratio", Higher),
    layer("core.kernel_gbps", "GB/s", Higher),
    layer("core.kernel_ceiling_ratio", "ratio", Higher),
    layer("io.load_s", "s", Lower),
    layer("io.open_s", "s", Lower),
    layer("io.reload_s", "s", Lower),
    layer("io.snapshot_mib", "MiB", Lower),
    layer("io.page_hit_ratio", "ratio", Higher),
    layer("io.bytes_read_per_query", "B", Lower),
    layer("io.readahead_reads", "count", Lower),
    layer("io.read_gbps", "GB/s", Higher),
    layer("service.execute_qps", "1/s", Higher),
    layer("service.query_us", "us", Lower),
    layer("service.pair_cache_hit_ratio", "ratio", Higher),
    layer("service.sched_clusters", "count", Lower),
    layer("service.sched_blocks", "count", Lower),
    layer("service.sched_windows", "count", Lower),
    layer("service.admission_queued_frac", "ratio", Lower),
    layer("service.admission_shed", "count", Lower),
    layer("server.lookup_overhead_us", "us", Lower),
    layer("server.batch_overhead_frac", "ratio", Lower),
    layer("server.busy_replies", "count", Lower),
    layer("powergrid.partition_s", "s", Lower),
    layer("powergrid.schur_s", "s", Lower),
    layer("powergrid.er_s", "s", Lower),
    layer("powergrid.blocks", "count", Lower),
    layer("powergrid.reduced_nodes", "count", Lower),
    layer("powergrid.reduced_resistors", "count", Lower),
    layer("bench.triad_gbps", "GB/s", Higher),
    layer("bench.triad_arrays_mib", "MiB", Higher),
    layer("bench.llc_mib", "MiB", Higher),
    layer("bench.hardware_threads", "count", Higher),
    layer("bench.pread_gbps", "GB/s", Higher),
    layer("bench.generator_lag_us", "us", Lower),
    layer("bench.tracing_overhead_frac", "ratio", Lower),
    layer("bench.lookup_samples", "count", Higher),
    layer("bench.lookup_tail_quantile", "ratio", Higher),
    layer("trace.wall_s", "s", Lower),
    layer("trace.bench_self_s", "s", Lower),
    layer("trace.sparse_self_s", "s", Lower),
    layer("trace.core_self_s", "s", Lower),
    layer("trace.io_self_s", "s", Lower),
    layer("trace.service_self_s", "s", Lower),
    layer("trace.server_self_s", "s", Lower),
    layer("trace.powergrid_self_s", "s", Lower),
    layer("trace.bottleneck_share", "ratio", Lower),
    layer("trace.self_sum_ratio", "ratio", Higher),
    layer("bench.setup_reps", "count", Higher),
    layer("bench.oracle_pairs", "count", Higher),
    layer("bench.bulk_requests", "count", Higher),
];

/// The layers a traced run splits its wall time over, in report order.
pub const LAYERS: [&str; 7] = [
    "bench",
    "sparse",
    "core",
    "io",
    "service",
    "server",
    "powergrid",
];

fn spec(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Everything one run measured, plus the request counts the result line
/// carries.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(spec(name).is_some(), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// A recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Adds a line printed above the result (percentile support, the
    /// bottleneck layer, which metric was measured on what).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The human-readable part of the output: notes, then every recorded
    /// metric with its unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            writeln!(out, "# {note}").expect("write to string");
        }
        for (name, value) in &self.values {
            let unit = spec(name).map_or("", |m| m.unit);
            writeln!(out, "{name:<32} {value:>18.6} {unit}").expect("write to string");
        }
        out
    }

    /// The result line: end-to-end metrics for an untraced run, per-layer
    /// metrics for a traced one. Per-layer metrics the workload did not
    /// measure read 0.
    ///
    /// # Errors
    ///
    /// Names an end-to-end metric the run failed to record.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let metrics: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            let value = match self.values.get(m.name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {} was not measured", m.name)),
            };
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            )
            .expect("write to string");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// A JSON number. A failed request's latency is infinite (it missed every
/// limit); JSON has no infinity, so it prints as 1e300.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else if value > 0.0 {
        "1e300".to_string()
    } else {
        "0".to_string()
    }
}
