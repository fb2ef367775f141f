//! End-to-end and per-layer benchmark of the effres workspace.
//!
//! Four workloads drive the repository's crates from outside, through
//! their public functions and the TCP client: `edges-pgmesh` (build plus an
//! all-edges sweep), `resident-uniform` and `paged-zipf` (a served snapshot
//! under lookups and bulk batches) and `pg-reduce` (power-grid reduction).
//! See `README.md` next to this crate for the metrics and how to run it.

pub mod drive;
pub mod edges;
pub mod fixture;
pub mod gen;
pub mod hw;
pub mod metrics;
pub mod reduce;
pub mod serve;
pub mod stats;
pub mod trace;

use drive::Sent;
use metrics::{Report, LAYERS};
use stats::{median, LatencySummary};
use std::path::PathBuf;
use trace::Tracer;

/// Error type of the benchmark: anything, including a failed gate.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// STREAM triad arrays total four times a 300 MiB last-level cache.
pub const TRIAD_BYTES: usize = 1200 << 20;

/// State of one benchmark run.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Length of the measured phase (`--seconds`).
    pub seconds: f64,
    /// Span recorder, enabled for a traced run (`--trace 1`).
    pub tracer: Tracer,
    /// What the run measured.
    pub report: Report,
    /// Fixture and trace directory.
    pub data: PathBuf,
}

impl Ctx {
    /// A run context.
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Ctx {
        Ctx {
            seed,
            seconds,
            tracer: Tracer::new(traced),
            report: Report::default(),
            data: PathBuf::from(fixture::DATA_DIR),
        }
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Records the repeated set-up times: their median is `setup_s`.
    pub fn report_setup(&mut self, times: &[f64]) {
        self.report.set("setup_s", median(times));
        self.report.set("bench.setup_reps", times.len() as f64);
    }

    /// Records an open-loop lookup stream: median and tail latency from due
    /// time, failures, and how late the generator ran.
    pub fn report_lookups(&mut self, sent: &[Sent]) -> Res<()> {
        let latencies: Vec<Option<f64>> = sent.iter().map(|s| s.latency_us).collect();
        let summary = LatencySummary::from_latencies(&latencies).ok_or("no lookup was sent")?;
        let lags: Vec<f64> = sent.iter().map(|s| s.lag_us).collect();
        let r = &mut self.report;
        r.set("lookup_p50_us", summary.p50_us);
        r.set("lookup_p99_us", summary.tail.value);
        r.set("bench.lookup_samples", summary.tail.samples as f64);
        r.set("bench.lookup_tail_quantile", summary.tail.quantile);
        r.set("bench.generator_lag_us", median(&lags));
        r.note(format!(
            "lookup_p99_us is the p{:.2} of {} requests ({} failed or refused)",
            100.0 * summary.tail.quantile,
            summary.tail.samples,
            summary.failed
        ));
        r.attempted += sent.len() as u64;
        r.failed += summary.failed as u64;
        Ok(())
    }

    /// Records `rel_err_mean` and `rel_err_max` of `approx` against the
    /// exact answers (Table I's relative error).
    pub fn report_accuracy(&mut self, approx: &[f64], exact: &[f64]) {
        let (mean, max) = effres::stats::relative_errors(approx, exact);
        self.report.set("rel_err_mean", mean);
        self.report.set("rel_err_max", max);
        self.report.set("bench.oracle_pairs", exact.len() as f64);
    }

    /// Measures the memory-bandwidth ceiling and records the machine's
    /// shape (traced runs only, before any set-up so the arrays never
    /// share memory with the served data).
    pub fn measure_ceilings(&mut self) {
        let triad = hw::triad(TRIAD_BYTES, 3);
        let llc_mib = hw::llc_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0));
        let threads = hw::hardware_threads();
        let r = &mut self.report;
        r.set("bench.triad_gbps", triad.gbps);
        r.set("bench.triad_arrays_mib", triad.arrays_mib);
        r.set("bench.llc_mib", llc_mib);
        r.set("bench.hardware_threads", threads as f64);
        r.note(format!(
            "STREAM triad: {:.2} GB/s over {:.0} MiB of arrays; last-level cache {llc_mib:.0} MiB; \
             available_parallelism {threads}",
            triad.gbps, triad.arrays_mib
        ));
    }

    /// Finishes a traced run: records each layer's self time over the traced
    /// wall time, names the bottleneck layer, reports the tracing overhead
    /// and writes the spans under the data directory.
    pub fn finish_trace(
        &mut self,
        workload: &str,
        self_times: &[(&str, f64)],
        wall: f64,
    ) -> Res<()> {
        let r = &mut self.report;
        let mut sum = 0.0;
        for layer in LAYERS {
            let seconds = self_times
                .iter()
                .filter(|(l, _)| *l == layer)
                .fold(0.0, |sum, (_, s)| sum + s);
            sum += seconds;
            r.set(self_metric(layer), seconds);
        }
        let (bottleneck, seconds) =
            self_times.iter().copied().fold(
                ("none", 0.0),
                |best, cur| if cur.1 > best.1 { cur } else { best },
            );
        r.set("trace.wall_s", wall);
        r.set("trace.self_sum_ratio", sum / wall);
        r.set("trace.bottleneck_share", seconds / wall);
        let overhead = trace::span_cost_seconds() * self.tracer.len() as f64 / wall;
        r.set("bench.tracing_overhead_frac", overhead);
        r.note(format!(
            "bottleneck layer of {workload}: {bottleneck} ({:.1}% of {wall:.3} s traced wall)",
            100.0 * seconds / wall
        ));
        for (layer, seconds) in self_times {
            if *seconds < 0.0 {
                r.note(format!(
                    "open anomaly: {layer} self time is negative ({seconds:.6} s)"
                ));
            }
        }
        std::fs::create_dir_all(&self.data)?;
        let path = self
            .data
            .join(format!("trace-{workload}-{}.json", self.seed));
        std::fs::write(&path, self.tracer.to_json())?;
        r.note(format!(
            "{} spans written to {}",
            self.tracer.len(),
            path.display()
        ));
        Ok(())
    }
}

fn self_metric(layer: &str) -> &'static str {
    match layer {
        "bench" => "trace.bench_self_s",
        "sparse" => "trace.sparse_self_s",
        "core" => "trace.core_self_s",
        "io" => "trace.io_self_s",
        "service" => "trace.service_self_s",
        "server" => "trace.server_self_s",
        "powergrid" => "trace.powergrid_self_s",
        other => panic!("unknown layer {other}"),
    }
}

/// Fails the run with `what` unless `ok`: a failed correctness gate ends the
/// run without a result.
pub fn gate(ok: bool, what: impl FnOnce() -> String) -> Res<()> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness gate failed: {}", what()).into())
    }
}

/// Fails the run unless `got` and `want` are bit-identical.
pub fn gate_bits(got: &[f64], want: &[f64], what: &str) -> Res<()> {
    gate(got.len() == want.len(), || {
        format!("{what}: {} answers for {} pairs", got.len(), want.len())
    })?;
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        Some(i) => Err(format!(
            "correctness gate failed: {what}: answer {i} is {} but the direct resident engine says {}",
            got[i], want[i]
        )
        .into()),
        None => Ok(()),
    }
}
