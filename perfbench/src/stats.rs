//! Order statistics for timings: medians and the honest tail percentile.

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// A tail percentile together with what supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile actually reported, in `(0, 1]`.
    pub quantile: f64,
    /// The sample at that quantile (nearest rank).
    pub value: f64,
    /// How many samples the quantile was taken over.
    pub samples: usize,
}

/// The highest percentile, capped at `target`, that still has at least ten
/// samples beyond it (nearest-rank definition), plus the sample count.
///
/// With ten samples or fewer no percentile has ten samples beyond it; the
/// maximum is then the only honest tail and is reported with quantile 1.
/// Returns `None` for an empty slice.
pub fn tail(values: &[f64], target: f64) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = if n <= 10 {
        n
    } else {
        // Nearest rank of `target`, kept at most n - 10 so ten samples
        // remain beyond it. The epsilon keeps 0.99 * 1000 at rank 990.
        let wanted = ((target * n as f64) - 1e-9).ceil().max(1.0) as usize;
        wanted.min(n - 10)
    };
    Some(Tail {
        quantile: rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Latency figures of one request stream, failures included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median latency in microseconds.
    pub p50_us: f64,
    /// The tail percentile (target p99) in microseconds.
    pub tail: Tail,
    /// Requests that failed or were refused.
    pub failed: usize,
}

impl LatencySummary {
    /// Summarizes per-request latencies in microseconds, where `None` marks
    /// a failed or refused request. Failures count as infinitely slow, so
    /// they miss every latency limit and push the percentiles up.
    pub fn from_latencies(latencies_us: &[Option<f64>]) -> Option<LatencySummary> {
        let values: Vec<f64> = latencies_us
            .iter()
            .map(|l| l.unwrap_or(f64::INFINITY))
            .collect();
        Some(LatencySummary {
            p50_us: median(&values),
            tail: tail(&values, 0.99)?,
            failed: latencies_us.iter().filter(|l| l.is_none()).count(),
        })
    }

    /// Fraction of requests slower than `limit_us` (failures always are).
    pub fn over_limit(latencies_us: &[Option<f64>], limit_us: f64) -> f64 {
        if latencies_us.is_empty() {
            return 0.0;
        }
        let over = latencies_us
            .iter()
            .filter(|l| l.is_none_or(|v| v > limit_us))
            .count();
        over as f64 / latencies_us.len() as f64
    }
}
