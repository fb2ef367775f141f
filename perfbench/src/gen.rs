//! Deterministic workload generation: a seeded generator, uniform pairs and
//! Zipf-skewed pairs over a seeded node permutation.
//!
//! Everything here is a pure function of the seed, so the same `--seed`
//! always produces the same request stream.

/// SplitMix64: small, fast and good enough for load generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent generator for stream `stream` of `seed` (one per
    /// client thread or purpose, so streams never share draws).
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut base = Rng::new(seed);
        for _ in 0..=stream {
            base.next_u64();
        }
        Rng::new(base.next_u64() ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A uniformly random pair of distinct nodes of `0..n` (`n >= 2`).
pub fn uniform_pair(n: usize, rng: &mut Rng) -> (usize, usize) {
    loop {
        let (p, q) = (rng.below(n), rng.below(n));
        if p != q {
            return (p, q);
        }
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut nodes: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        nodes.swap(i, rng.below(i + 1));
    }
    nodes
}

/// Zipf-distributed nodes: rank `k` (1-based) is drawn with probability
/// proportional to `k^-exponent`, and ranks map to nodes through a seeded
/// permutation so the popular nodes are scattered over the id space (and
/// over the snapshot's pages) instead of clustered at low ids.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    nodes: Vec<usize>,
}

impl Zipf {
    /// The distribution over `0..n` with the given exponent; `seed` fixes
    /// the rank-to-node permutation.
    pub fn new(n: usize, exponent: f64, seed: u64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += (k as f64).powf(-exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf {
            cdf,
            nodes: shuffled(n, &mut Rng::stream(seed, 0x5A)),
        }
    }

    /// The node of rank `rank` (0-based: rank 0 is the most popular).
    pub fn node_of_rank(&self, rank: usize) -> usize {
        self.nodes[rank]
    }

    /// One node draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.nodes[rank]
    }

    /// A pair of distinct nodes, both endpoints Zipf-distributed.
    pub fn pair(&self, rng: &mut Rng) -> (usize, usize) {
        loop {
            let (p, q) = (self.sample(rng), self.sample(rng));
            if p != q {
                return (p, q);
            }
        }
    }
}

/// The pair distribution of a workload's requests.
#[derive(Debug, Clone)]
pub enum PairGen {
    /// Uniform over distinct node pairs.
    Uniform(usize),
    /// Both endpoints Zipf-distributed.
    Zipf(Zipf),
}

impl PairGen {
    /// One pair.
    pub fn pair(&self, rng: &mut Rng) -> (usize, usize) {
        match self {
            PairGen::Uniform(n) => uniform_pair(*n, rng),
            PairGen::Zipf(zipf) => zipf.pair(rng),
        }
    }

    /// `count` pairs.
    pub fn pairs(&self, count: usize, rng: &mut Rng) -> Vec<(usize, usize)> {
        (0..count).map(|_| self.pair(rng)).collect()
    }
}
