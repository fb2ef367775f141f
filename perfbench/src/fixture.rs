//! Untimed fixtures: the served snapshot, the exact-resistance oracle
//! answers and the power-grid netlist, built once per checkout by a child
//! process and cached under `.perfbench/`.
//!
//! A child process keeps the fixture's memory out of the measuring
//! process, so `peak_rss_mib` never sees it. Every file is written under a
//! temporary name and renamed into place, so an interrupted build leaves no
//! half-written fixture behind.

use crate::gen::{shuffled, PairGen, Rng, Zipf};
use crate::Res;
use effres::{EffectiveResistanceEstimator, EffresConfig, ExactEffectiveResistance};
use effres_graph::generators::{grid_2d, power_grid_mesh, PowerGridMeshOptions};
use effres_graph::Graph;
use effres_powergrid::generator::{synthetic_grid, write_netlist, SyntheticGridOptions};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where fixtures live, relative to the directory the benchmark runs in.
pub const DATA_DIR: &str = ".perfbench";

/// Seed of the fixed accuracy samples: the same pairs on every run, so the
/// accuracy metrics repeat exactly and the oracle answers can be cached.
pub const ORACLE_SEED: u64 = 0xACC0;

/// Pairs per accuracy sample.
pub const ORACLE_PAIRS: usize = 256;

/// Zipf exponent of the skewed workload.
pub const ZIPF_EXPONENT: f64 = 1.0;

/// The `edges-pgmesh` graph: a two-layer power-grid mesh of 95,625 nodes.
pub fn pgmesh_graph() -> Res<Graph> {
    Ok(power_grid_mesh(PowerGridMeshOptions {
        rows: 300,
        cols: 300,
        ..PowerGridMeshOptions::default()
    })?)
}

/// The served graph: a 192 x 192 weighted grid of 36,864 nodes. Its
/// snapshot (417 MB) is larger than a 300 MiB last-level cache, yet the
/// fixture build stays near 1 GiB of memory and the files under 0.5 GB.
pub fn grid_graph() -> Res<Graph> {
    Ok(grid_2d(192, 192, 0.5, 2.0, 1)?)
}

/// Exact resistances of a fixed pair sample.
pub type Oracle = Vec<((usize, usize), f64)>;

/// Paths of the served-snapshot fixture.
#[derive(Debug, Clone)]
pub struct GridFixture {
    /// The v3 snapshot built with `EffresConfig::default()`.
    pub snapshot: PathBuf,
    /// A second name for the same bytes, the target of the mid-run reload.
    pub reload_copy: PathBuf,
    /// Exact answers for the uniform accuracy sample.
    pub uniform: Oracle,
    /// Exact answers for the Zipf accuracy sample.
    pub zipf: Oracle,
}

/// The `edges-pgmesh` oracle: exact resistances of a fixed edge sample.
pub fn pgmesh_oracle(data: &Path) -> Res<Oracle> {
    let path = data.join("pgmesh-v1.oracle");
    ensure(&[&path], "pgmesh")?;
    read_oracle(&path)
}

/// The served-grid fixture, built on first use.
pub fn grid_fixture(data: &Path) -> Res<GridFixture> {
    let fixture = GridFixture {
        snapshot: data.join("grid192-v1.snap"),
        reload_copy: data.join("grid192-v1-reload.snap"),
        uniform: Vec::new(),
        zipf: Vec::new(),
    };
    let uniform = data.join("grid192-v1-uniform.oracle");
    let zipf = data.join("grid192-v1-zipf.oracle");
    ensure(
        &[&fixture.snapshot, &fixture.reload_copy, &uniform, &zipf],
        "grid192",
    )?;
    Ok(GridFixture {
        uniform: read_oracle(&uniform)?,
        zipf: read_oracle(&zipf)?,
        ..fixture
    })
}

/// The `pg-reduce` input: the netlist text of a synthetic ~100k-node power
/// grid (a 327 x 327 mesh). The grid is the same for every seed: where
/// pads and loads sit moves the port error by 2x between generator seeds.
pub fn pg_netlist(data: &Path) -> Res<String> {
    let path = data.join("pg107k-v1.net");
    ensure(&[&path], "pgnetlist")?;
    Ok(std::fs::read_to_string(path)?)
}

/// The fixed accuracy sample of uniform pairs over `n` nodes.
pub fn uniform_sample(n: usize) -> Vec<(usize, usize)> {
    PairGen::Uniform(n).pairs(ORACLE_PAIRS, &mut Rng::new(ORACLE_SEED))
}

/// The fixed accuracy sample of Zipf pairs over `n` nodes.
pub fn zipf_sample(n: usize) -> Vec<(usize, usize)> {
    PairGen::Zipf(Zipf::new(n, ZIPF_EXPONENT, ORACLE_SEED))
        .pairs(ORACLE_PAIRS, &mut Rng::stream(ORACLE_SEED, 1))
}

/// The fixed accuracy sample of edges of `graph`.
pub fn edge_sample(graph: &Graph) -> Vec<(usize, usize)> {
    let edges: Vec<(usize, usize)> = graph.edges().map(|(_, e)| (e.u, e.v)).collect();
    shuffled(edges.len(), &mut Rng::new(ORACLE_SEED))
        .into_iter()
        .take(ORACLE_PAIRS)
        .map(|i| edges[i])
        .collect()
}

/// Builds fixture `name` in a child process unless every file in `files`
/// is already there.
fn ensure(files: &[&Path], name: &str) -> Res<()> {
    if files.iter().all(|f| f.exists()) {
        return Ok(());
    }
    let exe = std::env::current_exe()?;
    eprintln!("perfbench: building fixture {name} (untimed, once per checkout)");
    let status = Command::new(exe).args(["--fixture", name]).status()?;
    if !status.success() {
        return Err(format!("fixture {name} failed: {status}").into());
    }
    match files.iter().find(|f| !f.exists()) {
        Some(missing) => {
            Err(format!("fixture {name} did not produce {}", missing.display()).into())
        }
        None => Ok(()),
    }
}

/// Builds fixture `name` in this process (the child side of [`ensure`]).
pub fn build(data: &Path, name: &str) -> Res<()> {
    std::fs::create_dir_all(data)?;
    match name {
        "pgmesh" => {
            let graph = pgmesh_graph()?;
            let sample = edge_sample(&graph);
            write_oracle(&data.join("pgmesh-v1.oracle"), &exact(&graph, &sample)?)
        }
        "grid192" => {
            let graph = grid_graph()?;
            let snapshot = data.join("grid192-v1.snap");
            let estimator = EffectiveResistanceEstimator::build(&graph, &EffresConfig::default())?;
            effres_io::save_snapshot(&snapshot, &estimator, None)?;
            drop(estimator);
            // A hard link keeps a second copy of the file off the disk; a
            // file system without links gets a real copy.
            let copy = data.join("grid192-v1-reload.snap");
            let staged = copy.with_extension("tmp");
            let _ = std::fs::remove_file(&staged);
            if std::fs::hard_link(&snapshot, &staged).is_err() {
                std::fs::copy(&snapshot, &staged)?;
            }
            std::fs::rename(&staged, &copy)?;
            let n = graph.node_count();
            let oracle = ExactEffectiveResistance::build(&graph, 1.0)?;
            for (file, sample) in [("uniform", uniform_sample(n)), ("zipf", zipf_sample(n))] {
                let values = oracle.query_many(&sample)?;
                let answers: Oracle = sample.into_iter().zip(values).collect();
                write_oracle(&data.join(format!("grid192-v1-{file}.oracle")), &answers)?;
            }
            Ok(())
        }
        "pgnetlist" => {
            let options = SyntheticGridOptions::with_target_nodes(100_000);
            let path = data.join("pg107k-v1.net");
            let staged = path.with_extension("tmp");
            std::fs::write(&staged, write_netlist(&synthetic_grid(&options)?))?;
            std::fs::rename(&staged, &path)?;
            Ok(())
        }
        other => Err(format!("unknown fixture {other}").into()),
    }
}

/// Exact resistances through `ExactEffectiveResistance` (full Cholesky,
/// minimum-degree ordering, ground conductance 1 as the estimators use).
fn exact(graph: &Graph, sample: &[(usize, usize)]) -> Res<Oracle> {
    let oracle = ExactEffectiveResistance::build(graph, 1.0)?;
    let values = oracle.query_many(sample)?;
    Ok(sample.iter().copied().zip(values).collect())
}

fn write_oracle(path: &Path, answers: &Oracle) -> Res<()> {
    let mut text = String::new();
    for &((p, q), value) in answers {
        writeln!(text, "{p} {q} {:016x}", value.to_bits()).expect("write to string");
    }
    let staged = path.with_extension("tmp");
    std::fs::write(&staged, text)?;
    std::fs::rename(&staged, path)?;
    Ok(())
}

fn read_oracle(path: &Path) -> Res<Oracle> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                [p, q, bits] => Ok((
                    (p.parse()?, q.parse()?),
                    f64::from_bits(u64::from_str_radix(bits, 16)?),
                )),
                _ => Err(format!("malformed oracle line in {}: {line}", path.display()).into()),
            }
        })
        .collect()
}
