//! Pins the minimum-degree permutation on the benchmark's graph families.
//!
//! `amd::amd` promises exact minimum degree on the quotient graph with ties
//! broken by the lowest index. Every factor, inverse, snapshot and served
//! answer downstream is a function of that permutation, so any rewrite of
//! the ordering must reproduce it bit for bit. The hashes below were
//! recorded from the original elimination loop (the one kept as the test
//! reference inside `amd.rs`).
//!
//! The benchmark-size cases are `#[ignore]`d because they take seconds in a
//! debug build; run them with
//! `cargo test --release --test ordering_pin -- --include-ignored`.

use effres_graph::generators::{grid_2d, power_grid_mesh, PowerGridMeshOptions};
use effres_graph::laplacian::grounded_laplacian;
use effres_graph::Graph;
use effres_sparse::amd;

/// FNV-1a-64 over `perm.old(0..n)`, each index XORed in as one `u64`.
fn ordering_hash(graph: &Graph) -> u64 {
    let lap = grounded_laplacian(graph, 1.0);
    let perm = amd::amd(&lap).expect("square Laplacian");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..perm.len() {
        h ^= perm.old(i) as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn mesh(side: usize) -> Graph {
    power_grid_mesh(PowerGridMeshOptions {
        rows: side,
        cols: side,
        ..PowerGridMeshOptions::default()
    })
    .expect("valid mesh options")
}

#[test]
fn power_grid_mesh_60_ordering_is_pinned() {
    assert_eq!(
        format!("{:016x}", ordering_hash(&mesh(60))),
        "a073cf3495d83093"
    );
}

#[test]
fn grid_2d_48_ordering_is_pinned() {
    let g = grid_2d(48, 48, 0.5, 2.0, 1).expect("valid grid");
    assert_eq!(format!("{:016x}", ordering_hash(&g)), "b0eeb0dc5cb04fe3");
}

#[test]
#[ignore = "benchmark size; run in release with --include-ignored"]
fn power_grid_mesh_300_ordering_is_pinned() {
    assert_eq!(
        format!("{:016x}", ordering_hash(&mesh(300))),
        "c17c26516a06ce21"
    );
}

#[test]
#[ignore = "benchmark size; run in release with --include-ignored"]
fn grid_2d_192_ordering_is_pinned() {
    let g = grid_2d(192, 192, 0.5, 2.0, 1).expect("valid grid");
    assert_eq!(format!("{:016x}", ordering_hash(&g)), "a3dd981b3583d4ed");
}
