//! The paged column store against the resident arena, pinned on the
//! committed `v2_grid12.snap` and `v3_grid12.snap` fixtures (same estimator,
//! two on-disk encodings): every query answer must be **bit-identical**
//! between the backends for every page geometry and cache size (including a
//! one-page cache that evicts on every page switch), and hostile files —
//! including corrupt v3 varint and norms blocks — must produce typed errors
//! *before* corrupt data can serve a query.

use effres::column_store::{self, ColumnStore};
use effres::EffresError;
use effres_io::paged::{open_paged, PagedOptions, PagedSnapshot};
use effres_io::snapshot::load_snapshot;
use effres_io::{IoError, Snapshot};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The page geometries the property test sweeps: the default, a one-column /
/// one-page configuration (maximum eviction churn), an odd page size with a
/// tiny cache, and a page size larger than the whole fixture.
fn paged_configs() -> &'static [PagedOptions] {
    static CONFIGS: OnceLock<Vec<PagedOptions>> = OnceLock::new();
    CONFIGS.get_or_init(|| {
        vec![
            PagedOptions::default(),
            PagedOptions {
                columns_per_page: 1,
                cache_pages: 1,
                cache_shards: 1,
                ..PagedOptions::default()
            },
            PagedOptions {
                columns_per_page: 7,
                cache_pages: 2,
                cache_shards: 1,
                ..PagedOptions::default()
            },
            PagedOptions {
                columns_per_page: 1024,
                cache_pages: 4,
                cache_shards: 2,
                ..PagedOptions::default()
            },
        ]
    })
}

fn resident() -> &'static Snapshot {
    static RESIDENT: OnceLock<Snapshot> = OnceLock::new();
    RESIDENT.get_or_init(|| load_snapshot(fixture("v2_grid12.snap")).expect("v2 fixture loads"))
}

fn resident_norms() -> &'static [f64] {
    static NORMS: OnceLock<Vec<f64>> = OnceLock::new();
    NORMS.get_or_init(|| {
        resident()
            .estimator
            .approximate_inverse()
            .column_norms_squared()
    })
}

/// Every page geometry over every paged-capable fixture encoding: indices
/// `0..4` are the v2 file (raw rows, per-page norms), `4..8` the v3 file
/// (varint rows, persisted norms).
fn paged_stores() -> &'static [PagedSnapshot] {
    static STORES: OnceLock<Vec<PagedSnapshot>> = OnceLock::new();
    STORES.get_or_init(|| {
        ["v2_grid12.snap", "v3_grid12.snap"]
            .iter()
            .flat_map(|name| {
                paged_configs()
                    .iter()
                    .map(|options| open_paged(fixture(name), options).expect("fixture opens"))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Random pairs through the fill-reducing permutation, across every page
    /// geometry and both paged encodings (v2 raw, v3 varint): the paged
    /// store must reproduce the resident arena's distance, norm-table
    /// distance and per-column norms bit for bit.
    #[test]
    fn paged_queries_match_resident_bitwise(
        (p, q, which) in (0usize..144, 0usize..144, 0usize..8),
    ) {
        let snapshot = resident();
        let inverse = snapshot.estimator.approximate_inverse();
        let permutation = snapshot.estimator.permutation();
        let paged = &paged_stores()[which];
        prop_assert_eq!(ColumnStore::order(&paged.store), inverse.order());
        prop_assert_eq!(ColumnStore::nnz(&paged.store), inverse.nnz());

        let pp = permutation.new(p);
        let qq = permutation.new(q);
        // Full union-merge distance.
        let resident_distance = inverse.column_distance_squared(pp, qq);
        let paged_distance = column_store::column_distance_squared(&paged.store, pp, qq)
            .expect("healthy fixture");
        prop_assert_eq!(resident_distance.to_bits(), paged_distance.to_bits());
        // Norm-table distance (the engine's hot path): the resident side
        // uses the precomputed table, the paged side per-column norms off
        // the decoded pages.
        let paged_norms = (
            paged.store.column_norm_squared(pp).expect("healthy fixture"),
            paged.store.column_norm_squared(qq).expect("healthy fixture"),
        );
        prop_assert_eq!(resident_norms()[pp].to_bits(), paged_norms.0.to_bits());
        prop_assert_eq!(resident_norms()[qq].to_bits(), paged_norms.1.to_bits());
        let resident_fast =
            inverse.column_distance_squared_with_norms(pp, qq, resident_norms());
        let paged_fast = column_store::column_distance_squared_with_norms(
            &paged.store,
            pp,
            qq,
            resident_norms(),
        )
        .expect("healthy fixture");
        prop_assert_eq!(resident_fast.to_bits(), paged_fast.to_bits());
    }
}

#[test]
fn one_page_cache_evicts_on_every_page_switch_and_stays_bit_identical() {
    // The degenerate cache: one page of one column. Walking all columns
    // forward and backward forces an eviction on every access after the
    // first repeat; answers must not change.
    let snapshot = resident();
    let inverse = snapshot.estimator.approximate_inverse();
    let paged = open_paged(
        fixture("v2_grid12.snap"),
        &PagedOptions {
            columns_per_page: 1,
            cache_pages: 1,
            cache_shards: 1,
            ..PagedOptions::default()
        },
    )
    .expect("fixture opens");
    assert_eq!(paged.store.cache_capacity_pages(), 1);
    let forward: Vec<u64> = (0..inverse.order())
        .map(|j| paged.store.column_norm_squared(j).expect("fetch").to_bits())
        .collect();
    let backward: Vec<u64> = (0..inverse.order())
        .rev()
        .map(|j| paged.store.column_norm_squared(j).expect("fetch").to_bits())
        .collect();
    for j in 0..inverse.order() {
        let expected = inverse.column(j).norm2_squared().to_bits();
        assert_eq!(forward[j], expected, "forward col {j}");
        assert_eq!(
            backward[inverse.order() - 1 - j],
            expected,
            "backward col {j}"
        );
    }
    let stats = paged.store.page_cache_stats();
    // Two full sweeps over distinct single-column pages: every access but
    // the back-to-back repeat at the turnaround misses.
    assert_eq!(stats.hits + stats.misses, 2 * inverse.order() as u64);
    assert!(
        stats.misses >= 2 * inverse.order() as u64 - 1,
        "expected eviction churn, got {stats:?}"
    );
}

#[test]
fn paged_metadata_matches_the_resident_loader() {
    let snapshot = resident();
    let paged = open_paged(fixture("v2_grid12.snap"), &PagedOptions::default()).expect("opens");
    assert_eq!(paged.stats, snapshot.estimator.stats());
    assert_eq!(paged.labels, snapshot.labels);
    assert_eq!(
        paged.permutation.new_to_old(),
        snapshot.estimator.permutation().new_to_old()
    );
    assert_eq!(
        paged.epsilon,
        snapshot.estimator.approximate_inverse().epsilon()
    );
}

/// Byte offsets of the v2 layout for the 144-node labeled fixture, used to
/// craft hostile mutations at precise positions:
/// magic+version (12) | n,eps (16) | stats (48) | counters (16) | perm (4n)
/// | nnz (8) | col_ptr (8(n+1)) | rows (4·nnz) | vals (8·nnz) | labels | crc.
const N: usize = 144;
const COL_PTR_OFFSET: usize = 12 + 16 + 48 + 16 + 4 * N + 8;
const ROWS_OFFSET: usize = COL_PTR_OFFSET + 8 * (N + 1);

fn hostile_copy(mutate: impl FnOnce(&mut Vec<u8>)) -> PathBuf {
    let mut bytes = std::fs::read(fixture("v2_grid12.snap")).expect("fixture bytes");
    mutate(&mut bytes);
    let dir = std::env::temp_dir().join("effres-paged-hostile");
    std::fs::create_dir_all(&dir).expect("temp dir");
    // One file per test invocation is fine; tests overwrite their own name.
    let path = dir.join(format!("hostile_{}.snap", bytes.len()));
    std::fs::write(&path, bytes).expect("write hostile");
    path
}

#[test]
fn non_monotone_col_ptr_is_rejected_by_both_loaders_before_serving() {
    // Make col_ptr[1] larger than col_ptr[2]: the prefix sums go backwards.
    let path = hostile_copy(|bytes| {
        let at = COL_PTR_OFFSET + 8 * 2;
        let next = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let at1 = COL_PTR_OFFSET + 8;
        bytes[at1..at1 + 8].copy_from_slice(&(next + 1).to_le_bytes());
    });
    // The paged opener validates the whole col_ptr block up front...
    let err = open_paged(&path, &PagedOptions::default()).expect_err("must reject");
    assert!(err.to_string().contains("monotone"), "{err}");
    // ...and the resident loader rejects it while streaming, before the
    // rows/vals blocks are allocated.
    assert!(matches!(load_snapshot(&path), Err(IoError::Format(_))));
}

#[test]
fn out_of_range_row_is_a_typed_store_failure_at_page_decode() {
    // Corrupt the first row index to point past the 144-node order. The
    // paged opener cannot see it (rows stay on disk), but decoding the
    // page that contains it must fail with a typed error — never serve it.
    let path = hostile_copy(|bytes| {
        bytes[ROWS_OFFSET..ROWS_OFFSET + 4].copy_from_slice(&500u32.to_le_bytes());
    });
    let paged = open_paged(&path, &PagedOptions::default()).expect("open skips row blocks");
    let err = paged
        .store
        .with_column(0, |_| ())
        .expect_err("corrupt page must not serve");
    assert!(
        matches!(err, EffresError::StoreFailure { .. }),
        "unexpected error: {err}"
    );
    // The resident loader rejects the same bytes while streaming the rows.
    assert!(matches!(load_snapshot(&path), Err(IoError::Format(_))));
}

#[test]
fn col_ptr_past_the_declared_nnz_is_rejected() {
    // Push the last col_ptr entry past nnz: both the "exceeds" and the
    // "must end at nnz" guards protect the offset arithmetic the paged
    // reads rely on.
    let path = hostile_copy(|bytes| {
        let at = COL_PTR_OFFSET + 8 * N;
        let last = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        bytes[at..at + 8].copy_from_slice(&(last + 4).to_le_bytes());
    });
    assert!(matches!(
        open_paged(&path, &PagedOptions::default()),
        Err(IoError::Format(_))
    ));
    assert!(matches!(load_snapshot(&path), Err(IoError::Format(_))));
}

#[test]
fn truncated_column_data_is_rejected_at_open_not_at_query_time() {
    // Cut the file in the middle of the value block: the resident loader
    // hits EOF; the paged opener must notice via the layout-implied length
    // check at open — before a query could fail half-way through a batch.
    let path = {
        let bytes = std::fs::read(fixture("v2_grid12.snap")).expect("fixture bytes");
        let dir = std::env::temp_dir().join("effres-paged-hostile");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("truncated.snap");
        std::fs::write(&path, &bytes[..bytes.len() - 100]).expect("write");
        path
    };
    assert!(matches!(
        open_paged(&path, &PagedOptions::default()),
        Err(IoError::Format(_))
    ));
    assert!(load_snapshot(&path).is_err());
}

#[test]
fn zero_columns_per_page_is_rejected() {
    let options = PagedOptions::default().with_columns_per_page(0);
    assert!(matches!(
        open_paged(fixture("v2_grid12.snap"), &options),
        Err(IoError::Format(_))
    ));
}

/// Byte offsets of the v3 layout for the 144-node labeled fixture (the
/// fixture negotiates the varint codec):
/// magic+version (12) | n,eps (16) | stats (48) | counters (16) | perm (4n)
/// | nnz (8) | col_ptr (8(n+1)) | codec (1) | rows_bytes (8)
/// | row_off (8(n+1)) | varint rows | vals (8·nnz) | norms (8n)
/// | labels (1 + 8n) | crc (4).
const V3_CODEC_OFFSET: usize = COL_PTR_OFFSET + 8 * (N + 1);
const V3_ROW_OFF_OFFSET: usize = V3_CODEC_OFFSET + 1 + 8;
const V3_ROWS_OFFSET: usize = V3_ROW_OFF_OFFSET + 8 * (N + 1);
/// Offset of the norms block, counted from the END of the file (crc, then
/// the labeled fixture's label block, then norms).
const V3_NORMS_FROM_END: usize = 4 + (1 + 8 * N) + 8 * N;

fn hostile_v3_copy(name: &str, mutate: impl FnOnce(&mut Vec<u8>)) -> PathBuf {
    let mut bytes = std::fs::read(fixture("v3_grid12.snap")).expect("fixture bytes");
    assert_eq!(bytes[V3_CODEC_OFFSET], 1, "fixture uses the varint codec");
    mutate(&mut bytes);
    let dir = std::env::temp_dir().join("effres-paged-hostile");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("hostile_v3_{name}.snap"));
    std::fs::write(&path, bytes).expect("write hostile");
    path
}

#[test]
fn corrupt_varint_rows_are_a_typed_store_failure_at_page_decode() {
    // Zero the first column's varint bytes: the second entry decodes as a
    // zero gap — rows no longer strictly increasing. The paged opener
    // cannot see it (rows stay on disk), but the page must refuse to serve.
    let path = hostile_v3_copy("zero_gap", |bytes| {
        bytes[V3_ROWS_OFFSET] = 0;
        bytes[V3_ROWS_OFFSET + 1] = 0;
    });
    let paged = open_paged(&path, &PagedOptions::default()).expect("open skips row bytes");
    let err = paged
        .store
        .with_column(0, |_| ())
        .expect_err("corrupt varint must not serve");
    assert!(
        matches!(err, EffresError::StoreFailure { .. }),
        "unexpected error: {err}"
    );
    // The resident loader rejects the same bytes while streaming.
    assert!(matches!(load_snapshot(&path), Err(IoError::Format(_))));
}

#[test]
fn truncated_varint_column_is_rejected_wherever_it_is_noticed() {
    // A continuation bit with no terminator: decoding the column overruns
    // its declared byte span.
    let path = hostile_v3_copy("dangling_continuation", |bytes| {
        bytes[V3_ROWS_OFFSET] |= 0x80;
    });
    let paged = open_paged(&path, &PagedOptions::default()).expect("open skips row bytes");
    assert!(paged.store.with_column(0, |_| ()).is_err());
    assert!(load_snapshot(&path).is_err());
}

#[test]
fn non_monotone_row_off_is_rejected_by_both_loaders_before_serving() {
    // Make row_off[1] overshoot row_off[2]: the byte offsets go backwards,
    // which would misplace every later positioned read.
    let path = hostile_v3_copy("row_off", |bytes| {
        let at2 = V3_ROW_OFF_OFFSET + 8 * 2;
        let next = u64::from_le_bytes(bytes[at2..at2 + 8].try_into().unwrap());
        let at1 = V3_ROW_OFF_OFFSET + 8;
        bytes[at1..at1 + 8].copy_from_slice(&(next + 1).to_le_bytes());
    });
    let err = open_paged(&path, &PagedOptions::default()).expect_err("must reject at open");
    assert!(matches!(err, IoError::Format(_)), "{err}");
    assert!(matches!(load_snapshot(&path), Err(IoError::Format(_))));
}

#[test]
fn non_finite_norms_are_rejected_by_both_loaders() {
    let path = hostile_v3_copy("nan_norm", |bytes| {
        let at = bytes.len() - V3_NORMS_FROM_END;
        bytes[at..at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    });
    let err = open_paged(&path, &PagedOptions::default()).expect_err("must reject at open");
    assert!(err.to_string().contains("norms"), "{err}");
    assert!(matches!(load_snapshot(&path), Err(IoError::Format(_))));
}

#[test]
fn truncated_norms_block_is_rejected_at_open() {
    // Cut the file in the middle of the norms block: the paged opener's
    // layout-implied length check must notice before serving.
    let bytes = std::fs::read(fixture("v3_grid12.snap")).expect("fixture bytes");
    let cut = bytes.len() - V3_NORMS_FROM_END + 8 * (N / 2);
    let dir = std::env::temp_dir().join("effres-paged-hostile");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("hostile_v3_truncated_norms.snap");
    std::fs::write(&path, &bytes[..cut]).expect("write");
    assert!(matches!(
        open_paged(&path, &PagedOptions::default()),
        Err(IoError::Format(_))
    ));
    assert!(load_snapshot(&path).is_err());
}

#[test]
fn v3_fixture_serves_persisted_norms_bit_identical_to_resident() {
    let snapshot = resident();
    let paged = open_paged(fixture("v3_grid12.snap"), &PagedOptions::default()).expect("opens");
    let norms = paged.norms().expect("v3 carries norms");
    assert_eq!(norms.len(), 144);
    for (j, norm) in norms.iter().enumerate() {
        assert_eq!(
            norm.to_bits(),
            snapshot
                .estimator
                .approximate_inverse()
                .column(j)
                .norm2_squared()
                .to_bits(),
            "col {j}"
        );
    }
    // And the store never touched a page to produce them.
    let stats = paged.store.page_cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.bytes_read), (0, 0, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Pair sequences through the grouped multi-pair kernel on the paged
    /// store: bit for bit the pairwise batch reference on the *resident*
    /// arena, for every page geometry and both encodings, with and
    /// without the persisted norm table, on a reused (dirty) scratch.
    #[test]
    fn paged_grouped_kernel_matches_resident_pairwise_bitwise(
        (pairs, which) in (
            proptest::collection::vec((0usize..144, 0usize..144), 0..24),
            0usize..8,
        ),
    ) {
        let inverse = resident().estimator.approximate_inverse();
        let paged = &paged_stores()[which];
        let reference = column_store::column_distances_squared_batch(
            inverse,
            &pairs,
            Some(resident_norms()),
        )
        .expect("resident store never fails");
        let mut scratch = column_store::HubScratch::new(ColumnStore::order(&paged.store));
        for _ in 0..2 {
            let grouped = column_store::column_distances_squared_grouped(
                &paged.store,
                &pairs,
                paged.norms(),
                &mut scratch,
            )
            .expect("healthy fixture");
            prop_assert_eq!(reference.len(), grouped.len());
            for (r, g) in reference.iter().zip(&grouped) {
                prop_assert_eq!(r.to_bits(), g.to_bits());
            }
        }
    }
}
