//! The packed-code kernels against their one-hot reference oracle.
//!
//! The contract is *bit-identity*, not approximation: for any input, the
//! packed k-means / mini-batch / out-of-sample-assignment paths must
//! return exactly the assignments, centroids (to the float bit), sizes,
//! inertia bits, and iteration counts of the sparse reference
//! implementations in `dbex_cluster::oracle`. Random fixtures cover
//! NULLs, duplicate rows, empty rows, tiny n, and the `u8 → u32` width
//! promotion above 255 distinct values per attribute. A packed run paused
//! after any number of passes and finished later must also equal the run
//! nobody paused.

use dbex_cluster::kmeans::{assign_all_packed, kmeans_packed, KMeansConfig, PackedLloyd};
use dbex_cluster::minibatch::{mini_batch_kmeans_packed, MiniBatchConfig};
use dbex_cluster::oracle::{assign_all, kmeans, mini_batch_kmeans, OneHotSpace};
use dbex_cluster::packed::PackedMatrix;
use dbex_cluster::KMeansResult;
use dbex_stats::discretize::{AttributeCodec, CodedColumn};
use dbex_table::dict::NULL_CODE;
use proptest::prelude::*;

/// Builds coded columns with the given cardinalities from explicit codes
/// (`None` = NULL), rows in row-major order.
fn columns_from(cards: &[usize], rows: &[Vec<Option<u32>>]) -> Vec<CodedColumn> {
    cards
        .iter()
        .enumerate()
        .map(|(a, &card)| {
            let labels = (0..card).map(|i| format!("v{i}")).collect();
            CodedColumn::new(
                a,
                std::sync::Arc::new(AttributeCodec::Categorical { labels }),
                rows.iter().map(|r| r[a].map_or(NULL_CODE, |c| c)).collect(),
            )
        })
        .collect()
}

/// Deterministic pseudo-random rows over the given cardinalities, with a
/// NULL probability of roughly 1/8.
fn random_rows(cards: &[usize], n: usize, seed: u64) -> Vec<Vec<Option<u32>>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            cards
                .iter()
                .map(|&card| {
                    let r = next();
                    if r % 8 == 0 {
                        None
                    } else {
                        Some((r % card as u64) as u32)
                    }
                })
                .collect()
        })
        .collect()
}

fn assert_bit_identical(packed: &KMeansResult, reference: &KMeansResult, ctx: &str) {
    assert_eq!(packed.assignments, reference.assignments, "{ctx}: assignments");
    assert_eq!(packed.sizes, reference.sizes, "{ctx}: sizes");
    assert_eq!(packed.iterations, reference.iterations, "{ctx}: iterations");
    assert_eq!(
        packed.inertia.to_bits(),
        reference.inertia.to_bits(),
        "{ctx}: inertia {} vs {}",
        packed.inertia,
        reference.inertia
    );
    assert_eq!(packed.centroids.len(), reference.centroids.len(), "{ctx}: k");
    for (c, (p, r)) in packed.centroids.iter().zip(&reference.centroids).enumerate() {
        let pb: Vec<u64> = p.iter().map(|v| v.to_bits()).collect();
        let rb: Vec<u64> = r.iter().map(|v| v.to_bits()).collect();
        assert_eq!(pb, rb, "{ctx}: centroid {c}");
    }
}

/// Runs both paths over the same data and checks bit-identity of k-means,
/// mini-batch, and out-of-sample assignment.
fn check_equivalence(cards: &[usize], rows: &[Vec<Option<u32>>], k: usize, seed: u64) {
    let columns = columns_from(cards, rows);
    let refs: Vec<&CodedColumn> = columns.iter().collect();
    let positions: Vec<usize> = (0..rows.len()).collect();
    let space = OneHotSpace::from_columns(&refs);
    let points = space.encode_positions(&refs, &positions);
    let matrix = PackedMatrix::from_columns(&refs, &positions)
        .unwrap_or_else(|e| panic!("cards {cards:?} must pack: {e}"));
    assert_eq!(matrix.dim(), space.dim());

    for plus_plus in [true, false] {
        let cfg = KMeansConfig {
            k,
            max_iters: 12,
            seed,
            plus_plus,
            threads: 1,
        };
        let reference = kmeans(&points, space.dim(), &cfg).unwrap();
        let packed = kmeans_packed(&matrix, &cfg).unwrap();
        assert_bit_identical(&packed, &reference, &format!("kmeans pp={plus_plus}"));
        let threaded = kmeans_packed(
            &matrix,
            &KMeansConfig {
                threads: 3,
                ..cfg.clone()
            },
        )
        .unwrap();
        assert_bit_identical(&threaded, &reference, &format!("kmeans t=3 pp={plus_plus}"));
        assert_eq!(
            assign_all_packed(&reference, &matrix),
            assign_all(&reference, &points),
            "assign_all pp={plus_plus}"
        );
    }

    let mb = MiniBatchConfig {
        k,
        batch_size: 16,
        batches: 12,
        seed,
    };
    let reference = mini_batch_kmeans(&points, space.dim(), &mb).unwrap();
    let packed = mini_batch_kmeans_packed(&matrix, &mb).unwrap();
    assert_bit_identical(&packed, &reference, "mini_batch");
}

#[test]
fn packed_kmeans_matches_reference_small_cardinalities() {
    let cards = [5, 3, 7, 2];
    for seed in 0..6u64 {
        let rows = random_rows(&cards, 120, seed + 1);
        check_equivalence(&cards, &rows, 4, seed);
    }
}

#[test]
fn packed_kmeans_matches_reference_with_all_null_rows() {
    let cards = [4, 4];
    let mut rows = random_rows(&cards, 40, 3);
    rows[0] = vec![None, None];
    rows[17] = vec![None, None];
    rows[39] = vec![None, None];
    check_equivalence(&cards, &rows, 3, 9);
}

#[test]
fn packed_kmeans_matches_reference_fewer_points_than_k() {
    let cards = [3, 3];
    let rows = random_rows(&cards, 4, 5);
    check_equivalence(&cards, &rows, 9, 2);
}

#[test]
fn width_promotion_keeps_kernels_exact_above_255_values() {
    // Cardinality 300 forces u32 storage; distances must not corrupt.
    let cards = [300, 4];
    for seed in 0..3u64 {
        let rows = random_rows(&cards, 150, seed + 11);
        let columns = columns_from(&cards, &rows);
        let refs: Vec<&CodedColumn> = columns.iter().collect();
        let matrix =
            PackedMatrix::from_columns(&refs, &(0..rows.len()).collect::<Vec<_>>()).unwrap();
        assert!(!matrix.is_u8(), "cardinality 300 must promote to u32");
        check_equivalence(&cards, &rows, 5, seed);
    }
}

#[test]
fn empty_input_matches_reference() {
    let cards = [3usize, 2];
    let columns = columns_from(&cards, &[]);
    let refs: Vec<&CodedColumn> = columns.iter().collect();
    let matrix = PackedMatrix::from_columns(&refs, &[]).unwrap();
    let cfg = KMeansConfig {
        k: 3,
        ..KMeansConfig::default()
    };
    let reference = kmeans(&[], 5, &cfg).unwrap();
    let packed = kmeans_packed(&matrix, &cfg).unwrap();
    assert_bit_identical(&packed, &reference, "empty");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite: arbitrary inputs spanning the u8/u32 promotion boundary.
    /// Attribute 0's cardinality ranges across 255/256 so some cases pack
    /// as u8 and others must promote; either way the packed kernels must
    /// equal the one-hot reference bit for bit.
    #[test]
    fn packed_distance_equals_onehot_distance_on_arbitrary_inputs(
        card0 in 250usize..300,
        card1 in 2usize..6,
        raw in prop::collection::vec((0u32..300, 0u32..6, 0u32..8), 6..60),
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let cards = [card0, card1];
        let rows: Vec<Vec<Option<u32>>> = raw
            .iter()
            .map(|&(c0, c1, null_sel)| {
                vec![
                    if null_sel == 0 { None } else { Some(c0 % card0 as u32) },
                    if null_sel == 1 { None } else { Some(c1 % card1 as u32) },
                ]
            })
            .collect();
        check_equivalence(&cards, &rows, k, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A resumed Lloyd run equals a straight one: `start`, then `t`
    /// passes, then `finish` returns bit for bit what the unpaused run
    /// returns — assignments, centroids, inertia and iterations — for
    /// every `t` from 0 to past convergence, and both equal the one-hot
    /// reference. Rows are drawn from a small pool, so duplicates leave
    /// clusters empty and force farthest-point reseeds; attribute 0 packs
    /// as u8 or, at 300 values, as u32; a quarter of the
    /// cases have fewer rows than `k`, and up to 700 rows let 4 threads
    /// split a pass into chunks.
    #[test]
    fn paused_lloyd_run_resumes_bit_identically(
        wide in 0u8..2,
        card1 in 2usize..5,
        pool in prop::collection::vec((0u32..300, 0u32..5, 0u32..8), 1..12),
        picks in prop::collection::vec(0usize..12, 1..700),
        tiny in 0u8..4,
        k in 1usize..9,
        max_iters in 1usize..16,
        seed in 0u64..1000,
    ) {
        let card0 = if wide == 1 { 300 } else { 7 };
        let cards = [card0, card1];
        let distinct: Vec<Vec<Option<u32>>> = pool
            .iter()
            .map(|&(c0, c1, null_sel)| {
                vec![
                    if null_sel == 0 { None } else { Some(c0 % card0 as u32) },
                    if null_sel == 1 { None } else { Some(c1 % card1 as u32) },
                ]
            })
            .collect();
        let n = if tiny == 0 { picks.len().min(k.max(2) - 1) } else { picks.len() };
        let rows: Vec<Vec<Option<u32>>> =
            picks[..n].iter().map(|&i| distinct[i % distinct.len()].clone()).collect();
        let columns = columns_from(&cards, &rows);
        let refs: Vec<&CodedColumn> = columns.iter().collect();
        let positions: Vec<usize> = (0..rows.len()).collect();
        let space = OneHotSpace::from_columns(&refs);
        let matrix = PackedMatrix::from_columns(&refs, &positions).unwrap();
        for threads in [1, 4] {
            let cfg = KMeansConfig {
                k,
                max_iters,
                seed,
                plus_plus: true,
                threads,
            };
            let ctx = format!("k={k} iters={max_iters} seed={seed} rows={} t={threads}", rows.len());
            let straight = PackedLloyd::start(&matrix, &cfg).unwrap().finish();
            let reference = kmeans(&space.encode_positions(&refs, &positions), space.dim(), &cfg).unwrap();
            assert_bit_identical(&straight, &reference, &ctx);
            for paused in 0..=straight.iterations + 1 {
                let mut run = PackedLloyd::start(&matrix, &cfg).unwrap();
                let ran = (0..paused).filter(|_| run.pass()).count();
                prop_assert_eq!(ran, paused.min(straight.iterations));
                prop_assert_eq!(run.assignments().is_some(), ran > 0);
                let resumed = run.finish();
                let ctx = format!("{ctx} paused after {paused}");
                assert_bit_identical(&resumed, &straight, &ctx);
            }
        }
    }
}
