//! Mini-batch k-means (Sculley, WWW 2010).
//!
//! A scaling alternative to the paper's sample-and-assign optimization:
//! instead of clustering a fixed sample, iterate over small random batches
//! and move each centroid toward its assigned batch points with a
//! per-centroid decaying learning rate. Converges to slightly worse inertia
//! than full Lloyd iterations but touches each point a constant number of
//! times — useful when result sets grow beyond the paper's 40K scale.

use crate::error::ClusterError;
use crate::fault;
use crate::kmeans::{
    accumulate_dots, build_lut, kmeans_packed, packed_onehot, packed_sparse_dist2, KMeansConfig,
    KMeansResult,
};
use crate::packed::{CodeWord, PackedMatrix, PackedView};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for [`mini_batch_kmeans_packed`].
#[derive(Debug, Clone)]
pub struct MiniBatchConfig {
    /// Number of clusters.
    pub k: usize,
    /// Points per batch.
    pub batch_size: usize,
    /// Number of batches processed.
    pub batches: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for MiniBatchConfig {
    fn default() -> Self {
        MiniBatchConfig {
            k: 8,
            batch_size: 256,
            batches: 60,
            seed: 0x1111,
        }
    }
}

/// Runs mini-batch k-means over the rows of `matrix`. Returns the same
/// result type as [`kmeans_packed`] (final assignments are a full pass
/// over all rows), bit-identical to the one-hot oracle
/// ([`crate::oracle::mini_batch_kmeans`]; see the packed-kernel comment in
/// [`crate::kmeans`]).
///
/// When `n ≤ batch_size` the batches would cover everything anyway, so it
/// delegates to [`kmeans_packed`] with the same derived configuration.
/// Fails with a typed [`ClusterError`] when `config.k == 0` or
/// `config.batch_size == 0`.
pub fn mini_batch_kmeans_packed(
    matrix: &PackedMatrix,
    config: &MiniBatchConfig,
) -> Result<KMeansResult, ClusterError> {
    fault::check("cluster::minibatch")?;
    if config.k == 0 {
        return Err(ClusterError::ZeroClusters);
    }
    if config.batch_size == 0 {
        return Err(ClusterError::ZeroBatchSize);
    }
    let n = matrix.rows();
    if n == 0 {
        return Ok(KMeansResult {
            assignments: Vec::new(),
            centroids: vec![vec![0.0; matrix.dim()]; config.k],
            sizes: vec![0; config.k],
            inertia: 0.0,
            iterations: 0,
        });
    }
    if n <= config.batch_size {
        // Batches would cover everything anyway: run exact k-means.
        return kmeans_packed(
            matrix,
            &KMeansConfig {
                k: config.k,
                seed: config.seed,
                ..KMeansConfig::default()
            },
        );
    }
    matrix.dispatch(|view| match view {
        PackedView::U8(codes) => mini_batch_packed_impl(codes, matrix, config),
        PackedView::U32(codes) => mini_batch_packed_impl(codes, matrix, config),
    })
}

fn mini_batch_packed_impl<T: CodeWord>(
    codes: &[T],
    m: &PackedMatrix,
    config: &MiniBatchConfig,
) -> Result<KMeansResult, ClusterError> {
    let n = m.rows();
    let dim = m.dim();
    let attrs = m.attrs();
    let row = |i: usize| &codes[i * attrs..(i + 1) * attrs];
    let mut rng = StdRng::seed_from_u64(config.seed);
    let k = config.k.min(n);

    // Farthest-point seeding, mirroring the oracle draw for draw.
    let mut seed_idx = vec![rng.random_range(0..n)];
    let mut min_d2: Vec<f64> = (0..n)
        .map(|i| packed_sparse_dist2(row(i), row(seed_idx[0]), m.len_of(i), m.len_of(seed_idx[0])))
        .collect();
    while seed_idx.len() < k {
        let far = (0..n)
            .max_by(|&a, &b| min_d2[a].total_cmp(&min_d2[b]))
            .unwrap_or(0);
        seed_idx.push(far);
        for (i, slot) in min_d2.iter_mut().enumerate() {
            let d = packed_sparse_dist2(row(i), row(far), m.len_of(i), m.len_of(far));
            if d < *slot {
                *slot = d;
            }
        }
    }
    let mut centroids: Vec<Vec<f64>> = seed_idx
        .iter()
        .map(|&i| packed_onehot(row(i), m, dim))
        .collect();

    // Per-centroid update counts drive the decaying learning rate.
    let mut counts = vec![0u64; k];
    let mut dot = vec![0.0f64; k];
    for _ in 0..config.batches {
        // Sample a batch (with replacement — standard for mini-batch).
        let batch: Vec<usize> = (0..config.batch_size)
            .map(|_| rng.random_range(0..n))
            .collect();
        // Assign, then update with per-center learning rates. The whole
        // batch is assigned against the pre-batch centroids (as in the
        // oracle), so one LUT snapshot per batch is exact.
        let norms: Vec<f64> = centroids
            .iter()
            .map(|c| c.iter().map(|v| v * v).sum())
            .collect();
        let lut = build_lut(&centroids, dim);
        let assigned: Vec<usize> = batch
            .iter()
            .map(|&i| {
                accumulate_dots(row(i), m, &lut, &mut dot);
                nearest_unclamped_from_dots(&norms, &dot, m.len_of(i) as f64)
            })
            .collect();
        for (&i, &c) in batch.iter().zip(&assigned) {
            counts[c] += 1;
            let eta = 1.0 / counts[c] as f64;
            // Move centroid toward the one-hot point: scale everything
            // down, then add eta at the active dimensions.
            for v in centroids[c].iter_mut() {
                *v *= 1.0 - eta;
            }
            for (a, &code) in row(i).iter().enumerate() {
                if code != T::NULL {
                    centroids[c][m.offset(a) + code.index()] += eta;
                }
            }
        }
    }

    // Final full assignment pass.
    let norms: Vec<f64> = centroids
        .iter()
        .map(|c| c.iter().map(|v| v * v).sum())
        .collect();
    let lut = build_lut(&centroids, dim);
    let mut assignments = Vec::with_capacity(n);
    let mut sizes = vec![0usize; k];
    let mut inertia = 0.0;
    for i in 0..n {
        accumulate_dots(row(i), m, &lut, &mut dot);
        let len = m.len_of(i) as f64;
        let best = nearest_unclamped_from_dots(&norms, &dot, len);
        inertia += (norms[best] - 2.0 * dot[best] + len).max(0.0);
        sizes[best] += 1;
        assignments.push(best);
    }
    while centroids.len() < config.k {
        centroids.push(vec![0.0; dim]);
        sizes.push(0);
    }
    Ok(KMeansResult {
        assignments,
        centroids,
        sizes,
        inertia,
        iterations: config.batches,
    })
}

/// The nearest centroid by *unclamped* distance (the oracle's historical
/// behavior, kept bit-compatible), first-min tie-break.
#[inline]
fn nearest_unclamped_from_dots(norms: &[f64], dot: &[f64], len: f64) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, (&n2, &dt)) in norms.iter().zip(dot).enumerate() {
        let d = n2 - 2.0 * dt + len;
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}
