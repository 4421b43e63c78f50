//! The sparse one-hot reference implementations: the bit-exact oracle the
//! packed kernels are tested against. No production code calls them.
//!
//! Each Compare Attribute with cardinality `c_a` contributes `c_a`
//! dimensions of a [`OneHotSpace`]; a tuple activates exactly one
//! dimension per non-NULL attribute. Points are stored sparsely (the list
//! of active dimensions), which makes squared Euclidean distances between
//! a point and a centroid computable in `O(#attributes)`.
//!
//! [`kmeans`] and [`assign_all`] walk those points one at a time, in the
//! order the paper's algorithm states. The packed kernels
//! ([`crate::kmeans_packed`], [`crate::assign_all_packed`]) must return
//! exactly what these return —
//! assignments, centroids to the float bit, sizes, inertia and iteration
//! counts — on any input (see the packed-kernel comment in
//! [`crate::kmeans`] for why the bits can match).

use crate::error::ClusterError;
use crate::fault;
use crate::kmeans::{hist_dist2, hist_norm2, hist_onehot, seed_random, KMeansConfig, KMeansResult};
use dbex_stats::discretize::CodedColumn;
use dbex_table::dict::NULL_CODE;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The one-hot feature space induced by a set of discretized attributes.
#[derive(Debug, Clone)]
pub struct OneHotSpace {
    /// Start offset of each attribute's block of dimensions.
    offsets: Vec<usize>,
    /// Total dimensionality (sum of attribute cardinalities).
    dim: usize,
}

impl OneHotSpace {
    /// Builds the space from attribute cardinalities.
    pub fn from_cardinalities(cards: &[usize]) -> OneHotSpace {
        let mut offsets = Vec::with_capacity(cards.len());
        let mut dim = 0;
        for &c in cards {
            offsets.push(dim);
            dim += c;
        }
        OneHotSpace { offsets, dim }
    }

    /// Builds the space from coded columns (cardinality of each codec).
    pub fn from_columns(columns: &[&CodedColumn]) -> OneHotSpace {
        let cards: Vec<usize> = columns.iter().map(|c| c.codec.cardinality()).collect();
        Self::from_cardinalities(&cards)
    }

    /// Total dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Global dimension of `(attribute, code)`.
    pub fn dim_of(&self, attr: usize, code: u32) -> usize {
        self.offsets[attr] + code as usize
    }

    /// Encodes every position of a set of coded columns.
    ///
    /// `positions` index into the columns' code vectors (i.e. the view's
    /// row positions). Each output point is the sparse active-dimension
    /// list of one tuple.
    pub fn encode_positions(&self, columns: &[&CodedColumn], positions: &[usize]) -> Vec<Vec<u32>> {
        positions
            .iter()
            .map(|&p| {
                let mut active = Vec::with_capacity(columns.len());
                for (attr, col) in columns.iter().enumerate() {
                    let code = col.codes[p];
                    if code != NULL_CODE {
                        active.push(self.dim_of(attr, code) as u32);
                    }
                }
                active
            })
            .collect()
    }
}

/// Every row of `matrix` as the sparse one-hot point of the same tuple.
#[cfg(test)]
pub(crate) fn onehot_rows(matrix: &crate::packed::PackedMatrix) -> Vec<Vec<u32>> {
    use crate::packed::{CodeWord, PackedMatrix, PackedView};
    fn rows<T: CodeWord>(codes: &[T], m: &PackedMatrix) -> Vec<Vec<u32>> {
        (0..m.rows())
            .map(|r| {
                let row = &codes[r * m.attrs()..(r + 1) * m.attrs()];
                (0..m.attrs())
                    .filter(|&a| row[a] != T::NULL)
                    .map(|a| (m.offset(a) + row[a].index()) as u32)
                    .collect()
            })
            .collect()
    }
    matrix.dispatch(|view| match view {
        PackedView::U8(codes) => rows(codes, matrix),
        PackedView::U32(codes) => rows(codes, matrix),
    })
}

/// Runs k-means on sparse one-hot `points` of dimensionality `dim`.
///
/// When `points.len() <= config.k`, each point gets its own cluster (and
/// surplus clusters stay empty with zero centroids). Points may be empty
/// (all-NULL tuples); they land in whichever cluster is nearest by `‖c‖²`.
///
/// Fails with a typed [`ClusterError`] when `config.k == 0` or a point
/// activates a dimension outside `0..dim`.
pub fn kmeans(
    points: &[Vec<u32>],
    dim: usize,
    config: &KMeansConfig,
) -> Result<KMeansResult, ClusterError> {
    fault::check("cluster::kmeans")?;
    if config.k == 0 {
        return Err(ClusterError::ZeroClusters);
    }
    validate_points(points, dim)?;
    let n = points.len();
    let k = config.k.min(n.max(1));
    if n == 0 {
        return Ok(KMeansResult {
            assignments: Vec::new(),
            centroids: vec![vec![0.0; dim]; config.k],
            sizes: vec![0; config.k],
            inertia: 0.0,
            iterations: 0,
        });
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let seeds = if config.plus_plus {
        seed_plus_plus(points, k, &mut rng)
    } else {
        seed_random(n, k, &mut rng)
    };
    let mut hist: Vec<Vec<u32>> = seeds.iter().map(|&i| hist_onehot(&points[i], dim)).collect();
    let mut count: Vec<u32> = vec![1; k];

    let mut assignments = vec![0usize; n];
    let mut iterations = 0;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        // Assignment step.
        let inv: Vec<f64> = count.iter().map(|&m| 1.0 / f64::from(m)).collect();
        let norms: Vec<f64> = hist
            .iter()
            .zip(&inv)
            .map(|(h, &iv)| hist_norm2(h, iv))
            .collect();
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let (best, _) = nearest_hist(p, &hist, &norms, &inv);
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        if !changed && iter > 0 {
            break;
        }
        // Update step (integer sums; `n < 2³²` is implied by the points
        // fitting in memory).
        let mut sums = vec![vec![0u32; dim]; k];
        let mut counts = vec![0u32; k];
        for (i, p) in points.iter().enumerate() {
            let c = assignments[i];
            counts[c] += 1;
            for &d in p {
                sums[c][d as usize] += 1;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Reseed empty cluster to the point farthest from its
                // centroid (against the mixed state: clusters before `c`
                // already hold this iteration's histograms).
                let inv: Vec<f64> = count.iter().map(|&m| 1.0 / f64::from(m)).collect();
                let norms: Vec<f64> = hist
                    .iter()
                    .zip(&inv)
                    .map(|(h, &iv)| hist_norm2(h, iv))
                    .collect();
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let ca = assignments[a];
                        let cb = assignments[b];
                        let da = hist_dist2(&points[a], &hist[ca], norms[ca], inv[ca]);
                        let db = hist_dist2(&points[b], &hist[cb], norms[cb], inv[cb]);
                        da.total_cmp(&db)
                    })
                    .unwrap_or(0);
                hist[c] = hist_onehot(&points[far], dim);
                count[c] = 1;
            } else {
                std::mem::swap(&mut hist[c], &mut sums[c]);
                count[c] = counts[c];
            }
        }
    }

    // Final stats.
    let inv: Vec<f64> = count.iter().map(|&m| 1.0 / f64::from(m)).collect();
    let norms: Vec<f64> = hist
        .iter()
        .zip(&inv)
        .map(|(h, &iv)| hist_norm2(h, iv))
        .collect();
    let mut inertia = 0.0;
    let mut sizes = vec![0usize; k];
    for (i, p) in points.iter().enumerate() {
        let (best, d) = nearest_hist(p, &hist, &norms, &inv);
        assignments[i] = best;
        sizes[best] += 1;
        inertia += d;
    }
    let mut centroids: Vec<Vec<f64>> = hist
        .iter()
        .zip(&count)
        .map(|(h, &m)| h.iter().map(|&v| f64::from(v) / f64::from(m)).collect())
        .collect();
    // Pad to the requested k so callers can index by cluster id uniformly.
    while centroids.len() < config.k {
        centroids.push(vec![0.0; dim]);
        sizes.push(0);
    }
    Ok(KMeansResult {
        assignments,
        centroids,
        sizes,
        inertia,
        iterations,
    })
}

/// Assigns out-of-sample sparse points to their nearest final centroid of
/// `result` (shares the centroid-norm cache).
pub fn assign_all(result: &KMeansResult, points: &[Vec<u32>]) -> Vec<usize> {
    let norms: Vec<f64> = result
        .centroids
        .iter()
        .map(|c| c.iter().map(|v| v * v).sum())
        .collect();
    points
        .iter()
        .map(|p| nearest(p, &result.centroids, &norms).0)
        .collect()
}

fn nearest_hist(point: &[u32], hists: &[Vec<u32>], norms: &[f64], invs: &[f64]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, h) in hists.iter().enumerate() {
        let d = hist_dist2(point, h, norms[c], invs[c]);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// Rejects points referencing dimensions outside `0..dim` — they would
/// otherwise index out of bounds in the centroid update.
fn validate_points(points: &[Vec<u32>], dim: usize) -> Result<(), ClusterError> {
    for (i, p) in points.iter().enumerate() {
        for &d in p {
            if d as usize >= dim {
                return Err(ClusterError::DimensionOutOfRange {
                    point: i,
                    dim: d,
                    space: dim,
                });
            }
        }
    }
    Ok(())
}

/// Squared distance between sparse point and dense centroid with cached
/// `‖c‖²`.
fn dist2(point: &[u32], centroid: &[f64], norm2: f64) -> f64 {
    let mut dot = 0.0;
    for &d in point {
        dot += centroid[d as usize];
    }
    (norm2 - 2.0 * dot + point.len() as f64).max(0.0)
}

fn nearest(point: &[u32], centroids: &[Vec<f64>], norms: &[f64]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = dist2(point, centroid, norms[c]);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

fn seed_plus_plus(points: &[Vec<u32>], k: usize, rng: &mut StdRng) -> Vec<usize> {
    let n = points.len();
    let mut seeds = Vec::with_capacity(k);
    let mut last = rng.random_range(0..n);
    seeds.push(last);
    // Squared distance of each point to its nearest chosen seed. In one-hot
    // space the distance between two sparse points x,y is |x| + |y| − 2|x∩y|.
    let mut d2 = vec![f64::INFINITY; n];
    for _ in 1..k {
        for (i, p) in points.iter().enumerate() {
            let d = sparse_dist2(p, &points[last]);
            if d < d2[i] {
                d2[i] = d;
            }
        }
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            rng.random_range(0..n)
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        seeds.push(next);
        last = next;
    }
    seeds
}

/// Squared distance between two sparse binary points (sorted dim lists).
fn sparse_dist2(a: &[u32], b: &[u32]) -> f64 {
    let mut i = 0;
    let mut j = 0;
    let mut common = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    (a.len() + b.len() - 2 * common) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_and_dims() {
        let s = OneHotSpace::from_cardinalities(&[3, 2, 4]);
        assert_eq!(s.dim(), 9);
        assert_eq!(s.dim_of(0, 2), 2);
        assert_eq!(s.dim_of(1, 0), 3);
        assert_eq!(s.dim_of(2, 3), 8);
    }

    #[test]
    fn encode_skips_nulls() {
        use dbex_stats::discretize::AttributeCodec;
        let column = |labels: &[&str], codes: Vec<u32>| {
            let labels = labels.iter().map(|s| s.to_string()).collect();
            let codec = std::sync::Arc::new(AttributeCodec::Categorical { labels });
            CodedColumn::new(0, codec, codes)
        };
        let c0 = column(&["a", "b", "c"], vec![1, NULL_CODE, NULL_CODE]);
        let c1 = column(&["x", "y"], vec![0, 1, NULL_CODE]);
        let cols = [&c0, &c1];
        let s = OneHotSpace::from_columns(&cols);
        assert_eq!(
            s.encode_positions(&cols, &[0, 1, 2]),
            vec![vec![1, 3], vec![4], Vec::<u32>::new()]
        );
    }

    /// Two obvious groups: points activating dims {0,2} vs dims {1,3}.
    fn two_groups(n_each: usize) -> Vec<Vec<u32>> {
        let mut pts = Vec::new();
        for _ in 0..n_each {
            pts.push(vec![0, 2]);
            pts.push(vec![1, 3]);
        }
        pts
    }

    #[test]
    fn separates_two_groups() {
        let pts = two_groups(20);
        let result = kmeans(
            &pts,
            4,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // All even-index points together, all odd-index points together.
        let c0 = result.assignments[0];
        let c1 = result.assignments[1];
        assert_ne!(c0, c1);
        for (i, &a) in result.assignments.iter().enumerate() {
            assert_eq!(a, if i % 2 == 0 { c0 } else { c1 });
        }
        assert!(result.inertia < 1e-9);
        assert_eq!(result.sizes.iter().sum::<usize>(), 40);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let pts = two_groups(10);
        let cfg = KMeansConfig {
            k: 2,
            seed: 7,
            ..Default::default()
        };
        let a = kmeans(&pts, 4, &cfg)
        .unwrap();
        let b = kmeans(&pts, 4, &cfg)
        .unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn fewer_points_than_k() {
        let pts = vec![vec![0u32], vec![1u32]];
        let result = kmeans(
            &pts,
            2,
            &KMeansConfig {
                k: 5,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.centroids.len(), 5);
        assert_eq!(result.sizes.len(), 5);
        assert_eq!(result.sizes.iter().sum::<usize>(), 2);
        assert_ne!(result.assignments[0], result.assignments[1]);
    }

    #[test]
    fn empty_input() {
        let result = kmeans(&[], 3, &KMeansConfig::default())
        .unwrap();
        assert!(result.assignments.is_empty());
        assert_eq!(result.inertia, 0.0);
    }

    #[test]
    fn out_of_sample_assignment() {
        let pts = two_groups(20);
        let result = kmeans(
            &pts,
            4,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let out = assign_all(&result, &[vec![0, 2], vec![1, 3]]);
        assert_eq!(out, vec![result.assignments[0], result.assignments[1]]);
        assert_eq!(assign_all(&result, &pts), result.assignments);
    }

    #[test]
    fn plus_plus_no_worse_than_random_on_structured_data() {
        // Three groups; compare final inertia.
        let mut pts = Vec::new();
        for _ in 0..30 {
            pts.push(vec![0u32, 3]);
            pts.push(vec![1u32, 4]);
            pts.push(vec![2u32, 5]);
        }
        let pp = kmeans(
            &pts,
            6,
            &KMeansConfig {
                k: 3,
                plus_plus: true,
                seed: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let mut best_rand = f64::INFINITY;
        for seed in 0..5 {
            let r = kmeans(
                &pts,
                6,
                &KMeansConfig {
                    k: 3,
                    plus_plus: false,
                    seed,
                    ..Default::default()
                },
            )
        .unwrap();
            best_rand = best_rand.min(r.inertia);
        }
        assert!(pp.inertia <= best_rand + 1e-9);
    }

    #[test]
    fn sparse_dist2_matches_definition() {
        assert_eq!(sparse_dist2(&[0, 2], &[0, 2]), 0.0);
        assert_eq!(sparse_dist2(&[0, 2], &[1, 3]), 4.0);
        assert_eq!(sparse_dist2(&[0, 2], &[0, 3]), 2.0);
        assert_eq!(sparse_dist2(&[], &[1]), 1.0);
    }

    #[test]
    fn all_identical_points_single_effective_cluster() {
        let pts = vec![vec![1u32, 5]; 12];
        let result = kmeans(
            &pts,
            8,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(result.inertia < 1e-9);
        // Every point in the same cluster.
        assert!(result.assignments.iter().all(|&a| a == result.assignments[0]));
    }
}
