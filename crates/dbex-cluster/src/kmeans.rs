//! Lloyd's k-means over packed dictionary-code rows.
//!
//! Matches the paper's use of Weka `SimpleKMeans` (Section 3.1.2) with the
//! quality/latency refinements the performance study relies on:
//!
//! * **k-means++ seeding** for reliable starts (random seeding is kept as an
//!   ablation option; the benchmark suite compares the two).
//! * **Empty-cluster reseeding** to the point farthest from its centroid.
//! * **Out-of-sample assignment**: the paper's Optimization 1 clusters a
//!   sample and assigns remaining tuples to the nearest learned centroid.
//!
//! A row of a [`PackedMatrix`] is a sparse binary one-hot point (active
//! dimensions, one per non-NULL attribute). During Lloyd iterations a
//! centroid is represented as an integer **histogram**: the per-dimension
//! member counts `h_d` plus the cluster size `m` (the conceptual dense
//! centroid is `h_d / m`). The squared distance between point `x` and
//! centroid `(h, m)` is then
//!
//! ```text
//! ‖c‖² − 2·Σ_{d∈x} h_d · (1/m) + |x|      where ‖c‖² = Σ_d h_d² · (1/m)²
//! ```
//!
//! so the per-point inner loop is a pure *integer* accumulation — exact in
//! any evaluation order, which frees the kernel to vectorize it — followed
//! by one float multiply per centroid. Each distance costs
//! `O(#attributes)` regardless of dimensionality.

use crate::error::ClusterError;
use crate::fault;
use crate::simd::{assign_rows_with, assign_scatter_rows_with, dot_stride};
use dbex_stats::simd::SimdDispatch;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for [`kmeans_packed`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters (`l` candidate IUnits in the paper).
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// PRNG seed; identical seeds give identical clusterings.
    pub seed: u64,
    /// Use k-means++ seeding (`true`, default) or uniform random seeding
    /// (`false`, ablation baseline).
    pub plus_plus: bool,
    /// Worker threads for the packed assignment/update and final-stats
    /// steps (`1` = run on the caller thread). Rows are split into
    /// deterministic chunks whose integer partials merge in chunk order,
    /// so the output is **byte-identical at any thread count**; the f64
    /// inertia is folded sequentially in row order for the same reason.
    /// The one-hot oracle ([`crate::oracle::kmeans`]) ignores this field.
    pub threads: usize,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 8,
            max_iters: 25,
            seed: 0xDBE0,
            plus_plus: true,
            threads: 1,
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Dense centroids, `k × dim`.
    pub centroids: Vec<Vec<f64>>,
    /// Number of points per cluster.
    pub sizes: Vec<usize>,
    /// Total within-cluster sum of squared distances.
    pub inertia: f64,
    /// Lloyd iterations actually run.
    pub iterations: usize,
}

/// The one-hot integer histogram of a sparse point (cluster size 1).
pub(crate) fn hist_onehot(point: &[u32], dim: usize) -> Vec<u32> {
    let mut h = vec![0u32; dim];
    for &d in point {
        h[d as usize] = 1;
    }
    h
}

/// `‖c‖²` of histogram centroid `(h, 1/m)`: `Σ_d h_d² · (1/m)²`, summed
/// in ascending dimension order — the canonical order the packed kernel
/// and the oracle both use.
pub(crate) fn hist_norm2(hist: &[u32], inv: f64) -> f64 {
    let mut sum = 0.0;
    for &v in hist {
        let f = f64::from(v);
        sum += f * f;
    }
    sum * inv * inv
}

/// Squared distance between a sparse point and a histogram centroid:
/// `(‖c‖² − 2·dot·(1/m) + |x|).max(0)` with an exact integer `dot`.
pub(crate) fn hist_dist2(point: &[u32], hist: &[u32], norm2: f64, inv: f64) -> f64 {
    let mut dot: u64 = 0;
    for &d in point {
        dot += u64::from(hist[d as usize]);
    }
    (norm2 - 2.0 * dot as f64 * inv + point.len() as f64).max(0.0)
}

pub(crate) fn seed_random(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    // Partial Fisher-Yates over 0..n.
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.random_range(0..n - i);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

// --- Packed-code kernel -------------------------------------------------
//
// The packed kernels mirror the sparse one-hot reference in
// `crate::oracle` *operation for operation*: the histogram formulation
// makes the per-point inner loop a pure integer accumulation (exact in any
// order — the reference's u64 scalar dot and the packed kernel's u32 strip
// adds compute the same integers), every floating-point combine happens in
// the same canonical expression (`‖c‖² − 2·dot·(1/m) + |x|`, norms summed
// in ascending dimension order), every RNG draw happens at the same point
// in the control flow, and ties break identically. The results are
// therefore bit-equal to `oracle::kmeans` / `oracle::assign_all` on the
// same data — the oracle the packed path is tested against.
//
// The speed comes from the data layout: no per-tuple heap allocation,
// contiguous u8/u32 rows, and a per-iteration transposed centroid-count
// table (`lut[d·k + c] = hist[c][d]` as u32, k ≤ dozens, so it lives in
// L1) that turns the assignment step's inner loop into a dense integer
// `dot[0..k] += lut[base..base+k]` strip add the compiler is free to
// vectorize four lanes wide. `PackedMatrix::from_columns` refuses inputs
// with `rows·attrs > u32::MAX`, so a u32 dot accumulator cannot overflow.
//
// The f64 LUT helpers below the integer ones serve out-of-sample
// assignment against final `f64` centroids.

use crate::packed::{CodeWord, PackedMatrix, PackedView};

/// Minimum rows per worker chunk in the packed kernel. Below this the
/// per-chunk partials (k histograms of `dim` u32s each) cost more to
/// allocate and merge than the row walk saves, so short partitions stay
/// on one chunk regardless of the requested thread count.
pub(crate) const KMEANS_PAR_MIN_CHUNK: usize = 256;

/// Runs k-means over the rows of `matrix` — bit-identical to the one-hot
/// oracle ([`crate::oracle::kmeans`]); see the packed-kernel comment above
/// for why the bits match.
///
/// When `matrix.rows() <= config.k`, each row gets its own cluster (and
/// surplus clusters stay empty with zero centroids). Fails with a typed
/// [`ClusterError`] when `config.k == 0`.
pub fn kmeans_packed(
    matrix: &PackedMatrix,
    config: &KMeansConfig,
) -> Result<KMeansResult, ClusterError> {
    Ok(PackedLloyd::start(matrix, config)?.finish())
}

/// A packed Lloyd run that can stop after any pass and resume later.
///
/// [`PackedLloyd::start`] validates the input and seeds,
/// [`PackedLloyd::pass`] runs one assignment and update step, and
/// [`PackedLloyd::finish`] runs the remaining passes and the final
/// statistics. The run's whole state is its centroid histograms, the
/// latest assignment and the running assignment histogram, and no RNG is
/// drawn after seeding (an emptied cluster reseeds to the farthest
/// point), so stopping after any number of passes and finishing later
/// gives bit for bit what an unpaused run ([`kmeans_packed`]) gives. The
/// run owns its rows, flattened at `start`, so it outlives the matrix.
#[derive(Debug)]
pub struct PackedLloyd {
    /// The requested cluster count; the final centroids pad to it.
    k: usize,
    max_iters: usize,
    threads: usize,
    dim: usize,
    /// Each row's active one-hot dimensions, flattened once (CSR layout):
    /// every pass walks plain `u32` dim lists instead of re-deriving
    /// attribute offsets and NULL checks from the packed codes, and a
    /// row's length doubles as its |x| term. Row `i` ends at `row_ends[i]`.
    row_dims: Vec<u32>,
    row_ends: Vec<u32>,
    /// Centroid histograms and cluster sizes (`min(k, rows)` clusters).
    hist: Vec<Vec<u32>>,
    count: Vec<u32>,
    /// The latest pass's assignment; `usize::MAX` before the first pass,
    /// which moves every row into its cluster and so primes `sums`.
    assignments: Vec<usize>,
    /// Running assignment histogram, maintained incrementally: each pass
    /// merges per-chunk wrapping deltas (rows that changed cluster)
    /// instead of rebuilding the `k × dim` sums from scratch —
    /// bit-identical by the group argument on `assign_scatter_rows_with`,
    /// and nearly free once Lloyd stops moving rows.
    sums: Vec<u32>,
    counts: Vec<u32>,
    iterations: usize,
    converged: bool,
}

impl PackedLloyd {
    /// Validates `config`, flattens the rows and seeds by k-means++ (or
    /// random) seeding.
    pub fn start(
        matrix: &PackedMatrix,
        config: &KMeansConfig,
    ) -> Result<PackedLloyd, ClusterError> {
        fault::check("cluster::kmeans")?;
        if config.k == 0 {
            return Err(ClusterError::ZeroClusters);
        }
        Ok(matrix.dispatch(|view| match view {
            PackedView::U8(codes) => Self::seed(codes, matrix, config),
            PackedView::U32(codes) => Self::seed(codes, matrix, config),
        }))
    }

    fn seed<T: CodeWord>(codes: &[T], m: &PackedMatrix, config: &KMeansConfig) -> PackedLloyd {
        let n = m.rows();
        let dim = m.dim();
        let attrs = m.attrs();
        let mut row_dims: Vec<u32> = Vec::with_capacity(n * attrs);
        let mut row_ends: Vec<u32> = Vec::with_capacity(n);
        for i in 0..n {
            for (a, &code) in codes[i * attrs..(i + 1) * attrs].iter().enumerate() {
                if code != T::NULL {
                    row_dims.push((m.offset(a) + code.index()) as u32);
                }
            }
            row_ends.push(row_dims.len() as u32);
        }
        let mut run = PackedLloyd {
            k: config.k,
            max_iters: config.max_iters,
            threads: config.threads.max(1),
            dim,
            row_dims,
            row_ends,
            hist: Vec::new(),
            count: Vec::new(),
            assignments: vec![usize::MAX; n],
            sums: Vec::new(),
            counts: Vec::new(),
            iterations: 0,
            converged: n == 0,
        };
        if n == 0 {
            return run;
        }
        let k = config.k.min(n);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let seeds = if config.plus_plus {
            packed_seed_plus_plus(codes, m, k, &mut rng)
        } else {
            seed_random(n, k, &mut rng)
        };
        run.hist = seeds
            .iter()
            .map(|&i| hist_onehot(run.row(i), dim))
            .collect();
        run.count = vec![1; k];
        run.sums = vec![0; k * dim];
        run.counts = vec![0; k];
        run
    }

    /// Row `i`'s active dimensions, ascending — the sparse one-hot point
    /// the reference kernel would see.
    fn row(&self, i: usize) -> &[u32] {
        let start = if i == 0 {
            0
        } else {
            self.row_ends[i - 1] as usize
        };
        &self.row_dims[start..self.row_ends[i] as usize]
    }

    /// Runs one Lloyd pass: the assignment step and, unless it moved no
    /// row, the update step. Returns `false`, having done nothing, once
    /// the run [`is_done`](Self::is_done).
    pub fn pass(&mut self) -> bool {
        if self.is_done() {
            return false;
        }
        let first = self.iterations == 0;
        self.iterations += 1;
        let n = self.row_ends.len();
        let (k, dim) = (self.hist.len(), self.dim);
        // Assignment step. The centroid constants are padded to the LUT
        // stride with (+inf, 0.0) so the fused kernel's padded lanes can
        // never win the argmin (see `assign_rows_with`).
        let (norms, inv) = padded_constants(&self.hist, &self.count);
        let lut = build_int_lut(&self.hist, dim);
        // Assignment fused with the incremental update scatter: each chunk
        // reports which of its rows moved between clusters as wrapping
        // `(counts, sums)` deltas against the previous assignment. The
        // partials merge in chunk order into the running histogram;
        // because every merged quantity is a wrapping integer sum, the
        // result is byte-identical to a from-scratch scatter at any
        // thread count (see `assign_scatter_rows_with`).
        let (row_dims, row_ends, assignments) = (&self.row_dims, &self.row_ends, &self.assignments);
        let chunk = |range: std::ops::Range<usize>| {
            // Resolve the kernel family once per chunk, not per row: the
            // batched kernel keeps its dot accumulators in registers for
            // the whole chunk. The per-chunk delta histogram is one flat
            // `k × dim` array — contiguous scatter targets, and the chunk
            // merge below is a single strip add.
            let disp = dbex_stats::simd::dispatch();
            let mut part_assign = Vec::with_capacity(range.len());
            let mut part_counts = vec![0u32; k];
            let mut part_sums = vec![0u32; k * dim];
            assign_scatter_rows_with(
                disp,
                row_dims,
                row_ends,
                range,
                &lut,
                &norms,
                &inv,
                dim,
                assignments,
                &mut part_assign,
                &mut part_counts,
                &mut part_sums,
            );
            (part_assign, part_counts, part_sums)
        };
        let parts = dbex_par::par_map_chunks(self.threads, n, KMEANS_PAR_MIN_CHUNK, chunk);
        let ranges = dbex_par::chunk_ranges(n, self.threads, KMEANS_PAR_MIN_CHUNK);
        let mut changed = false;
        for (range, (part_assign, part_counts, part_sums)) in ranges.into_iter().zip(parts) {
            for (slot, best) in self.assignments[range].iter_mut().zip(part_assign) {
                if *slot != best {
                    *slot = best;
                    changed = true;
                }
            }
            for (c, pc) in self.counts.iter_mut().zip(&part_counts) {
                *c = c.wrapping_add(*pc);
            }
            dbex_stats::simd::add_assign_u32(&mut self.sums, &part_sums);
        }
        if !changed && !first {
            self.converged = true;
            return true;
        }
        for c in 0..k {
            if self.counts[c] == 0 {
                // Reseed the empty cluster to the point farthest from its
                // centroid (against the mixed state: clusters before `c`
                // already hold this pass's histograms), mirroring the
                // reference.
                let inv: Vec<f64> = self.count.iter().map(|&m| 1.0 / f64::from(m)).collect();
                let norms: Vec<f64> = self
                    .hist
                    .iter()
                    .zip(&inv)
                    .map(|(h, &iv)| hist_norm2(h, iv))
                    .collect();
                let dist = |i: usize| {
                    let c = self.assignments[i];
                    hist_dist2(self.row(i), &self.hist[c], norms[c], inv[c])
                };
                let far = (0..n)
                    .max_by(|&a, &b| dist(a).total_cmp(&dist(b)))
                    .unwrap_or(0);
                self.hist[c] = hist_onehot(self.row(far), dim);
                self.count[c] = 1;
            } else {
                self.hist[c].copy_from_slice(&self.sums[c * dim..(c + 1) * dim]);
                self.count[c] = self.counts[c];
            }
        }
        true
    }

    /// Passes run so far.
    pub fn passes(&self) -> usize {
        self.iterations
    }

    /// True once the run has converged or used its `max_iters` passes, so
    /// that another pass would change nothing.
    pub fn is_done(&self) -> bool {
        self.converged || self.iterations >= self.max_iters
    }

    /// The latest pass's cluster per row, or `None` before the first pass.
    pub fn assignments(&self) -> Option<&[usize]> {
        (self.iterations > 0).then_some(self.assignments.as_slice())
    }

    /// Runs the remaining passes, then assigns every row to its nearest
    /// final centroid and gathers the result.
    pub fn finish(mut self) -> KMeansResult {
        while self.pass() {}
        let n = self.row_ends.len();
        let k = self.hist.len();
        let dim = self.dim;
        let (norms, inv) = padded_constants(&self.hist, &self.count);
        let lut = build_int_lut(&self.hist, dim);
        // Nearest-centroid lookups chunk like the passes; the f64 inertia
        // fold stays sequential in row order (float addition is not
        // associative, so only the per-row (best, d) pairs parallelize).
        let (row_dims, row_ends) = (&self.row_dims, &self.row_ends);
        let parts = dbex_par::par_map_chunks(self.threads, n, KMEANS_PAR_MIN_CHUNK, |range| {
            let disp = dbex_stats::simd::dispatch();
            let mut out = Vec::with_capacity(range.len());
            assign_rows_with(
                disp, row_dims, row_ends, range, &lut, &norms, &inv, &mut out,
            );
            out
        });
        let mut inertia = 0.0;
        let mut sizes = vec![0usize; k];
        for (slot, (best, d)) in self.assignments.iter_mut().zip(parts.into_iter().flatten()) {
            *slot = best;
            sizes[best] += 1;
            inertia += d;
        }
        let mut centroids: Vec<Vec<f64>> = self
            .hist
            .iter()
            .zip(&self.count)
            .map(|(h, &m)| h.iter().map(|&v| f64::from(v) / f64::from(m)).collect())
            .collect();
        // Pad to the requested k so callers can index by cluster id
        // uniformly.
        while centroids.len() < self.k {
            centroids.push(vec![0.0; dim]);
            sizes.push(0);
        }
        KMeansResult {
            assignments: self.assignments,
            centroids,
            sizes,
            inertia,
            iterations: self.iterations,
        }
    }
}

/// Per-centroid `‖c‖²` and `1/m`, padded to the LUT stride with
/// `(+inf, 0.0)` so padded lanes never win an argmin.
fn padded_constants(hist: &[Vec<u32>], count: &[u32]) -> (Vec<f64>, Vec<f64>) {
    let stride = dot_stride(hist.len());
    let mut inv: Vec<f64> = count.iter().map(|&m| 1.0 / f64::from(m)).collect();
    let mut norms: Vec<f64> = hist
        .iter()
        .zip(&inv)
        .map(|(h, &iv)| hist_norm2(h, iv))
        .collect();
    norms.resize(stride, f64::INFINITY);
    inv.resize(stride, 0.0);
    (norms, inv)
}

/// Assigns every row of `matrix` to its nearest centroid — the packed
/// mirror of [`crate::oracle::assign_all`] (bit-identical assignments).
pub fn assign_all_packed(result: &KMeansResult, matrix: &PackedMatrix) -> Vec<usize> {
    let norms: Vec<f64> = result
        .centroids
        .iter()
        .map(|c| c.iter().map(|v| v * v).sum())
        .collect();
    matrix.dispatch(|view| match view {
        PackedView::U8(codes) => assign_all_packed_impl(codes, matrix, &result.centroids, &norms),
        PackedView::U32(codes) => assign_all_packed_impl(codes, matrix, &result.centroids, &norms),
    })
}

fn assign_all_packed_impl<T: CodeWord>(
    codes: &[T],
    m: &PackedMatrix,
    centroids: &[Vec<f64>],
    norms: &[f64],
) -> Vec<usize> {
    let attrs = m.attrs();
    let lut = build_lut(centroids, m.dim());
    let mut dot = vec![0.0f64; centroids.len()];
    (0..m.rows())
        .map(|i| {
            accumulate_dots(&codes[i * attrs..(i + 1) * attrs], m, &lut, &mut dot);
            nearest_from_dots(norms, &dot, m.len_of(i) as f64).0
        })
        .collect()
}

/// Transposed centroid table: `lut[d·k + c] = centroids[c][d]`, so one
/// active dimension contributes a contiguous k-wide strip of partial dots.
fn build_lut(centroids: &[Vec<f64>], dim: usize) -> Vec<f64> {
    let k = centroids.len();
    let mut lut = vec![0.0; dim * k];
    for (c, cent) in centroids.iter().enumerate() {
        for (d, &v) in cent.iter().enumerate() {
            lut[d * k + c] = v;
        }
    }
    lut
}

/// Accumulates `dot[c] = Σ_{d∈x} centroids[c][d]` for all centroids at
/// once. Per centroid, additions happen in ascending attribute order —
/// exactly the order `dist2` walks a sorted sparse point — so each
/// `dot[c]` is bit-equal to the reference dot product.
#[inline]
fn accumulate_dots<T: CodeWord>(row: &[T], m: &PackedMatrix, lut: &[f64], dot: &mut [f64]) {
    let k = dot.len();
    for v in dot.iter_mut() {
        *v = 0.0;
    }
    for (a, &code) in row.iter().enumerate() {
        if code != T::NULL {
            let base = (m.offset(a) + code.index()) * k;
            for (acc, &v) in dot.iter_mut().zip(&lut[base..base + k]) {
                *acc += v;
            }
        }
    }
}

/// `nearest` over precomputed dots (clamped distance, first-min ties).
#[inline]
fn nearest_from_dots(norms: &[f64], dot: &[f64], len: f64) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, (&n2, &dt)) in norms.iter().zip(dot).enumerate() {
        let d = (n2 - 2.0 * dt + len).max(0.0);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// Transposed integer histogram table with padded stride:
/// `lut[d·stride + c] = hist[c][d]`, zero in the padding lanes. Half the
/// footprint of the f64 [`build_lut`], and because integer addition is
/// associative the strip adds are free to vectorize — eight u32 lanes
/// per 256-bit op instead of two f64 doublewords.
pub(crate) fn build_int_lut(hists: &[Vec<u32>], dim: usize) -> Vec<u32> {
    let ks = dot_stride(hists.len());
    let mut lut = vec![0u32; dim * ks];
    for (c, h) in hists.iter().enumerate() {
        for (d, &v) in h.iter().enumerate() {
            lut[d * ks + c] = v;
        }
    }
    lut
}

// `nearest` over precomputed integer dots lives in [`crate::simd`]
// (`nearest_from_int_dots_with`): it evaluates the canonical histogram
// expression `(norm2 − 2·dot·inv + len).max(0)` — identical to
// [`hist_dist2`] in the oracle (clamped, first-min ties) —
// with per-lane-exact SIMD variants behind the runtime dispatch.

/// The packed mirror of the oracle's `sparse_dist2`: `|x| + |y| − 2|x∩y|`
/// with the intersection counted as matching non-NULL `(attribute, code)`
/// cells.
/// Pure integer arithmetic, so the cast is exact either way.
#[inline]
fn packed_sparse_dist2<T: CodeWord>(a: &[T], b: &[T], la: usize, lb: usize) -> f64 {
    let mut common = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        if x != T::NULL && x == y {
            common += 1;
        }
    }
    (la + lb - 2 * common) as f64
}

/// k-means++ seeding, the packed mirror of the oracle's `seed_plus_plus`
/// (identical RNG draw sequence).
///
/// For `u8` matrices on an x86_64 SIMD dispatch the per-round distance
/// refresh runs column-major: the codes are transposed once, then each
/// non-NULL seed attribute folds `col == code` matches into a per-row
/// byte counter 16/32 rows at a time ([`crate::simd::byte_eq_accumulate`])
/// and the exact integer distances `min`-fold into `d2`
/// ([`crate::simd::seed_min_update`]). Both the distances and the
/// sampling scan are bit-identical to the row-wise loop — the scan and
/// every RNG draw go through the shared [`seed_sample`], so the chosen
/// seeds match the reference path exactly.
fn packed_seed_plus_plus<T: CodeWord>(
    codes: &[T],
    m: &PackedMatrix,
    k: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let n = m.rows();
    let attrs = m.attrs();
    let disp = dbex_stats::simd::dispatch();
    // The byte kernels need u8 codes, per-row match counts that fit a
    // byte (`common ≤ attrs`), and a vector unit that beats the
    // transpose overhead.
    if size_of::<T>() == 1
        && attrs > 0
        && attrs <= u8::MAX as usize
        && matches!(disp, SimdDispatch::Sse2 | SimdDispatch::Avx2)
    {
        // SAFETY: `size_of::<T>() == 1` means `T` is `u8` (`CodeWord` is
        // implemented for `u8` and `u32` only), so this is an identity
        // reinterpretation of the same initialized bytes.
        let bytes = unsafe { std::slice::from_raw_parts(codes.as_ptr().cast::<u8>(), codes.len()) };
        return packed_seed_plus_plus_u8(bytes, m, k, disp, rng);
    }
    let row = |i: usize| &codes[i * attrs..(i + 1) * attrs];
    let mut seeds = Vec::with_capacity(k);
    let mut last = rng.random_range(0..n);
    seeds.push(last);
    let mut d2 = vec![f64::INFINITY; n];
    for _ in 1..k {
        for (i, slot) in d2.iter_mut().enumerate() {
            let d = packed_sparse_dist2(row(i), row(last), m.len_of(i), m.len_of(last));
            if d < *slot {
                *slot = d;
            }
        }
        let next = seed_sample(&d2, rng);
        seeds.push(next);
        last = next;
    }
    seeds
}

/// Column-major vectorized body of [`packed_seed_plus_plus`] (u8 codes).
fn packed_seed_plus_plus_u8(
    bytes: &[u8],
    m: &PackedMatrix,
    k: usize,
    disp: SimdDispatch,
    rng: &mut StdRng,
) -> Vec<usize> {
    let n = m.rows();
    let attrs = m.attrs();
    let lens = m.lens();
    // Transpose once so each attribute's cells are contiguous for the
    // byte-compare kernel; k−1 rounds then stream `attrs` columns each.
    let mut cols = vec![0u8; n * attrs];
    for (i, row) in bytes.chunks_exact(attrs).enumerate() {
        for (a, &c) in row.iter().enumerate() {
            cols[a * n + i] = c;
        }
    }
    let mut common = vec![0u8; n];
    let mut seeds = Vec::with_capacity(k);
    let mut last = rng.random_range(0..n);
    seeds.push(last);
    let mut d2 = vec![f64::INFINITY; n];
    for _ in 1..k {
        common.fill(0);
        let seed_row = &bytes[last * attrs..(last + 1) * attrs];
        for (a, &t) in seed_row.iter().enumerate() {
            // A NULL cell never matches a non-NULL code, and NULL seed
            // attributes contribute nothing — same intersection rule as
            // `packed_sparse_dist2`.
            if t != u8::MAX {
                crate::simd::byte_eq_accumulate(disp, &cols[a * n..(a + 1) * n], t, &mut common);
            }
        }
        crate::simd::seed_min_update(disp, &common, lens, lens[last], &mut d2);
        let next = seed_sample(&d2, rng);
        seeds.push(next);
        last = next;
    }
    seeds
}

/// One k-means++ sampling draw over the current distance vector — shared
/// by the row-wise and column-major seeding paths so their RNG sequences
/// are identical by construction.
fn seed_sample(d2: &[f64], rng: &mut StdRng) -> usize {
    let n = d2.len();
    let total: f64 = d2.iter().sum();
    if total <= 0.0 {
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
    }
}
