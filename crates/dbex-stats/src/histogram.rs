//! Numeric discretization via histograms.
//!
//! The paper (Section 2.2.1) reduces the cardinality of numeric attributes
//! by binning values into ranges — "we suggest following the well-developed
//! techniques in histogram construction [Jagadish & Suel]". Three strategies
//! are provided:
//!
//! * **Equi-width** — fixed-width bins over `[min, max]`.
//! * **Equi-depth** — bins with (approximately) equal tuple counts.
//! * **V-optimal** — bins minimizing total within-bin variance (sum of
//!   squared errors), computed by the classical dynamic program over the
//!   sorted distinct-value frequency vector. This is the "optimal histogram
//!   with quality guarantees" of the paper's reference \[17\].

// Index loops below intentionally couple multiple arrays / triangular
// ranges; iterator adapters would obscure the math.
#![allow(clippy::needless_range_loop)]

use crate::error::StatsError;
use crate::fault;

/// Strategy used to place bin boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinningStrategy {
    /// Fixed-width bins over the value range.
    EquiWidth,
    /// Approximately equal tuple counts per bin.
    EquiDepth,
    /// Minimum total within-bin variance (V-optimal DP).
    VOptimal,
    /// Boundaries at the largest gaps between adjacent distinct values
    /// (the classical MaxDiff heuristic — near-V-optimal quality at sort
    /// cost).
    MaxDiff,
}

/// A one-dimensional histogram: an increasing sequence of bin edges.
///
/// With edges `e0 < e1 < ... < eB`, bin `i` covers `[e_i, e_{i+1})`, except
/// the last bin which is closed: `[e_{B-1}, e_B]`.
#[derive(Debug, Clone)]
pub struct Histogram {
    edges: Vec<f64>,
}

impl Histogram {
    /// Builds a histogram over `values` with at most `bins` bins.
    ///
    /// Returns a histogram with fewer bins when the data has fewer distinct
    /// values than requested. `values` may be in any order; NULLs must be
    /// filtered by the caller. Fails with a typed [`StatsError`] when
    /// `values` is empty, contains no finite value, or `bins == 0`.
    ///
    /// ```
    /// use dbex_stats::histogram::{Histogram, BinningStrategy};
    ///
    /// let prices = [12_000.0, 15_000.0, 22_000.0, 41_000.0, 44_000.0];
    /// let h = Histogram::build(&prices, 2, BinningStrategy::VOptimal).unwrap();
    /// assert_eq!(h.num_bins(), 2);
    /// assert_ne!(h.bin_of(15_000.0), h.bin_of(42_000.0));
    /// ```
    pub fn build(
        values: &[f64],
        bins: usize,
        strategy: BinningStrategy,
    ) -> Result<Histogram, StatsError> {
        fault::check("histogram::build")?;
        if values.is_empty() {
            return Err(StatsError::EmptyInput {
                what: "histogram values",
            });
        }
        if bins == 0 {
            return Err(StatsError::ZeroBins);
        }
        let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return Err(StatsError::NoFiniteValues {
                what: "histogram values",
            });
        }
        let sorted = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v
        };
        let edges = match strategy {
            BinningStrategy::EquiWidth => equi_width_edges(&sorted(finite), bins),
            BinningStrategy::EquiDepth => equi_depth_edges(finite, bins),
            BinningStrategy::VOptimal => v_optimal_edges(&sorted(finite), bins),
            BinningStrategy::MaxDiff => max_diff_edges(&sorted(finite), bins),
        };
        Ok(Histogram { edges })
    }

    /// The bin edges (length = number of bins + 1).
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.edges.len() - 1
    }

    /// Index of the bin containing `v`.
    ///
    /// Values below the first edge clamp to bin 0; values above the last
    /// edge clamp to the last bin, and NaN maps to bin 0. This makes the
    /// codec total, so rows that fall outside the range the histogram was
    /// built on (a sample, or non-finite values the build filtered out)
    /// still discretize.
    pub fn bin_of(&self, v: f64) -> usize {
        let last = self.num_bins() - 1;
        // NaN compares false against every edge; without this check it
        // would reach partition_point, get index 0, and underflow below.
        if v.is_nan() || v <= self.edges[0] {
            return 0;
        }
        if v >= self.edges[self.edges.len() - 1] {
            return last;
        }
        // partition_point: first edge strictly greater than v.
        let idx = self.edges.partition_point(|&e| e <= v);
        idx.saturating_sub(1).min(last)
    }

    /// Batch [`Histogram::bin_of`]: writes the bin of every value into
    /// `out` (same length). Identical results — including the NaN and
    /// out-of-range clamping — via the branchless count-of-edges
    /// formulation, which SIMD-vectorizes four values per op (see
    /// [`crate::simd::bin_of_batch`]).
    pub fn bin_of_batch(&self, values: &[f64], out: &mut [u32]) {
        crate::simd::bin_of_batch(&self.edges, values, out);
    }

    /// Human-readable label for bin `i`, e.g. `"15K-20K"` or `"2011-2012"`.
    pub fn label(&self, i: usize) -> String {
        let lo = self.edges[i];
        let hi = self.edges[i + 1];
        format!("{}-{}", format_edge(lo), format_edge(hi))
    }

    /// All bin labels in order.
    pub fn labels(&self) -> Vec<String> {
        (0..self.num_bins()).map(|i| self.label(i)).collect()
    }
}

/// Formats a bin edge compactly: integers ≥ 10 000 print as `25K`, other
/// integers print plain, fractional values keep one decimal.
fn format_edge(v: f64) -> String {
    if (v.fract()).abs() < 1e-9 {
        let i = v.round() as i64;
        if i.abs() >= 10_000 && i % 500 == 0 {
            let k = i as f64 / 1000.0;
            if (k.fract()).abs() < 1e-9 {
                return format!("{}K", k as i64);
            }
            return format!("{k:.1}K");
        }
        return format!("{i}");
    }
    format!("{v:.1}")
}

fn equi_width_edges(sorted: &[f64], bins: usize) -> Vec<f64> {
    let min = sorted[0];
    let max = sorted[sorted.len() - 1];
    if min == max {
        return vec![min, max + 1.0];
    }
    let width = (max - min) / bins as f64;
    let mut edges: Vec<f64> = (0..=bins).map(|i| min + width * i as f64).collect();
    // Guard against floating error on the final edge.
    if let Some(last) = edges.last_mut() {
        *last = max;
    }
    dedup_edges(edges)
}

/// Equi-depth edges are `bins + 1` order statistics of the (non-empty)
/// values — the minimum, the `i·n/bins`-th smallest for each inner edge,
/// and the maximum — so they are selected rather than sorted for. The
/// ranks never decrease, and each selection leaves every value at or above
/// its pick in the suffix from it, so the next selection runs over that
/// shrinking suffix alone. Under `total_cmp` an order statistic has exactly
/// one bit pattern: the edges are bit-identical to reading them off the
/// sorted values.
fn equi_depth_edges(mut values: Vec<f64>, bins: usize) -> Vec<f64> {
    let n = values.len();
    let inner = (1..bins).map(|i| ((i * n) / bins).min(n - 1));
    let ranks = std::iter::once(0)
        .chain(inner)
        .chain(std::iter::once(n - 1));
    let mut edges = Vec::with_capacity(bins + 1);
    let mut base = 0;
    for rank in ranks {
        let (_, nth, _) = values[base..].select_nth_unstable_by(rank - base, f64::total_cmp);
        edges.push(*nth);
        base = rank;
    }
    dedup_edges(edges)
}

/// V-optimal histogram via dynamic programming on the distinct-value
/// frequency vector.
///
/// Cost of a bucket spanning distinct values `i..j` is the frequency-
/// weighted sum of squared deviations from the bucket mean, computed in
/// O(1) from prefix sums. The DP is `O(d² · bins)` where `d` is the number
/// of distinct values; inputs with more than [`VOPT_MAX_DISTINCT`] distinct
/// values are pre-aggregated into that many equi-depth micro-bins, which
/// preserves the shape of the distribution while bounding runtime.
fn v_optimal_edges(sorted: &[f64], bins: usize) -> Vec<f64> {
    // Distinct values + frequencies.
    let mut xs: Vec<f64> = Vec::new();
    let mut fs: Vec<f64> = Vec::new();
    for &v in sorted {
        if xs.last() == Some(&v) {
            if let Some(f) = fs.last_mut() {
                *f += 1.0;
            }
            continue;
        }
        xs.push(v);
        fs.push(1.0);
    }
    if xs.len() > VOPT_MAX_DISTINCT {
        (xs, fs) = micro_aggregate(&xs, &fs, VOPT_MAX_DISTINCT);
    }
    let d = xs.len();
    let b = bins.min(d);
    if b <= 1 {
        return dedup_edges(vec![xs[0], xs[d - 1]]);
    }

    // Prefix sums for O(1) SSE(i..=j).
    let mut pf = vec![0.0; d + 1]; // Σ f
    let mut pfx = vec![0.0; d + 1]; // Σ f·x
    let mut pfx2 = vec![0.0; d + 1]; // Σ f·x²
    for i in 0..d {
        pf[i + 1] = pf[i] + fs[i];
        pfx[i + 1] = pfx[i] + fs[i] * xs[i];
        pfx2[i + 1] = pfx2[i] + fs[i] * xs[i] * xs[i];
    }
    let sse = |i: usize, j: usize| -> f64 {
        // inclusive i..=j over distinct indices
        let f = pf[j + 1] - pf[i];
        if f <= 0.0 {
            return 0.0;
        }
        let sx = pfx[j + 1] - pfx[i];
        let sx2 = pfx2[j + 1] - pfx2[i];
        (sx2 - sx * sx / f).max(0.0)
    };

    // dp[k][j] = min cost of covering distinct values 0..=j with k+1 buckets.
    let mut dp = vec![vec![f64::INFINITY; d]; b];
    let mut back = vec![vec![0usize; d]; b];
    for j in 0..d {
        dp[0][j] = sse(0, j);
    }
    for k in 1..b {
        for j in k..d {
            for split in (k - 1)..j {
                let cost = dp[k - 1][split] + sse(split + 1, j);
                if cost < dp[k][j] {
                    dp[k][j] = cost;
                    back[k][j] = split;
                }
            }
        }
    }

    // Recover boundaries.
    let mut cut_after = Vec::new(); // indices i such that a boundary lies between xs[i] and xs[i+1]
    let mut k = b - 1;
    let mut j = d - 1;
    while k > 0 {
        let split = back[k][j];
        cut_after.push(split);
        j = split;
        k -= 1;
    }
    cut_after.reverse();

    let mut edges = Vec::with_capacity(b + 1);
    edges.push(xs[0]);
    for &i in &cut_after {
        // Boundary at midpoint between adjacent distinct values.
        edges.push((xs[i] + xs[i + 1]) / 2.0);
    }
    edges.push(xs[d - 1]);
    dedup_edges(edges)
}

/// MaxDiff: place the `bins − 1` boundaries at the largest gaps between
/// adjacent distinct values.
fn max_diff_edges(sorted: &[f64], bins: usize) -> Vec<f64> {
    let mut xs: Vec<f64> = sorted.to_vec();
    xs.dedup();
    let d = xs.len();
    if d <= 1 || bins <= 1 {
        return dedup_edges(vec![xs[0], xs[d - 1]]);
    }
    // Gaps between adjacent distinct values, largest first.
    let mut gaps: Vec<(f64, usize)> = xs
        .windows(2)
        .enumerate()
        .map(|(i, w)| (w[1] - w[0], i))
        .collect();
    gaps.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut cut_after: Vec<usize> = gaps
        .into_iter()
        .take(bins - 1)
        .map(|(_, i)| i)
        .collect();
    cut_after.sort_unstable();
    let mut edges = Vec::with_capacity(cut_after.len() + 2);
    edges.push(xs[0]);
    for i in cut_after {
        edges.push((xs[i] + xs[i + 1]) / 2.0);
    }
    edges.push(xs[d - 1]);
    dedup_edges(edges)
}

/// Maximum distinct values fed to the V-optimal DP before pre-aggregation.
const VOPT_MAX_DISTINCT: usize = 1024;

fn micro_aggregate(xs: &[f64], fs: &[f64], target: usize) -> (Vec<f64>, Vec<f64>) {
    let total: f64 = fs.iter().sum();
    let per = total / target as f64;
    let mut out_x = Vec::with_capacity(target);
    let mut out_f = Vec::with_capacity(target);
    let mut acc_f = 0.0;
    let mut acc_fx = 0.0;
    for (&x, &f) in xs.iter().zip(fs) {
        acc_f += f;
        acc_fx += f * x;
        if acc_f >= per {
            out_x.push(acc_fx / acc_f);
            out_f.push(acc_f);
            acc_f = 0.0;
            acc_fx = 0.0;
        }
    }
    if acc_f > 0.0 {
        out_x.push(acc_fx / acc_f);
        out_f.push(acc_f);
    }
    (out_x, out_f)
}

fn dedup_edges(mut edges: Vec<f64>) -> Vec<f64> {
    edges.dedup();
    if edges.len() < 2 {
        let v = edges.first().copied().unwrap_or(0.0);
        // Additive bump scaled to the value's magnitude so the upper edge
        // is strictly greater even for very large |v|.
        let bump = (v.abs() * 1e-9).max(1.0);
        return vec![v, v + bump];
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Equi-depth edges read off the fully sorted finite values — the
    /// construction the selection in `equi_depth_edges` replaced.
    fn sorted_equi_depth(values: &[f64], bins: usize) -> Option<Vec<f64>> {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mut edges = vec![sorted[0]];
        for i in 1..bins {
            edges.push(sorted[((i * n) / bins).min(n - 1)]);
        }
        edges.push(sorted[n - 1]);
        Some(dedup_edges(edges))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn equi_depth_selection_matches_sorted_edges_bit_for_bit(
            draws in prop::collection::vec((0u8..12, -50.0f64..50.0), 1..80),
            bins in 1usize..12,
        ) {
            // Few distinct values (duplicates), signed zeros, NaN and the
            // infinities; short inputs give n < bins.
            let values: Vec<f64> = draws
                .into_iter()
                .map(|(kind, x)| match kind {
                    0 => -0.0,
                    1 => 0.0,
                    2 => f64::NAN,
                    3 => f64::INFINITY,
                    4 => f64::NEG_INFINITY,
                    5..=8 => x.round(),
                    _ => x,
                })
                .collect();
            let built = Histogram::build(&values, bins, BinningStrategy::EquiDepth).ok();
            let bits = |edges: &[f64]| edges.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                built.map(|h| bits(h.edges())),
                sorted_equi_depth(&values, bins).map(|e| bits(&e)),
                "values {:?}, bins {}", values, bins
            );
        }
    }

    #[test]
    fn equi_width_basic() {
        let h = Histogram::build(&[0.0, 10.0, 5.0, 2.0], 2, BinningStrategy::EquiWidth).unwrap();
        assert_eq!(h.edges(), &[0.0, 5.0, 10.0]);
        assert_eq!(h.bin_of(4.9), 0);
        assert_eq!(h.bin_of(5.0), 1);
        assert_eq!(h.bin_of(10.0), 1);
        assert_eq!(h.bin_of(-3.0), 0);
        assert_eq!(h.bin_of(99.0), 1);
    }

    #[test]
    fn equi_depth_balances_counts() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let h = Histogram::build(&values, 4, BinningStrategy::EquiDepth).unwrap();
        assert_eq!(h.num_bins(), 4);
        let mut counts = vec![0usize; 4];
        for &v in &values {
            counts[h.bin_of(v)] += 1;
        }
        for &c in &counts {
            assert!((20..=30).contains(&c), "unbalanced: {counts:?}");
        }
    }

    #[test]
    fn equi_depth_skewed_data() {
        // 90 copies of 1.0, ten distinct tail values: duplicate edges must
        // collapse rather than produce empty/invalid bins.
        let mut values = vec![1.0; 90];
        values.extend((2..12).map(|i| i as f64));
        let h = Histogram::build(&values, 5, BinningStrategy::EquiDepth).unwrap();
        assert!(h.num_bins() >= 1);
        let edges = h.edges();
        for w in edges.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn v_optimal_finds_cluster_gaps() {
        // Two tight clusters: the optimal 2-bin split is between them.
        let mut values = Vec::new();
        values.extend((0..50).map(|i| 10.0 + 0.01 * i as f64));
        values.extend((0..50).map(|i| 100.0 + 0.01 * i as f64));
        let h = Histogram::build(&values, 2, BinningStrategy::VOptimal).unwrap();
        assert_eq!(h.num_bins(), 2);
        let boundary = h.edges()[1];
        assert!(boundary > 11.0 && boundary < 100.0, "boundary={boundary}");
        assert_eq!(h.bin_of(10.2), 0);
        assert_eq!(h.bin_of(100.2), 1);
    }

    #[test]
    fn v_optimal_beats_equi_width_on_sse() {
        // Skewed data where equi-width wastes bins on empty space.
        let mut values: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        values.push(1000.0);
        let vo = Histogram::build(&values, 4, BinningStrategy::VOptimal).unwrap();
        let ew = Histogram::build(&values, 4, BinningStrategy::EquiWidth).unwrap();
        let sse = |h: &Histogram| {
            let mut sums = vec![(0.0f64, 0.0f64, 0.0f64); h.num_bins()];
            for &v in &values {
                let b = h.bin_of(v);
                sums[b].0 += 1.0;
                sums[b].1 += v;
                sums[b].2 += v * v;
            }
            sums.iter()
                .filter(|s| s.0 > 0.0)
                .map(|s| s.2 - s.1 * s.1 / s.0)
                .sum::<f64>()
        };
        assert!(sse(&vo) <= sse(&ew) + 1e-9);
    }

    #[test]
    fn fewer_distinct_values_than_bins() {
        let h = Histogram::build(&[1.0, 1.0, 2.0], 10, BinningStrategy::VOptimal).unwrap();
        assert!(h.num_bins() <= 2);
        assert_eq!(h.bin_of(1.0), 0);
    }

    #[test]
    fn constant_column() {
        let h = Histogram::build(&[7.0; 5], 3, BinningStrategy::EquiWidth).unwrap();
        assert_eq!(h.num_bins(), 1);
        assert_eq!(h.bin_of(7.0), 0);
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        assert_eq!(
            Histogram::build(&[], 3, BinningStrategy::EquiWidth).unwrap_err(),
            StatsError::EmptyInput {
                what: "histogram values"
            }
        );
        assert_eq!(
            Histogram::build(&[1.0], 0, BinningStrategy::EquiWidth).unwrap_err(),
            StatsError::ZeroBins
        );
        assert_eq!(
            Histogram::build(
                &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
                3,
                BinningStrategy::EquiWidth
            )
            .unwrap_err(),
            StatsError::NoFiniteValues {
                what: "histogram values"
            }
        );
    }

    #[test]
    fn nan_mixed_with_finite_values_is_filtered() {
        let h = Histogram::build(
            &[1.0, f64::NAN, 2.0, f64::INFINITY, 3.0],
            2,
            BinningStrategy::EquiDepth,
        )
        .unwrap();
        assert!(h.num_bins() >= 1);
        assert!(h.edges().iter().all(|e| e.is_finite()));
    }

    #[test]
    fn bin_of_is_total_over_non_finite_queries() {
        let h = Histogram::build(&[1.0, 2.0, 3.0, 4.0], 2, BinningStrategy::EquiDepth).unwrap();
        // NaN and the infinities clamp instead of panicking: the codec must
        // stay total even when the column being encoded holds values the
        // histogram build filtered out.
        assert_eq!(h.bin_of(f64::NAN), 0);
        assert_eq!(h.bin_of(f64::NEG_INFINITY), 0);
        assert_eq!(h.bin_of(f64::INFINITY), h.num_bins() - 1);
    }

    #[test]
    fn injected_fault_surfaces_as_error() {
        let _guard = crate::fault::scoped("histogram::build");
        let err = Histogram::build(&[1.0, 2.0], 2, BinningStrategy::EquiWidth).unwrap_err();
        assert_eq!(
            err,
            StatsError::FaultInjected {
                site: "histogram::build"
            }
        );
    }

    #[test]
    fn batch_binning_matches_bin_of() {
        let values: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64 / 3.0).collect();
        for strategy in [
            BinningStrategy::EquiWidth,
            BinningStrategy::EquiDepth,
            BinningStrategy::VOptimal,
            BinningStrategy::MaxDiff,
        ] {
            let h = Histogram::build(&values, 6, strategy).unwrap();
            let mut probes = values.clone();
            probes.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e18, 1e18]);
            let mut batch = vec![0u32; probes.len()];
            h.bin_of_batch(&probes, &mut batch);
            for (&v, &b) in probes.iter().zip(&batch) {
                assert_eq!(b as usize, h.bin_of(v), "strategy {strategy:?}, v={v}");
            }
        }
    }

    #[test]
    fn labels_use_compact_notation() {
        let values: Vec<f64> = vec![15_000.0, 20_000.0, 25_000.0, 30_000.0];
        let h = Histogram::build(&values, 3, BinningStrategy::EquiDepth).unwrap();
        let labels = h.labels();
        assert!(labels.iter().any(|l| l.contains('K')), "labels={labels:?}");
    }

    #[test]
    fn max_diff_splits_at_largest_gaps() {
        // Gaps: 1,1,88,1,1,907 — two boundaries land in the two big gaps.
        let values = [0.0, 1.0, 2.0, 90.0, 91.0, 92.0, 999.0];
        let h = Histogram::build(&values, 3, BinningStrategy::MaxDiff).unwrap();
        assert_eq!(h.num_bins(), 3);
        assert_eq!(h.bin_of(1.5), 0);
        assert_eq!(h.bin_of(91.0), 1);
        assert_eq!(h.bin_of(999.0), 2);
    }

    #[test]
    fn max_diff_degenerate_inputs() {
        let h = Histogram::build(&[5.0, 5.0], 4, BinningStrategy::MaxDiff).unwrap();
        assert_eq!(h.num_bins(), 1);
        let h = Histogram::build(&[1.0, 2.0], 4, BinningStrategy::MaxDiff).unwrap();
        assert!(h.num_bins() <= 2);
        assert_ne!(h.bin_of(1.0), h.bin_of(2.0));
    }

    #[test]
    fn large_distinct_input_is_aggregated() {
        let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let h = Histogram::build(&values, 6, BinningStrategy::VOptimal).unwrap();
        assert_eq!(h.num_bins(), 6);
    }
}
