//! Packed dictionary-code point storage: the one representation the
//! clustering kernels run on.
//!
//! A tuple's one-hot point activates one dimension per non-NULL Compare
//! Attribute. Materializing those points costs one heap `Vec<u32>` per
//! tuple and a pointer chase per distance; for the CAD hot path — tens of
//! thousands of rows per pivot partition, re-encoded on every build —
//! that dominates the profile. A [`PackedMatrix`] stores the same
//! information as one contiguous row-major code matrix: one `u8` (or
//! `u32`, see below) per `(tuple, attribute)` cell holding the attribute's
//! discrete code, with the all-ones sentinel marking NULL.
//!
//! # Widths
//!
//! Codes are stored as `u8` when every attribute cardinality is ≤ 255 (the
//! sentinel `u8::MAX` must not collide with a live code), and as `u32`
//! otherwise, whose sentinel `u32::MAX` is already the dictionary's
//! `NULL_CODE`. Every attribute set packs; [`PackedMatrix::from_columns`]
//! refuses only broken input (a code outside its codec, a position past
//! its column) and matrices over `u32::MAX` cells, with a typed
//! [`ClusterError`].
//!
//! # Equivalence with the one-hot space
//!
//! A packed row is exactly the sparse one-hot point of the same tuple:
//! active dimension `offsets[a] + code` for every non-NULL attribute `a`.
//! Because the one-hot dimensions of a tuple are sorted and attribute
//! offsets ascend, iterating packed cells in attribute order visits the
//! active dimensions in the same order the sparse kernels of
//! [`crate::oracle`] do — which is what lets the packed kernels
//! ([`crate::kmeans::kmeans_packed`],
//! [`crate::minibatch::mini_batch_kmeans_packed`]) reproduce the oracle's
//! results *bit for bit*, not just approximately.

use crate::error::ClusterError;
use dbex_stats::discretize::CodedColumn;
use dbex_table::dict::NULL_CODE;

/// A fixed-width storage cell of a [`PackedMatrix`].
///
/// Implemented for `u8` and `u32`; the all-ones value is the NULL
/// sentinel, so the maximum representable live code is `MAX - 1`.
pub trait CodeWord: Copy + Eq {
    /// The NULL sentinel (`MAX` of the carrier type).
    const NULL: Self;
    /// Widens a live code to a dimension index.
    fn index(self) -> usize;
}

impl CodeWord for u8 {
    const NULL: Self = u8::MAX;
    fn index(self) -> usize {
        self as usize
    }
}

impl CodeWord for u32 {
    const NULL: Self = NULL_CODE;
    fn index(self) -> usize {
        self as usize
    }
}

/// The width-dispatched code storage of a [`PackedMatrix`].
#[derive(Debug, Clone)]
enum PackedCodes {
    U8(Vec<u8>),
    U32(Vec<u32>),
}

/// Row-major packed code matrix over a set of discretized attributes.
///
/// Construction gathers the member tuples' codes once; the clustering
/// kernels then stream the matrix with zero further allocation per row.
#[derive(Debug, Clone)]
pub struct PackedMatrix {
    /// Start of each attribute's block of one-hot dimensions.
    offsets: Vec<usize>,
    /// Total one-hot dimensionality (sum of attribute cardinalities).
    dim: usize,
    rows: usize,
    attrs: usize,
    /// Non-NULL attribute count per row (`|x|` in the distance formula).
    lens: Vec<u32>,
    codes: PackedCodes,
}

impl PackedMatrix {
    /// Packs the tuples at `positions` of the given coded columns.
    ///
    /// Fails with [`ClusterError::CodeOutOfRange`] when a stored code is
    /// at or above its codec's cardinality or a position lies past a
    /// column, and with [`ClusterError::MatrixTooLarge`] when
    /// `rows·attrs` exceeds `u32::MAX` (the packed kernels' integer dot
    /// accumulator bound).
    pub fn from_columns(
        columns: &[&CodedColumn],
        positions: &[usize],
    ) -> Result<PackedMatrix, ClusterError> {
        let cards: Vec<usize> = columns.iter().map(|c| c.codec.cardinality()).collect();
        let rows = positions.len();
        let attrs = columns.len();
        if rows.saturating_mul(attrs) > u32::MAX as usize {
            return Err(ClusterError::MatrixTooLarge { rows, attrs });
        }
        let mut offsets = Vec::with_capacity(attrs);
        let mut dim = 0;
        for &c in &cards {
            offsets.push(dim);
            dim += c;
        }
        let mut lens = vec![0u32; rows];
        let codes = if cards.iter().all(|&c| c <= u8::MAX as usize) {
            PackedCodes::U8(pack::<u8>(columns, positions, &cards, &mut lens)?)
        } else {
            PackedCodes::U32(pack::<u32>(columns, positions, &cards, &mut lens)?)
        };
        Ok(PackedMatrix {
            offsets,
            dim,
            rows,
            attrs,
            lens,
            codes,
        })
    }

    /// Number of packed rows (tuples).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of packed attributes (columns).
    pub fn attrs(&self) -> usize {
        self.attrs
    }

    /// Total one-hot dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// True when codes are stored as `u8` (every cardinality ≤ 255).
    pub fn is_u8(&self) -> bool {
        matches!(self.codes, PackedCodes::U8(_))
    }

    /// Start of attribute `a`'s block of one-hot dimensions.
    #[inline]
    pub fn offset(&self, a: usize) -> usize {
        self.offsets[a]
    }

    /// Non-NULL attribute count of row `r`.
    #[inline]
    pub fn len_of(&self, r: usize) -> usize {
        self.lens[r] as usize
    }

    /// All per-row non-NULL counts (the vectorized seeding kernel loads
    /// them four at a time).
    pub(crate) fn lens(&self) -> &[u32] {
        &self.lens
    }

    /// Runs `f` over the width-monomorphized code slice.
    pub(crate) fn dispatch<R>(&self, f: impl FnOnce(PackedView<'_>) -> R) -> R {
        match &self.codes {
            PackedCodes::U8(codes) => f(PackedView::U8(codes)),
            PackedCodes::U32(codes) => f(PackedView::U32(codes)),
        }
    }
}

/// Width-monomorphized borrow of the code matrix.
pub(crate) enum PackedView<'a> {
    U8(&'a [u8]),
    U32(&'a [u32]),
}

/// Gathers and narrows the codes at `positions`, failing on a position
/// past a column or a code outside its codec's cardinality (a broken
/// invariant, surfaced as a typed error for the caller's fallback).
///
/// Extraction runs column-at-a-time through [`dbex_table::batch::gather_into`]
/// — one sequential pass over each column's code slice — before narrowing
/// into the row-major matrix, instead of striding all columns per row.
fn pack<T: CodeWord + TryFrom<u32>>(
    columns: &[&CodedColumn],
    positions: &[usize],
    cards: &[usize],
    lens: &mut [u32],
) -> Result<Vec<T>, ClusterError> {
    let attrs = columns.len();
    let mut out = vec![T::NULL; positions.len() * attrs];
    let mut gathered: Vec<u32> = Vec::new();
    for (a, col) in columns.iter().enumerate() {
        let bad = ClusterError::CodeOutOfRange { attr: a };
        if !dbex_table::batch::gather_into(&col.codes, positions, &mut gathered) {
            return Err(bad);
        }
        for (r, &code) in gathered.iter().enumerate() {
            if code == NULL_CODE {
                continue; // cell already holds the NULL sentinel
            }
            match T::try_from(code) {
                Ok(cell) if (code as usize) < cards[a] => out[r * attrs + a] = cell,
                _ => return Err(bad),
            }
            lens[r] += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{onehot_rows, OneHotSpace};
    use dbex_stats::discretize::AttributeCodec;

    fn coded(attr_index: usize, labels: &[&str], codes: Vec<u32>) -> CodedColumn {
        let labels = labels.iter().map(|s| s.to_string()).collect();
        let codec = std::sync::Arc::new(AttributeCodec::Categorical { labels });
        CodedColumn::new(attr_index, codec, codes)
    }

    fn wide(card: usize, codes: Vec<u32>) -> CodedColumn {
        let labels: Vec<String> = (0..card).map(|i| format!("v{i}")).collect();
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        coded(0, &label_refs, codes)
    }

    #[test]
    fn packs_u8_and_matches_onehot_encoding() {
        let c0 = coded(0, &["a", "b", "c"], vec![0, 2, NULL_CODE, 1]);
        let c1 = coded(1, &["x", "y"], vec![1, NULL_CODE, 0, 1]);
        let cols = [&c0, &c1];
        let m = PackedMatrix::from_columns(&cols, &[0, 1, 2, 3]).unwrap();
        assert!(m.is_u8());
        assert_eq!(m.rows(), 4);
        assert_eq!(m.attrs(), 2);
        assert_eq!(m.dim(), 5);
        let space = OneHotSpace::from_columns(&cols);
        let expected = space.encode_positions(&cols, &[0, 1, 2, 3]);
        assert_eq!(onehot_rows(&m), expected);
        assert_eq!(m.len_of(0), 2);
        assert_eq!(m.len_of(1), 1);
        assert_eq!(m.len_of(2), 1);
    }

    #[test]
    fn subset_of_positions() {
        let c0 = coded(0, &["a", "b"], vec![0, 1, 0, 1]);
        let cols = [&c0];
        let m = PackedMatrix::from_columns(&cols, &[3, 1]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(onehot_rows(&m), vec![vec![1], vec![1]]);
    }

    #[test]
    fn promotes_to_u32_above_255() {
        let c0 = wide(300, vec![0, 255, 299, NULL_CODE]);
        let m = PackedMatrix::from_columns(&[&c0], &[0, 1, 2, 3]).unwrap();
        assert!(!m.is_u8());
        assert_eq!(onehot_rows(&m), vec![vec![0], vec![255], vec![299], vec![]]);
    }

    #[test]
    fn u8_sentinel_never_collides_with_live_code() {
        // Cardinality 256 must promote: code 255 would alias the sentinel.
        let c0 = wide(256, vec![255]);
        let m = PackedMatrix::from_columns(&[&c0], &[0]).unwrap();
        assert!(!m.is_u8());
        assert_eq!(m.len_of(0), 1);
        assert_eq!(onehot_rows(&m), vec![vec![255]]);
    }

    #[test]
    fn packs_any_cardinality_and_refuses_out_of_range_codes() {
        let big = wide(70_000, vec![0, 69_999, NULL_CODE]);
        let m = PackedMatrix::from_columns(&[&big], &[0, 1, 2]).unwrap();
        assert!(!m.is_u8());
        assert_eq!(m.dim(), 70_000);
        assert_eq!(onehot_rows(&m), vec![vec![0], vec![69_999], vec![]]);
        let c0 = coded(0, &["a", "b"], vec![0]);
        let c1 = coded(1, &["a", "b"], vec![5]); // code ≥ cardinality
        let err = PackedMatrix::from_columns(&[&c0, &c1], &[0]).unwrap_err();
        assert_eq!(err, ClusterError::CodeOutOfRange { attr: 1 });
        // A position past the column is refused the same way.
        let err = PackedMatrix::from_columns(&[&c0], &[1]).unwrap_err();
        assert_eq!(err, ClusterError::CodeOutOfRange { attr: 0 });
    }
}
