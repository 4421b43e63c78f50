//! Typed errors for the clustering layer.

use dbex_stats::StatsError;
use std::fmt;

/// An error from k-means clustering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// `k == 0` clusters requested.
    ZeroClusters,
    /// A sparse point activates a dimension outside the feature space.
    DimensionOutOfRange {
        /// Index of the offending point.
        point: usize,
        /// The out-of-range dimension.
        dim: u32,
        /// Dimensionality of the space.
        space: usize,
    },
    /// A packed cell has no live code: a stored code is at or above its
    /// codec's cardinality, or a row position lies past the column.
    CodeOutOfRange {
        /// Index of the offending attribute in the packed set.
        attr: usize,
    },
    /// `rows · attrs` exceeds `u32::MAX`, the bound that keeps the packed
    /// kernels' integer dot accumulators exact.
    MatrixTooLarge {
        /// Rows to pack.
        rows: usize,
        /// Attributes per row.
        attrs: usize,
    },
    /// Discretization failed while preparing clustering inputs.
    Stats(StatsError),
    /// A deliberately injected fault (testing only; see [`crate::fault`]).
    FaultInjected {
        /// The site that was armed.
        site: &'static str,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::ZeroClusters => write!(f, "k must be at least 1"),
            ClusterError::DimensionOutOfRange { point, dim, space } => write!(
                f,
                "point {point} activates dimension {dim} outside the {space}-dimensional space"
            ),
            ClusterError::CodeOutOfRange { attr } => write!(
                f,
                "attribute {attr} holds a code outside its codec or a position past its column"
            ),
            ClusterError::MatrixTooLarge { rows, attrs } => write!(
                f,
                "{rows} rows x {attrs} attributes exceed the packed kernels' {} cells",
                u32::MAX
            ),
            ClusterError::Stats(_) => write!(f, "discretization failed"),
            ClusterError::FaultInjected { site } => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StatsError> for ClusterError {
    fn from(e: StatsError) -> Self {
        ClusterError::Stats(e)
    }
}
