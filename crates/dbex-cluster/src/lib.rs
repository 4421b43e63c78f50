//! # dbex-cluster
//!
//! Clustering substrate for IUnit generation (paper Problem 1.2,
//! Section 3.1.2).
//!
//! The paper clusters the tuples of each Pivot Attribute value "using only
//! the above-chosen Compare Attributes" with Weka's `SimpleKMeans`, under an
//! interactive latency budget. This crate provides:
//!
//! * [`packed`] — packed dictionary-code rows. Mixed categorical/numeric
//!   data is first discretized (`dbex-stats`); each tuple is then the
//!   one-hot point with one active dimension per non-NULL Compare
//!   Attribute, stored as one code per attribute.
//! * [`mod@kmeans`] — Lloyd's algorithm with k-means++ seeding, empty-cluster
//!   reseeding, and out-of-sample assignment (the paper's sampling
//!   optimization clusters a sample and assigns the remainder), over
//!   packed rows. A [`PackedLloyd`] run can stop after any pass, which is
//!   how a CAD build keeps its deadline inside a clustering run.
//! * [`oracle`] — the sparse one-hot reference the packed kernels are
//!   tested against bit for bit. No production code calls it.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod error;
pub mod fault;
pub mod kmeans;
pub mod oracle;
pub mod packed;
pub mod quality;
pub(crate) mod simd;

pub use error::ClusterError;
pub use kmeans::{assign_all_packed, kmeans_packed, KMeansConfig, KMeansResult, PackedLloyd};
pub use packed::PackedMatrix;
pub use quality::silhouette;
