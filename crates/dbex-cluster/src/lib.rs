//! # dbex-cluster
//!
//! Clustering substrate for IUnit generation (paper Problem 1.2,
//! Section 3.1.2).
//!
//! The paper clusters the tuples of each Pivot Attribute value "using only
//! the above-chosen Compare Attributes" with Weka's `SimpleKMeans`, under an
//! interactive latency budget. This crate provides:
//!
//! * [`onehot`] — one-hot encoding of discretized tuples. Mixed
//!   categorical/numeric data is first discretized (`dbex-stats`), then each
//!   tuple becomes a sparse binary vector with one active dimension per
//!   Compare Attribute.
//! * [`mod@kmeans`] — Lloyd's algorithm with k-means++ seeding, empty-cluster
//!   reseeding, and out-of-sample assignment (the paper's sampling
//!   optimization clusters a sample and assigns the remainder).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod error;
pub mod fault;
pub mod kmeans;
pub mod minibatch;
pub mod onehot;
pub mod packed;
pub mod quality;
pub(crate) mod simd;

pub use error::ClusterError;
pub use kmeans::{
    assign_all_packed, kmeans, kmeans_packed, KMeansConfig, KMeansResult, PackedLloyd,
};
pub use minibatch::{mini_batch_kmeans, mini_batch_kmeans_packed, MiniBatchConfig};
pub use onehot::OneHotSpace;
pub use packed::PackedMatrix;
pub use quality::silhouette;
