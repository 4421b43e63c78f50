//! # dbex-stats
//!
//! Statistics substrate for DBExplorer.
//!
//! The CAD View pipeline needs several statistical components the paper
//! delegates to off-the-shelf software:
//!
//! * [`special`] — log-gamma and regularized incomplete gamma functions,
//!   from which the chi-square distribution is derived.
//! * [`chi2`] — contingency tables and Pearson's chi-square test (the
//!   paper's Weka `ChiSquare` attribute evaluator, Section 3.1.1).
//! * [`histogram`] — equi-width, equi-depth and V-optimal histograms for
//!   numeric discretization (the paper cites Jagadish & Suel's optimal
//!   histograms, Section 2.2.1).
//! * [`discretize`] — per-attribute codecs mapping raw column values to
//!   dense discrete codes with human-readable bin labels.
//! * [`feature`] — Compare Attribute selection: chi-square ranking with
//!   significance thresholds (Problem 1.1).
//! * [`simil`] — cosine similarity over frequency vectors (Algorithm 1's
//!   building block).
//! * [`metrics`] — F1 / precision / recall used by the user-study tasks.
//! * [`mixed`] — linear mixed-effects model with a random intercept and
//!   likelihood-ratio tests, reproducing the paper's Section 6.2 analysis.
//! * [`error`] — the layer's typed error ([`StatsError`]); [`fault`] holds
//!   the deterministic fault-injection hooks the robustness tests use.
//! * [`simd`] — runtime-dispatched integer SIMD kernels (contingency fill,
//!   marginal sums, batch binning) shared with `dbex-cluster`; every
//!   vector path is bit-identical to its always-compiled scalar oracle.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cache;
pub mod chi2;
pub mod entropy;
pub mod discretize;
pub mod error;
pub mod fault;
pub mod feature;
pub mod histogram;
pub mod interact;
pub mod metrics;
pub mod mixed;
pub mod results;
pub mod simd;
pub mod simil;
pub mod special;

pub use cache::{
    CacheStats, ClusterKey, ClusterSolution, CodecKey, ContingencyKey, StatsCache, TableScores,
};
pub use chi2::{ChiSquareResult, ContingencyTable};
pub use error::StatsError;
pub use discretize::{AttributeCodec, CodedColumn, CodedColumns, CodedMatrix};
pub use entropy::{entropy, information_gain, mutual_information, symmetrical_uncertainty};
pub use feature::{
    select_compare_attributes, select_compare_attributes_by, select_compare_attributes_ctx,
    FeatureScore, FeatureScorer, FeatureSelectionConfig, ScoringCtx,
};
pub use interact::{InteractionMatrix, PairInteraction};
pub use histogram::{BinningStrategy, Histogram};
pub use metrics::{f1_score, ConfusionCounts};
pub use mixed::{likelihood_ratio_test, LmmFit, LrtResult};
pub use results::{FilteredResult, ResultCacheStats};
pub use simd::SimdDispatch;
pub use simil::{cosine_similarity, cosine_similarity_sparse};
