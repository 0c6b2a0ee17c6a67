//! # wavedens-core
//!
//! Adaptive wavelet-thresholding density estimation under weak dependence —
//! a from-scratch Rust implementation of Gannaz & Wintenberger, *Adaptive
//! density estimation under weak dependence* (2006/2008), extending the
//! Donoho–Johnstone–Kerkyacharian–Picard wavelet density estimator to
//! dependent data.
//!
//! The crate provides:
//!
//! * [`estimator`] — the thresholded wavelet density estimator `f̂_n` with
//!   theoretical (`λ_j = K√(j/n)`), cross-validated (HTCV/STCV), fixed and
//!   absent threshold selection, plus the paper's level rules
//!   (`j0`, `j1`, `j*`);
//! * [`cv`] — the per-level cross-validation criteria of Section 5.1 and
//!   the data-driven highest resolution `ĵ1`;
//! * [`coefficients`] — empirical wavelet coefficients of a sample;
//! * [`dense`] — dense-grid evaluation and the precomputed cumulative
//!   (CDF) table answering `cdf`/`range_mass` queries in O(1), the fast
//!   path behind the selectivity synopsis;
//! * [`threshold`] — hard/soft threshold functions and threshold profiles;
//! * [`kernel`] — Epanechnikov/Gaussian kernel density estimators with the
//!   paper's rule-of-thumb and least-squares-CV bandwidths (the baselines
//!   of Section 5.4);
//! * [`risk`] — ISE / mean-`L^p` risks and integrated moments, the metrics
//!   of Tables 1–2 and Figures 6 and 8;
//! * [`sketch`] — the mergeable accumulation state of the estimator
//!   (per-level sums, sums of squares, count): sketches of data partitions
//!   merge into exactly the single-stream state and (de)serialize to a
//!   compact binary form for shipping between nodes;
//! * [`codec`] — the one wire format of every sketch, 1-D and 2-D;
//! * [`tensor`] — dimension-generic tensor-product sketches
//!   ([`TensorSketch`]): levels keyed by per-axis level tuples, flattened
//!   row-major translation storage, hyperbolic-budget 2-D level sets, and
//!   a joint CDF grid ([`TensorCumulative`]) answering rectangle masses
//!   by inclusion–exclusion. It is the one sketch store: a
//!   [`CoefficientSketch`] is a thin 1-D face over a `dims == 1`
//!   tensor sketch;
//! * [`window`] — the [`MergeableSketch`] contract of the 1-D and 2-D
//!   sketches, and windowed and decaying rings of either
//!   ([`WindowedSketch`]) for streaming workloads: time-sliced sketches
//!   retire wholesale so a synopsis tracks the *recent* distribution
//!   without subtraction;
//! * [`grid`], [`error`] — shared utilities.
//!
//! ## Quick start
//!
//! ```
//! use wavedens_core::{Grid, WaveletDensityEstimator};
//! use wavedens_processes::{DependenceCase, SineUniformMixture, seeded_rng};
//!
//! // Simulate weakly dependent data with a known marginal density…
//! let target = SineUniformMixture::paper();
//! let mut rng = seeded_rng(1);
//! let data = DependenceCase::ExpandingMap.simulate(&target, 1 << 10, &mut rng);
//!
//! // …and estimate that density with the soft-threshold CV estimator.
//! let estimate = WaveletDensityEstimator::stcv().fit(&data).unwrap();
//! let grid = Grid::unit_interval();
//! let values = estimate.evaluate_on(&grid);
//! assert_eq!(values.len(), grid.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod autotune;
pub mod codec;
pub mod coefficients;
pub mod cv;
pub mod dense;
pub mod error;
pub mod estimator;
pub mod grid;
pub mod kernel;
pub mod risk;
pub mod sketch;
pub mod tensor;
pub mod threshold;
pub mod window;

pub use coefficients::{EmpiricalCoefficients, Generator, LevelCoefficients};
pub use cv::{
    cross_validate, cross_validate_cached, cross_validate_with, CrossValidationResult, CvCache,
    CvCriterion, LevelCrossValidation,
};
pub use dense::{CumulativeEstimate, DEFAULT_CDF_POINTS};
pub use error::EstimatorError;
pub use estimator::{
    cv_max_level, default_coarse_level, theoretical_max_level, DenseEvalCache, ThresholdedLevel,
    WaveletDensityEstimate, WaveletDensityEstimator,
};
pub use grid::Grid;
pub use kernel::{BandwidthRule, Kernel, KernelDensityEstimate, KernelDensityEstimator};
pub use risk::{integrated_squared_error, lp_distance, RiskAccumulator};
pub use sketch::{CoefficientSketch, CompactionPolicy};
pub use tensor::{
    TensorCumulative, TensorEstimate, TensorSketch, MAX_COEFFICIENT_SLOTS, MAX_TENSOR_SLOTS,
};
pub use threshold::{ThresholdProfile, ThresholdRule, ThresholdSelection};
pub use window::{
    MergeableSketch, WindowPolicy, WindowSliceMeta, WindowedSketch, DEFAULT_DECAY_SLICES,
};

// Re-export the wavelet substrate so downstream users need a single import.
pub use wavedens_wavelets as wavelets;
pub use wavedens_wavelets::{WaveletBasis, WaveletFamily};
