//! # wavedens
//!
//! Umbrella crate for the `wavedens` workspace: adaptive wavelet density
//! estimation under weak dependence (a from-scratch Rust reproduction of
//! Gannaz & Wintenberger, *Adaptive density estimation under weak
//! dependence*, 2006/2008) together with its wavelet substrate, dependent
//! time-series simulators and a range-query selectivity-estimation
//! application.
//!
//! Most users will want the re-exports below:
//!
//! * [`estimation`] (`wavedens-core`) — the HTCV/STCV thresholded wavelet
//!   estimators, kernel baselines, risk metrics and the streaming variant;
//! * [`processes`] (`wavedens-processes`) — weakly dependent process
//!   simulators and the paper's target densities;
//! * [`wavelets`] (`wavedens-wavelets`) — filters, pointwise evaluation,
//!   DWT, Besov norms;
//! * [`engine`] (`wavedens-engine`) — the concurrent multi-attribute
//!   synopsis engine: sharded sketch ingest, atomically swapped synopsis
//!   caches, 2-D joint (attribute-pair) synopses and a named attribute
//!   catalog;
//! * [`selectivity`] (`wavedens-selectivity`) — range-query selectivity
//!   synopses built on the estimator.
//!
//! ```
//! use wavedens::prelude::*;
//!
//! let mut rng = seeded_rng(42);
//! let data = DependenceCase::NonCausalMa.simulate(&SineUniformMixture::paper(), 1 << 10, &mut rng);
//! let estimate = WaveletDensityEstimator::stcv().fit(&data).unwrap();
//! assert!(estimate.evaluate(0.5) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wavedens_core as estimation;
pub use wavedens_engine as engine;
pub use wavedens_processes as processes;
pub use wavedens_selectivity as selectivity;
pub use wavedens_wavelets as wavelets;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use wavedens_core::{
        CoefficientSketch, CompactionPolicy, CumulativeEstimate, Grid, KernelDensityEstimator,
        TensorCumulative, TensorEstimate, TensorSketch, ThresholdRule, ThresholdSelection,
        WaveletDensityEstimate, WaveletDensityEstimator, WindowPolicy, WindowedSketch,
    };
    pub use wavedens_engine::{JointSynopsis, SynopsisCatalog, SynopsisConfig};
    pub use wavedens_processes::{
        seeded_rng, DependenceCase, GaussianMixture, LsvMapProcess, SineUniformMixture,
        StationaryProcess, TargetDensity,
    };
    pub use wavedens_selectivity::{RangeQuery, SelectivityEstimator, WaveletSelectivity};
    pub use wavedens_wavelets::{WaveletBasis, WaveletFamily};
}
