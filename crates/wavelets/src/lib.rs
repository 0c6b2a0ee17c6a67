//! # wavedens-wavelets
//!
//! Compactly supported orthonormal wavelet machinery for the `wavedens`
//! workspace, built entirely from first principles (no coefficient tables,
//! no external numerical crates):
//!
//! * [`filters`] — Daubechies extremal-phase and Symmlet (least-asymmetric)
//!   quadrature-mirror filters constructed by spectral factorisation of the
//!   Daubechies polynomial.
//! * [`cascade`] — dyadic-grid tabulation of the scaling function `φ` and
//!   mother wavelet `ψ` via the cascade algorithm (the Wavelab-style scheme
//!   the paper uses).
//! * [`daubechies_lagarias`] — exact pointwise evaluation of `φ` and `ψ` by
//!   the Daubechies–Lagarias local pyramid algorithm.
//! * [`basis`] — dilated/translated basis functions `φ_{j,k}`, `ψ_{j,k}` and
//!   translation bookkeeping on compact intervals.
//! * [`dwt`] — periodised discrete wavelet transform.
//! * [`besov`] — Besov sequence norms and the minimax-rate bookkeeping of
//!   the paper's Theorem 3.1.
//!
//! The crate is the wavelet substrate for the adaptive density estimator of
//! Gannaz & Wintenberger, *Adaptive density estimation under weak
//! dependence* (2006/2008), implemented in `wavedens-core`.
//!
//! ## Quick example
//!
//! ```
//! use wavedens_wavelets::{WaveletBasis, WaveletFamily};
//!
//! // The process-wide Symmlet 8 table: built once, shared by every caller.
//! let basis = WaveletBasis::shared(WaveletFamily::Symmlet(8)).unwrap();
//! // ψ_{3,2}(0.4) = 2^{3/2} ψ(2^3·0.4 − 2)
//! let value = basis.psi_jk(3, 2, 0.4);
//! assert!(value.is_finite());
//! // Which translations matter on [0, 1] at level 3?
//! let range = basis.translations_covering(3, 0.0, 1.0);
//! assert!(range.contains(&0));
//! ```

#![warn(missing_docs)]

pub mod basis;
pub mod besov;
pub mod cascade;
pub mod daubechies_lagarias;
pub mod dwt;
pub mod filters;
pub mod kernels;
pub mod numerics;

pub use basis::WaveletBasis;
pub use besov::{besov_norm, besov_seminorm, BesovParameters, DetailLevel};
pub use cascade::{WaveletTable, DEFAULT_TABLE_LEVELS};
pub use daubechies_lagarias::PointwiseEvaluator;
pub use dwt::{Dwt, DwtError, WaveletDecomposition};
pub use filters::{FilterError, OrthonormalFilter, WaveletFamily};
