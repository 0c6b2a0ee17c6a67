//! The adaptive wavelet-thresholding density estimator (the paper's
//! estimator `f̂_n`), with theoretical, cross-validated, fixed and absent
//! threshold selection.
//!
//! ```text
//! f̂_n = Σ_k α̂_{j0,k} φ_{j0,k} + Σ_{j=j0}^{j1} Σ_k γ_{λ_j}(β̂_{j,k}) ψ_{j,k}
//! ```
//!
//! * `j0` — smallest integer larger than `log(n)/(1+N)` (Theorem 3.1);
//! * `j1` — for the theoretical rule, the largest integer smaller than
//!   `log₂(n · log(n)^{−2/b−3})` (clamped to `≥ j0`); for cross-validation
//!   the data-driven `ĵ1` of Section 5.1 with candidate levels up to
//!   `j* = log₂ n`;
//! * `λ_j` — `K √(j/n)` (theoretical), cross-validated, fixed, or zero.

use crate::coefficients::{EmpiricalCoefficients, LevelCoefficients};
use crate::cv::{cross_validate, CrossValidationResult};
use crate::error::EstimatorError;
use crate::grid::Grid;
use crate::tensor::max_level_within_cap;
use crate::threshold::{ThresholdProfile, ThresholdRule, ThresholdSelection};
use std::sync::Arc;
use wavedens_wavelets::{WaveletBasis, WaveletFamily};

/// The paper's default rule for the coarse level:
/// the smallest integer strictly larger than `ln(n) / (1 + N)`.
pub fn default_coarse_level(n: usize, vanishing_moments: usize) -> i32 {
    ((n as f64).ln() / (1.0 + vanishing_moments as f64)).floor() as i32 + 1
}

/// The candidate ceiling used by the cross-validation procedures:
/// `j* = ⌊log₂ n⌋`.
pub fn cv_max_level(n: usize) -> i32 {
    (n as f64).log2().floor() as i32
}

/// The theoretical highest resolution level of Theorem 3.1: the largest
/// integer smaller than `log₂(n · ln(n)^{−2/b−3})`, clamped to at least
/// `j0`. For moderate `n` the unclamped value can be very small (or even
/// negative): the restriction is an asymptotic device, which is why the
/// paper's simulations rely on cross-validation instead.
pub fn theoretical_max_level(n: usize, b: f64, j0: i32) -> i32 {
    let n_f = n as f64;
    let value = (n_f * n_f.ln().powf(-2.0 / b - 3.0)).log2().ceil() as i32 - 1;
    value.max(j0)
}

/// Configuration of a wavelet density estimator.
#[derive(Debug, Clone)]
pub struct WaveletDensityEstimator {
    family: WaveletFamily,
    rule: ThresholdRule,
    selection: ThresholdSelection,
    interval: (f64, f64),
    coarse_level: Option<i32>,
    max_level: Option<i32>,
    dependence_exponent: f64,
    basis: Option<Arc<WaveletBasis>>,
}

impl WaveletDensityEstimator {
    /// Creates an estimator on `[0, 1]` with the paper's defaults
    /// (Symmlet 8, the requested thresholding rule and selection scheme).
    pub fn new(rule: ThresholdRule, selection: ThresholdSelection) -> Self {
        Self {
            family: WaveletFamily::Symmlet(8),
            rule,
            selection,
            interval: (0.0, 1.0),
            coarse_level: None,
            max_level: None,
            dependence_exponent: 1.0,
            basis: None,
        }
    }

    /// The hard-thresholding cross-validated estimator `f̂ⁿ_HTCV`.
    pub fn htcv() -> Self {
        Self::new(ThresholdRule::Hard, ThresholdSelection::CrossValidation)
    }

    /// The soft-thresholding cross-validated estimator `f̂ⁿ_STCV`.
    pub fn stcv() -> Self {
        Self::new(ThresholdRule::Soft, ThresholdSelection::CrossValidation)
    }

    /// The linear (unthresholded) projection estimator at resolution
    /// `level`: kept as a baseline because it is provably not minimax.
    pub fn linear_projection(level: i32) -> Self {
        Self::new(ThresholdRule::Hard, ThresholdSelection::None)
            .with_levels(Some(level), Some(level))
    }

    /// Uses a different wavelet family (default: Symmlet 8, as in the
    /// paper).
    pub fn with_family(mut self, family: WaveletFamily) -> Self {
        self.family = family;
        self.basis = None;
        self
    }

    /// Estimates on a different compact interval (default `[0, 1]`).
    pub fn with_interval(mut self, lo: f64, hi: f64) -> Self {
        self.interval = (lo, hi);
        self
    }

    /// Overrides the coarse level `j0` and/or the highest detail level.
    /// Without an override the highest level is the selection's default
    /// (`j* = ⌊log₂ n⌋` for cross-validation), lowered to the highest
    /// level whose set fits under
    /// [`MAX_COEFFICIENT_SLOTS`](crate::MAX_COEFFICIENT_SLOTS); an
    /// explicit level whose set does not fit makes [`fit`](Self::fit) fail.
    pub fn with_levels(mut self, coarse: Option<i32>, max: Option<i32>) -> Self {
        self.coarse_level = coarse;
        self.max_level = max;
        self
    }

    /// Sets the dependence exponent `b` of assumption (D2) used by the
    /// theoretical `j1` rule (default 1, the expanding-map value).
    ///
    /// `b` must be strictly positive: [`fit`](Self::fit) rejects `b ≤ 0`
    /// (and non-finite values), which would otherwise drive the
    /// `ln(n)^{−2/b−3}` factor of [`theoretical_max_level`] through a
    /// NaN/∞ exponent.
    pub fn with_dependence_exponent(mut self, b: f64) -> Self {
        self.dependence_exponent = b;
        self
    }

    /// Fits over a caller-supplied basis, e.g. one built with a
    /// non-default table depth. Without it, [`fit`](Self::fit) uses the
    /// process-wide default-depth basis of the family
    /// ([`WaveletBasis::shared`]), so this is not needed to avoid
    /// re-tabulating `φ`/`ψ` across many fits.
    pub fn with_basis(mut self, basis: Arc<WaveletBasis>) -> Self {
        self.family = basis.family();
        self.basis = Some(basis);
        self
    }

    /// The thresholding rule of this estimator.
    pub fn rule(&self) -> ThresholdRule {
        self.rule
    }

    /// The threshold-selection scheme of this estimator.
    pub fn selection(&self) -> &ThresholdSelection {
        &self.selection
    }

    /// Fits the estimator to a sample.
    pub fn fit(&self, data: &[f64]) -> Result<WaveletDensityEstimate, EstimatorError> {
        if data.is_empty() {
            return Err(EstimatorError::EmptySample);
        }
        let (lo, hi) = self.interval;
        if lo >= hi || !lo.is_finite() || !hi.is_finite() {
            return Err(EstimatorError::InvalidInterval { lo, hi });
        }
        if self.dependence_exponent <= 0.0 || !self.dependence_exponent.is_finite() {
            return Err(EstimatorError::InvalidParameter {
                message: format!(
                    "dependence exponent b must be a positive finite number, got {}",
                    self.dependence_exponent
                ),
            });
        }
        let n = data.len();
        let basis = match &self.basis {
            Some(basis) => Arc::clone(basis),
            None => WaveletBasis::shared(self.family)?,
        };
        let vanishing = basis.vanishing_moments();
        let j0 = self
            .coarse_level
            .unwrap_or_else(|| default_coarse_level(n, vanishing));
        if j0 < 0 {
            return Err(EstimatorError::InvalidLevels {
                message: format!("coarse level must be nonnegative, got {j0}"),
            });
        }
        let j_max_default = match self.selection {
            ThresholdSelection::CrossValidation => cv_max_level(n),
            ThresholdSelection::Theoretical { .. } => {
                theoretical_max_level(n, self.dependence_exponent, j0)
            }
            _ => cv_max_level(n),
        };
        // An explicit level is taken as given (and refused by the sketch
        // if its set is too large); the default stops at the slot cap.
        let j_max = match self.max_level {
            Some(level) => level.max(j0),
            None => max_level_within_cap(&basis, self.interval, j0, j_max_default.max(j0)),
        };

        let coefficients =
            EmpiricalCoefficients::compute(Arc::clone(&basis), data, self.interval, j0, j_max)?;

        // Determine per-level thresholds (and for CV the data-driven ĵ1).
        let (profile, cv_result) = match &self.selection {
            ThresholdSelection::Theoretical { kappa } => {
                if !kappa.is_finite() || *kappa < 0.0 {
                    return Err(EstimatorError::InvalidParameter {
                        message: format!("threshold constant K must be nonnegative, got {kappa}"),
                    });
                }
                let levels = (j0..=j_max)
                    .map(|j| ThresholdSelection::theoretical_level(*kappa, j, n))
                    .collect();
                (ThresholdProfile { j0, levels }, None)
            }
            ThresholdSelection::CrossValidation => {
                let cv = cross_validate(&coefficients, self.rule);
                (cv.thresholds(), Some(cv))
            }
            ThresholdSelection::Fixed(levels) => {
                if levels.is_empty() {
                    return Err(EstimatorError::InvalidParameter {
                        message: "fixed threshold list must not be empty".to_string(),
                    });
                }
                let last = *levels.last().expect("nonempty");
                let expanded = (0..=(j_max - j0) as usize)
                    .map(|i| levels.get(i).copied().unwrap_or(last))
                    .collect();
                (
                    ThresholdProfile {
                        j0,
                        levels: expanded,
                    },
                    None,
                )
            }
            ThresholdSelection::None => (
                ThresholdProfile {
                    j0,
                    levels: vec![0.0; (j_max - j0 + 1) as usize],
                },
                None,
            ),
        };

        // Apply the threshold nonlinearity level by level.
        let details: Vec<ThresholdedLevel> = coefficients
            .details()
            .iter()
            .map(|level| {
                ThresholdedLevel::from_coefficients(level, self.rule, profile.level(level.level))
            })
            .collect();

        let j1 = cv_result
            .as_ref()
            .map(|cv| cv.j1)
            .unwrap_or(j_max)
            .clamp(j0, j_max + 1);

        Ok(WaveletDensityEstimate {
            basis,
            interval: self.interval,
            n,
            rule: self.rule,
            scaling: coefficients.scaling().clone(),
            details,
            thresholds: profile,
            j1,
            cv: cv_result,
        })
    }
}

/// One detail level after thresholding.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdedLevel {
    /// Resolution level `j`.
    pub level: i32,
    /// First translation index stored.
    pub k_start: i64,
    /// Thresholded coefficients `γ_{λ_j}(β̂_{j,k})`.
    pub coefficients: Vec<f64>,
    /// How many coefficients survived (are nonzero) after thresholding.
    pub surviving: usize,
}

impl ThresholdedLevel {
    /// Applies the threshold function `γ_λ` to every coefficient of a
    /// level.
    pub fn from_coefficients(level: &LevelCoefficients, rule: ThresholdRule, lambda: f64) -> Self {
        let coefficients: Vec<f64> = level
            .values
            .iter()
            .map(|&beta| rule.apply(beta, lambda))
            .collect();
        let surviving = coefficients.iter().filter(|c| **c != 0.0).count();
        Self {
            level: level.level,
            k_start: level.k_start,
            coefficients,
            surviving,
        }
    }
}

/// A fitted wavelet density estimate.
#[derive(Debug, Clone)]
pub struct WaveletDensityEstimate {
    basis: Arc<WaveletBasis>,
    interval: (f64, f64),
    n: usize,
    rule: ThresholdRule,
    scaling: LevelCoefficients,
    details: Vec<ThresholdedLevel>,
    thresholds: ThresholdProfile,
    j1: i32,
    cv: Option<CrossValidationResult>,
}

impl WaveletDensityEstimate {
    /// Assembles an estimate from precomputed parts (used by
    /// [`CoefficientSketch::estimate`](crate::CoefficientSketch::estimate)).
    /// The caller is responsible for consistency between the parts.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        basis: Arc<WaveletBasis>,
        interval: (f64, f64),
        n: usize,
        rule: ThresholdRule,
        scaling: LevelCoefficients,
        details: Vec<ThresholdedLevel>,
        thresholds: ThresholdProfile,
        j1: i32,
        cv: Option<CrossValidationResult>,
    ) -> Self {
        Self {
            basis,
            interval,
            n,
            rule,
            scaling,
            details,
            thresholds,
            j1,
            cv,
        }
    }

    /// The wavelet basis the estimate is expanded in.
    pub fn basis(&self) -> &Arc<WaveletBasis> {
        &self.basis
    }

    /// Evaluates the estimate at a point.
    pub fn evaluate(&self, x: f64) -> f64 {
        let mut total = level_sum(
            &self.basis,
            self.scaling.level,
            self.scaling.k_start,
            &self.scaling.values,
            x,
            true,
        );
        for level in &self.details {
            if level.surviving == 0 {
                continue;
            }
            total += level_sum(
                &self.basis,
                level.level,
                level.k_start,
                &level.coefficients,
                x,
                false,
            );
        }
        total
    }

    /// Evaluates the estimate on a grid, one [`evaluate`](Self::evaluate)
    /// call per point. Prefer [`evaluate_dense`](Self::evaluate_dense) for
    /// dense uniform grids — it is algebraically the same sum arranged per
    /// coefficient instead of per point, and much faster.
    pub fn evaluate_on(&self, grid: &Grid) -> Vec<f64> {
        grid.evaluate(|x| self.evaluate(x))
    }

    /// Evaluates the estimate on a uniform grid by looping **per surviving
    /// coefficient over its compact support** with a constant table
    /// stride, instead of re-deriving the active translation range and
    /// interpolating per point as [`evaluate`](Self::evaluate) does.
    ///
    /// For one coefficient at level `j`, the table argument
    /// `2^j x − k` advances by the constant `2^j · grid_step` between
    /// neighbouring grid points, so its whole support is swept with one
    /// strided pass ([`wavedens_wavelets::WaveletTable::accumulate_psi`]).
    /// Thresholded-to-zero coefficients are skipped entirely, which is
    /// where sparse cross-validated fits win big. The result agrees with
    /// [`evaluate_on`](Self::evaluate_on) up to floating-point rounding
    /// (≈ 1e-12).
    pub fn evaluate_dense(&self, grid: &Grid) -> Vec<f64> {
        let mut values = vec![0.0_f64; grid.len()];
        accumulate_dense(
            &self.basis,
            grid,
            self.scaling.level,
            self.scaling.k_start,
            &self.scaling.values,
            true,
            &mut values,
        );
        for level in &self.details {
            if level.surviving == 0 {
                continue;
            }
            accumulate_dense(
                &self.basis,
                grid,
                level.level,
                level.k_start,
                &level.coefficients,
                false,
                &mut values,
            );
        }
        values
    }

    /// Builds the cumulative (CDF) representation of this estimate on a
    /// dense grid of `points` points: `cdf(x)` / `range_mass(lo, hi)`
    /// queries then cost O(1) instead of an integration sweep.
    pub fn cumulative(&self, points: usize) -> crate::dense::CumulativeEstimate {
        crate::dense::CumulativeEstimate::from_estimate(self, points)
    }

    /// [`cumulative`](Self::cumulative) through a [`DenseEvalCache`]:
    /// bitwise-identical output, with the basis-function values on the
    /// (fixed) grid looked up from the cache instead of re-interpolated
    /// from the `φ`/`ψ` tables per refresh. This is the engine's
    /// incremental-refresh CDF path.
    pub fn cumulative_cached(
        &self,
        points: usize,
        cache: &mut DenseEvalCache,
    ) -> crate::dense::CumulativeEstimate {
        let (lo, hi) = self.interval;
        let grid = Grid::new(lo, hi, points.max(2));
        let density = self.evaluate_dense_cached(&grid, cache);
        crate::dense::CumulativeEstimate::from_density(grid, &density)
    }

    /// [`evaluate_dense`](Self::evaluate_dense) through a
    /// [`DenseEvalCache`]: the first evaluation of a coefficient on a
    /// given grid interpolates its basis function once and caches the
    /// per-point values; every later refresh reduces to one
    /// multiply-accumulate pass per surviving coefficient. Bitwise
    /// identical to the uncached sweep (the cached values are exactly the
    /// interpolated factors the uncached path multiplies by).
    pub fn evaluate_dense_cached(&self, grid: &Grid, cache: &mut DenseEvalCache) -> Vec<f64> {
        cache.validate(&self.basis, grid);
        let mut values = vec![0.0_f64; grid.len()];
        accumulate_dense_cached(
            &self.basis,
            grid,
            self.scaling.level,
            self.scaling.k_start,
            &self.scaling.values,
            true,
            &mut values,
            cache,
        );
        for level in &self.details {
            if level.surviving == 0 {
                continue;
            }
            accumulate_dense_cached(
                &self.basis,
                grid,
                level.level,
                level.k_start,
                &level.coefficients,
                false,
                &mut values,
                cache,
            );
        }
        values
    }

    /// Numerical integral of the estimate over the estimation interval
    /// (should be close to 1 when the data live inside the interval).
    /// Computed with the dense per-coefficient sweep of
    /// [`evaluate_dense`](Self::evaluate_dense).
    pub fn integral(&self) -> f64 {
        let grid = Grid::new(self.interval.0, self.interval.1, 2048);
        grid.integrate(&self.evaluate_dense(&grid))
    }

    /// Sample size the estimate was fitted on.
    pub fn sample_size(&self) -> usize {
        self.n
    }

    /// The estimation interval.
    pub fn interval(&self) -> (f64, f64) {
        self.interval
    }

    /// The thresholding rule used.
    pub fn rule(&self) -> ThresholdRule {
        self.rule
    }

    /// The coarse resolution level `j0`.
    pub fn coarse_level(&self) -> i32 {
        self.scaling.level
    }

    /// The highest detail level carried by the estimate (`ĵ1` for
    /// cross-validated fits, the configured/theoretical `j1` otherwise).
    pub fn highest_level(&self) -> i32 {
        self.j1
    }

    /// The per-level thresholds used.
    pub fn thresholds(&self) -> &ThresholdProfile {
        &self.thresholds
    }

    /// The full cross-validation result, when the estimator used CV.
    pub fn cross_validation(&self) -> Option<&CrossValidationResult> {
        self.cv.as_ref()
    }

    /// The (untouched) scaling coefficients `α̂_{j0,·}`.
    pub fn scaling_coefficients(&self) -> &LevelCoefficients {
        &self.scaling
    }

    /// The thresholded detail levels.
    pub fn detail_levels(&self) -> &[ThresholdedLevel] {
        &self.details
    }

    /// Total number of detail coefficients surviving thresholding.
    pub fn surviving_detail_coefficients(&self) -> usize {
        self.details.iter().map(|l| l.surviving).sum()
    }

    /// Fraction of detail coefficients set to zero by thresholding.
    pub fn sparsity(&self) -> f64 {
        let total: usize = self.details.iter().map(|l| l.coefficients.len()).sum();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.surviving_detail_coefficients() as f64 / total as f64
    }
}

/// Sum `Σ_k c_k δ_{j,k}(x)` exploiting the compact support of `δ`.
fn level_sum(
    basis: &WaveletBasis,
    level: i32,
    k_start: i64,
    coefficients: &[f64],
    x: f64,
    scaling: bool,
) -> f64 {
    if coefficients.is_empty() {
        return 0.0;
    }
    let support = basis.support_length();
    let position = (level as f64).exp2() * x;
    let mut acc = 0.0;
    for k in
        crate::coefficients::active_translations(support, position, k_start, coefficients.len())
    {
        let coeff = coefficients[(k - k_start) as usize];
        if coeff == 0.0 {
            continue;
        }
        let value = if scaling {
            basis.phi_jk(level, k, x)
        } else {
            basis.psi_jk(level, k, x)
        };
        acc += coeff * value;
    }
    acc
}

/// The grid window `[first, last]` a coefficient's compact support covers
/// and the table argument `u0` at `first` — the geometry shared by the
/// uncached and cached dense sweeps, factored out so they cannot drift.
///
/// Support of `δ_{j,k}` in `x`: `[k / 2^j, (k + 2N−1) / 2^j]`; the table
/// argument `2^j x − k` then advances by `2^j · grid_step` per point.
pub(crate) fn coefficient_window(
    grid: &Grid,
    scale: f64,
    support: f64,
    k: i64,
    points: usize,
) -> Option<(usize, usize, f64)> {
    let step = grid.step();
    let lo = grid.lo();
    let x_lo = k as f64 / scale;
    let x_hi = (k as f64 + support) / scale;
    let first = (((x_lo - lo) / step).ceil().max(0.0)) as usize;
    let last_f = ((x_hi - lo) / step).floor();
    if last_f < 0.0 || first >= points {
        return None;
    }
    let last = (last_f as usize).min(points - 1);
    if first > last {
        return None;
    }
    let u0 = scale * (lo + step * first as f64) - k as f64;
    Some((first, last, u0))
}

/// Adds `Σ_k c_k δ_{j,k}(grid_i)` of one level to `out`, sweeping each
/// nonzero coefficient's support with a strided table pass.
fn accumulate_dense(
    basis: &WaveletBasis,
    grid: &Grid,
    level: i32,
    k_start: i64,
    coefficients: &[f64],
    scaling: bool,
    out: &mut [f64],
) {
    if coefficients.is_empty() {
        return;
    }
    let scale = (level as f64).exp2();
    let sqrt_scale = scale.sqrt();
    let support = basis.support_length();
    let stride = scale * grid.step();
    let table = basis.table();
    for (m, &coeff) in coefficients.iter().enumerate() {
        if coeff == 0.0 {
            continue;
        }
        let k = k_start + m as i64;
        let Some((first, last, u0)) = coefficient_window(grid, scale, support, k, out.len()) else {
            continue;
        };
        // δ_{j,k}(x) = 2^{j/2} δ(2^j x − k).
        let window = &mut out[first..=last];
        if scaling {
            table.accumulate_phi(u0, stride, coeff * sqrt_scale, window);
        } else {
            table.accumulate_psi(u0, stride, coeff * sqrt_scale, window);
        }
    }
}

/// Cache of basis-function values on one fixed dense grid, keyed by
/// `(level, translation, generator)`.
///
/// The factors `δ_{j,k}(grid_i)` depend only on the wavelet family, its
/// table depth and the grid — not on the data — so across the engine's
/// refreshes of one synopsis they are computed once and replayed as a
/// multiply-accumulate. The cache is invalidated automatically when it is
/// used with a different family, table depth or grid. Memory is bounded
/// by the union of surviving coefficients ever evaluated: each row stores
/// one `f64` per grid point under the coefficient's compact support (fine
/// levels have correspondingly short rows).
#[derive(Debug, Clone, Default)]
pub struct DenseEvalCache {
    key: Option<(WaveletFamily, u32, u64, u64, usize)>,
    rows: std::collections::HashMap<(i32, i64, bool), CachedRow>,
}

/// One coefficient's interpolated basis-function values over its grid
/// window.
#[derive(Debug, Clone)]
struct CachedRow {
    first: usize,
    values: Vec<f64>,
}

impl DenseEvalCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of coefficient rows currently cached.
    pub fn cached_rows(&self) -> usize {
        self.rows.len()
    }

    /// Clears the cache when the family, table depth or grid changed.
    fn validate(&mut self, basis: &WaveletBasis, grid: &Grid) {
        let key = (
            basis.family(),
            basis.table().levels(),
            grid.lo().to_bits(),
            grid.hi().to_bits(),
            grid.len(),
        );
        if self.key != Some(key) {
            self.rows.clear();
            self.key = Some(key);
        }
    }
}

/// The cached counterpart of [`accumulate_dense`]: identical arithmetic,
/// with the interpolated basis values fetched from (or inserted into) the
/// cache.
#[allow(clippy::too_many_arguments)]
fn accumulate_dense_cached(
    basis: &WaveletBasis,
    grid: &Grid,
    level: i32,
    k_start: i64,
    coefficients: &[f64],
    scaling: bool,
    out: &mut [f64],
    cache: &mut DenseEvalCache,
) {
    if coefficients.is_empty() {
        return;
    }
    let scale = (level as f64).exp2();
    let sqrt_scale = scale.sqrt();
    let support = basis.support_length();
    let stride = scale * grid.step();
    let table = basis.table();
    for (m, &coeff) in coefficients.iter().enumerate() {
        if coeff == 0.0 {
            continue;
        }
        let k = k_start + m as i64;
        let Some((first, last, u0)) = coefficient_window(grid, scale, support, k, out.len()) else {
            continue;
        };
        let row = cache.rows.entry((level, k, scaling)).or_insert_with(|| {
            // Weight 1.0 captures exactly the interpolated factors the
            // uncached path multiplies by (`0 + 1.0·v` is `v` bitwise).
            let mut values = vec![0.0_f64; last - first + 1];
            if scaling {
                table.accumulate_phi(u0, stride, 1.0, &mut values);
            } else {
                table.accumulate_psi(u0, stride, 1.0, &mut values);
            }
            CachedRow { first, values }
        });
        debug_assert_eq!(row.first, first, "cached row geometry drifted");
        let scaled = coeff * sqrt_scale;
        for (slot, &value) in out[first..=last].iter_mut().zip(&row.values) {
            *slot += scaled * value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wavedens_processes::{seeded_rng, SineUniformMixture, TargetDensity};

    fn uniform_sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n).map(|_| rng.gen::<f64>()).collect()
    }

    fn sine_sample(n: usize, seed: u64) -> Vec<f64> {
        let target = SineUniformMixture::paper();
        let mut rng = seeded_rng(seed);
        (0..n).map(|_| target.quantile(rng.gen::<f64>())).collect()
    }

    #[test]
    fn default_level_rules_match_the_paper() {
        // n = 2^10, N = 8: j0 = ⌊ln(1024)/9⌋ + 1 = 1, j* = 10.
        assert_eq!(default_coarse_level(1024, 8), 1);
        assert_eq!(cv_max_level(1024), 10);
        assert_eq!(cv_max_level(1000), 9);
        // The theoretical j1 is clamped to j0 for small n.
        assert_eq!(theoretical_max_level(1024, 1.0, 1), 1);
        // For very large n it exceeds j0.
        assert!(theoretical_max_level(1 << 26, 1.0, 2) > 2);
    }

    #[test]
    fn default_max_level_stops_at_the_slot_ceiling() {
        // Haar on an interval of width w holds w·2^j slots at level j.
        // With n = 16 (j0 = 2, j* = 4) and w just above 2^18 the levels
        // 2..=3 fit under the 2^23-slot cap and 2..=4 do not: the default
        // fit stops at level 3, an explicit level 4 is refused.
        let data = uniform_sample(16, 3);
        let width = f64::from((1 << 18) + 1);
        let estimator = WaveletDensityEstimator::new(ThresholdRule::Hard, ThresholdSelection::None)
            .with_family(WaveletFamily::Haar)
            .with_interval(0.0, width);
        let fit = estimator.fit(&data).unwrap();
        assert_eq!((fit.coarse_level(), fit.highest_level()), (2, 3));
        assert!(matches!(
            estimator.with_levels(None, Some(4)).fit(&data).unwrap_err(),
            EstimatorError::InvalidParameter { .. }
        ));
    }

    #[test]
    fn estimate_integrates_to_about_one() {
        let data = uniform_sample(512, 1);
        for estimator in [
            WaveletDensityEstimator::htcv(),
            WaveletDensityEstimator::stcv(),
        ] {
            let fit = estimator.fit(&data).unwrap();
            let mass = fit.integral();
            assert!((mass - 1.0).abs() < 0.05, "integral {mass}");
        }
    }

    #[test]
    fn uniform_density_is_recovered_accurately() {
        let data = uniform_sample(2048, 2);
        let fit = WaveletDensityEstimator::stcv().fit(&data).unwrap();
        // Away from the boundary the estimate is close to 1 on average;
        // individual points can wiggle by a few tenths because the CV keeps
        // a handful of noise coefficients (the paper's Figures 1–2 show the
        // same behaviour).
        let grid = Grid::new(0.05, 0.95, 181);
        let values = fit.evaluate_on(&grid);
        let mean_abs_err =
            values.iter().map(|v| (v - 1.0).abs()).sum::<f64>() / values.len() as f64;
        assert!(mean_abs_err < 0.15, "mean absolute error {mean_abs_err}");
    }

    #[test]
    fn sine_uniform_density_is_recovered() {
        let target = SineUniformMixture::paper();
        let data = sine_sample(4096, 3);
        let fit = WaveletDensityEstimator::stcv().fit(&data).unwrap();
        let grid = Grid::new(0.05, 0.95, 181);
        let est = fit.evaluate_on(&grid);
        let truth = grid.evaluate(|x| target.pdf(x));
        let ise = grid.integrate_abs_power(&est, &truth, 2.0);
        assert!(ise < 0.02, "ISE {ise} too large for n = 4096");
    }

    #[test]
    fn cross_validation_metadata_is_exposed() {
        let data = sine_sample(1024, 4);
        let fit = WaveletDensityEstimator::htcv().fit(&data).unwrap();
        assert!(fit.cross_validation().is_some());
        assert_eq!(fit.coarse_level(), 1);
        let j1 = fit.highest_level();
        assert!((1..=11).contains(&j1), "ĵ1 = {j1}");
        assert_eq!(fit.thresholds().j0, 1);
        assert!(fit.sparsity() > 0.5, "most coefficients should be killed");
        assert_eq!(fit.rule(), ThresholdRule::Hard);
        assert_eq!(fit.sample_size(), 1024);
        assert_eq!(fit.interval(), (0.0, 1.0));
        assert!(!fit.detail_levels().is_empty());
        assert!(!fit.scaling_coefficients().is_empty());
    }

    #[test]
    fn theoretical_thresholds_are_applied() {
        let data = sine_sample(1024, 5);
        let kappa = 0.8;
        let fit = WaveletDensityEstimator::new(
            ThresholdRule::Hard,
            ThresholdSelection::Theoretical { kappa },
        )
        .with_levels(Some(2), Some(6))
        .fit(&data)
        .unwrap();
        assert!(fit.cross_validation().is_none());
        for j in 2..=6 {
            let expected = kappa * ((j as f64) / 1024.0).sqrt();
            assert!((fit.thresholds().level(j) - expected).abs() < 1e-12);
        }
        assert_eq!(fit.highest_level(), 6);
    }

    #[test]
    fn linear_projection_keeps_every_coefficient() {
        let data = sine_sample(512, 6);
        let fit = WaveletDensityEstimator::linear_projection(4)
            .fit(&data)
            .unwrap();
        assert_eq!(fit.sparsity(), 0.0);
        assert_eq!(fit.coarse_level(), 4);
        // A single detail level (j0 = j_max = 4).
        assert_eq!(fit.detail_levels().len(), 1);
    }

    #[test]
    fn fixed_thresholds_are_expanded_across_levels() {
        let data = sine_sample(256, 7);
        let fit = WaveletDensityEstimator::new(
            ThresholdRule::Soft,
            ThresholdSelection::Fixed(vec![0.05, 0.1]),
        )
        .with_levels(Some(1), Some(4))
        .fit(&data)
        .unwrap();
        assert_eq!(fit.thresholds().level(1), 0.05);
        assert_eq!(fit.thresholds().level(2), 0.1);
        // The last value is reused beyond the supplied list.
        assert_eq!(fit.thresholds().level(4), 0.1);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let data = uniform_sample(64, 8);
        assert!(matches!(
            WaveletDensityEstimator::htcv().fit(&[]).unwrap_err(),
            EstimatorError::EmptySample
        ));
        assert!(matches!(
            WaveletDensityEstimator::htcv()
                .with_interval(1.0, 0.0)
                .fit(&data)
                .unwrap_err(),
            EstimatorError::InvalidInterval { .. }
        ));
        assert!(matches!(
            WaveletDensityEstimator::new(
                ThresholdRule::Hard,
                ThresholdSelection::Theoretical { kappa: -1.0 },
            )
            .fit(&data)
            .unwrap_err(),
            EstimatorError::InvalidParameter { .. }
        ));
        assert!(matches!(
            WaveletDensityEstimator::new(ThresholdRule::Hard, ThresholdSelection::Fixed(vec![]))
                .fit(&data)
                .unwrap_err(),
            EstimatorError::InvalidParameter { .. }
        ));
        assert!(matches!(
            WaveletDensityEstimator::htcv()
                .with_levels(Some(-2), None)
                .fit(&data)
                .unwrap_err(),
            EstimatorError::InvalidLevels { .. }
        ));
    }

    #[test]
    fn nonpositive_dependence_exponents_are_rejected() {
        // b ≤ 0 would send theoretical_max_level through ln(n)^(−2/b − 3)
        // with a NaN/∞ exponent; fit must reject it for every selection
        // scheme, not just the theoretical rule that consumes it.
        let data = uniform_sample(64, 12);
        for b in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for estimator in [
                WaveletDensityEstimator::htcv(),
                WaveletDensityEstimator::new(
                    ThresholdRule::Hard,
                    ThresholdSelection::Theoretical { kappa: 1.0 },
                ),
            ] {
                assert!(
                    matches!(
                        estimator
                            .with_dependence_exponent(b)
                            .fit(&data)
                            .unwrap_err(),
                        EstimatorError::InvalidParameter { .. }
                    ),
                    "b = {b} must be rejected"
                );
            }
        }
        // A positive exponent other than the default still fits.
        assert!(WaveletDensityEstimator::htcv()
            .with_dependence_exponent(0.5)
            .fit(&data)
            .is_ok());
    }

    #[test]
    fn cached_dense_evaluation_is_bitwise_identical() {
        let grid = Grid::new(0.0, 1.0, 513);
        let mut cache = DenseEvalCache::new();
        for seed in [11_u64, 12, 13] {
            let fit = WaveletDensityEstimator::stcv()
                .fit(&sine_sample(768, seed))
                .unwrap();
            // Cold rows on the first fit, warm replays afterwards: both
            // must reproduce the uncached sweep exactly.
            for _ in 0..2 {
                let cached = fit.evaluate_dense_cached(&grid, &mut cache);
                let plain = fit.evaluate_dense(&grid);
                assert_eq!(cached, plain, "seed {seed}");
            }
            let a = fit.cumulative_cached(257, &mut cache);
            let b = fit.cumulative(257);
            for i in 0..=64 {
                let x = i as f64 / 64.0;
                assert_eq!(a.cdf(x), b.cdf(x), "seed {seed}, x = {x}");
            }
        }
        assert!(cache.cached_rows() > 0);
        // A different grid (or family) invalidates the cache rather than
        // replaying mismatched rows.
        let fit = WaveletDensityEstimator::stcv()
            .fit(&sine_sample(256, 14))
            .unwrap();
        let other = Grid::new(0.0, 1.0, 129);
        let cached = fit.evaluate_dense_cached(&other, &mut cache);
        assert_eq!(cached, fit.evaluate_dense(&other));
    }

    #[test]
    fn dense_cache_separates_table_depths_of_one_family() {
        // Same family and grid, different table depths: the rows of the
        // coarse table must not be replayed for the default-depth fit.
        let data = sine_sample(768, 15);
        let coarse =
            Arc::new(WaveletBasis::with_table_levels(WaveletFamily::Symmlet(8), 6).unwrap());
        let fits = [
            WaveletDensityEstimator::stcv()
                .with_basis(coarse)
                .fit(&data)
                .unwrap(),
            WaveletDensityEstimator::stcv().fit(&data).unwrap(),
        ];
        let mut cache = DenseEvalCache::new();
        for (which, fit) in ["depth 6", "default depth"].iter().zip(&fits) {
            let cached = fit.cumulative_cached(4097, &mut cache);
            let plain = fit.cumulative(4097);
            for i in 0..=256 {
                let x = i as f64 / 256.0;
                assert_eq!(
                    cached.cdf(x).to_bits(),
                    plain.cdf(x).to_bits(),
                    "{which}, x = {x}"
                );
            }
        }
    }

    #[test]
    fn estimate_vanishes_far_outside_the_interval() {
        let data = uniform_sample(256, 9);
        let fit = WaveletDensityEstimator::stcv().fit(&data).unwrap();
        assert_eq!(fit.evaluate(25.0), 0.0);
        assert_eq!(fit.evaluate(-25.0), 0.0);
    }

    #[test]
    fn shared_basis_gives_identical_results() {
        let data = sine_sample(512, 10);
        let basis = Arc::new(WaveletBasis::new(WaveletFamily::Symmlet(8)).unwrap());
        let a = WaveletDensityEstimator::stcv().fit(&data).unwrap();
        let b = WaveletDensityEstimator::stcv()
            .with_basis(Arc::clone(&basis))
            .fit(&data)
            .unwrap();
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            assert!((a.evaluate(x) - b.evaluate(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn more_data_reduces_the_error() {
        let target = SineUniformMixture::paper();
        let grid = Grid::new(0.05, 0.95, 91);
        let truth = grid.evaluate(|x| target.pdf(x));
        let ise_for = |n: usize, seed: u64| {
            let fit = WaveletDensityEstimator::stcv()
                .fit(&sine_sample(n, seed))
                .unwrap();
            grid.integrate_abs_power(&fit.evaluate_on(&grid), &truth, 2.0)
        };
        // Average over a few seeds to tame randomness.
        let small: f64 = (0..4).map(|s| ise_for(256, 20 + s)).sum::<f64>() / 4.0;
        let large: f64 = (0..4).map(|s| ise_for(4096, 40 + s)).sum::<f64>() / 4.0;
        assert!(
            large < small,
            "ISE should decrease with n: {small} -> {large}"
        );
    }
}
