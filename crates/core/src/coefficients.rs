//! Empirical wavelet coefficients of a sample.
//!
//! The building blocks of the estimator are the empirical coefficients
//!
//! ```text
//! α̂_{j,k} = n⁻¹ Σ_i φ_{j,k}(X_i),        β̂_{j,k} = n⁻¹ Σ_i ψ_{j,k}(X_i),
//! ```
//!
//! together with the per-coefficient sums of squares
//! `Σ_i ψ_{j,k}(X_i)²`, which the cross-validation criteria of Section 5.1
//! need (the cross term `Σ_{i≠h} ψ_{j,k}(X_i) ψ_{j,k}(X_h)` equals
//! `(Σ_i ψ_{j,k}(X_i))² − Σ_i ψ_{j,k}(X_i)²`).
//!
//! Because `φ` and `ψ` are supported on `[0, 2N−1]`, each observation
//! touches at most `2N−1` translations per level, so the computation runs
//! in `O(n · (levels) · 2N)` time.
//!
//! The inner loop is the ingest-side twin of the query-side dense
//! evaluation: where a query sweeps **one basis function over many grid
//! points** (`WaveletTable::accumulate_phi/psi`), ingestion reads **one
//! observation at many translations** (`WaveletTable::gather_phi/psi`).
//! Both directions walk the `φ`/`ψ` table with a constant stride and
//! amortised interpolation weights; the (crate-internal)
//! `LevelAccumulator` packages the gather direction with the per-level
//! dilation constants hoisted out of the per-translation loop.

use crate::error::EstimatorError;
use std::sync::Arc;
use wavedens_wavelets::WaveletBasis;

/// Which of the two generators the coefficients belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generator {
    /// Scaling-function (`φ`) coefficients `α̂_{j,k}`.
    Scaling,
    /// Wavelet (`ψ`) coefficients `β̂_{j,k}`.
    Wavelet,
}

/// Empirical coefficients of one resolution level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelCoefficients {
    /// Resolution level `j`.
    pub level: i32,
    /// Which generator (`φ` or `ψ`) these coefficients use.
    pub generator: Generator,
    /// First translation index `k` stored in `values`.
    pub k_start: i64,
    /// Empirical coefficients, `values[m] = δ̂_{j, k_start + m}`.
    pub values: Vec<f64>,
    /// Per-coefficient sums of squares `Σ_i δ_{j,k}(X_i)²`, shared via
    /// [`Arc`] so that snapshotting a sketch does not copy the vector (cross-validation only ever reads it).
    pub sum_squares: Arc<Vec<f64>>,
}

impl LevelCoefficients {
    /// Number of stored translations at this level.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the level stores no coefficients.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterator over `(k, coefficient)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (i64, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(m, &v)| (self.k_start + m as i64, v))
    }

    /// The `ℓ²` energy of the level.
    pub fn energy(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Largest absolute coefficient of the level (0 for an empty level).
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()))
    }
}

/// All empirical coefficients needed by the estimators: the scaling level
/// `j0` and the detail levels `j0 ≤ j ≤ j_max`.
#[derive(Debug, Clone)]
pub struct EmpiricalCoefficients {
    basis: Arc<WaveletBasis>,
    n: usize,
    interval: (f64, f64),
    scaling: LevelCoefficients,
    details: Vec<LevelCoefficients>,
}

impl EmpiricalCoefficients {
    /// Computes empirical coefficients of `data` on `interval` for the
    /// scaling level `j0` and detail levels `j0..=j_max`.
    ///
    /// Observations outside the interval still contribute to coefficients
    /// whose support they intersect; this matches the paper, which computes
    /// coefficients from all observations and estimates `f` on the compact
    /// support.
    pub fn compute(
        basis: Arc<WaveletBasis>,
        data: &[f64],
        interval: (f64, f64),
        j0: i32,
        j_max: i32,
    ) -> Result<Self, EstimatorError> {
        if data.is_empty() {
            return Err(EstimatorError::EmptySample);
        }
        let mut sketch = crate::sketch::CoefficientSketch::with_basis(basis, interval, j0, j_max)?;
        sketch.push_batch(data);
        sketch.snapshot()
    }

    /// Assembles an `EmpiricalCoefficients` from precomputed parts.
    ///
    /// Used by [`crate::sketch::CoefficientSketch::snapshot`], which
    /// maintains the running sums itself; the caller is responsible for
    /// the parts being mutually consistent (same basis, same interval,
    /// `details` ordered by level).
    pub fn from_parts(
        basis: Arc<WaveletBasis>,
        n: usize,
        interval: (f64, f64),
        scaling: LevelCoefficients,
        details: Vec<LevelCoefficients>,
    ) -> Self {
        Self {
            basis,
            n,
            interval,
            scaling,
            details,
        }
    }

    /// The wavelet basis the coefficients were computed in.
    pub fn basis(&self) -> &Arc<WaveletBasis> {
        &self.basis
    }

    /// Sample size `n`.
    pub fn sample_size(&self) -> usize {
        self.n
    }

    /// The estimation interval.
    pub fn interval(&self) -> (f64, f64) {
        self.interval
    }

    /// The coarse scaling level `j0`.
    pub fn coarse_level(&self) -> i32 {
        self.scaling.level
    }

    /// The highest detail level stored.
    pub fn max_level(&self) -> i32 {
        self.details
            .last()
            .map(|l| l.level)
            .unwrap_or(self.scaling.level)
    }

    /// Scaling coefficients `α̂_{j0,·}`.
    pub fn scaling(&self) -> &LevelCoefficients {
        &self.scaling
    }

    /// Detail coefficients per level, ordered from `j0` upwards.
    pub fn details(&self) -> &[LevelCoefficients] {
        &self.details
    }

    /// Detail coefficients of a specific level, if stored.
    pub fn detail_level(&self, j: i32) -> Option<&LevelCoefficients> {
        self.details.iter().find(|l| l.level == j)
    }
}

/// The clamped range of translations `k` with `δ_{j,k}(x) ≠ 0`; shared by
/// the batch coefficient accumulation, the sketch's running sums, the
/// pointwise estimate evaluation *and* the whole-chunk scatter driver
/// inside `wavedens-wavelets` (where the canonical derivation now lives),
/// so the paths cannot drift apart.
pub(crate) use wavedens_wavelets::cascade::active_translations;

/// Scatters observations into the running sums (and sums of squares) of
/// one resolution level — the shared inner loop of
/// [`crate::sketch::CoefficientSketch`] ingestion (and therefore of the
/// batch coefficient path layered on it).
///
/// The per-level dilation constants — `2^j`, `√(2^j)`, the support length
/// — are hoisted into the struct so that batched ingestion pays them once
/// per level, not once per `(observation, translation)` pair.
///
/// Two scatter paths are provided:
///
/// * [`scatter_chunk`](Self::scatter_chunk) — the production fast path:
///   per observation one **fused** strided table read
///   ([`wavedens_wavelets::cascade::WaveletTable::scatter_rows_phi`])
///   evaluates it at every active translation with a shared interpolation
///   weight and accumulates value and value² in the same sweep — no
///   intermediate gather row. Windows the fused kernel declines (table
///   edge, phase wrap, non-finite position) gather into a one-row scratch
///   and accumulate from there. This is the ingest-side mirror image of
///   the query-side `accumulate_phi`/`accumulate_psi` dense-evaluation
///   primitive.
/// * [`scatter`](Self::scatter) — the scalar reference implementation
///   (one `φ_{j,k}`/`ψ_{j,k}` evaluation per translation, re-deriving the
///   dilation constants per call exactly like pointwise evaluation does).
///   Kept callable so equivalence tests can pin the fast path against it.
pub(crate) struct LevelAccumulator<'a> {
    basis: &'a WaveletBasis,
    generator: Generator,
    level: i32,
    scale: f64,
    sqrt_scale: f64,
    support: f64,
    k_start: i64,
}

impl<'a> LevelAccumulator<'a> {
    pub(crate) fn new(
        basis: &'a WaveletBasis,
        generator: Generator,
        level: i32,
        k_start: i64,
    ) -> Self {
        let scale = (level as f64).exp2();
        Self {
            basis,
            generator,
            level,
            scale,
            sqrt_scale: scale.sqrt(),
            support: basis.support_length(),
            k_start,
        }
    }

    /// Adds `δ_{j,k}(x)` (and its square) to every affected translation,
    /// one basis-function evaluation per translation. Scalar reference
    /// path; see [`scatter_chunk`](Self::scatter_chunk).
    pub(crate) fn scatter(&self, x: f64, sums: &mut [f64], sum_squares: &mut [f64]) {
        let position = self.scale * x;
        for k in active_translations(self.support, position, self.k_start, sums.len()) {
            let value = match self.generator {
                Generator::Scaling => self.basis.phi_jk(self.level, k, x),
                Generator::Wavelet => self.basis.psi_jk(self.level, k, x),
            };
            let idx = (k - self.k_start) as usize;
            sums[idx] += value;
            sum_squares[idx] += value * value;
        }
    }

    /// The fused fast path over a whole chunk of observations: per
    /// observation one strided table read evaluates the mother function
    /// at every active translation (shared fractional weight, constant
    /// stride in the polyphase layout) and accumulates the
    /// `√(2^j)`-normalised value and its square into the running sums in
    /// the *same* sweep. The earlier two-pass variant materialised each
    /// observation's window in a scratch row and re-read it to scatter —
    /// with the tables L2-resident that store + reload round-trip was the
    /// dominant per-slot cost, so fusing the lerp into the moment update
    /// is where the ingest speedup comes from. Windows the fused kernel
    /// declines (table edge, phase `2^J − 1` wrap, non-finite position)
    /// fall back to a gather into the one-row scratch followed by the
    /// scaled-accumulate kernel, which owns every boundary convention.
    ///
    /// Matches [`scatter`](Self::scatter) to ≈ 1e-12 relative: the active
    /// range comes from the same [`active_translations`] and the per-slot
    /// accumulation order (observation order) is unchanged; only the
    /// table argument is rounded once per observation (shared weight)
    /// instead of once per translation. (Fused and gather-then-accumulate
    /// chains are *bitwise* identical — `WaveletTable::scatter_rows_phi`
    /// evaluates the same expression per slot.) The equivalence suite in
    /// `tests/ingest_fast_path.rs` pins the paths against each other
    /// across families, levels and batch slicings.
    pub(crate) fn scatter_chunk(
        &self,
        xs: &[f64],
        scratch: &mut ScatterScratch,
        sums: &mut [f64],
        sum_squares: &mut [f64],
    ) {
        let table = self.basis.table();
        match self.generator {
            Generator::Scaling => table.scatter_rows_phi(
                xs,
                self.scale,
                self.sqrt_scale,
                self.k_start,
                &mut scratch.row,
                sums,
                sum_squares,
            ),
            Generator::Wavelet => table.scatter_rows_psi(
                xs,
                self.scale,
                self.sqrt_scale,
                self.k_start,
                &mut scratch.row,
                sums,
                sum_squares,
            ),
        }
    }
}

/// Reusable fallback buffer for [`LevelAccumulator::scatter_chunk`]: one
/// gather row of [`max_active_translations`] slots. The fused fast path
/// needs no scratch at all; the row only serves windows that touch a
/// table boundary (or carry a non-finite position), which gather here
/// before the moment accumulation. Chunk-size independent, so one
/// instance serves batches of any slicing.
#[derive(Debug)]
pub(crate) struct ScatterScratch {
    row: Vec<f64>,
}

impl ScatterScratch {
    /// Allocates the fallback row for `basis`.
    pub(crate) fn new(basis: &WaveletBasis) -> Self {
        Self {
            row: vec![0.0; max_active_translations(basis)],
        }
    }
}

/// Upper bound on how many translations a single observation can touch at
/// one level — the gather-row width of [`ScatterScratch`]. The active
/// range `position − support < k < position` never holds more than
/// `⌈support⌉ + 1` integers.
pub(crate) fn max_active_translations(basis: &WaveletBasis) -> usize {
    basis.support_length().ceil() as usize + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wavedens_processes::seeded_rng;
    use wavedens_wavelets::WaveletFamily;

    fn basis() -> Arc<WaveletBasis> {
        Arc::new(WaveletBasis::new(WaveletFamily::Symmlet(8)).unwrap())
    }

    fn uniform_sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n).map(|_| rng.gen::<f64>()).collect()
    }

    #[test]
    fn coefficients_match_direct_summation() {
        let b = basis();
        let data = uniform_sample(200, 1);
        let coeffs =
            EmpiricalCoefficients::compute(Arc::clone(&b), &data, (0.0, 1.0), 2, 4).unwrap();
        // Check a handful of coefficients against the naive O(n·k) sum.
        let level = coeffs.detail_level(3).unwrap();
        for (k, value) in level.iter().take(6) {
            let direct: f64 =
                data.iter().map(|&x| b.psi_jk(3, k, x)).sum::<f64>() / data.len() as f64;
            assert!(
                (value - direct).abs() < 1e-10,
                "β̂(3,{k}) = {value} vs direct {direct}"
            );
        }
        let scaling = coeffs.scaling();
        for (k, value) in scaling.iter().take(6) {
            let direct: f64 =
                data.iter().map(|&x| b.phi_jk(2, k, x)).sum::<f64>() / data.len() as f64;
            assert!((value - direct).abs() < 1e-10);
        }
    }

    #[test]
    fn sum_squares_match_direct_summation() {
        let b = basis();
        let data = uniform_sample(150, 2);
        let coeffs =
            EmpiricalCoefficients::compute(Arc::clone(&b), &data, (0.0, 1.0), 1, 3).unwrap();
        let level = coeffs.detail_level(2).unwrap();
        for (idx, (k, _)) in level.iter().enumerate().take(5) {
            let direct: f64 = data.iter().map(|&x| b.psi_jk(2, k, x).powi(2)).sum();
            assert!((level.sum_squares[idx] - direct).abs() < 1e-9);
        }
    }

    #[test]
    fn structure_is_consistent() {
        let b = basis();
        let data = uniform_sample(64, 3);
        let coeffs =
            EmpiricalCoefficients::compute(Arc::clone(&b), &data, (0.0, 1.0), 1, 5).unwrap();
        assert_eq!(coeffs.sample_size(), 64);
        assert_eq!(coeffs.coarse_level(), 1);
        assert_eq!(coeffs.max_level(), 5);
        assert_eq!(coeffs.details().len(), 5);
        assert_eq!(coeffs.scaling().generator, Generator::Scaling);
        assert!(coeffs
            .details()
            .iter()
            .all(|l| l.generator == Generator::Wavelet));
        assert!(coeffs.detail_level(4).is_some());
        assert!(coeffs.detail_level(9).is_none());
        // Level j holds 2^j + 2N − 2 translations on the unit interval.
        assert_eq!(coeffs.detail_level(3).unwrap().len(), 8 + 14);
        assert_eq!(coeffs.detail_level(5).unwrap().len(), 32 + 14);
    }

    #[test]
    fn scaling_coefficients_reconstruct_total_mass() {
        // Σ_k α̂_{j0,k} ∫ φ_{j0,k} ≈ 1 because the empirical measure has mass
        // one and Σ_k φ(·−k) ≡ 1. With ∫φ_{j0,k} = 2^{-j0/2}:
        let b = basis();
        let data = uniform_sample(500, 4);
        let j0 = 3;
        let coeffs =
            EmpiricalCoefficients::compute(Arc::clone(&b), &data, (0.0, 1.0), j0, j0).unwrap();
        let total: f64 = coeffs.scaling().values.iter().sum::<f64>() * 0.5_f64.powi(j0).sqrt();
        assert!((total - 1.0).abs() < 1e-6, "total mass {total}");
    }

    #[test]
    fn empty_sample_and_bad_intervals_are_rejected() {
        let b = basis();
        assert_eq!(
            EmpiricalCoefficients::compute(Arc::clone(&b), &[], (0.0, 1.0), 1, 3).unwrap_err(),
            EstimatorError::EmptySample
        );
        assert!(matches!(
            EmpiricalCoefficients::compute(Arc::clone(&b), &[0.5], (1.0, 0.0), 1, 3).unwrap_err(),
            EstimatorError::InvalidInterval { .. }
        ));
        assert!(matches!(
            EmpiricalCoefficients::compute(Arc::clone(&b), &[0.5], (0.0, 1.0), 3, 1).unwrap_err(),
            EstimatorError::InvalidLevels { .. }
        ));
        assert!(matches!(
            EmpiricalCoefficients::compute(Arc::clone(&b), &[0.5], (0.0, 1.0), -1, 1).unwrap_err(),
            EstimatorError::InvalidLevels { .. }
        ));
    }

    #[test]
    fn level_accessors_behave() {
        let b = basis();
        let data = uniform_sample(64, 5);
        let coeffs =
            EmpiricalCoefficients::compute(Arc::clone(&b), &data, (0.0, 1.0), 2, 3).unwrap();
        let level = coeffs.detail_level(2).unwrap();
        assert!(!level.is_empty());
        assert!(level.energy() >= 0.0);
        assert!(level.max_abs() >= 0.0);
        assert_eq!(level.iter().count(), level.len());
    }

    #[test]
    fn observations_outside_interval_still_contribute_to_boundary_coefficients() {
        let b = basis();
        // A point just outside [0,1] lies in the support of boundary basis
        // functions at coarse levels.
        let data = vec![1.05_f64];
        let coeffs =
            EmpiricalCoefficients::compute(Arc::clone(&b), &data, (0.0, 1.0), 0, 0).unwrap();
        assert!(coeffs.scaling().max_abs() > 0.0);
    }
}
