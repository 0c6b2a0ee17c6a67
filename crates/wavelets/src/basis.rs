//! Dilated and translated basis functions `φ_{j,k}` and `ψ_{j,k}` and the
//! bookkeeping of which translations matter on a compact estimation
//! interval.
//!
//! With `δ` denoting either `φ` or `ψ`, the paper uses the standard
//! normalisation `δ_{j,k}(x) = 2^{j/2} δ(2^j x − k)`, so that
//! `{φ_{j0,k}} ∪ {ψ_{j,k} : j ≥ j0}` is an orthonormal basis of `L²(ℝ)`.

use crate::cascade::{WaveletTable, DEFAULT_TABLE_LEVELS};
use crate::filters::{FilterError, OrthonormalFilter, WaveletFamily};
use std::ops::RangeInclusive;
use std::sync::{Arc, OnceLock};

/// Number of supported families: Haar, Daubechies 2–10 and Symmlet 4–10.
const FAMILY_SLOTS: usize = 17;

/// One process-wide default-depth table per family, filled on first use.
type SharedSlot = OnceLock<Result<Arc<WaveletBasis>, FilterError>>;

static SHARED: [SharedSlot; FAMILY_SLOTS] = {
    // The array-repeat seed only; `[const { .. }; N]` needs Rust 1.79.
    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: SharedSlot = OnceLock::new();
    [EMPTY; FAMILY_SLOTS]
};

/// The slot of a supported family; an unsupported order is an error.
fn slot_index(family: WaveletFamily) -> Result<usize, FilterError> {
    family.validate()?;
    Ok(match family {
        WaveletFamily::Haar => 0,
        WaveletFamily::Daubechies(n) => n - 1,
        WaveletFamily::Symmlet(n) => n + 6,
    })
}

/// A ready-to-evaluate wavelet basis: the filter plus tabulated `φ`/`ψ`.
///
/// This is the object density estimators hold on to. Evaluation of
/// `φ_{j,k}(x)`/`ψ_{j,k}(x)` costs one table interpolation.
#[derive(Debug, Clone)]
pub struct WaveletBasis {
    table: WaveletTable,
}

impl WaveletBasis {
    /// Builds a fresh basis for `family` at the default table resolution.
    ///
    /// Every call re-runs the cascade tabulation (a few milliseconds and
    /// ≈1.9 MB of tables for `Symmlet(8)`). Code that only needs *the*
    /// default-depth basis of a family should call
    /// [`shared`](Self::shared), which keeps at most one table per family
    /// for the life of the process.
    pub fn new(family: WaveletFamily) -> Result<Self, FilterError> {
        Ok(Self {
            table: WaveletTable::with_levels(family, DEFAULT_TABLE_LEVELS)?,
        })
    }

    /// The process-wide default-depth basis of `family`.
    ///
    /// The first call for a family builds its table (as
    /// [`new`](Self::new) does); every later call returns a clone of the
    /// same `Arc`, so sketches, estimators and decoded frames of one
    /// family share one immutable table. Concurrent first calls block
    /// until the one build finishes and then all get that `Arc`. Memory
    /// is bounded by one table per supported family, ≈1.9 MB for
    /// `Symmlet(8)`. An unsupported order is rejected before any table
    /// is touched, with the error [`new`](Self::new) returns.
    pub fn shared(family: WaveletFamily) -> Result<Arc<Self>, FilterError> {
        SHARED[slot_index(family)?]
            .get_or_init(|| Self::new(family).map(Arc::new))
            .clone()
    }

    /// Builds a fresh, unshared basis with an explicit dyadic table depth
    /// (spacing `2^-levels`).
    pub fn with_table_levels(family: WaveletFamily, levels: u32) -> Result<Self, FilterError> {
        Ok(Self {
            table: WaveletTable::with_levels(family, levels)?,
        })
    }

    /// Wraps an already constructed table.
    pub fn from_table(table: WaveletTable) -> Self {
        Self { table }
    }

    /// The wavelet family of this basis.
    pub fn family(&self) -> WaveletFamily {
        self.table.filter().family()
    }

    /// The quadrature-mirror filter pair.
    pub fn filter(&self) -> &OrthonormalFilter {
        self.table.filter()
    }

    /// The underlying value table.
    pub fn table(&self) -> &WaveletTable {
        &self.table
    }

    /// Number of vanishing moments `N` of the mother wavelet. This is the
    /// regularity parameter appearing in the `j0` rule of Theorem 3.1.
    pub fn vanishing_moments(&self) -> usize {
        self.table.filter().vanishing_moments()
    }

    /// Length of the support of `φ` and `ψ` (`2N − 1`), the constant `A` of
    /// the paper up to centring.
    pub fn support_length(&self) -> f64 {
        self.table.support_end()
    }

    /// Mother scaling function `φ(x)` (0 outside the support, `±∞`
    /// included; NaN for NaN).
    pub fn phi(&self, x: f64) -> f64 {
        self.table.phi(x)
    }

    /// Mother wavelet `ψ(x)` (0 outside the support, `±∞` included; NaN
    /// for NaN).
    pub fn psi(&self, x: f64) -> f64 {
        self.table.psi(x)
    }

    /// Scaling basis function `φ_{j,k}(x) = 2^{j/2} φ(2^j x − k)`: 0
    /// outside its support (`±∞` included), NaN for a NaN `x`.
    pub fn phi_jk(&self, j: i32, k: i64, x: f64) -> f64 {
        let scale = exp2_i(j);
        scale.sqrt() * self.table.phi(scale * x - k as f64)
    }

    /// Wavelet basis function `ψ_{j,k}(x) = 2^{j/2} ψ(2^j x − k)`: 0
    /// outside its support (`±∞` included), NaN for a NaN `x`.
    pub fn psi_jk(&self, j: i32, k: i64, x: f64) -> f64 {
        let scale = exp2_i(j);
        scale.sqrt() * self.table.psi(scale * x - k as f64)
    }

    /// Support of `δ_{j,k}`: the interval `[k 2^-j, (k + 2N - 1) 2^-j]`.
    pub fn support_jk(&self, j: i32, k: i64) -> (f64, f64) {
        let inv = exp2_i(-j);
        (k as f64 * inv, (k as f64 + self.support_length()) * inv)
    }

    /// Range of translations `k` whose basis functions `δ_{j,k}` have support
    /// overlapping the interval `[lo, hi]` on a set of positive measure.
    ///
    /// The support of `δ_{j,k}` is `[k 2^-j, (k + 2N−1) 2^-j]`, so the
    /// overlapping `k` satisfy `lo·2^j − (2N−1) < k < hi·2^j` (strict
    /// inequalities drop translations that merely touch an endpoint).
    pub fn translations_covering(&self, j: i32, lo: f64, hi: f64) -> RangeInclusive<i64> {
        assert!(lo <= hi, "interval must be ordered");
        let scale = exp2_i(j);
        let min_k = (lo * scale - self.support_length()).floor() as i64 + 1;
        let max_k = (hi * scale).ceil() as i64 - 1;
        min_k..=max_k
    }

    /// Number of translations returned by
    /// [`translations_covering`](Self::translations_covering).
    pub fn translation_count(&self, j: i32, lo: f64, hi: f64) -> usize {
        let range = self.translations_covering(j, lo, hi);
        (range.end() - range.start() + 1).max(0) as usize
    }
}

/// `2^j` for possibly negative `j`.
fn exp2_i(j: i32) -> f64 {
    (j as f64).exp2()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis() -> WaveletBasis {
        WaveletBasis::with_table_levels(WaveletFamily::Symmlet(8), 10).unwrap()
    }

    #[test]
    fn dilation_normalisation_is_correct() {
        let b = basis();
        // φ_{j,k}(x) = 2^{j/2} φ(2^j x − k): check a few points directly.
        for &(j, k, x) in &[(3_i32, 2_i64, 0.4_f64), (5, 11, 0.37), (0, 0, 1.9)] {
            let direct = 2f64.powi(j).sqrt() * b.phi(2f64.powi(j) * x - k as f64);
            assert!((b.phi_jk(j, k, x) - direct).abs() < 1e-12);
            let direct_psi = 2f64.powi(j).sqrt() * b.psi(2f64.powi(j) * x - k as f64);
            assert!((b.psi_jk(j, k, x) - direct_psi).abs() < 1e-12);
        }
    }

    #[test]
    fn l2_norm_is_scale_invariant() {
        // ∫ ψ_{j,k}² = ∫ ψ² for every (j, k): verify numerically on a grid.
        let b = basis();
        let norm = |j: i32, k: i64| -> f64 {
            let (lo, hi) = b.support_jk(j, k);
            let steps = 20_000;
            let dx = (hi - lo) / steps as f64;
            (0..steps)
                .map(|i| {
                    let x = lo + (i as f64 + 0.5) * dx;
                    b.psi_jk(j, k, x).powi(2) * dx
                })
                .sum()
        };
        let n0 = norm(0, 0);
        let n3 = norm(3, 5);
        let n6 = norm(6, -2);
        assert!((n0 - n3).abs() < 1e-3, "{n0} vs {n3}");
        assert!((n0 - n6).abs() < 1e-3, "{n0} vs {n6}");
    }

    #[test]
    fn support_shrinks_with_level() {
        let b = basis();
        let (lo0, hi0) = b.support_jk(0, 0);
        let (lo4, hi4) = b.support_jk(4, 0);
        assert_eq!(lo0, 0.0);
        assert_eq!(lo4, 0.0);
        assert!((hi0 - 15.0).abs() < 1e-12);
        assert!((hi4 - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn translations_covering_unit_interval() {
        let b = basis();
        // At level j the unit interval is covered by 2^j + 2N − 2 shifts
        // whose support overlaps (0, 1) on a set of positive measure.
        for j in [0_i32, 2, 4, 6] {
            let count = b.translation_count(j, 0.0, 1.0);
            assert_eq!(count, (1_usize << j) + 2 * 8 - 2);
        }
    }

    #[test]
    fn translations_outside_support_evaluate_to_zero() {
        let b = basis();
        let j = 4;
        let range = b.translations_covering(j, 0.0, 1.0);
        let k_outside = range.end() + 1;
        for i in 0..20 {
            let x = i as f64 / 20.0;
            assert_eq!(b.psi_jk(j, k_outside, x), 0.0);
        }
    }

    #[test]
    fn covering_range_is_tight() {
        let b = basis();
        let j = 5;
        let range = b.translations_covering(j, 0.0, 1.0);
        // The first and last k in the range must have non-trivial mass on
        // [0, 1]; evaluate on a grid and check the maximum is nonzero.
        for &k in &[*range.start(), *range.end()] {
            let max = (0..400)
                .map(|i| b.psi_jk(j, k, i as f64 / 400.0).abs())
                .fold(0.0_f64, f64::max);
            assert!(max > 0.0, "k={k} contributes nothing on [0,1]");
        }
    }

    #[test]
    fn every_supported_family_has_its_own_slot() {
        let mut families = vec![WaveletFamily::Haar];
        families.extend((2..=10).map(WaveletFamily::Daubechies));
        families.extend((4..=10).map(WaveletFamily::Symmlet));
        let mut slots: Vec<usize> = families.iter().map(|&f| slot_index(f).unwrap()).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..FAMILY_SLOTS).collect::<Vec<_>>());
    }

    #[test]
    fn unsupported_orders_fill_no_slot() {
        let haar = WaveletBasis::shared(WaveletFamily::Haar).unwrap();
        assert_eq!(haar.table().levels(), DEFAULT_TABLE_LEVELS);
        for family in [
            WaveletFamily::Daubechies(11),
            WaveletFamily::Daubechies(1),
            WaveletFamily::Symmlet(3),
            WaveletFamily::Symmlet(11),
        ] {
            assert!(slot_index(family).is_err());
            assert_eq!(
                WaveletBasis::shared(family).unwrap_err(),
                WaveletBasis::new(family).unwrap_err()
            );
        }
        // Only supported families ever reach a slot: every filled slot
        // (Haar's at least) holds a basis of the family that maps to it.
        let mut filled = 0;
        for (slot, cell) in SHARED.iter().enumerate() {
            if let Some(entry) = cell.get() {
                let basis = entry.as_ref().expect("supported families build");
                assert_eq!(slot_index(basis.family()), Ok(slot));
                filled += 1;
            }
        }
        assert!(filled >= 1);
    }

    #[test]
    #[should_panic(expected = "interval must be ordered")]
    fn reversed_interval_panics() {
        let b = basis();
        let _ = b.translations_covering(3, 1.0, 0.0);
    }
}
