//! 2-D tensor-product wavelet basis.
//!
//! The multivariate basis used by the joint synopses is the tensor product
//! of the 1-D orthonormal basis on each axis: every 2-D basis function is a
//! separable product `δ_{jx,kx}(x) · δ_{jy,ky}(y)` where each factor is
//! either a scaling function `φ_{j,k}` or a wavelet `ψ_{j,k}` from the same
//! family. Because the factors are separable, everything expensive — table
//! interpolation, polyphase gathers, strided accumulation — stays 1-D: a
//! [`TensorBasis`] simply drives the existing [`WaveletTable`] fast paths
//! once per axis and multiplies the results.
//!
//! [`WaveletTable`]: crate::cascade::WaveletTable

use std::ops::RangeInclusive;
use std::sync::Arc;

use crate::basis::WaveletBasis;
use crate::cascade::WaveletTable;
use crate::filters::{FilterError, WaveletFamily};

/// Tensor product of a 1-D wavelet basis with itself.
///
/// Both axes share one [`WaveletBasis`] (one value table, one filter), so a
/// `TensorBasis` adds no precomputation of its own: it evaluates separable
/// products and forwards per-axis gathers to the shared table.
#[derive(Debug, Clone)]
pub struct TensorBasis {
    axis: Arc<WaveletBasis>,
}

impl TensorBasis {
    /// The tensor basis over the process-wide default-resolution table of
    /// `family` (see [`WaveletBasis::shared`]).
    pub fn new(family: WaveletFamily) -> Result<Self, FilterError> {
        Ok(Self {
            axis: WaveletBasis::shared(family)?,
        })
    }

    /// Wraps an existing (possibly shared) 1-D basis.
    pub fn from_axis(axis: Arc<WaveletBasis>) -> Self {
        Self { axis }
    }

    /// The shared 1-D basis driving both axes.
    pub fn axis(&self) -> &Arc<WaveletBasis> {
        &self.axis
    }

    /// The wavelet family of both axes.
    pub fn family(&self) -> WaveletFamily {
        self.axis.family()
    }

    /// Support length `2N − 1` of the 1-D factors (identical per axis).
    pub fn support_length(&self) -> f64 {
        self.axis.support_length()
    }

    /// The shared value table (for per-axis `gather_phi` / `gather_psi`).
    pub fn table(&self) -> &WaveletTable {
        self.axis.table()
    }

    /// Translations on one axis whose factor overlaps `[lo, hi]`, exactly as
    /// [`WaveletBasis::translations_covering`].
    pub fn translations_covering(&self, j: i32, lo: f64, hi: f64) -> RangeInclusive<i64> {
        self.axis.translations_covering(j, lo, hi)
    }

    /// Evaluates the separable product basis function at `point`.
    ///
    /// Each axis factor is `ψ_{j,k}` when the corresponding `wavelet` flag is
    /// `true` and `φ_{j,k}` otherwise; `levels` and `translations` give the
    /// per-axis `(j, k)` indices. The scaling layer is `(false, false)` at the
    /// coarse level, and the three detail orientations are `(true, false)`,
    /// `(false, true)` and `(true, true)`.
    pub fn evaluate(
        &self,
        wavelet: (bool, bool),
        levels: (i32, i32),
        translations: (i64, i64),
        point: (f64, f64),
    ) -> f64 {
        self.factor(wavelet.0, levels.0, translations.0, point.0)
            * self.factor(wavelet.1, levels.1, translations.1, point.1)
    }

    /// Evaluates one 1-D factor: `ψ_{j,k}` when `wavelet`, else `φ_{j,k}`.
    pub fn factor(&self, wavelet: bool, j: i32, k: i64, x: f64) -> f64 {
        if wavelet {
            self.axis.psi_jk(j, k, x)
        } else {
            self.axis.phi_jk(j, k, x)
        }
    }

    /// Gathers the raw mother values `δ(position − (k_first + m))` for one
    /// axis into `out[m]`, delegating to the polyphase fast path
    /// ([`WaveletTable::gather_phi`] / [`WaveletTable::gather_psi`]). The
    /// caller applies the `2^{j/2}` normalisation, exactly as in the 1-D
    /// scatter path.
    pub fn gather(&self, wavelet: bool, position: f64, k_first: i64, out: &mut [f64]) {
        let table = self.axis.table();
        if wavelet {
            table.gather_psi(position, k_first, out);
        } else {
            table.gather_phi(position, k_first, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis() -> TensorBasis {
        TensorBasis::new(WaveletFamily::Symmlet(8)).expect("sym8 filter")
    }

    #[test]
    fn product_is_separable() {
        let tensor = basis();
        let axis = tensor.axis();
        let point = (0.31, 0.67);
        for &(wx, wy) in &[(false, false), (true, false), (false, true), (true, true)] {
            let got = tensor.evaluate((wx, wy), (3, 4), (2, -1), point);
            let fx = if wx {
                axis.psi_jk(3, 2, point.0)
            } else {
                axis.phi_jk(3, 2, point.0)
            };
            let fy = if wy {
                axis.psi_jk(4, -1, point.1)
            } else {
                axis.phi_jk(4, -1, point.1)
            };
            assert_eq!(got, fx * fy, "orientation ({wx}, {wy})");
        }
    }

    #[test]
    fn gather_matches_pointwise_factor() {
        let tensor = basis();
        let j = 4;
        let x = 0.4375;
        let scale = f64::from(j).exp2();
        let position = scale * x;
        let support = tensor.support_length();
        let k_lo = (position - support).floor() as i64 + 1;
        let count = support.ceil() as usize + 1;
        for &wavelet in &[false, true] {
            let mut row = vec![0.0; count];
            tensor.gather(wavelet, position, k_lo, &mut row);
            for (m, &raw) in row.iter().enumerate() {
                let k = k_lo + m as i64;
                let expect = tensor.factor(wavelet, j, k, x) / scale.sqrt();
                assert!((raw - expect).abs() <= 1e-12, "slot {m}: {raw} vs {expect}");
            }
        }
    }

    #[test]
    fn vanishes_outside_product_support() {
        let tensor = basis();
        // ψ_{3,0} ⊗ ψ_{3,0} is supported on [0, 15/8]²; far outside it the
        // product must be exactly zero.
        assert_eq!(
            tensor.evaluate((true, true), (3, 3), (0, 0), (5.0, 0.5)),
            0.0
        );
        assert_eq!(
            tensor.evaluate((true, true), (3, 3), (0, 0), (0.5, -3.0)),
            0.0
        );
    }

    #[test]
    fn shares_one_axis_table() {
        let axis = Arc::new(WaveletBasis::new(WaveletFamily::Haar).expect("haar"));
        let tensor = TensorBasis::from_axis(Arc::clone(&axis));
        assert!(Arc::ptr_eq(tensor.axis(), &axis));
        assert_eq!(tensor.family(), WaveletFamily::Haar);
        assert_eq!(tensor.support_length(), axis.support_length());
    }
}
