//! Periodised discrete wavelet transform (Mallat's pyramid algorithm).
//!
//! The density estimator itself works with empirical coefficients computed
//! directly from data points, and no other crate of the workspace calls the
//! DWT: it serves users that compress or denoise *binned* data, the
//! property tests (round trips, Besov norms) and the primitives benchmark.
//! The transform uses
//! circular (periodised) boundary handling, which preserves orthonormality
//! exactly for signals whose length is a multiple of `2^levels`.

use crate::filters::{FilterError, OrthonormalFilter, WaveletFamily};

/// Multi-level periodised DWT of a signal.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveletDecomposition {
    /// Approximation (scaling) coefficients at the coarsest level.
    pub approximation: Vec<f64>,
    /// Detail coefficients, finest level last (i.e. `details[0]` is the
    /// coarsest detail band produced by the last analysis step).
    pub details: Vec<Vec<f64>>,
}

impl WaveletDecomposition {
    /// Total number of coefficients (equals the input length).
    pub fn len(&self) -> usize {
        self.approximation.len() + self.details.iter().map(Vec::len).sum::<usize>()
    }

    /// True when the decomposition holds no coefficients.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of squares of all coefficients; by orthonormality this equals the
    /// energy of the analysed signal.
    pub fn energy(&self) -> f64 {
        self.approximation.iter().map(|c| c * c).sum::<f64>()
            + self
                .details
                .iter()
                .map(|level| level.iter().map(|c| c * c).sum::<f64>())
                .sum::<f64>()
    }
}

/// A periodised DWT engine for a fixed wavelet family.
#[derive(Debug, Clone)]
pub struct Dwt {
    filter: OrthonormalFilter,
}

/// Errors from the transform itself.
#[derive(Debug, Clone, PartialEq)]
pub enum DwtError {
    /// The signal length is not divisible by `2^levels`.
    LengthNotDivisible {
        /// Length of the offending signal.
        len: usize,
        /// Number of analysis levels requested.
        levels: u32,
    },
    /// The signal is empty.
    EmptySignal,
}

impl std::fmt::Display for DwtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DwtError::LengthNotDivisible { len, levels } => write!(
                f,
                "signal length {len} is not divisible by 2^{levels}; cannot run {levels} analysis levels"
            ),
            DwtError::EmptySignal => write!(f, "cannot transform an empty signal"),
        }
    }
}

impl std::error::Error for DwtError {}

impl Dwt {
    /// Creates a transform engine for `family`.
    pub fn new(family: WaveletFamily) -> Result<Self, FilterError> {
        Ok(Self {
            filter: OrthonormalFilter::new(family)?,
        })
    }

    /// Creates the engine from an existing filter.
    pub fn from_filter(filter: OrthonormalFilter) -> Self {
        Self { filter }
    }

    /// The filter pair used by this engine.
    pub fn filter(&self) -> &OrthonormalFilter {
        &self.filter
    }

    /// Single analysis step: splits `signal` into (approximation, detail)
    /// halves using circular convolution and dyadic downsampling.
    pub fn analyze_once(&self, signal: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = signal.len();
        let half = n / 2;
        let h = self.filter.lowpass();
        let g = self.filter.highpass();
        let mut approx = vec![0.0; half];
        let mut detail = vec![0.0; half];
        for i in 0..half {
            let mut a = 0.0;
            let mut d = 0.0;
            for (k, (&hk, &gk)) in h.iter().zip(g.iter()).enumerate() {
                let idx = (2 * i + k) % n;
                a += hk * signal[idx];
                d += gk * signal[idx];
            }
            approx[i] = a;
            detail[i] = d;
        }
        (approx, detail)
    }

    /// Single synthesis step: merges approximation and detail halves back
    /// into a signal of twice the length.
    pub fn synthesize_once(&self, approx: &[f64], detail: &[f64]) -> Vec<f64> {
        assert_eq!(approx.len(), detail.len(), "halves must have equal length");
        let half = approx.len();
        let n = 2 * half;
        let h = self.filter.lowpass();
        let g = self.filter.highpass();
        let mut out = vec![0.0; n];
        for i in 0..half {
            for (k, (&hk, &gk)) in h.iter().zip(g.iter()).enumerate() {
                let idx = (2 * i + k) % n;
                out[idx] += hk * approx[i] + gk * detail[i];
            }
        }
        out
    }

    /// Full multi-level analysis.
    pub fn decompose(&self, signal: &[f64], levels: u32) -> Result<WaveletDecomposition, DwtError> {
        if signal.is_empty() {
            return Err(DwtError::EmptySignal);
        }
        if signal.len() % (1usize << levels) != 0 {
            return Err(DwtError::LengthNotDivisible {
                len: signal.len(),
                levels,
            });
        }
        let mut approx = signal.to_vec();
        let mut details_fine_to_coarse = Vec::with_capacity(levels as usize);
        for _ in 0..levels {
            let (a, d) = self.analyze_once(&approx);
            details_fine_to_coarse.push(d);
            approx = a;
        }
        details_fine_to_coarse.reverse();
        Ok(WaveletDecomposition {
            approximation: approx,
            details: details_fine_to_coarse,
        })
    }

    /// Full multi-level synthesis, inverting [`decompose`](Self::decompose).
    pub fn reconstruct(&self, decomposition: &WaveletDecomposition) -> Vec<f64> {
        let mut approx = decomposition.approximation.clone();
        for detail in &decomposition.details {
            approx = self.synthesize_once(&approx, detail);
        }
        approx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (2.0 * std::f64::consts::PI * 3.0 * t).sin() + 0.3 * (17.0 * t).cos() + 0.1 * t
            })
            .collect()
    }

    #[test]
    fn haar_single_step_matches_hand_computation() {
        let dwt = Dwt::new(WaveletFamily::Haar).unwrap();
        let (a, d) = dwt.analyze_once(&[1.0, 3.0, 5.0, 9.0]);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((a[0] - 4.0 * s).abs() < 1e-12);
        assert!((a[1] - 14.0 * s).abs() < 1e-12);
        assert!((d[0] - (-2.0 * s)).abs() < 1e-12);
        assert!((d[1] - (-4.0 * s)).abs() < 1e-12);
    }

    #[test]
    fn perfect_reconstruction_for_all_families() {
        let signal = sample_signal(256);
        for fam in [
            WaveletFamily::Haar,
            WaveletFamily::Daubechies(2),
            WaveletFamily::Daubechies(5),
            WaveletFamily::Symmlet(8),
        ] {
            let dwt = Dwt::new(fam).unwrap();
            let dec = dwt.decompose(&signal, 4).unwrap();
            let rec = dwt.reconstruct(&dec);
            let max_err = signal
                .iter()
                .zip(&rec)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max);
            assert!(
                max_err < 1e-9,
                "{}: reconstruction error {max_err}",
                fam.name()
            );
        }
    }

    #[test]
    fn transform_preserves_energy() {
        let signal = sample_signal(128);
        let energy: f64 = signal.iter().map(|x| x * x).sum();
        let dwt = Dwt::new(WaveletFamily::Symmlet(8)).unwrap();
        let dec = dwt.decompose(&signal, 5).unwrap();
        assert!((dec.energy() - energy).abs() < 1e-8 * energy.max(1.0));
        assert_eq!(dec.len(), signal.len());
    }

    #[test]
    fn constant_signal_has_no_detail() {
        let dwt = Dwt::new(WaveletFamily::Daubechies(4)).unwrap();
        let signal = vec![2.5; 64];
        let dec = dwt.decompose(&signal, 3).unwrap();
        for level in &dec.details {
            for &c in level {
                assert!(c.abs() < 1e-10, "detail coefficient {c} should vanish");
            }
        }
    }

    #[test]
    fn invalid_lengths_are_rejected() {
        let dwt = Dwt::new(WaveletFamily::Haar).unwrap();
        assert_eq!(
            dwt.decompose(&[1.0, 2.0, 3.0], 2),
            Err(DwtError::LengthNotDivisible { len: 3, levels: 2 })
        );
        assert_eq!(dwt.decompose(&[], 1), Err(DwtError::EmptySignal));
    }

    #[test]
    fn error_messages_are_descriptive() {
        let err = DwtError::LengthNotDivisible { len: 10, levels: 3 };
        assert!(format!("{err}").contains("10"));
        assert!(format!("{}", DwtError::EmptySignal).contains("empty"));
    }
}
