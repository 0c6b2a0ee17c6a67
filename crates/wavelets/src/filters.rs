//! Construction of compactly supported orthonormal wavelet filters.
//!
//! Instead of copying coefficient tables, filters are constructed from first
//! principles by spectral factorisation of the Daubechies polynomial
//! (Daubechies, *Ten Lectures on Wavelets*, 1992):
//!
//! 1. Form `P(y) = Σ_{k<N} C(N-1+k, k) y^k`, the unique minimal-degree
//!    solution of the Bezout identity `(1-y)^N P(y) + y^N P(1-y) = 1`.
//! 2. Substitute `y = (2 - z - 1/z)/4` and clear denominators to obtain a
//!    Laurent-symmetric polynomial `Q(z)` of degree `2(N-1)` whose roots come
//!    in reciprocal pairs `{z, 1/z}` (and conjugate pairs).
//! 3. Select one root from every reciprocal pair (keeping conjugates
//!    together so the filter stays real) and form
//!    `H(z) ∝ (1+z)^N Π_i (z - z_i)`, normalised so `Σ_k h_k = √2`.
//!
//! Choosing the roots **inside** the unit circle yields the extremal-phase
//! (classic Daubechies) filter; enumerating all admissible selections and
//! minimising the phase non-linearity yields the least-asymmetric
//! **Symmlet** filter used in the paper (Symmlet with `N = 8` vanishing
//! moments). The resulting filters are validated by the unit and property
//! tests against the defining algebraic identities (quadrature-mirror
//! orthonormality, vanishing moments, `Σ h = √2`).

use crate::numerics::{binomial, polynomial_roots, Complex};

/// The wavelet families supported by this crate.
///
/// The inner value is the number of vanishing moments `N`; the associated
/// scaling filter has `2N` taps and the scaling/wavelet functions are
/// supported on `[0, 2N - 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaveletFamily {
    /// The Haar wavelet (`N = 1`). Discontinuous; mostly useful for testing.
    Haar,
    /// Daubechies extremal-phase wavelet with `N` vanishing moments
    /// (`2 ≤ N ≤ 10`).
    Daubechies(usize),
    /// Least-asymmetric Daubechies ("Symmlet") wavelet with `N` vanishing
    /// moments (`4 ≤ N ≤ 10`). `Symmlet(8)` is the wavelet used throughout
    /// the paper's simulations.
    Symmlet(usize),
}

impl WaveletFamily {
    /// Number of vanishing moments of the mother wavelet.
    pub fn vanishing_moments(self) -> usize {
        match self {
            WaveletFamily::Haar => 1,
            WaveletFamily::Daubechies(n) | WaveletFamily::Symmlet(n) => n,
        }
    }

    /// Length of the scaling filter (`2N`).
    pub fn filter_length(self) -> usize {
        2 * self.vanishing_moments()
    }

    /// Human-readable name, e.g. `"sym8"`.
    pub fn name(self) -> String {
        match self {
            WaveletFamily::Haar => "haar".to_string(),
            WaveletFamily::Daubechies(n) => format!("db{n}"),
            WaveletFamily::Symmlet(n) => format!("sym{n}"),
        }
    }

    /// Validates the order of the family.
    pub(crate) fn validate(self) -> Result<(), FilterError> {
        match self {
            WaveletFamily::Haar => Ok(()),
            WaveletFamily::Daubechies(n) if (2..=10).contains(&n) => Ok(()),
            WaveletFamily::Symmlet(n) if (4..=10).contains(&n) => Ok(()),
            _ => Err(FilterError::UnsupportedOrder(self)),
        }
    }
}

/// Errors arising during filter construction.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterError {
    /// The requested order is outside the supported range.
    UnsupportedOrder(WaveletFamily),
    /// The spectral factorisation failed numerically (should not happen for
    /// supported orders; kept as an error instead of a panic for robustness).
    FactorisationFailed(String),
}

impl std::fmt::Display for FilterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FilterError::UnsupportedOrder(fam) => {
                write!(f, "unsupported wavelet order: {}", fam.name())
            }
            FilterError::FactorisationFailed(msg) => {
                write!(f, "spectral factorisation failed: {msg}")
            }
        }
    }
}

impl std::error::Error for FilterError {}

/// A quadrature-mirror pair of orthonormal wavelet filters.
#[derive(Debug, Clone, PartialEq)]
pub struct OrthonormalFilter {
    family: WaveletFamily,
    /// Low-pass (scaling) filter `h`, normalised so `Σ h_k = √2`.
    lowpass: Vec<f64>,
    /// High-pass (wavelet) filter `g_k = (-1)^k h_{L-1-k}`.
    highpass: Vec<f64>,
}

impl OrthonormalFilter {
    /// Constructs the filter pair for `family`.
    pub fn new(family: WaveletFamily) -> Result<Self, FilterError> {
        family.validate()?;
        let lowpass = match family {
            WaveletFamily::Haar => vec![std::f64::consts::FRAC_1_SQRT_2; 2],
            WaveletFamily::Daubechies(n) => construct_lowpass(n, RootSelection::ExtremalPhase)?,
            WaveletFamily::Symmlet(n) => construct_lowpass(n, RootSelection::LeastAsymmetric)?,
        };
        let highpass = quadrature_mirror(&lowpass);
        Ok(Self {
            family,
            lowpass,
            highpass,
        })
    }

    /// The wavelet family this filter belongs to.
    pub fn family(&self) -> WaveletFamily {
        self.family
    }

    /// The low-pass (scaling) filter coefficients `h_0, …, h_{2N-1}`.
    pub fn lowpass(&self) -> &[f64] {
        &self.lowpass
    }

    /// The high-pass (wavelet) filter coefficients.
    pub fn highpass(&self) -> &[f64] {
        &self.highpass
    }

    /// Number of filter taps (`2N`).
    pub fn len(&self) -> usize {
        self.lowpass.len()
    }

    /// Always false for a valid filter; present for clippy-idiomatic pairing
    /// with [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        self.lowpass.is_empty()
    }

    /// Number of vanishing moments `N`.
    pub fn vanishing_moments(&self) -> usize {
        self.family.vanishing_moments()
    }

    /// Length of the support of the scaling and wavelet functions
    /// (`2N - 1`); both are supported on `[0, support_length]`.
    pub fn support_length(&self) -> usize {
        self.lowpass.len() - 1
    }

    /// Maximal deviation from the quadrature-mirror orthonormality condition
    /// `Σ_k h_k h_{k+2m} = δ_{m,0}`. Useful as a numerical health check.
    pub fn orthonormality_defect(&self) -> f64 {
        let h = &self.lowpass;
        let len = h.len();
        let mut worst = 0.0_f64;
        for m in 0..len / 2 {
            let mut acc = 0.0;
            for k in 0..len - 2 * m {
                acc += h[k] * h[k + 2 * m];
            }
            let target = if m == 0 { 1.0 } else { 0.0 };
            worst = worst.max((acc - target).abs());
        }
        worst
    }
}

/// The quadrature-mirror relation `g_k = (-1)^k h_{L-1-k}`.
fn quadrature_mirror(lowpass: &[f64]) -> Vec<f64> {
    let len = lowpass.len();
    (0..len)
        .map(|k| {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            sign * lowpass[len - 1 - k]
        })
        .collect()
}

/// Which root of each reciprocal pair to keep during spectral factorisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RootSelection {
    /// Always keep the root inside the unit circle (classic Daubechies).
    ExtremalPhase,
    /// Enumerate all admissible selections and keep the one minimising phase
    /// non-linearity (Symmlet / least-asymmetric).
    LeastAsymmetric,
}

/// A unit of root choice: either a single reciprocal pair of real roots or a
/// conjugate quadruple of complex roots. Choosing "inside" keeps the members
/// with modulus < 1, "outside" keeps their reciprocals.
#[derive(Debug, Clone)]
struct RootGroup {
    inside: Vec<Complex>,
    outside: Vec<Complex>,
}

/// Builds the low-pass filter for `n` vanishing moments using the requested
/// root-selection strategy.
fn construct_lowpass(n: usize, selection: RootSelection) -> Result<Vec<f64>, FilterError> {
    let groups = factorisation_root_groups(n)?;

    match selection {
        RootSelection::ExtremalPhase => {
            let chosen: Vec<Complex> = groups.iter().flat_map(|g| g.inside.clone()).collect();
            Ok(filter_from_roots(n, &chosen))
        }
        RootSelection::LeastAsymmetric => {
            let mut best: Option<(f64, Vec<f64>)> = None;
            let combos = 1_usize << groups.len();
            for mask in 0..combos {
                let chosen: Vec<Complex> = groups
                    .iter()
                    .enumerate()
                    .flat_map(|(i, g)| {
                        if mask & (1 << i) == 0 {
                            g.inside.clone()
                        } else {
                            g.outside.clone()
                        }
                    })
                    .collect();
                let candidate = filter_from_roots(n, &chosen);
                let score = phase_nonlinearity(&candidate);
                let better = match &best {
                    None => true,
                    Some((best_score, _)) => score < *best_score - 1e-12,
                };
                if better {
                    best = Some((score, candidate));
                }
            }
            best.map(|(_, filter)| filter)
                .ok_or_else(|| FilterError::FactorisationFailed("no root selection found".into()))
        }
    }
}

/// Computes the reciprocal-pair root groups of the Daubechies polynomial for
/// `n` vanishing moments.
fn factorisation_root_groups(n: usize) -> Result<Vec<RootGroup>, FilterError> {
    if n == 1 {
        return Ok(Vec::new());
    }

    // Q(z) = Σ_k C(N-1+k, k) (-1)^k (z-1)^{2k} z^{N-1-k} / 4^k,
    // a degree 2(N-1) polynomial whose roots come in reciprocal pairs.
    let degree = 2 * (n - 1);
    let mut q = vec![0.0_f64; degree + 1];
    for k in 0..n {
        let coeff = binomial((n - 1 + k) as u64, k as u64) * (-1.0_f64).powi(k as i32)
            / 4.0_f64.powi(k as i32);
        // (z - 1)^{2k} expanded, then shifted by z^{N-1-k}.
        let shift = n - 1 - k;
        for j in 0..=(2 * k) {
            let binom = binomial((2 * k) as u64, j as u64);
            let sign = (-1.0_f64).powi((2 * k - j) as i32);
            q[shift + j] += coeff * binom * sign;
        }
    }

    let roots = polynomial_roots(&q);

    // Partition into conjugate-reciprocal groups. Work with the roots of
    // modulus < 1 (exactly half of them) and attach their reciprocals.
    let mut inside: Vec<Complex> = roots.into_iter().filter(|z| z.abs() < 1.0).collect();
    if inside.len() != n - 1 {
        return Err(FilterError::FactorisationFailed(format!(
            "expected {} roots inside the unit circle, found {}",
            n - 1,
            inside.len()
        )));
    }

    let mut groups = Vec::new();
    while let Some(z) = inside.pop() {
        if z.im.abs() < 1e-9 {
            // Real root: the group is the pair {z, 1/z}.
            groups.push(RootGroup {
                inside: vec![Complex::real(z.re)],
                outside: vec![Complex::real(1.0 / z.re)],
            });
        } else {
            // Complex root: find and remove its conjugate, group the
            // quadruple {z, z̄} vs {1/z, 1/z̄}.
            let conj_pos = inside
                .iter()
                .position(|w| (w.re - z.re).abs() < 1e-7 && (w.im + z.im).abs() < 1e-7)
                .ok_or_else(|| {
                    FilterError::FactorisationFailed(
                        "complex root without conjugate partner".into(),
                    )
                })?;
            let conj = inside.swap_remove(conj_pos);
            groups.push(RootGroup {
                inside: vec![z, conj],
                outside: vec![z.inv(), conj.inv()],
            });
        }
    }
    Ok(groups)
}

/// Expands `H(z) = c (1+z)^N Π_i (z - z_i)` and normalises so `Σ h_k = √2`.
fn filter_from_roots(n: usize, roots: &[Complex]) -> Vec<f64> {
    // Start with the polynomial 1 and multiply factors in.
    let mut coeffs: Vec<Complex> = vec![Complex::real(1.0)];
    for _ in 0..n {
        coeffs = multiply_linear(&coeffs, Complex::real(1.0), Complex::real(1.0));
    }
    for &root in roots {
        coeffs = multiply_linear(&coeffs, -root, Complex::real(1.0));
    }
    let mut h: Vec<f64> = coeffs.iter().map(|c| c.re).collect();
    let sum: f64 = h.iter().sum();
    let target = std::f64::consts::SQRT_2;
    for v in &mut h {
        *v *= target / sum;
    }
    h
}

/// Multiplies the polynomial `coeffs` (ascending degree) by `(a + b z)`.
fn multiply_linear(coeffs: &[Complex], a: Complex, b: Complex) -> Vec<Complex> {
    let mut out = vec![Complex::default(); coeffs.len() + 1];
    for (k, &c) in coeffs.iter().enumerate() {
        out[k] = out[k] + c * a;
        out[k + 1] = out[k + 1] + c * b;
    }
    out
}

/// Sum of squared deviations of the unwrapped phase of `H(e^{-iω})` from its
/// best linear fit on a grid avoiding the zero at `ω = π`. Smaller means a
/// more symmetric (linear-phase-like) filter.
fn phase_nonlinearity(h: &[f64]) -> f64 {
    const GRID: usize = 256;
    let mut omegas = Vec::with_capacity(GRID);
    let mut phases = Vec::with_capacity(GRID);
    let mut prev_phase = 0.0_f64;
    let mut offset = 0.0_f64;
    for i in 0..GRID {
        let omega = std::f64::consts::PI * 0.95 * (i as f64 + 0.5) / GRID as f64;
        let mut re = 0.0;
        let mut im = 0.0;
        for (k, &hk) in h.iter().enumerate() {
            let angle = -(k as f64) * omega;
            re += hk * angle.cos();
            im += hk * angle.sin();
        }
        let mut phase = im.atan2(re);
        // Unwrap.
        if i > 0 {
            while phase + offset - prev_phase > std::f64::consts::PI {
                offset -= 2.0 * std::f64::consts::PI;
            }
            while phase + offset - prev_phase < -std::f64::consts::PI {
                offset += 2.0 * std::f64::consts::PI;
            }
        }
        phase += offset;
        prev_phase = phase;
        omegas.push(omega);
        phases.push(phase);
    }
    // Least-squares fit phase ≈ a + b ω and return the residual sum of
    // squares.
    let n = GRID as f64;
    let sx: f64 = omegas.iter().sum();
    let sy: f64 = phases.iter().sum();
    let sxx: f64 = omegas.iter().map(|x| x * x).sum();
    let sxy: f64 = omegas.iter().zip(&phases).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    omegas
        .iter()
        .zip(&phases)
        .map(|(x, y)| {
            let r = y - a - b * x;
            r * r
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SQRT2: f64 = std::f64::consts::SQRT_2;

    fn all_supported_families() -> Vec<WaveletFamily> {
        let mut fams = vec![WaveletFamily::Haar];
        fams.extend((2..=10).map(WaveletFamily::Daubechies));
        fams.extend((4..=10).map(WaveletFamily::Symmlet));
        fams
    }

    #[test]
    fn haar_filter_is_exact() {
        let f = OrthonormalFilter::new(WaveletFamily::Haar).unwrap();
        for (got, expected) in f.lowpass().iter().zip([1.0 / SQRT2, 1.0 / SQRT2]) {
            assert!((got - expected).abs() < 1e-15);
        }
        for (got, expected) in f.highpass().iter().zip([1.0 / SQRT2, -1.0 / SQRT2]) {
            assert!((got - expected).abs() < 1e-15);
        }
        assert_eq!(f.support_length(), 1);
    }

    #[test]
    fn db2_matches_closed_form() {
        // The D4 filter has the closed form
        // (1±√3, 3±√3)/(4√2); our construction may produce it in reversed
        // order, so compare as multisets.
        let f = OrthonormalFilter::new(WaveletFamily::Daubechies(2)).unwrap();
        let s3 = 3.0_f64.sqrt();
        let mut expected = [
            (1.0 + s3) / (4.0 * SQRT2),
            (3.0 + s3) / (4.0 * SQRT2),
            (3.0 - s3) / (4.0 * SQRT2),
            (1.0 - s3) / (4.0 * SQRT2),
        ];
        let mut got = f.lowpass().to_vec();
        expected.sort_by(f64::total_cmp);
        got.sort_by(f64::total_cmp);
        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-10, "{g} vs {e}");
        }
    }

    #[test]
    fn filters_sum_to_sqrt2_and_are_orthonormal() {
        for fam in all_supported_families() {
            let f = OrthonormalFilter::new(fam).unwrap();
            let sum: f64 = f.lowpass().iter().sum();
            assert!(
                (sum - SQRT2).abs() < 1e-9,
                "{}: sum {} != sqrt(2)",
                fam.name(),
                sum
            );
            assert!(
                f.orthonormality_defect() < 1e-8,
                "{}: orthonormality defect {}",
                fam.name(),
                f.orthonormality_defect()
            );
            assert_eq!(f.len(), fam.filter_length());
        }
    }

    #[test]
    fn highpass_has_vanishing_moments() {
        // Σ_k g_k k^m = 0 for m = 0..N-1 ensures the mother wavelet has N
        // vanishing moments.
        for fam in all_supported_families() {
            let f = OrthonormalFilter::new(fam).unwrap();
            let n = f.vanishing_moments();
            for m in 0..n {
                let moment: f64 = f
                    .highpass()
                    .iter()
                    .enumerate()
                    .map(|(k, &g)| g * (k as f64).powi(m as i32))
                    .sum();
                // Tolerance loosens with the order because the moments involve
                // k^m up to 19^9.
                let tol = 1e-7 * 20f64.powi(m as i32);
                assert!(
                    moment.abs() < tol,
                    "{}: moment {} = {}",
                    fam.name(),
                    m,
                    moment
                );
            }
        }
    }

    #[test]
    fn highpass_is_orthogonal_to_lowpass_shifts() {
        for fam in all_supported_families() {
            let f = OrthonormalFilter::new(fam).unwrap();
            let h = f.lowpass();
            let g = f.highpass();
            let len = h.len();
            for m in 0..(len / 2) {
                let mut acc = 0.0;
                for (k, &hk) in h.iter().enumerate() {
                    let idx = k + 2 * m;
                    if idx < len {
                        acc += hk * g[idx];
                    }
                }
                assert!(acc.abs() < 1e-9, "{}: <h, g(·-2m)> = {}", fam.name(), acc);
            }
        }
    }

    #[test]
    fn symmlet_is_less_asymmetric_than_daubechies() {
        for n in [4_usize, 6, 8, 10] {
            let db = OrthonormalFilter::new(WaveletFamily::Daubechies(n)).unwrap();
            let sym = OrthonormalFilter::new(WaveletFamily::Symmlet(n)).unwrap();
            let db_score = phase_nonlinearity(db.lowpass());
            let sym_score = phase_nonlinearity(sym.lowpass());
            assert!(
                sym_score < db_score,
                "sym{n} nonlinearity {sym_score} should beat db{n} {db_score}"
            );
        }
    }

    #[test]
    fn symmlet_and_daubechies_share_magnitude_response() {
        // Both factorisations of the same |H(ω)|² must have identical
        // magnitude responses.
        let db = OrthonormalFilter::new(WaveletFamily::Daubechies(8)).unwrap();
        let sym = OrthonormalFilter::new(WaveletFamily::Symmlet(8)).unwrap();
        for i in 0..64 {
            let omega = std::f64::consts::PI * i as f64 / 64.0;
            let mag = |h: &[f64]| -> f64 {
                let (mut re, mut im) = (0.0, 0.0);
                for (k, &hk) in h.iter().enumerate() {
                    re += hk * (k as f64 * omega).cos();
                    im -= hk * (k as f64 * omega).sin();
                }
                re * re + im * im
            };
            assert!(
                (mag(db.lowpass()) - mag(sym.lowpass())).abs() < 1e-8,
                "magnitude mismatch at ω={omega}"
            );
        }
    }

    #[test]
    fn unsupported_orders_are_rejected() {
        assert!(OrthonormalFilter::new(WaveletFamily::Daubechies(1)).is_err());
        assert!(OrthonormalFilter::new(WaveletFamily::Daubechies(11)).is_err());
        assert!(OrthonormalFilter::new(WaveletFamily::Symmlet(3)).is_err());
        assert!(OrthonormalFilter::new(WaveletFamily::Symmlet(42)).is_err());
    }

    #[test]
    fn family_names_are_stable() {
        assert_eq!(WaveletFamily::Haar.name(), "haar");
        assert_eq!(WaveletFamily::Daubechies(4).name(), "db4");
        assert_eq!(WaveletFamily::Symmlet(8).name(), "sym8");
    }

    #[test]
    fn error_display_is_informative() {
        let err = OrthonormalFilter::new(WaveletFamily::Symmlet(99)).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("sym99"));
    }
}
