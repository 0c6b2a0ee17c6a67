//! Inputs made from the seed before anything is timed, the fixed query
//! sets, and the exact-answer oracle.

use wavedens_processes::{seeded_rng, DependenceCase, SineUniformMixture};
use wavedens_selectivity::{EmpiricalSelectivity, RangeQuery, SelectivityEstimator};

/// `n` rows of the paper's Case 2 (time-reversed expanding map) with the
/// sine+uniform target marginal.
pub fn case2(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    DependenceCase::ExpandingMap.simulate(&SineUniformMixture::paper(), n, &mut rng)
}

/// `n` rows of the paper's Case 3 (non-causal moving average) with the
/// sine+uniform target marginal.
pub fn case3(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    DependenceCase::NonCausalMa.simulate(&SineUniformMixture::paper(), n, &mut rng)
}

/// A deterministic generator for the query sets: the same on every run,
/// whatever the seed, so error and latency compare across seeds.
struct Lcg(u64);

impl Lcg {
    fn next_unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `count` ranges `[lo, hi]` inside `[0, 1]`, widths between 0.01 and
/// 0.5.
pub fn ranges(count: usize, salt: u64) -> Vec<(f64, f64)> {
    let mut lcg = Lcg(0x9E37_79B9_7F4A_7C15 ^ salt);
    (0..count)
        .map(|_| {
            let width = 0.01 + 0.49 * lcg.next_unit();
            let lo = (1.0 - width) * lcg.next_unit();
            (lo, lo + width)
        })
        .collect()
}

/// The fixed query set the error oracle scores.
pub fn oracle_ranges() -> Vec<(f64, f64)> {
    ranges(128, 1)
}

/// The query bounds the latency blocks cycle through.
pub fn latency_ranges() -> Vec<(f64, f64)> {
    ranges(1024, 2)
}

/// Exact selectivities of `ranges` over `rows` (the empirical
/// distribution of exactly the rows a snapshot covers).
pub fn exact_1d(rows: &[f64], ranges: &[(f64, f64)]) -> Vec<f64> {
    let empirical = EmpiricalSelectivity::new(rows).expect("generated rows are finite");
    ranges
        .iter()
        .map(|&(lo, hi)| {
            let query = RangeQuery::new(lo, hi).expect("ranges lie inside [0, 1]");
            empirical.estimate(&query)
        })
        .collect()
}

/// A query rectangle: the `x` range and the `y` range.
pub type Rect = ((f64, f64), (f64, f64));

/// The rectangles the joint oracle and the 2-D latency blocks use: each
/// range paired with the next.
pub fn rectangles(ranges: &[(f64, f64)]) -> Vec<Rect> {
    (0..ranges.len())
        .map(|i| (ranges[i], ranges[(i + 1) % ranges.len()]))
        .collect()
}

/// Mean absolute difference of two answer lists.
pub fn mean_abs_err(estimates: &[f64], exact: &[f64]) -> f64 {
    let n = estimates.len().min(exact.len()).max(1);
    estimates
        .iter()
        .zip(exact)
        .map(|(e, x)| (e - x).abs())
        .sum::<f64>()
        / n as f64
}
