//! Property-based and integration tests of the dense-evaluation + CDF
//! query fast path: `range_mass` vs direct quadrature, CDF monotonicity
//! and additivity, batched vs one-by-one streaming ingestion, and the
//! stale-cache rebuild semantics of the wavelet selectivity synopsis.

use proptest::prelude::*;
use std::sync::OnceLock;
use wavedens::prelude::*;
use wavedens::selectivity::{integrate_density, SelectivityEstimator};

/// A dependent non-uniform stream shared by the property tests (fitted
/// once; proptest re-enters the closure per case).
fn dependent_stream() -> &'static Vec<f64> {
    static STREAM: OnceLock<Vec<f64>> = OnceLock::new();
    STREAM.get_or_init(|| {
        let mut rng = seeded_rng(71);
        DependenceCase::NonCausalMa.simulate(&SineUniformMixture::paper(), 2048, &mut rng)
    })
}

fn fitted() -> &'static (WaveletDensityEstimate, CumulativeEstimate) {
    static FIT: OnceLock<(WaveletDensityEstimate, CumulativeEstimate)> = OnceLock::new();
    FIT.get_or_init(|| {
        let estimate = WaveletDensityEstimator::stcv()
            .fit(dependent_stream())
            .expect("fit");
        let cumulative = estimate.cumulative(4097);
        (estimate, cumulative)
    })
}

proptest! {
    // Pinned case count and seed: tier-1 must generate identical inputs
    // run-to-run (same policy as tests/property_based.rs).
    #![proptest_config(ProptestConfig::with_cases(64).with_rng_seed(0x5EED_BA5E_2026_0002))]

    /// The O(1) `range_mass` answer matches a fresh trapezoidal
    /// quadrature of the same density estimate over the query range.
    #[test]
    fn range_mass_matches_quadrature(lo in 0.0_f64..0.95, width in 0.005_f64..0.5) {
        let hi = (lo + width).min(1.0);
        let (estimate, cumulative) = fitted();
        let query = RangeQuery::new(lo, hi).expect("valid query");
        let direct = integrate_density(&query, |x| estimate.evaluate(x));
        let fast = cumulative.range_mass(lo, hi).clamp(0.0, 1.0);
        prop_assert!(
            (fast - direct).abs() < 2e-3,
            "[{lo}, {hi}]: cdf {fast} vs quadrature {direct}"
        );
    }

    /// The CDF is a genuine distribution function: nondecreasing,
    /// nonnegative, capped by the total mass, and `range_mass` is exactly
    /// additive over adjacent ranges.
    #[test]
    fn cdf_monotonicity_and_additivity(a in 0.0_f64..1.0, b in 0.0_f64..1.0, c in 0.0_f64..1.0) {
        let (_, cumulative) = fitted();
        let mut points = [a, b, c];
        points.sort_by(f64::total_cmp);
        let [x0, x1, x2] = points;
        let cdf0 = cumulative.cdf(x0);
        let cdf1 = cumulative.cdf(x1);
        let cdf2 = cumulative.cdf(x2);
        prop_assert!(cdf0 >= 0.0);
        prop_assert!(cdf1 >= cdf0, "cdf({x1}) = {cdf1} < cdf({x0}) = {cdf0}");
        prop_assert!(cdf2 >= cdf1, "cdf({x2}) = {cdf2} < cdf({x1}) = {cdf1}");
        prop_assert!(cdf2 <= cumulative.total_mass() + 1e-12);
        let whole = cumulative.range_mass(x0, x2);
        let split = cumulative.range_mass(x0, x1) + cumulative.range_mass(x1, x2);
        prop_assert!(
            (whole - split).abs() < 1e-12,
            "additivity violated on [{x0}, {x2}] split at {x1}: {whole} vs {split}"
        );
        prop_assert!(cumulative.range_mass(x0, x1) >= 0.0);
    }

    /// Batched ingestion is exactly equivalent to pushing observations
    /// one at a time, for arbitrary prefixes of dependent data.
    #[test]
    fn push_batch_equals_repeated_push(take in 16_usize..512, split in 0.0_f64..1.0) {
        let data = &dependent_stream()[..take];
        let cut = ((take as f64) * split) as usize;
        let mut one_by_one = CoefficientSketch::sized_for(take).expect("streaming sketch");
        for &x in data {
            one_by_one.push(x);
        }
        // Two batches covering the same data (exercises batch boundaries).
        let mut batched = CoefficientSketch::sized_for(take).expect("streaming sketch");
        batched.push_batch(&data[..cut]);
        batched.push_batch(&data[cut..]);
        prop_assert_eq!(one_by_one.count(), batched.count());
        let a = one_by_one.estimate(ThresholdRule::Soft).expect("estimate");
        let b = batched.estimate(ThresholdRule::Soft).expect("estimate");
        for i in 0..=40 {
            let x = i as f64 / 40.0;
            // Bitwise equality: the accumulation order per coefficient is
            // identical in both ingestion paths.
            prop_assert_eq!(a.evaluate(x), b.evaluate(x), "mismatch at x = {}", x);
        }
        prop_assert_eq!(a.highest_level(), b.highest_level());
    }
}

/// A burst of queries against a stale synopsis triggers exactly one
/// cross-validation rebuild — the bug this PR fixes (previously every
/// stale query re-ran the full CV pipeline).
#[test]
fn stale_synopsis_burst_rebuilds_once() {
    let mut synopsis = WaveletSelectivity::with_expected_rows(2048).expect("synopsis");
    synopsis.observe_many(dependent_stream().iter().copied());
    assert_eq!(synopsis.rebuild_count(), 0);
    let mut rng = seeded_rng(5);
    let workload = wavedens::selectivity::WorkloadGenerator::analytical().draw_many(250, &mut rng);
    for query in &workload {
        let s = synopsis.estimate(query);
        assert!((0.0..=1.0).contains(&s));
    }
    assert_eq!(
        synopsis.rebuild_count(),
        1,
        "burst must rebuild exactly once"
    );
    synopsis.observe(0.42);
    for query in &workload {
        synopsis.estimate(query);
    }
    assert_eq!(synopsis.rebuild_count(), 2, "one insert, one more rebuild");
}

/// The synopsis' fast-path answers stay accurate against the exact
/// empirical selectivity on a dependent stream.
#[test]
fn fast_path_stays_accurate_against_ground_truth() {
    use wavedens::selectivity::{evaluate_workload, EmpiricalSelectivity, WorkloadGenerator};
    let data = dependent_stream();
    let truth = EmpiricalSelectivity::new(data).unwrap();
    let synopsis = WaveletSelectivity::fit(data).expect("synopsis");
    let mut rng = seeded_rng(13);
    let workload = WorkloadGenerator::analytical().draw_many(300, &mut rng);
    let summary = evaluate_workload(&synopsis, &truth, &workload);
    assert!(
        summary.mean_absolute_error < 0.03,
        "MAE {}",
        summary.mean_absolute_error
    );
    assert_eq!(
        synopsis.rebuild_count(),
        1,
        "one rebuild for the whole workload"
    );
}
