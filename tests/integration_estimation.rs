//! Cross-crate integration tests: simulate with `wavedens-processes`,
//! estimate with `wavedens-core`, and answer queries with
//! `wavedens-selectivity`, all through the umbrella crate's public API.

use wavedens::estimation::RiskAccumulator;
use wavedens::prelude::*;
use wavedens::selectivity::{evaluate_workload, EmpiricalSelectivity, WorkloadGenerator};

/// Every dependence case combined with both thresholding rules produces an
/// estimate that integrates to ≈ 1 and has a moderate integrated squared
/// error against the true marginal.
#[test]
fn all_cases_and_rules_recover_the_marginal_density() {
    let target = SineUniformMixture::paper();
    let n = 1 << 10;
    let grid = Grid::new(0.0, 1.0, 201);
    let truth = grid.evaluate(|x| target.pdf(x));
    for (i, case) in DependenceCase::ALL.into_iter().enumerate() {
        for (j, estimator) in [
            WaveletDensityEstimator::htcv(),
            WaveletDensityEstimator::stcv(),
        ]
        .into_iter()
        .enumerate()
        {
            let mut rng = seeded_rng(1000 + 10 * i as u64 + j as u64);
            let data = case.simulate(&target, n, &mut rng);
            let fit = estimator.fit(&data).expect("fit");
            let values = fit.evaluate_on(&grid);
            let ise = grid.integrate_abs_power(&values, &truth, 2.0);
            assert!(ise < 0.35, "{case}, rule {:?}: ISE = {ise}", fit.rule());
            let mass = fit.integral();
            assert!(
                (mass - 1.0).abs() < 0.1,
                "{case}: estimate integrates to {mass}"
            );
        }
    }
}

/// The data-driven highest level ĵ1 stays well below j* = log2(n) in all
/// three cases (the qualitative content of Table 2).
#[test]
fn data_driven_highest_level_is_moderate_in_all_cases() {
    let target = SineUniformMixture::paper();
    let n = 1 << 10;
    for (i, case) in DependenceCase::ALL.into_iter().enumerate() {
        let mut total = 0.0;
        let reps = 5;
        for rep in 0..reps {
            let mut rng = seeded_rng(7000 + 10 * i as u64 + rep);
            let data = case.simulate(&target, n, &mut rng);
            let fit = WaveletDensityEstimator::stcv().fit(&data).expect("fit");
            total += fit.highest_level() as f64;
        }
        let mean_j1 = total / reps as f64;
        assert!(
            (3.0..=9.5).contains(&mean_j1),
            "{case}: mean ĵ1 = {mean_j1} outside the plausible range"
        );
    }
}

/// A sketch fed as a stream (`extend`) and the batch estimator agree
/// exactly when given the same observations and levels, across crates.
#[test]
fn streaming_matches_batch_across_cases() {
    let target = SineUniformMixture::paper();
    let mut rng = seeded_rng(99);
    let n = 600;
    let data = DependenceCase::NonCausalMa.simulate(&target, n, &mut rng);
    let j0 = wavedens::estimation::default_coarse_level(n, 8);
    let j_max = wavedens::estimation::cv_max_level(n);
    let mut streaming = CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 1.0), j0, j_max)
        .expect("streaming sketch");
    streaming.extend(data.iter().copied());
    let online = streaming.estimate(ThresholdRule::Soft).expect("estimate");
    let batch = WaveletDensityEstimator::stcv()
        .with_levels(Some(j0), Some(j_max))
        .fit(&data)
        .expect("batch fit");
    for i in 0..=40 {
        let x = i as f64 / 40.0;
        assert!((online.evaluate(x) - batch.evaluate(x)).abs() < 1e-10);
    }
}

/// Different wavelet families all give workable estimators (sym8 is the
/// paper's choice, but the API supports the whole Daubechies family).
#[test]
fn alternative_wavelet_families_work() {
    let target = SineUniformMixture::paper();
    let mut rng = seeded_rng(5);
    let data = DependenceCase::Iid.simulate(&target, 1 << 11, &mut rng);
    let grid = Grid::new(0.05, 0.95, 91);
    let truth = grid.evaluate(|x| target.pdf(x));
    for family in [
        WaveletFamily::Daubechies(4),
        WaveletFamily::Daubechies(6),
        WaveletFamily::Symmlet(6),
        WaveletFamily::Symmlet(8),
    ] {
        let fit = WaveletDensityEstimator::stcv()
            .with_family(family)
            .fit(&data)
            .expect("fit");
        let ise = grid.integrate_abs_power(&fit.evaluate_on(&grid), &truth, 2.0);
        assert!(ise < 0.2, "{family:?}: ISE {ise}");
    }
}

/// Monte-Carlo accumulation across replications reproduces the ordering of
/// the paper's Table 1 (STCV no worse than HTCV) on a small run.
#[test]
fn stcv_is_no_worse_than_htcv_on_average() {
    let target = SineUniformMixture::paper();
    let n = 1 << 10;
    let reps = 8;
    let grid = Grid::new(0.0, 1.0, 201);
    let truth = grid.evaluate(|x| target.pdf(x));
    let mut mise = [0.0_f64; 2];
    for rep in 0..reps {
        let mut rng = seeded_rng(40_000 + rep);
        let data = DependenceCase::ExpandingMap.simulate(&target, n, &mut rng);
        for (slot, estimator) in mise.iter_mut().zip([
            WaveletDensityEstimator::htcv(),
            WaveletDensityEstimator::stcv(),
        ]) {
            let fit = estimator.fit(&data).expect("fit");
            *slot += grid.integrate_abs_power(&fit.evaluate_on(&grid), &truth, 2.0);
        }
    }
    assert!(
        mise[1] <= mise[0] * 1.05,
        "STCV ({}) should not be worse than HTCV ({})",
        mise[1] / reps as f64,
        mise[0] / reps as f64
    );
}

/// The selectivity synopsis built on a dependent stream answers range
/// queries within a few percentage points of both the empirical truth and
/// the true marginal probability.
#[test]
fn selectivity_pipeline_end_to_end() {
    let target = SineUniformMixture::paper();
    let mut rng = seeded_rng(77);
    let rows = 4096;
    let stream = DependenceCase::NonCausalMa.simulate(&target, rows, &mut rng);
    let synopsis = WaveletSelectivity::fit(&stream).expect("synopsis");
    let truth = EmpiricalSelectivity::new(&stream).expect("finite stream");
    let workload = WorkloadGenerator::analytical().draw_many(150, &mut rng);
    let summary = evaluate_workload(&synopsis, &truth, &workload);
    assert!(
        summary.mean_absolute_error < 0.02,
        "mean selectivity error {}",
        summary.mean_absolute_error
    );
    // Also compare against the true marginal probability for a fixed query.
    let q = RangeQuery::new(0.2, 0.6).unwrap();
    let exact = target.cdf(0.6) - target.cdf(0.2);
    assert!(
        (synopsis.estimate(&q) - exact).abs() < 0.05,
        "estimate {} vs exact {exact}",
        synopsis.estimate(&q)
    );
}

/// The risk accumulator, fed with estimates from different crates, computes
/// a MISE that decreases with the sample size (the rate check of Theorem
/// 3.1 in miniature).
#[test]
fn mise_decreases_with_sample_size() {
    let target = SineUniformMixture::paper();
    let grid = Grid::new(0.0, 1.0, 201);
    let truth = grid.evaluate(|x| target.pdf(x));
    let mise_for = |n: usize, seed_base: u64| {
        let mut acc = RiskAccumulator::mise_only(grid, truth.clone());
        for rep in 0..6 {
            let mut rng = seeded_rng(seed_base + rep);
            let data = DependenceCase::ExpandingMap.simulate(&target, n, &mut rng);
            let fit = WaveletDensityEstimator::stcv().fit(&data).expect("fit");
            acc.record(&fit.evaluate_on(acc.grid()));
        }
        acc.mise().expect("mise")
    };
    let small = mise_for(256, 100);
    let large = mise_for(4096, 200);
    assert!(
        large < small,
        "MISE should shrink with n: {small} -> {large}"
    );
}
