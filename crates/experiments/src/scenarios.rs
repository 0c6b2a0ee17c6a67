//! The scenario functions behind every table and figure of the paper.
//!
//! Each function runs a Monte-Carlo study and returns a plain-data summary
//! that the corresponding binary (and the Criterion benches) format for
//! output. All randomness is derived from [`ExperimentConfig::seed`], so
//! every table is reproducible bit for bit.

use crate::config::ExperimentConfig;
use crate::mc::{mean, run_replications, standard_deviation};
use wavedens_core::{
    cross_validate_with, CvCriterion, EmpiricalCoefficients, Grid, KernelDensityEstimator,
    RiskAccumulator, ThresholdRule, ThresholdSelection, WaveletBasis, WaveletDensityEstimator,
    WaveletFamily,
};
use wavedens_processes::{
    DependenceCase, GaussianMixture, LsvMapProcess, SineUniformMixture, StationaryProcess,
    TargetDensity,
};

/// Number of grid points used for integrated risks on `[0, 1]`.
const RISK_GRID_POINTS: usize = 401;

/// Summary of a cross-validated wavelet estimator on one dependence case
/// (drives Tables 1–2 and Figures 1–4).
#[derive(Debug, Clone)]
pub struct CaseRiskSummary {
    /// The dependence case.
    pub case: DependenceCase,
    /// Hard or soft thresholding.
    pub rule: ThresholdRule,
    /// Number of Monte-Carlo replications.
    pub replications: usize,
    /// Monte-Carlo estimate of the MISE (Table 1).
    pub mise: f64,
    /// Standard error of the MISE estimate.
    pub mise_std_error: f64,
    /// Mean of the data-driven highest level `ĵ1` (Table 2).
    pub mean_j1: f64,
    /// The cross-validated resolution levels `j0..=j*`.
    pub levels: Vec<i32>,
    /// Mean cross-validated threshold per level (Figure 3).
    pub mean_thresholds: Vec<f64>,
    /// Mean proportion of thresholded (killed) coefficients per level
    /// (Figure 4).
    pub mean_killed_fraction: Vec<f64>,
    /// Evaluation grid on `[0, 1]`.
    pub grid_points: Vec<f64>,
    /// Pointwise mean of the estimates (Figures 1–2).
    pub mean_estimate: Vec<f64>,
    /// True density on the grid.
    pub true_density: Vec<f64>,
}

/// Runs the cross-validated wavelet estimator on one case with the paper's
/// sine+uniform target density.
pub fn case_mise(
    config: &ExperimentConfig,
    case: DependenceCase,
    rule: ThresholdRule,
) -> CaseRiskSummary {
    let target = SineUniformMixture::paper();
    let grid = Grid::new(0.0, 1.0, RISK_GRID_POINTS);
    let truth = grid.evaluate(|x| target.pdf(x));

    struct RepResult {
        ise: f64,
        j1: f64,
        thresholds: Vec<f64>,
        killed: Vec<f64>,
        curve: Vec<f64>,
        levels: Vec<i32>,
    }

    let results = run_replications(
        config.replications,
        config.threads,
        config.seed,
        |_, rng| {
            let data = case.simulate(&target, config.sample_size, rng);
            let estimate = WaveletDensityEstimator::new(rule, ThresholdSelection::CrossValidation)
                .fit(&data)
                .expect("fit cannot fail on valid data");
            let curve = estimate.evaluate_on(&grid);
            let ise = grid.integrate_abs_power(&curve, &truth, 2.0);
            let cv = estimate.cross_validation().expect("CV estimator");
            RepResult {
                ise,
                j1: estimate.highest_level() as f64,
                thresholds: cv.levels.iter().map(|l| l.lambda).collect(),
                killed: cv.levels.iter().map(|l| l.thresholded_fraction()).collect(),
                curve,
                levels: cv.levels.iter().map(|l| l.level).collect(),
            }
        },
    );

    let ises: Vec<f64> = results.iter().map(|r| r.ise).collect();
    let j1s: Vec<f64> = results.iter().map(|r| r.j1).collect();
    let levels = results
        .first()
        .map(|r| r.levels.clone())
        .unwrap_or_default();
    let level_count = levels.len();
    let mut mean_thresholds = vec![0.0; level_count];
    let mut mean_killed = vec![0.0; level_count];
    let mut mean_curve = vec![0.0; grid.len()];
    for r in &results {
        for (slot, v) in mean_thresholds.iter_mut().zip(&r.thresholds) {
            *slot += v;
        }
        for (slot, v) in mean_killed.iter_mut().zip(&r.killed) {
            *slot += v;
        }
        for (slot, v) in mean_curve.iter_mut().zip(&r.curve) {
            *slot += v;
        }
    }
    let reps = results.len().max(1) as f64;
    mean_thresholds.iter_mut().for_each(|v| *v /= reps);
    mean_killed.iter_mut().for_each(|v| *v /= reps);
    mean_curve.iter_mut().for_each(|v| *v /= reps);

    CaseRiskSummary {
        case,
        rule,
        replications: results.len(),
        mise: mean(&ises),
        mise_std_error: standard_deviation(&ises) / (results.len().max(1) as f64).sqrt(),
        mean_j1: mean(&j1s),
        levels,
        mean_thresholds,
        mean_killed_fraction: mean_killed,
        grid_points: grid.points().collect(),
        mean_estimate: mean_curve,
        true_density: truth,
    }
}

/// Comparison of the STCV wavelet estimator against the two kernel
/// baselines on the bimodal Gaussian-mixture density (Figure 5) together
/// with their MISEs.
#[derive(Debug, Clone)]
pub struct KernelComparison {
    /// The dependence case.
    pub case: DependenceCase,
    /// Number of replications.
    pub replications: usize,
    /// Evaluation grid.
    pub grid_points: Vec<f64>,
    /// True density on the grid.
    pub true_density: Vec<f64>,
    /// Mean STCV wavelet estimate.
    pub mean_wavelet: Vec<f64>,
    /// Mean kernel estimate with the rule-of-thumb bandwidth.
    pub mean_kernel_rot: Vec<f64>,
    /// Mean kernel estimate with the cross-validated bandwidth.
    pub mean_kernel_cv: Vec<f64>,
    /// MISEs of the three estimators, in the same order.
    pub mise: [f64; 3],
}

/// Runs the Figure 5 comparison for one dependence case.
pub fn kernel_comparison_curves(
    config: &ExperimentConfig,
    case: DependenceCase,
) -> KernelComparison {
    let target = GaussianMixture::paper_bimodal();
    let grid = Grid::new(0.0, 1.0, RISK_GRID_POINTS);
    let truth = grid.evaluate(|x| target.pdf(x));

    let results = run_replications(
        config.replications,
        config.threads,
        config.seed,
        |_, rng| {
            let data = case.simulate(&target, config.sample_size, rng);
            let wavelet = WaveletDensityEstimator::stcv()
                .fit(&data)
                .expect("wavelet fit");
            let rot = KernelDensityEstimator::rule_of_thumb()
                .fit(&data)
                .expect("kernel fit");
            let cv = KernelDensityEstimator::cross_validated()
                .fit(&data)
                .expect("kernel fit");
            [
                wavelet.evaluate_on(&grid),
                rot.evaluate_on(&grid),
                cv.evaluate_on(&grid),
            ]
        },
    );

    let mut accumulators = [(); 3]
        .map(|_| RiskAccumulator::mise_only(Grid::new(0.0, 1.0, RISK_GRID_POINTS), truth.clone()));
    for triple in &results {
        for (acc, curve) in accumulators.iter_mut().zip(triple.iter()) {
            acc.record(curve);
        }
    }
    let mise = [
        accumulators[0].mise().unwrap_or(f64::NAN),
        accumulators[1].mise().unwrap_or(f64::NAN),
        accumulators[2].mise().unwrap_or(f64::NAN),
    ];

    KernelComparison {
        case,
        replications: results.len(),
        grid_points: grid.points().collect(),
        true_density: truth,
        mean_wavelet: accumulators[0].mean_curve(),
        mean_kernel_rot: accumulators[1].mean_curve(),
        mean_kernel_cv: accumulators[2].mean_curve(),
        mise,
    }
}

/// Mean `L^p` risks of the three estimators as a function of `p`
/// (Figure 6).
#[derive(Debug, Clone)]
pub struct LpRiskProfile {
    /// The dependence case.
    pub case: DependenceCase,
    /// The exponents `p` evaluated.
    pub p_values: Vec<f64>,
    /// Mean `L^p` risks of the STCV wavelet estimator.
    pub wavelet: Vec<f64>,
    /// Mean `L^p` risks of the rule-of-thumb kernel estimator.
    pub kernel_rot: Vec<f64>,
    /// Mean `L^p` risks of the CV-bandwidth kernel estimator.
    pub kernel_cv: Vec<f64>,
}

/// Runs the Figure 6 study for one case.
pub fn lp_risk_profile(
    config: &ExperimentConfig,
    case: DependenceCase,
    p_values: &[f64],
) -> LpRiskProfile {
    let target = GaussianMixture::paper_bimodal();
    let grid = Grid::new(0.0, 1.0, RISK_GRID_POINTS);
    let truth = grid.evaluate(|x| target.pdf(x));
    let p_vec = p_values.to_vec();

    let results = run_replications(
        config.replications,
        config.threads,
        config.seed,
        |_, rng| {
            let data = case.simulate(&target, config.sample_size, rng);
            let wavelet = WaveletDensityEstimator::stcv()
                .fit(&data)
                .expect("wavelet fit")
                .evaluate_on(&grid);
            let rot = KernelDensityEstimator::rule_of_thumb()
                .fit(&data)
                .expect("kernel fit")
                .evaluate_on(&grid);
            let cv = KernelDensityEstimator::cross_validated()
                .fit(&data)
                .expect("kernel fit")
                .evaluate_on(&grid);
            [wavelet, rot, cv]
        },
    );

    let mut accumulators = [(); 3].map(|_| {
        RiskAccumulator::new(
            Grid::new(0.0, 1.0, RISK_GRID_POINTS),
            Some(truth.clone()),
            p_vec.clone(),
            0,
        )
    });
    for triple in &results {
        for (acc, curve) in accumulators.iter_mut().zip(triple.iter()) {
            acc.record(curve);
        }
    }
    let risks = |acc: &RiskAccumulator| -> Vec<f64> {
        p_vec
            .iter()
            .map(|&p| acc.mean_lp_risk(p).unwrap_or(f64::NAN))
            .collect()
    };
    let wavelet = risks(&accumulators[0]);
    let kernel_rot = risks(&accumulators[1]);
    let kernel_cv = risks(&accumulators[2]);

    LpRiskProfile {
        case,
        p_values: p_vec,
        wavelet,
        kernel_rot,
        kernel_cv,
    }
}

/// Summary of the Liverani–Saussol–Vaienti study (Figures 7 and 8).
#[derive(Debug, Clone)]
pub struct LsvSummary {
    /// Intermittency parameter `α'`.
    pub alpha: f64,
    /// Number of replications.
    pub replications: usize,
    /// Evaluation grid on `[0.01, 1]`.
    pub grid_points: Vec<f64>,
    /// Mean STCV wavelet estimate (Figure 7).
    pub mean_wavelet: Vec<f64>,
    /// Mean rule-of-thumb kernel estimate (Figure 7, dashed).
    pub mean_kernel: Vec<f64>,
    /// Integrated moments `∫ (E f̂^k)^{1/k}` of the wavelet estimator for
    /// `k = 1..=orders` (Figure 8).
    pub wavelet_moments: Vec<f64>,
    /// Integrated moments of the kernel estimator.
    pub kernel_moments: Vec<f64>,
}

/// Runs the Figure 7/8 study for one value of `α'`.
pub fn lsv_study(config: &ExperimentConfig, alpha: f64, moment_orders: usize) -> LsvSummary {
    let process = LsvMapProcess::new(alpha).expect("alpha in (0,1)");
    // The paper restricts the study to [0.01, 1] where the invariant density
    // is bounded.
    let grid = Grid::new(0.01, 1.0, RISK_GRID_POINTS);

    let results = run_replications(
        config.replications,
        config.threads,
        config.seed,
        |_, rng| {
            let data = process.simulate(config.sample_size, rng);
            let wavelet = WaveletDensityEstimator::stcv()
                .with_interval(0.01, 1.0)
                .fit(&data)
                .expect("wavelet fit")
                .evaluate_on(&grid);
            let kernel = KernelDensityEstimator::rule_of_thumb()
                .fit(&data)
                .expect("kernel fit")
                .evaluate_on(&grid);
            [wavelet, kernel]
        },
    );

    let mut accumulators = [(); 2].map(|_| {
        RiskAccumulator::new(
            Grid::new(0.01, 1.0, RISK_GRID_POINTS),
            None,
            vec![],
            moment_orders,
        )
    });
    for pair in &results {
        for (acc, curve) in accumulators.iter_mut().zip(pair.iter()) {
            acc.record(curve);
        }
    }
    let moments = |acc: &RiskAccumulator| -> Vec<f64> {
        (1..=moment_orders)
            .map(|k| acc.integrated_moment(k).unwrap_or(f64::NAN))
            .collect()
    };

    LsvSummary {
        alpha,
        replications: results.len(),
        grid_points: grid.points().collect(),
        mean_wavelet: accumulators[0].mean_curve(),
        mean_kernel: accumulators[1].mean_curve(),
        wavelet_moments: moments(&accumulators[0]),
        kernel_moments: moments(&accumulators[1]),
    }
}

/// One row of the convergence-rate study (an extra experiment checking the
/// near-minimax rate of Theorem 3.1 empirically).
#[derive(Debug, Clone, Copy)]
pub struct RateStudyRow {
    /// Sample size.
    pub n: usize,
    /// MISE of the STCV wavelet estimator.
    pub mise_wavelet: f64,
    /// MISE of the CV-bandwidth kernel estimator.
    pub mise_kernel_cv: f64,
}

/// MISE of the STCV and kernel-CV estimators over a sweep of sample sizes
/// for one dependence case.
pub fn rate_study(
    config: &ExperimentConfig,
    case: DependenceCase,
    sample_sizes: &[usize],
) -> Vec<RateStudyRow> {
    let target = SineUniformMixture::paper();
    let grid = Grid::new(0.0, 1.0, RISK_GRID_POINTS);
    let truth = grid.evaluate(|x| target.pdf(x));

    sample_sizes
        .iter()
        .map(|&n| {
            let results = run_replications(
                config.replications,
                config.threads,
                config.seed,
                |_, rng| {
                    let data = case.simulate(&target, n, rng);
                    let wavelet = WaveletDensityEstimator::stcv()
                        .fit(&data)
                        .expect("wavelet fit")
                        .evaluate_on(&grid);
                    let kernel = KernelDensityEstimator::cross_validated()
                        .fit(&data)
                        .expect("kernel fit")
                        .evaluate_on(&grid);
                    (
                        grid.integrate_abs_power(&wavelet, &truth, 2.0),
                        grid.integrate_abs_power(&kernel, &truth, 2.0),
                    )
                },
            );
            RateStudyRow {
                n,
                mise_wavelet: mean(&results.iter().map(|r| r.0).collect::<Vec<_>>()),
                mise_kernel_cv: mean(&results.iter().map(|r| r.1).collect::<Vec<_>>()),
            }
        })
        .collect()
}

/// One row of the threshold-rule ablation.
#[derive(Debug, Clone)]
pub struct ThresholdAblationRow {
    /// Human-readable label of the rule.
    pub label: String,
    /// Monte-Carlo MISE.
    pub mise: f64,
    /// Mean fraction of detail coefficients set to zero.
    pub mean_sparsity: f64,
}

/// Ablation of the threshold selection rule (an extra experiment backing
/// the reproduction note in DESIGN.md): penalised vs literal CV criteria,
/// theoretical `K√(j/n)` thresholds for several `K`, and the linear
/// projection estimator.
pub fn threshold_ablation(
    config: &ExperimentConfig,
    case: DependenceCase,
) -> Vec<ThresholdAblationRow> {
    let target = SineUniformMixture::paper();
    let grid = Grid::new(0.0, 1.0, RISK_GRID_POINTS);
    let truth = grid.evaluate(|x| target.pdf(x));

    #[derive(Clone, Copy)]
    enum Variant {
        Cv(ThresholdRule, CvCriterion),
        Theoretical(f64),
        Linear(i32),
    }
    let variants: Vec<(String, Variant)> = vec![
        (
            "STCV (penalised criterion)".into(),
            Variant::Cv(ThresholdRule::Soft, CvCriterion::Penalized),
        ),
        (
            "HTCV (penalised criterion)".into(),
            Variant::Cv(ThresholdRule::Hard, CvCriterion::Penalized),
        ),
        (
            "HTCV (literal unpenalised criterion)".into(),
            Variant::Cv(ThresholdRule::Hard, CvCriterion::Unpenalized),
        ),
        ("theoretical K=0.5".into(), Variant::Theoretical(0.5)),
        ("theoretical K=1.0".into(), Variant::Theoretical(1.0)),
        ("theoretical K=2.0".into(), Variant::Theoretical(2.0)),
        ("linear projection j=4".into(), Variant::Linear(4)),
        ("linear projection j=6".into(), Variant::Linear(6)),
    ];

    variants
        .into_iter()
        .map(|(label, variant)| {
            let results = run_replications(
                config.replications,
                config.threads,
                config.seed,
                |_, rng| {
                    let data = case.simulate(&target, config.sample_size, rng);
                    let estimate = match variant {
                        Variant::Cv(rule, criterion) => {
                            // Build the estimator through the public API: compute
                            // coefficients, run the requested CV criterion, then fit
                            // with the resulting fixed thresholds.
                            let j0 = wavedens_core::default_coarse_level(data.len(), 8);
                            let j_star = wavedens_core::cv_max_level(data.len());
                            let coeffs = EmpiricalCoefficients::compute(
                                WaveletBasis::shared(WaveletFamily::Symmlet(8))
                                    .expect("sym8 is supported"),
                                &data,
                                (0.0, 1.0),
                                j0,
                                j_star,
                            )
                            .expect("coefficients");
                            let cv = cross_validate_with(&coeffs, rule, criterion);
                            WaveletDensityEstimator::new(
                                rule,
                                ThresholdSelection::Fixed(cv.thresholds().levels),
                            )
                            .with_levels(Some(j0), Some(j_star))
                            .fit(&data)
                            .expect("fit")
                        }
                        Variant::Theoretical(kappa) => WaveletDensityEstimator::new(
                            ThresholdRule::Hard,
                            ThresholdSelection::Theoretical { kappa },
                        )
                        .with_levels(None, Some(wavedens_core::cv_max_level(data.len())))
                        .fit(&data)
                        .expect("fit"),
                        Variant::Linear(level) => WaveletDensityEstimator::linear_projection(level)
                            .fit(&data)
                            .expect("fit"),
                    };
                    let curve = estimate.evaluate_on(&grid);
                    (
                        grid.integrate_abs_power(&curve, &truth, 2.0),
                        estimate.sparsity(),
                    )
                },
            );
            ThresholdAblationRow {
                label,
                mise: mean(&results.iter().map(|r| r.0).collect::<Vec<_>>()),
                mean_sparsity: mean(&results.iter().map(|r| r.1).collect::<Vec<_>>()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig::default()
            .with_replications(3)
            .with_sample_size(256)
    }

    #[test]
    fn case_mise_produces_consistent_summary() {
        let summary = case_mise(&tiny_config(), DependenceCase::Iid, ThresholdRule::Soft);
        assert_eq!(summary.replications, 3);
        assert!(summary.mise > 0.0 && summary.mise < 2.0);
        assert!(summary.mean_j1 >= 1.0);
        assert_eq!(summary.levels.len(), summary.mean_thresholds.len());
        assert_eq!(summary.levels.len(), summary.mean_killed_fraction.len());
        assert_eq!(summary.grid_points.len(), summary.mean_estimate.len());
        assert!(summary
            .mean_killed_fraction
            .iter()
            .all(|f| (0.0..=1.0).contains(f)));
    }

    #[test]
    fn kernel_comparison_reports_three_mises() {
        let cmp = kernel_comparison_curves(&tiny_config(), DependenceCase::ExpandingMap);
        assert_eq!(cmp.replications, 3);
        assert!(cmp.mise.iter().all(|m| m.is_finite() && *m > 0.0));
        assert_eq!(cmp.mean_wavelet.len(), cmp.grid_points.len());
    }

    #[test]
    fn lp_risk_profile_is_monotone_in_shape() {
        let profile = lp_risk_profile(&tiny_config(), DependenceCase::Iid, &[1.0, 2.0, 4.0]);
        assert_eq!(profile.wavelet.len(), 3);
        assert!(profile.wavelet.iter().all(|v| v.is_finite()));
        assert!(profile.kernel_rot.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn lsv_study_produces_moments() {
        let summary = lsv_study(&tiny_config(), 0.5, 4);
        assert_eq!(summary.wavelet_moments.len(), 4);
        assert!(summary.wavelet_moments.iter().all(|m| m.is_finite()));
        // Moments are nondecreasing in k (power-mean inequality).
        for w in summary.kernel_moments.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
    }

    #[test]
    fn rate_study_and_ablation_run() {
        let rows = rate_study(&tiny_config(), DependenceCase::Iid, &[128, 512]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.mise_wavelet.is_finite()));
        let ablation = threshold_ablation(
            &tiny_config().with_replications(2).with_sample_size(128),
            DependenceCase::Iid,
        );
        assert_eq!(ablation.len(), 8);
        assert!(ablation.iter().all(|r| r.mise.is_finite()));
    }
}
