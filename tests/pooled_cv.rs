//! Cross-validation on the work pool is bitwise the serial sweep.
//!
//! Level sets holding at least 2^14 coefficient slots cross-validate
//! their levels as tasks on `WorkPool::global()`; smaller ones run on the
//! calling thread. Either way every result here must equal, bit for bit,
//! a serial reference: a plain `cross_validate_level` loop over the
//! levels, with `ĵ1` located the way the paper defines it. Covered:
//! `cross_validate` under both rules, `cross_validate_cached` (cold, warm
//! after a small batch, unchanged, after a lineage change),
//! `TensorSketch::thresholded`, level sets just below and just above the
//! pool gate, and Case 2 / Case 3 streams. CI also runs the suite pinned
//! to one core, where the global pool has a single worker.

use wavedens::estimation::cv::cross_validate_level;
use wavedens::estimation::{
    cross_validate, cross_validate_cached, CrossValidationResult, CvCache, CvCriterion,
    EmpiricalCoefficients, LevelCrossValidation,
};
use wavedens::prelude::*;

/// The level-set size from which the levels run on the pool.
const POOL_GATE: usize = 1 << 14;

const RULES: [ThresholdRule; 2] = [ThresholdRule::Hard, ThresholdRule::Soft];

fn stream(case: DependenceCase, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    case.simulate(&SineUniformMixture::paper(), n, &mut rng)
}

fn detail_slots(coefficients: &EmpiricalCoefficients) -> usize {
    coefficients.details().iter().map(|l| l.len()).sum()
}

/// The serial reference: one `cross_validate_level` per detail level, in
/// level order; `ĵ1` is one above the last level whose criterion is
/// negative (beyond the 1e-12 zero tolerance), or `j0`.
fn serial_reference(
    coefficients: &EmpiricalCoefficients,
    rule: ThresholdRule,
) -> CrossValidationResult {
    let criterion = CvCriterion::recommended_for(rule);
    let n = coefficients.sample_size();
    let levels: Vec<LevelCrossValidation> = coefficients
        .details()
        .iter()
        .map(|level| cross_validate_level(level, n, criterion))
        .collect();
    let j1 = levels
        .iter()
        .rev()
        .find(|l| l.criterion < -1e-12)
        .map_or(coefficients.coarse_level(), |l| l.level + 1);
    CrossValidationResult { rule, levels, j1 }
}

/// A level's `(level, λ, criterion, kept, total)`, floats as bits.
type LevelBits = (i32, u64, u64, usize, usize);

/// Every field of a result, floats as their bit patterns.
fn bits(result: &CrossValidationResult) -> (String, i32, Vec<LevelBits>) {
    let levels = result
        .levels
        .iter()
        .map(|l| {
            (
                l.level,
                l.lambda.to_bits(),
                l.criterion.to_bits(),
                l.kept,
                l.total,
            )
        })
        .collect();
    (format!("{:?}", result.rule), result.j1, levels)
}

fn assert_bitwise(actual: &CrossValidationResult, expected: &CrossValidationResult, what: &str) {
    assert_eq!(bits(actual), bits(expected), "{what}");
}

fn sketch_of(data: &[f64], expected_rows: usize) -> CoefficientSketch {
    let mut sketch = CoefficientSketch::sized_for(expected_rows).unwrap();
    sketch.push_batch(data);
    sketch
}

#[test]
fn cross_validate_is_bitwise_the_serial_loop_under_both_rules() {
    let sketch = sketch_of(&stream(DependenceCase::ExpandingMap, 1 << 13, 5), 1 << 15);
    let coefficients = sketch.snapshot().unwrap();
    assert!(detail_slots(&coefficients) >= POOL_GATE);
    for rule in RULES {
        let expected = serial_reference(&coefficients, rule);
        assert_bitwise(&cross_validate(&coefficients, rule), &expected, "cold");
        // A second sweep over the same coefficients lands on the same
        // bits whatever the schedule did the first time.
        assert_bitwise(&cross_validate(&coefficients, rule), &expected, "repeat");
    }
}

#[test]
fn cached_cross_validation_is_bitwise_the_serial_loop_cold_warm_and_across_lineages() {
    let data = stream(DependenceCase::ExpandingMap, 1 << 13, 7);
    let extra = stream(DependenceCase::ExpandingMap, 64, 8);
    for rule in RULES {
        let mut sketch = sketch_of(&data, 1 << 15);
        let mut cache = CvCache::new();

        // Cold: every level is dirty and the set is above the gate.
        let coefficients = sketch.snapshot().unwrap();
        assert!(detail_slots(&coefficients) >= POOL_GATE);
        let versions = sketch.detail_versions();
        let cold = cross_validate_cached(&coefficients, rule, 1, &versions, &mut cache);
        assert_bitwise(&cold, &serial_reference(&coefficients, rule), "cold");

        // Unchanged: every level answers from the cache.
        let hit = cross_validate_cached(&coefficients, rule, 1, &versions, &mut cache);
        assert_bitwise(&hit, &cold, "cache hit");

        // Warm after a small batch: the sample size moved, so every
        // level re-sorts from its previous order.
        sketch.push_batch(&extra);
        let coefficients = sketch.snapshot().unwrap();
        let versions = sketch.detail_versions();
        let warm = cross_validate_cached(&coefficients, rule, 1, &versions, &mut cache);
        assert_bitwise(&warm, &serial_reference(&coefficients, rule), "warm");

        // A new lineage drops every cached level.
        let lineage = cross_validate_cached(&coefficients, rule, 2, &versions, &mut cache);
        assert_bitwise(&lineage, &serial_reference(&coefficients, rule), "lineage");
        assert_eq!(cache.cached_levels(), coefficients.details().len());
    }
}

/// Haar levels `0..=13` hold `2^14 − 1` slots, one below the gate;
/// Daubechies-2 levels hold two more translations each, which lifts the
/// same level range 27 slots above it. Both sides match the reference,
/// full and cached.
#[test]
fn level_sets_just_below_and_just_above_the_gate() {
    let data = stream(DependenceCase::NonCausalMa, 1 << 12, 11);
    let cases = [
        (WaveletFamily::Haar, POOL_GATE - 1),
        (WaveletFamily::Daubechies(2), POOL_GATE + 27),
    ];
    for (family, slots) in cases {
        let mut sketch = CoefficientSketch::new(family, (0.0, 1.0), 0, 13).unwrap();
        sketch.push_batch(&data);
        let coefficients = sketch.snapshot().unwrap();
        assert_eq!(detail_slots(&coefficients), slots, "{family:?}");
        let versions = sketch.detail_versions();
        for rule in RULES {
            let expected = serial_reference(&coefficients, rule);
            assert_bitwise(&cross_validate(&coefficients, rule), &expected, "full");
            let mut cache = CvCache::new();
            let cached = cross_validate_cached(&coefficients, rule, 1, &versions, &mut cache);
            assert_bitwise(&cached, &expected, "cached");
        }
    }
}

#[test]
fn case_2_and_case_3_streams_refresh_bitwise_through_the_cache() {
    for (case, seed) in [
        (DependenceCase::ExpandingMap, 21),
        (DependenceCase::NonCausalMa, 22),
    ] {
        let rows = stream(case, 1 << 13, seed);
        let mut sketch = CoefficientSketch::sized_for(1 << 15).unwrap();
        let mut cache = CvCache::new();
        // A large first load (pooled), then small batches (each dirties
        // every level), refreshed after each.
        for batch in std::iter::once(&rows[..1 << 12]).chain(rows[1 << 12..].chunks(1000)) {
            sketch.push_batch(batch);
            let coefficients = sketch.snapshot().unwrap();
            let versions = sketch.detail_versions();
            let rule = ThresholdRule::Soft;
            let cached = cross_validate_cached(&coefficients, rule, 3, &versions, &mut cache);
            let expected = serial_reference(&coefficients, rule);
            assert_bitwise(&cached, &expected, case.label());
            assert_bitwise(
                &cross_validate(&coefficients, rule),
                &expected,
                case.label(),
            );
        }
    }
}

/// `thresholded`'s coefficients equal the serial per-level pipeline over
/// `snapshot_levels`: the scaling layer as is, every other level
/// thresholded at its `cross_validate_level` λ.
#[test]
fn tensor_thresholding_is_bitwise_the_serial_loop() {
    let x = stream(DependenceCase::ExpandingMap, 3000, 31);
    let y = stream(DependenceCase::NonCausalMa, 3000, 32);
    let pairs: Vec<(f64, f64)> = x.into_iter().zip(y).collect();
    // Small enough to stay on the calling thread, and large enough for
    // the pool.
    for (max_level, budget, pooled) in [(3, 4, false), (7, 10, true)] {
        let family = WaveletFamily::Daubechies(2);
        let mut sketch =
            TensorSketch::new_2d(family, (0.0, 1.0), (0.0, 1.0), 1, max_level, budget).unwrap();
        sketch.push_pairs(&pairs);
        let levels = sketch.snapshot_levels().unwrap();
        let slots: usize = levels[1..].iter().map(|l| l.len()).sum();
        assert_eq!(slots >= POOL_GATE, pooled, "{slots} detail slots");
        for rule in RULES {
            let criterion = CvCriterion::recommended_for(rule);
            let expected: Vec<Vec<u64>> = levels
                .iter()
                .enumerate()
                .map(|(index, level)| {
                    let lambda = (index > 0)
                        .then(|| cross_validate_level(level, sketch.count(), criterion).lambda);
                    level
                        .values
                        .iter()
                        .map(|&beta| lambda.map_or(beta, |l| rule.apply(beta, l)).to_bits())
                        .collect()
                })
                .collect();
            let estimate = sketch.thresholded(rule).unwrap();
            let actual: Vec<Vec<u64>> = estimate
                .level_coefficients()
                .map(|c| c.iter().map(|v| v.to_bits()).collect())
                .collect();
            assert_eq!(actual, expected, "{rule:?}, max level {max_level}");
        }
    }
}
