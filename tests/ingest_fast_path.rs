//! Equivalence suite for the strided-gather ingest fast path.
//!
//! `CoefficientSketch::push_batch` evaluates each observation at all
//! active translations of a level with one strided table gather (shared
//! interpolation weight, hoisted `2^j`/`√(2^j)`), while
//! `push_batch_scalar` is the per-translation reference implementation.
//! The two round the table argument at different points, so they are not
//! bitwise equal — but they must agree to ≤ 1e-12 relative error on every
//! running sum and sum of squares, for every wavelet family, level range
//! and batch slicing, including observations that land exactly on dyadic
//! grid points or support boundaries. The fast path is additionally
//! spot-checked against the exact Daubechies–Lagarias evaluator
//! (`PointwiseEvaluator`), which bounds the *combined* table + gather
//! error, and the engine's sharded ingest, long and short batches
//! round-robin across shards, is pinned to the single-stream fit.

use proptest::prelude::*;
use wavedens::engine::ShardedIngest;
use wavedens::estimation::{CoefficientSketch, EmpiricalCoefficients, ThresholdRule};
use wavedens::prelude::*;
use wavedens::processes::seeded_rng;
use wavedens::wavelets::PointwiseEvaluator;

use rand::Rng;

fn family(index: usize) -> WaveletFamily {
    match index % 4 {
        0 => WaveletFamily::Haar,
        1 => WaveletFamily::Daubechies(2),
        2 => WaveletFamily::Daubechies(4),
        _ => WaveletFamily::Symmlet(8),
    }
}

fn uniform_sample(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    (0..n).map(|_| rng.gen::<f64>()).collect()
}

/// A sample salted with the adversarial inputs for table lookup: exact
/// dyadic grid points `m · 2^{-j}` (zero fractional interpolation weight),
/// the interval endpoints, points just outside the interval that still
/// touch boundary basis functions, and values at the edge of the support
/// window.
fn sample_with_dyadic_points(n: usize, j_max: i32, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    let mut data = Vec::with_capacity(n + 16);
    for _ in 0..n {
        data.push(rng.gen::<f64>());
    }
    let denom = (j_max as f64).exp2();
    for m in [0_i64, 1, 3, (denom as i64 - 1).max(0), denom as i64] {
        data.push(m as f64 / denom);
    }
    data.extend_from_slice(&[0.0, 1.0, 0.5, -0.25, 1.25]);
    data
}

/// Asserts two accumulation states agree to `tol` relative error on the
/// coefficient means and the per-coefficient sums of squares.
fn assert_snapshots_close(a: &EmpiricalCoefficients, b: &EmpiricalCoefficients, tol: f64) {
    assert_eq!(a.sample_size(), b.sample_size());
    let level_pairs =
        std::iter::once((a.scaling(), b.scaling())).chain(a.details().iter().zip(b.details()));
    for (la, lb) in level_pairs {
        assert_eq!(la.level, lb.level);
        assert_eq!(la.k_start, lb.k_start);
        for (va, vb) in la.values.iter().zip(&lb.values) {
            assert!(
                (va - vb).abs() <= tol * (1.0 + vb.abs()),
                "level {}: coefficient {va} vs {vb}",
                la.level
            );
        }
        for (sa, sb) in la.sum_squares.iter().zip(lb.sum_squares.iter()) {
            assert!(
                (sa - sb).abs() <= tol * (1.0 + sb.abs()),
                "level {}: sum of squares {sa} vs {sb}",
                la.level
            );
        }
    }
}

proptest! {
    // Pinned case count and generator seed, like the other root suites:
    // tier-1 must be reproducible run-to-run.
    #![proptest_config(ProptestConfig::with_cases(24).with_rng_seed(0x5EED_BA5E_2026_0005))]

    /// The gather fast path matches the scalar reference path within
    /// 1e-12 relative error across wavelet families, level ranges and
    /// batch slicings — on data salted with exact dyadic grid points and
    /// support/interval boundary observations.
    #[test]
    fn fast_path_matches_scalar_reference(
        family_idx in 0_usize..4,
        j0 in 0_i32..3,
        extra_levels in 0_i32..5,
        n in 16_usize..240,
        slice in 1_usize..97,
        seed in 0_u64..1_000,
    ) {
        let fam = family(family_idx);
        let j_max = j0 + extra_levels;
        let data = sample_with_dyadic_points(n, j_max, seed);
        let mut fast = CoefficientSketch::new(fam, (0.0, 1.0), j0, j_max).unwrap();
        for chunk in data.chunks(slice) {
            fast.push_batch(chunk);
        }
        let mut scalar = CoefficientSketch::new(fam, (0.0, 1.0), j0, j_max).unwrap();
        scalar.push_batch_scalar(&data);
        prop_assert!(fast.count() == scalar.count());
        assert_snapshots_close(
            &fast.snapshot().unwrap(),
            &scalar.snapshot().unwrap(),
            1e-12,
        );
    }

    /// Arbitrary batch slicings of the fast path are *bitwise* identical
    /// to one whole-batch push: slicing never changes the per-slot
    /// accumulation order.
    #[test]
    fn batch_slicing_is_bitwise_invariant(
        family_idx in 0_usize..4,
        slice in 1_usize..150,
        seed in 0_u64..1_000,
    ) {
        let fam = family(family_idx);
        let data = sample_with_dyadic_points(300, 6, seed);
        let mut whole = CoefficientSketch::new(fam, (0.0, 1.0), 1, 6).unwrap();
        whole.push_batch(&data);
        let mut sliced = CoefficientSketch::new(fam, (0.0, 1.0), 1, 6).unwrap();
        for chunk in data.chunks(slice) {
            sliced.push_batch(chunk);
        }
        let a = whole.snapshot().unwrap();
        let b = sliced.snapshot().unwrap();
        let level_pairs =
            std::iter::once((a.scaling(), b.scaling())).chain(a.details().iter().zip(b.details()));
        for (la, lb) in level_pairs {
            prop_assert!(la.values == lb.values, "level {} means differ", la.level);
            prop_assert!(
                *la.sum_squares == *lb.sum_squares,
                "level {} sums of squares differ",
                la.level
            );
        }
    }

    /// The engine's sharded ingest — one long batch, then short ones,
    /// spread round-robin across the shards — merges to the single-stream
    /// accumulation state within summation-order error.
    #[test]
    fn sharded_scratch_ingest_matches_single_stream(
        shards in 1_usize..5,
        n in 600_usize..1_400,
        seed in 0_u64..1_000,
    ) {
        let data = uniform_sample(n, seed);
        let template = CoefficientSketch::sized_for(n).unwrap();
        let sharded = ShardedIngest::new(&template, shards).unwrap();
        // One long batch, the rest in short batches.
        let (long, rest) = data.split_at(400);
        sharded.ingest(long);
        for chunk in rest.chunks(37) {
            sharded.ingest(chunk);
        }
        prop_assert!(sharded.total_count() == n);
        let mut single = template.clone();
        single.push_batch(&data);
        assert_snapshots_close(
            &sharded.merged().unwrap().snapshot().unwrap(),
            &single.snapshot().unwrap(),
            1e-12,
        );
    }
}

/// The fast path agrees with the exact Daubechies–Lagarias evaluation of
/// the empirical coefficients — the end-to-end error (table resolution +
/// shared interpolation weight) stays far below the statistical error of
/// any estimate built on top.
#[test]
fn fast_path_matches_exact_pointwise_evaluator() {
    for fam in [
        WaveletFamily::Daubechies(2),
        WaveletFamily::Daubechies(4),
        WaveletFamily::Symmlet(8),
    ] {
        let data = sample_with_dyadic_points(120, 4, 99);
        let n = data.len() as f64;
        let mut sketch = CoefficientSketch::new(fam, (0.0, 1.0), 2, 4).unwrap();
        sketch.push_batch(&data);
        let snapshot = sketch.snapshot().unwrap();
        let exact = PointwiseEvaluator::new(fam).unwrap();
        let level = snapshot.detail_level(3).unwrap();
        for (k, value) in level.iter().step_by(3) {
            let scale = 8.0_f64; // 2^3
            let direct: f64 = data
                .iter()
                .map(|&x| scale.sqrt() * exact.psi(scale * x - k as f64))
                .sum::<f64>()
                / n;
            // Tolerance is dominated by the default table resolution
            // (spacing 2^-12; rough families like Db2 interpolate to
            // ~5e-3 per point) — a wrong translation offset or a missing
            // 2^{j/2} would miss by orders of magnitude more.
            assert!(
                (value - direct).abs() < 5e-3 * (1.0 + direct.abs()),
                "{}: β̂(3,{k}) = {value} vs exact {direct}",
                fam.name()
            );
        }
        let scaling = snapshot.scaling();
        for (k, value) in scaling.iter().step_by(3) {
            let scale = 4.0_f64; // 2^2
            let direct: f64 = data
                .iter()
                .map(|&x| scale.sqrt() * exact.phi(scale * x - k as f64))
                .sum::<f64>()
                / n;
            assert!(
                (value - direct).abs() < 5e-3 * (1.0 + direct.abs()),
                "{}: α̂(2,{k}) = {value} vs exact {direct}",
                fam.name()
            );
        }
    }
}

/// Estimates built from the two ingest paths select identical thresholds
/// and evaluate within numerical noise of each other: the 1e-12-level sum
/// perturbations never flip a cross-validation decision on this workload.
#[test]
fn estimates_from_both_paths_agree() {
    let data = uniform_sample(900, 7);
    let mut fast = CoefficientSketch::sized_for(900).unwrap();
    fast.push_batch(&data);
    let mut scalar = CoefficientSketch::sized_for(900).unwrap();
    scalar.push_batch_scalar(&data);
    for rule in [ThresholdRule::Soft, ThresholdRule::Hard] {
        let a = fast.estimate(rule).unwrap();
        let b = scalar.estimate(rule).unwrap();
        assert_eq!(a.highest_level(), b.highest_level());
        for i in 0..=200 {
            let x = i as f64 / 200.0;
            assert!(
                (a.evaluate(x) - b.evaluate(x)).abs() < 1e-9,
                "{rule:?}: estimates disagree at {x}"
            );
        }
    }
}

/// `clear` resets a sketch to a reusable empty state without giving up
/// its allocations: re-pushing after a clear reproduces a fresh sketch
/// exactly, and cleared levels merge as no-ops.
#[test]
fn cleared_sketch_is_equivalent_to_a_fresh_one() {
    let data = uniform_sample(300, 11);
    let mut recycled = CoefficientSketch::sized_for(300).unwrap();
    recycled.push_batch(&data);
    recycled.clear();
    assert!(recycled.is_empty());
    assert!(recycled.snapshot().is_err());
    let fresh = CoefficientSketch::sized_for(300).unwrap();
    // Merging a cleared sketch is the identity, like merging a fresh one.
    let mut target = CoefficientSketch::sized_for(300).unwrap();
    target.push_batch(&data);
    let versions = target.detail_versions();
    target.merge(&recycled).unwrap();
    assert_eq!(target.detail_versions(), versions);
    assert_eq!(target.count(), 300);
    // Re-use after clear matches a fresh fit bit for bit.
    recycled.push_batch(&data);
    let mut from_fresh = fresh;
    from_fresh.push_batch(&data);
    let a = recycled.snapshot().unwrap();
    let b = from_fresh.snapshot().unwrap();
    assert_eq!(a.scaling().values, b.scaling().values);
    for (la, lb) in a.details().iter().zip(b.details()) {
        assert_eq!(la.values, lb.values);
        assert_eq!(*la.sum_squares, *lb.sum_squares);
    }
}
