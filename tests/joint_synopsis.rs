//! The 2-D tensor-product joint synopsis: marginalization consistency,
//! inclusion–exclusion structure and the error advantage over the
//! independence assumption.
//!
//! The load-bearing properties of this PR:
//!
//! 1. **Marginalization is consistent.** Integrating the joint synopsis
//!    over the full range of one axis answers the same question as a 1-D
//!    synopsis built on the other axis alone — the two models differ
//!    (hyperbolic tensor truncation vs. the 1-D pipeline), but on the
//!    same rows their answers agree within a small tolerance.
//! 2. **Inclusion–exclusion is structurally sound.** Every rectangle's
//!    mass is nonnegative, and abutting rectangles add *exactly* — the
//!    four-corner CDF lookups share their faces, so the interior terms
//!    cancel bitwise.
//! 3. **Correlation is captured.** On a correlated workload
//!    (`y = x + noise mod 1`) the joint estimate's rectangle error is at
//!    least 3× lower than the product of the two marginal synopses.

use proptest::prelude::*;
use std::sync::OnceLock;
use wavedens::engine::{AttributeSynopsis, JointSynopsis, SynopsisConfig};
use wavedens::estimation::{TensorCumulative, TensorSketch, ThresholdRule};
use wavedens::prelude::seeded_rng;

use rand::Rng;

fn correlated(n: usize, seed: u64, noise: f64) -> Vec<(f64, f64)> {
    let mut rng = seeded_rng(seed);
    (0..n)
        .map(|_| {
            let x: f64 = rng.gen();
            let y = (x + noise * (2.0 * rng.gen::<f64>() - 1.0)).rem_euclid(1.0);
            (x, y)
        })
        .collect()
}

fn config(rows: usize) -> SynopsisConfig {
    SynopsisConfig::default()
        .with_expected_rows(rows)
        .with_shards(2)
        .with_rule(ThresholdRule::Hard)
}

/// A shared thresholded cumulative grid for the rectangle-structure
/// proptests: the sketch is built once, only the query rectangles vary.
fn shared_cumulative() -> &'static TensorCumulative {
    static CUMULATIVE: OnceLock<TensorCumulative> = OnceLock::new();
    CUMULATIVE.get_or_init(|| {
        let rows = correlated(2048, 33, 0.08);
        let mut sketch = TensorSketch::sized_for_pairs(rows.len()).expect("sized");
        sketch.push_pairs(&rows);
        sketch
            .thresholded(ThresholdRule::Hard)
            .expect("thresholded")
            .cumulative(129, 129)
    })
}

proptest! {
    // Pinned case count and generator seed: tier-1 must be reproducible
    // run-to-run (same policy as the other root suites).
    #![proptest_config(ProptestConfig::with_cases(8).with_rng_seed(0x5EED_BA5E_2026_0007))]

    /// Full-range marginalization of the joint synopsis agrees with a 1-D
    /// synopsis built on the same axis values.
    #[test]
    fn joint_marginalization_matches_the_1d_synopsis(
        seed in 0_u64..1_000,
        n in 512_usize..1024,
        window in 0_usize..5,
    ) {
        let rows = correlated(n, seed, 0.1);
        let joint = JointSynopsis::new(&config(n)).expect("joint");
        joint.ingest(&rows);
        let marginal_x = AttributeSynopsis::new(&config(n)).expect("marginal");
        marginal_x.ingest(&rows.iter().map(|&(x, _)| x).collect::<Vec<f64>>());
        let marginal_y = AttributeSynopsis::new(&config(n)).expect("marginal");
        marginal_y.ingest(&rows.iter().map(|&(_, y)| y).collect::<Vec<f64>>());

        let lo = 0.05 + 0.15 * window as f64;
        let hi = lo + 0.25;
        let joint_x = joint.joint_selectivity((lo, hi), (0.0, 1.0));
        let oned_x = marginal_x.selectivity(lo, hi);
        prop_assert!(
            (joint_x - oned_x).abs() < 0.1,
            "x marginalization: joint {joint_x} vs 1-D {oned_x}"
        );
        let joint_y = joint.joint_selectivity((0.0, 1.0), (lo, hi));
        let oned_y = marginal_y.selectivity(lo, hi);
        prop_assert!(
            (joint_y - oned_y).abs() < 0.1,
            "y marginalization: joint {joint_y} vs 1-D {oned_y}"
        );
    }

    /// Rectangle mass by four-corner inclusion–exclusion is nonnegative
    /// for arbitrary rectangles.
    #[test]
    fn rectangle_masses_are_nonnegative(
        x0 in 0.0_f64..1.0,
        dx in 0.0_f64..1.0,
        y0 in 0.0_f64..1.0,
        dy in 0.0_f64..1.0,
    ) {
        let cumulative = shared_cumulative();
        let mass = cumulative.range_mass((x0, (x0 + dx).min(1.0)), (y0, (y0 + dy).min(1.0)));
        prop_assert!(mass >= 0.0, "negative rectangle mass {mass}");
    }

    /// Abutting rectangles add exactly: the shared face's CDF lookups
    /// cancel in the inclusion–exclusion, on both axes.
    #[test]
    fn abutting_rectangles_add_exactly(
        x0 in 0.0_f64..0.3,
        split in 0.35_f64..0.6,
        x1 in 0.65_f64..1.0,
        y0 in 0.0_f64..0.3,
        y1 in 0.65_f64..1.0,
    ) {
        let cumulative = shared_cumulative();
        // Split along x (x0 < split < x1 by construction).
        let whole = cumulative.range_mass((x0, x1), (y0, y1));
        let left = cumulative.range_mass((x0, split), (y0, y1));
        let right = cumulative.range_mass((split, x1), (y0, y1));
        prop_assert!(
            (left + right - whole).abs() <= 1e-9,
            "x split: {left} + {right} != {whole}"
        );
        // Split along y (y0 < split < y1 by construction).
        let lower = cumulative.range_mass((x0, x1), (y0, split));
        let upper = cumulative.range_mass((x0, x1), (split, y1));
        prop_assert!(
            (lower + upper - whole).abs() <= 1e-9,
            "y split: {lower} + {upper} != {whole}"
        );
    }
}

/// Pinned acceptance check: on the correlated workload the joint
/// synopsis' rectangle error is at least 3× below the
/// independence-assumption product of the marginals.
#[test]
fn joint_beats_the_independence_assumption_by_3x() {
    let n = 8192;
    let rows = correlated(n, 11, 0.06);
    let joint = JointSynopsis::new(&config(n)).expect("joint");
    joint.ingest_parallel(&rows);
    let marginal_x = AttributeSynopsis::new(&config(n)).expect("marginal");
    marginal_x.ingest(&rows.iter().map(|&(x, _)| x).collect::<Vec<f64>>());
    let marginal_y = AttributeSynopsis::new(&config(n)).expect("marginal");
    marginal_y.ingest(&rows.iter().map(|&(_, y)| y).collect::<Vec<f64>>());

    let exact = |xr: (f64, f64), yr: (f64, f64)| {
        rows.iter()
            .filter(|(x, y)| xr.0 <= *x && *x < xr.1 && yr.0 <= *y && *y < yr.1)
            .count() as f64
            / n as f64
    };
    let queries = [
        ((0.20, 0.45), (0.20, 0.45)),
        ((0.55, 0.80), (0.55, 0.80)),
        ((0.10, 0.35), (0.60, 0.85)),
        ((0.60, 0.90), (0.10, 0.30)),
    ];
    let mut joint_error = 0.0;
    let mut product_error = 0.0;
    for (xr, yr) in queries {
        let truth = exact(xr, yr);
        joint_error += (joint.joint_selectivity(xr, yr) - truth).abs();
        product_error +=
            (marginal_x.selectivity(xr.0, xr.1) * marginal_y.selectivity(yr.0, yr.1) - truth).abs();
    }
    assert!(
        product_error >= 3.0 * joint_error,
        "joint error {joint_error:.4} should be at least 3x below the \
         independence product's {product_error:.4}"
    );
}

/// Mini-fuzz over the frame decoder on 2-D frames, mirroring the 1-D
/// `frame_decoder_survives_bit_flips_and_truncations`: every truncation
/// and every single-bit flip of valid sparse and dense tensor frames
/// must come back as `Ok`/`Err` from both faces — never a panic, and
/// never an absurd allocation (the decoder caps the slots the header
/// implies at the construction cap, `MAX_TENSOR_SLOTS` for 2-D, before
/// sizing any buffer).
#[test]
fn tensor_frame_decoder_survives_bit_flips_and_truncations() {
    // Small Haar geometry, mirroring the 1-D mini-fuzz in
    // `core::sketch`: the flip loop decodes the frame once per bit, so
    // the frames must stay in the kilobyte range. The compacted frame
    // exercises the coefficient-sparse payload, the dense one the
    // full-slot payload, the windowed slice frame the window block.
    let mut sketch = TensorSketch::new_2d(
        wavedens::wavelets::WaveletFamily::Haar,
        (0.0, 1.0),
        (0.0, 1.0),
        0,
        2,
        2,
    )
    .expect("tensor sketch geometry");
    sketch.push_pairs(&correlated(64, 77, 0.05));
    let compacted = sketch
        .compact(
            wavedens::estimation::CompactionPolicy::InactiveTail,
            ThresholdRule::Hard,
        )
        .expect("compaction");
    let meta = wavedens::estimation::WindowSliceMeta {
        slice_age: 1,
        ring_slices: 4,
        advances: 9,
        decay_lambda: 0.75,
    };
    let frames = [
        compacted.to_bytes(),
        sketch.to_bytes_dense(),
        sketch.to_bytes_with_window(&meta),
    ];
    for frame in &frames {
        for len in 0..frame.len() {
            assert!(TensorSketch::from_bytes(&frame[..len]).is_err());
        }
        for offset in 0..frame.len() {
            for bit in 0..8 {
                let mut mutated = frame.clone();
                mutated[offset] ^= 1 << bit;
                if let Ok(restored) = TensorSketch::from_bytes(&mutated) {
                    // A surviving mutation (e.g. a flipped coefficient
                    // bit) must still decode into a self-consistent
                    // sketch.
                    assert_eq!(restored.dims(), 2);
                    let _ = restored.total_slots();
                }
                let _ = wavedens::estimation::CoefficientSketch::from_bytes(&mutated);
                let _ = TensorSketch::from_bytes_with_window(&mutated);
            }
        }
    }
}
