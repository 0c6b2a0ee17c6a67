//! Windowed & decaying sketch rings: the streaming-workload semantics.
//!
//! The load-bearing properties of this PR:
//!
//! 1. **A sliding window is exactly the fit on the surviving rows.** After
//!    any sequence of batches and advances, the folded `SlidingSlices(k)`
//!    window is *bitwise* the state of a fresh ring fed only the batches
//!    still inside the window — retirement is perfect subtraction, not an
//!    approximation.
//! 2. **Decay at λ = 1 degenerates to the sliding window.** The
//!    exponential-decay fold is built from `merge_scaled`, whose weight-1
//!    path is bitwise the plain `merge`.
//! 3. **Window slices ship.** A windowed attribute's current slice
//!    serializes to a windowed frame that a window-aware receiver restores
//!    with its metadata — and a plain receiver reads as a plain sketch.
//! 4. **Windows track drift that a lifetime sketch averages away.** Under
//!    a regime change the windowed synopsis converges to the new
//!    distribution while the landmark synopsis stays blended.

use proptest::prelude::*;
use wavedens::engine::{AttributeSynopsis, SynopsisConfig};
use wavedens::estimation::{ThresholdRule, WindowSliceMeta, DEFAULT_DECAY_SLICES};
use wavedens::prelude::*;

fn dependent_sample(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    DependenceCase::ExpandingMap.simulate(&SineUniformMixture::paper(), n, &mut rng)
}

/// Drives a fresh ring through `batches` with an advance between
/// consecutive batches, returning the ring.
fn ring_fed_with(
    template: &CoefficientSketch,
    slices: usize,
    batches: &[Vec<f64>],
) -> WindowedSketch {
    let mut ring = WindowedSketch::new(template, slices).expect("ring");
    for (i, batch) in batches.iter().enumerate() {
        if i > 0 {
            ring.advance();
        }
        ring.push_batch(batch);
    }
    ring
}

proptest! {
    // Pinned case count and generator seed: tier-1 must be reproducible
    // run-to-run (same policy as the other root suites).
    #![proptest_config(ProptestConfig::with_cases(16).with_rng_seed(0x5EED_BA5E_2026_0006))]

    /// Any batch/advance history folded through `SlidingSlices(k)` is
    /// bitwise the fresh windowed fit on the batches that survived.
    #[test]
    fn sliding_window_is_bitwise_the_fresh_fit_on_survivors(
        seed in 0_u64..1_000,
        k in 1_usize..5,
        batch_count in 1_usize..7,
    ) {
        let batches: Vec<Vec<f64>> = (0..batch_count)
            .map(|i| dependent_sample(64 + 32 * i, seed * 31 + i as u64))
            .collect();
        let template = CoefficientSketch::sized_for(1024).expect("template");
        let ring = ring_fed_with(&template, k, &batches);

        let surviving = &batches[batch_count.saturating_sub(k)..];
        let fresh = ring_fed_with(&template, k, surviving);

        let policy = WindowPolicy::SlidingSlices(k);
        let window = ring.merged_window(policy).expect("fold");
        let expected = fresh.merged_window(policy).expect("fold");
        prop_assert_eq!(window.count(), expected.count());
        prop_assert_eq!(
            window.to_bytes(), expected.to_bytes(),
            "sliding fold must be bitwise the fit on the surviving rows"
        );

        // And within FP tolerance of the plain single-stream sketch on the
        // concatenated surviving rows (different accumulation order).
        let mut plain = template.clone();
        for batch in surviving {
            plain.push_batch(batch);
        }
        prop_assert_eq!(plain.count(), window.count());
        let a = window.estimate(ThresholdRule::Soft).expect("estimate");
        let b = plain.estimate(ThresholdRule::Soft).expect("estimate");
        for i in 0..=64 {
            let x = i as f64 / 64.0;
            let (ya, yb) = (a.evaluate(x), b.evaluate(x));
            prop_assert!(
                (ya - yb).abs() < 1e-9 * (1.0 + yb.abs()),
                "windowed vs single-stream estimate at {}: {} vs {}", x, ya, yb
            );
        }
    }

    /// Exponential decay at λ = 1 weights nothing down, so its fold is
    /// bitwise the equally-weighted sliding fold over the same ring.
    #[test]
    fn decay_at_lambda_one_is_the_sliding_window(
        seed in 0_u64..1_000,
        batch_count in 1_usize..6,
    ) {
        let batches: Vec<Vec<f64>> = (0..batch_count)
            .map(|i| dependent_sample(96, seed * 17 + i as u64))
            .collect();
        let template = CoefficientSketch::sized_for(1024).expect("template");
        let ring = ring_fed_with(&template, DEFAULT_DECAY_SLICES, &batches);
        let decayed = ring.merged_window(WindowPolicy::ExponentialDecay(1.0)).expect("fold");
        let sliding = ring
            .merged_window(WindowPolicy::SlidingSlices(DEFAULT_DECAY_SLICES))
            .expect("fold");
        prop_assert_eq!(decayed.to_bytes(), sliding.to_bytes());
    }
}

/// λ < 1 down-weights each retired slice geometrically: the merged mass
/// follows `Σ nᵃ·λᵃ` exactly (counts round per slice), so the window
/// leans toward the newest slice without ever subtracting coefficients.
#[test]
fn decay_mass_follows_the_geometric_weights() {
    let template = CoefficientSketch::sized_for(1024).expect("template");
    let batches: Vec<Vec<f64>> = (0..3).map(|i| dependent_sample(400, 70 + i)).collect();
    let ring = ring_fed_with(&template, DEFAULT_DECAY_SLICES, &batches);
    let merged = ring
        .merged_window(WindowPolicy::ExponentialDecay(0.5))
        .expect("fold");
    // Ages 0, 1, 2 hold 400 rows each: 400·1 + 400·½ + 400·¼.
    assert_eq!(merged.count(), 400 + 200 + 100);
}

/// A windowed attribute ships its current slice as a windowed frame: a
/// window-aware receiver restores sketch + metadata, a receiver without a
/// ring reads the same bytes as a plain sketch.
#[test]
fn current_slice_ships_and_restores_with_metadata() {
    let config = SynopsisConfig::default()
        .with_expected_rows(1024)
        .with_shards(2)
        .with_window(WindowPolicy::SlidingSlices(3));
    let synopsis = AttributeSynopsis::new(&config).expect("synopsis");
    synopsis.ingest(&dependent_sample(500, 80));
    assert!(synopsis.advance());
    synopsis.ingest(&dependent_sample(300, 81));

    let frame = synopsis.ship_window_slice().expect("ship");
    // Plain path: the frame is a readable sketch of the current slice.
    let plain = CoefficientSketch::from_bytes(&frame).expect("plain decode");
    assert_eq!(plain.count(), 300);
    // Window-aware path: the metadata places the slice in the sender's ring.
    let (slice, meta) = CoefficientSketch::from_bytes_with_window(&frame).expect("windowed decode");
    assert_eq!(slice.to_bytes(), plain.to_bytes());
    let meta: WindowSliceMeta = meta.expect("windowed frames carry metadata");
    assert_eq!(meta.slice_age, 0);
    assert_eq!(meta.ring_slices, 3);
    assert_eq!(meta.advances, 1);
    assert_eq!(meta.decay_lambda, 1.0);
    // The restored slice stays a live mergeable sketch.
    let mut acc = slice;
    acc.merge(&plain).expect("merge");
    assert_eq!(acc.count(), 600);
}

/// Under a regime change the windowed synopsis tracks the *current*
/// distribution while the lifetime (landmark) synopsis keeps averaging
/// over retired history.
#[test]
fn windows_track_drift_that_lifetime_synopses_average_away() {
    let base = SynopsisConfig::default()
        .with_expected_rows(2048)
        .with_shards(2);
    let windowed =
        AttributeSynopsis::new(&base.clone().with_window(WindowPolicy::SlidingSlices(2)))
            .expect("windowed");
    let lifetime = AttributeSynopsis::new(&base).expect("lifetime");

    // Old regime: mass concentrated low; new regime: concentrated high.
    let old_regime: Vec<f64> = dependent_sample(2048, 90)
        .iter()
        .map(|u| 0.25 * u)
        .collect();
    let new_regime: Vec<f64> = dependent_sample(2048, 91)
        .iter()
        .map(|u| 0.75 + 0.25 * u)
        .collect();
    for synopsis in [&windowed, &lifetime] {
        synopsis.ingest_parallel(&old_regime);
    }
    windowed.advance();
    for synopsis in [&windowed, &lifetime] {
        synopsis.ingest_parallel(&new_regime);
    }
    windowed.advance(); // retires the old-regime slice

    let windowed = windowed.refresh().expect("refresh").expect("nonempty");
    let lifetime = lifetime.refresh().expect("refresh").expect("nonempty");
    let windowed_high = windowed.selectivity(0.75, 1.0);
    let lifetime_high = lifetime.selectivity(0.75, 1.0);
    assert!(
        windowed_high > 0.9,
        "windowed synopsis must track the new regime, got {windowed_high}"
    );
    assert!(
        (lifetime_high - 0.5).abs() < 0.1,
        "lifetime synopsis still averages both regimes, got {lifetime_high}"
    );
    assert!(
        windowed.selectivity(0.0, 0.25) < 0.05,
        "retired regime must leave the window"
    );
}
