//! Backend equivalence suite for the `wavedens_wavelets::kernels`
//! vector kernels.
//!
//! Every kernel ships two implementations — [`Backend::Scalar`] (the
//! reference loop) and [`Backend::Intrinsics`] (AVX2, compiled into every
//! x86-64 build and selected when the CPU reports it). They are written to
//! perform the identical per-slot sequence of f64 multiplies and adds (no
//! FMA contraction), so the raw kernels must agree **bitwise**; the
//! end-to-end ingest contract pinned here is the weaker ≤ 1e-12 relative
//! error the rest of the pyramid relies on, which the bitwise design
//! satisfies with margin.
//!
//! The backend override is process-global, so every test that pins one
//! serialises through [`backend_guard`] — without it, parallel test
//! threads would race each other's overrides.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};
use wavedens::estimation::CoefficientSketch;
use wavedens::prelude::*;
use wavedens::processes::seeded_rng;
use wavedens::wavelets::kernels::{
    self, accumulate_lerp, intrinsics_available, lerp_runs, lerp_scaled_accumulate,
    scaled_accumulate, Backend, FusedKernel,
};

use rand::Rng;

/// Serialises tests that pin the process-global backend override.
fn backend_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// The backends the CPU can actually run (the override clamps an
/// unavailable `Intrinsics` request, so testing it would silently re-test
/// `Scalar`).
fn runnable_backends() -> Vec<Backend> {
    let mut backends = vec![Backend::Scalar];
    if intrinsics_available() {
        backends.push(Backend::Intrinsics);
    }
    backends
}

fn family(index: usize) -> WaveletFamily {
    match index % 4 {
        0 => WaveletFamily::Haar,
        1 => WaveletFamily::Daubechies(2),
        2 => WaveletFamily::Daubechies(4),
        _ => WaveletFamily::Symmlet(8),
    }
}

fn random_vec(rng: &mut impl Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect()
}

proptest! {
    // Pinned case count and generator seed, like the other root suites:
    // tier-1 must be reproducible run-to-run.
    #![proptest_config(ProptestConfig::with_cases(32).with_rng_seed(0x5EED_BA5E_2026_0008))]

    /// The gather kernel (`lerp_runs`) is bitwise identical across every
    /// runnable backend, for all window lengths — including the 1..8 and
    /// off-lane remainders the vector paths handle specially.
    #[test]
    fn lerp_runs_is_bitwise_identical_across_backends(
        window in 1_usize..70,
        pad in 0_usize..4,
        seed in 0_u64..1_000,
    ) {
        let _guard = backend_guard();
        let mut rng = seeded_rng(seed);
        let lo = random_vec(&mut rng, window + pad);
        let hi = random_vec(&mut rng, window + pad);
        let frac = rng.gen::<f64>();
        let (w0, w1) = (1.0 - frac, frac);
        let mut reference = None;
        for backend in runnable_backends() {
            kernels::set_backend_override(Some(backend));
            let mut out = vec![0.0; window];
            lerp_runs(&lo, &hi, w0, w1, &mut out);
            let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(expected) => prop_assert!(
                    *expected == bits,
                    "{} diverges from scalar on window {window}",
                    backend.name()
                ),
            }
        }
        kernels::set_backend_override(None);
    }

    /// The accumulate kernel (`scaled_accumulate`) and the fused
    /// gather-accumulate kernel (`lerp_scaled_accumulate`, plus its
    /// pre-resolved `FusedKernel` form) are bitwise identical across
    /// backends on the running sums *and* the sums of squares.
    #[test]
    fn fused_kernels_are_bitwise_identical_across_backends(
        window in 1_usize..70,
        seed in 0_u64..1_000,
    ) {
        let _guard = backend_guard();
        let mut rng = seeded_rng(seed);
        let lo = random_vec(&mut rng, window);
        let hi = random_vec(&mut rng, window);
        let raw = random_vec(&mut rng, window);
        let base_sums = random_vec(&mut rng, window);
        let base_squares: Vec<f64> = random_vec(&mut rng, window)
            .iter()
            .map(|v| v.abs())
            .collect();
        let frac = rng.gen::<f64>();
        let (w0, w1) = (1.0 - frac, frac);
        let scale = rng.gen::<f64>() * 4.0 + 0.25;
        let mut reference: Option<Vec<u64>> = None;
        for backend in runnable_backends() {
            kernels::set_backend_override(Some(backend));
            let mut sums = base_sums.clone();
            let mut squares = base_squares.clone();
            scaled_accumulate(scale, &raw, &mut sums, &mut squares);
            lerp_scaled_accumulate(&lo, &hi, w0, w1, scale, &mut sums, &mut squares);
            FusedKernel::resolve()
                .lerp_scaled_accumulate(&lo, &hi, w1, w0, scale, &mut sums, &mut squares);
            let bits: Vec<u64> = sums
                .iter()
                .chain(&squares)
                .map(|v| v.to_bits())
                .collect();
            match &reference {
                None => reference = Some(bits),
                Some(expected) => prop_assert!(
                    *expected == bits,
                    "{} diverges from scalar on window {window}",
                    backend.name()
                ),
            }
        }
        kernels::set_backend_override(None);
    }

    /// The dense-evaluation kernel (`accumulate_lerp`) is bitwise
    /// identical across backends, including grids whose position range
    /// crosses the table boundary (where the vector paths must fall back
    /// to the per-slot walk).
    #[test]
    fn accumulate_lerp_is_bitwise_identical_across_backends(
        table_len in 8_usize..200,
        grid in 1_usize..90,
        seed in 0_u64..1_000,
    ) {
        let _guard = backend_guard();
        let mut rng = seeded_rng(seed);
        let table = random_vec(&mut rng, table_len);
        // Start below zero and step far enough to run past the table end,
        // so interior blocks, both boundary regimes and the exact last
        // node are all exercised.
        let pos0 = rng.gen::<f64>() * 6.0 - 3.0;
        let dpos = rng.gen::<f64>() * (table_len as f64 + 4.0) / grid as f64;
        let coeff = rng.gen::<f64>() * 2.0 - 1.0;
        let base = random_vec(&mut rng, grid);
        let mut reference: Option<Vec<u64>> = None;
        for backend in runnable_backends() {
            kernels::set_backend_override(Some(backend));
            let mut out = base.clone();
            accumulate_lerp(&table, pos0, dpos, coeff, &mut out);
            let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(expected) => prop_assert!(
                    *expected == bits,
                    "{} diverges from scalar on grid {grid}",
                    backend.name()
                ),
            }
        }
        kernels::set_backend_override(None);
    }

    /// End-to-end ingest contract: a full `push_batch` produces the same
    /// accumulation state (≤ 1e-12 relative error — in practice bitwise)
    /// whichever backend the kernels dispatch to, across wavelet
    /// families, level ranges and batch slicings.
    #[test]
    fn sketch_ingest_agrees_across_backends(
        family_idx in 0_usize..4,
        j0 in 0_i32..3,
        extra_levels in 0_i32..5,
        n in 16_usize..200,
        slice in 1_usize..97,
        seed in 0_u64..1_000,
    ) {
        let _guard = backend_guard();
        let fam = family(family_idx);
        let j_max = j0 + extra_levels;
        let mut rng = seeded_rng(seed);
        let data: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let mut snapshots = Vec::new();
        for backend in runnable_backends() {
            kernels::set_backend_override(Some(backend));
            let mut sketch = CoefficientSketch::new(fam, (0.0, 1.0), j0, j_max).unwrap();
            for chunk in data.chunks(slice) {
                sketch.push_batch(chunk);
            }
            snapshots.push((backend, sketch.snapshot().unwrap()));
        }
        kernels::set_backend_override(None);
        let (_, reference) = &snapshots[0];
        for (backend, snapshot) in &snapshots[1..] {
            prop_assert!(snapshot.sample_size() == reference.sample_size());
            let level_pairs = std::iter::once((snapshot.scaling(), reference.scaling()))
                .chain(snapshot.details().iter().zip(reference.details()));
            for (la, lb) in level_pairs {
                prop_assert!(la.level == lb.level && la.k_start == lb.k_start);
                for (va, vb) in la.values.iter().zip(&lb.values) {
                    prop_assert!(
                        (va - vb).abs() <= 1e-12 * (1.0 + vb.abs()),
                        "{}: level {} coefficient {va} vs {vb}",
                        backend.name(),
                        la.level
                    );
                }
                for (sa, sb) in la.sum_squares.iter().zip(lb.sum_squares.iter()) {
                    prop_assert!(
                        (sa - sb).abs() <= 1e-12 * (1.0 + sb.abs()),
                        "{}: level {} sum of squares {sa} vs {sb}",
                        backend.name(),
                        la.level
                    );
                }
            }
        }
    }
}

/// One pinned configuration asserted at full strength: backends agree
/// **bitwise** on every accumulator after a realistic ingest. If a future
/// kernel change breaks bit-identity without breaking the 1e-12 contract,
/// this is the test that says so explicitly.
#[test]
fn sketch_ingest_is_bitwise_identical_across_backends() {
    let _guard = backend_guard();
    let mut rng = seeded_rng(0xB17);
    let data: Vec<f64> = (0..2_000).map(|_| rng.gen::<f64>()).collect();
    let mut states: Vec<(Backend, Vec<u64>)> = Vec::new();
    for backend in runnable_backends() {
        kernels::set_backend_override(Some(backend));
        let mut sketch =
            CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 1.0), 2, 8).unwrap();
        sketch.push_batch(&data);
        let snapshot = sketch.snapshot().unwrap();
        let bits: Vec<u64> = std::iter::once(snapshot.scaling())
            .chain(snapshot.details().iter())
            .flat_map(|level| level.values.iter().chain(level.sum_squares.iter()))
            .map(|v| v.to_bits())
            .collect();
        states.push((backend, bits));
    }
    kernels::set_backend_override(None);
    let (_, reference) = &states[0];
    for (backend, bits) in &states[1..] {
        assert!(
            bits == reference,
            "{} ingest state is not bitwise identical to scalar",
            backend.name()
        );
    }
}

/// With no override, the kernels dispatch to AVX2 exactly when the target
/// is x86-64 and the CPU reports AVX2, and to the scalar reference
/// otherwise: a build that silently lost the intrinsics path would ingest
/// at about half speed.
#[test]
fn default_dispatch_is_avx2_exactly_when_the_cpu_has_it() {
    let _guard = backend_guard();
    kernels::set_backend_override(None);
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let expected = if avx2 {
        Backend::Intrinsics
    } else {
        Backend::Scalar
    };
    assert_eq!(kernels::active_backend(), expected);
}
