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
use wavedens::estimation::{CoefficientSketch, TensorSketch};
use wavedens::prelude::*;
use wavedens::processes::seeded_rng;
use wavedens::wavelets::cascade::OuterRows;
use wavedens::wavelets::kernels::{
    self, accumulate_lerp, intrinsics_available, lerp_runs, scaled_accumulate, Backend,
};
use wavedens::wavelets::WaveletTable;

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

    /// The accumulate kernel (`scaled_accumulate`) and the whole-chunk
    /// scatter driver (`WaveletTable::scatter_rows_phi`/`_psi`, whose
    /// interior windows run the fused gather-accumulate kernel) are
    /// bitwise identical across backends on the running sums *and* the
    /// sums of squares — with the unit outer row and with random outer
    /// rows whose weights are mostly not 1, over rows inside, on the
    /// edge of and outside the interval.
    #[test]
    fn fused_kernels_are_bitwise_identical_across_backends(
        family_idx in 0_usize..4,
        level in 0_i32..5,
        n in 1_usize..40,
        seed in 0_u64..1_000,
    ) {
        let _guard = backend_guard();
        let mut rng = seeded_rng(seed);
        let basis = WaveletBasis::shared(family(family_idx)).unwrap();
        let table = basis.table();
        let support = table.support_end() as usize;
        let (level_scale, k_start) = (f64::from(level).exp2(), -(support as i64));
        let (extent, rows, width) = ((1 << level) + 2 * support, 5_usize, support + 1);
        let xs: Vec<f64> = (0..n)
            .map(|i| match i % 4 {
                0 => f64::from(rng.gen_range(0..64_u32)) / 64.0,
                _ => rng.gen::<f64>() * 1.4 - 0.2,
            })
            .collect();
        let spans: Vec<(u32, u32)> = (0..n)
            .map(|_| {
                let first = rng.gen_range(0..rows);
                (first as u32, rng.gen_range(0..=(rows - first).min(width)) as u32)
            })
            .collect();
        let weights: Vec<f64> = (0..n * width)
            .map(|slot| if slot % 7 == 0 { 1.0 } else { rng.gen::<f64>() * 4.0 - 2.0 })
            .collect();
        let raw = random_vec(&mut rng, extent);
        let base_sums = random_vec(&mut rng, rows * extent);
        let base_squares: Vec<f64> = random_vec(&mut rng, rows * extent)
            .iter()
            .map(|v| v.abs())
            .collect();
        let norm_scale = level_scale.sqrt();
        let outer = OuterRows::Rows { spans: &spans, weights: &weights, width, extent };
        let mut reference: Option<Vec<u64>> = None;
        for backend in runnable_backends() {
            kernels::set_backend_override(Some(backend));
            let mut sums = base_sums.clone();
            let mut squares = base_squares.clone();
            let mut fallback = vec![0.0; width];
            scaled_accumulate(norm_scale, &raw, &mut sums, &mut squares);
            for scatter in [WaveletTable::scatter_rows_phi, WaveletTable::scatter_rows_psi] {
                for outer in [OuterRows::Unit, outer] {
                    let slots = match outer {
                        OuterRows::Unit => extent,
                        OuterRows::Rows { .. } => rows * extent,
                    };
                    scatter(
                        table,
                        &xs,
                        outer,
                        level_scale,
                        norm_scale,
                        k_start,
                        &mut fallback,
                        &mut sums[..slots],
                        &mut squares[..slots],
                    );
                }
            }
            let bits: Vec<u64> = sums
                .iter()
                .chain(&squares)
                .map(|v| v.to_bits())
                .collect();
            match &reference {
                None => reference = Some(bits),
                Some(expected) => prop_assert!(
                    *expected == bits,
                    "{} diverges from scalar on {n} rows at level {level}",
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

/// One pinned configuration per dims asserted at full strength: backends
/// agree **bitwise** on every accumulator after a realistic ingest, of a
/// 1-D sketch and (through its dense frame, which carries every sum) of a
/// 2-D one. If a future kernel change breaks bit-identity without
/// breaking the 1e-12 contract, this is the test that says so explicitly.
#[test]
fn sketch_ingest_is_bitwise_identical_across_backends() {
    let _guard = backend_guard();
    let mut rng = seeded_rng(0xB17);
    let data: Vec<f64> = (0..2_000).map(|_| rng.gen::<f64>()).collect();
    let pairs: Vec<(f64, f64)> = data
        .iter()
        .map(|&x| (x, (x + 0.1 * rng.gen::<f64>()).rem_euclid(1.0)))
        .collect();
    let mut states: Vec<(Backend, Vec<u64>, Vec<u8>)> = Vec::new();
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
        let mut joint = TensorSketch::sized_for_pairs(pairs.len()).unwrap();
        joint.push_pairs(&pairs);
        states.push((backend, bits, joint.to_bytes_dense()));
    }
    kernels::set_backend_override(None);
    let (_, reference, joint_reference) = &states[0];
    for (backend, bits, joint) in &states[1..] {
        assert!(
            bits == reference,
            "{} ingest state is not bitwise identical to scalar",
            backend.name()
        );
        assert!(
            joint == joint_reference,
            "{} 2-D ingest state is not bitwise identical to scalar",
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
