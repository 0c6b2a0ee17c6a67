//! Level-truncating sketch compaction and the incremental refresh path.
//!
//! The load-bearing properties of this PR:
//!
//! 1. **Compaction is lossless.** Truncating the detail levels whose
//!    cross-validated active set is empty, shipping the compact frame and
//!    restoring it produces an estimate that is *pointwise identical*
//!    (bitwise) to the uncompacted pipeline, with identical thresholds on
//!    every retained level and the same data-driven `ĵ1` — across data,
//!    split points and both thresholding rules.
//! 2. **There is one wire format; any other version is rejected.** The
//!    dense and compact frames of the same sketch restore identically, a
//!    hand-assembled byte fixture deserializes independent of the writer,
//!    golden frames pin the bytes every writer emits and the state they
//!    decode to, and frames of the earlier versions 1–4 are refused.
//! 3. **Incremental cross-validation is exact.** Refreshing through the
//!    [`CvCache`] after every small batch is bitwise identical to
//!    re-running the full CV pipeline from scratch, however the batches
//!    are sliced.

use proptest::prelude::*;
use wavedens::engine::{AttributeSynopsis, CompactionPolicy, SynopsisConfig};
use wavedens::estimation::{
    CoefficientSketch, CvCache, EstimatorError, TensorSketch, ThresholdRule, WindowSliceMeta,
};
use wavedens::prelude::*;

fn dependent_sample(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    DependenceCase::ExpandingMap.simulate(&SineUniformMixture::paper(), n, &mut rng)
}

proptest! {
    // Pinned case count and generator seed: tier-1 must be reproducible
    // run-to-run (same policy as the other root suites).
    #![proptest_config(ProptestConfig::with_cases(16).with_rng_seed(0x5EED_BA5E_2026_0004))]

    /// compact → ship → `from_bytes` → `estimate` is pointwise
    /// identical to the uncompacted pipeline: same thresholds on every
    /// retained level, same `ĵ1`, bitwise-equal dense evaluation.
    #[test]
    fn compacted_roundtrip_estimates_are_pointwise_identical(
        seed in 0_u64..1_000,
        n in 256_usize..1024,
        rule_index in 0_usize..2,
    ) {
        let rule = if rule_index == 0 { ThresholdRule::Soft } else { ThresholdRule::Hard };
        let data = dependent_sample(n, seed);
        let mut sketch = CoefficientSketch::sized_for(n).expect("template");
        sketch.push_batch(&data);

        let compacted = sketch.compact(CompactionPolicy::InactiveTail, rule).expect("compact");
        let shipped = compacted.to_bytes();
        let restored = CoefficientSketch::from_bytes(&shipped).expect("round-trip");

        let original = sketch.estimate(rule).expect("estimate");
        let roundtrip = restored.estimate(rule).expect("estimate");
        prop_assert_eq!(original.highest_level(), roundtrip.highest_level(), "ĵ1 differs");
        // Identical thresholds on every retained level.
        for level in roundtrip.detail_levels() {
            prop_assert_eq!(
                original.thresholds().level(level.level),
                roundtrip.thresholds().level(level.level),
                "λ̂ differs at level {}", level.level
            );
        }
        // Every truncated level was thresholded to zero wholesale.
        for level in original.detail_levels() {
            if level.level > restored.max_level() {
                prop_assert_eq!(level.surviving, 0, "active level {} truncated", level.level);
            }
        }
        // Pointwise-identical density (dense evaluation path included).
        let grid = Grid::new(0.0, 1.0, 257);
        let a = original.evaluate_dense(&grid);
        let b = roundtrip.evaluate_dense(&grid);
        for (i, (va, vb)) in a.iter().zip(&b).enumerate() {
            prop_assert_eq!(va, vb, "dense evaluation differs at grid point {}", i);
        }
        for i in 0..=64 {
            let x = i as f64 / 64.0;
            prop_assert_eq!(original.evaluate(x), roundtrip.evaluate(x), "f̂({}) differs", x);
        }
    }

    /// The dense frame and the compact frame of the same sketch restore
    /// to sketches with identical estimates.
    #[test]
    fn dense_and_compact_frames_restore_identically(
        seed in 0_u64..1_000,
        n in 128_usize..512,
    ) {
        let data = dependent_sample(n, seed);
        let mut sketch = CoefficientSketch::sized_for(n).expect("template");
        sketch.push_batch(&data);
        let from_dense = CoefficientSketch::from_bytes(&sketch.to_bytes_dense()).expect("dense");
        let from_compact = CoefficientSketch::from_bytes(&sketch.to_bytes()).expect("compact");
        prop_assert_eq!(from_dense.count(), from_compact.count());
        let a = from_dense.estimate(ThresholdRule::Soft).expect("estimate");
        let b = from_compact.estimate(ThresholdRule::Soft).expect("estimate");
        for i in 0..=64 {
            let x = i as f64 / 64.0;
            prop_assert_eq!(a.evaluate(x), b.evaluate(x), "x = {}", x);
        }
    }

    /// Incremental-vs-full equivalence: a sketch refreshed through the
    /// `CvCache` after every batch produces bitwise the same selections
    /// and estimates as full cross-validation from scratch, for arbitrary
    /// batch slicings.
    #[test]
    fn incremental_cv_equals_full_cv_across_batch_slicings(
        seed in 0_u64..1_000,
        n in 200_usize..600,
        batch in 8_usize..64,
        rule_index in 0_usize..2,
    ) {
        let rule = if rule_index == 0 { ThresholdRule::Soft } else { ThresholdRule::Hard };
        let data = dependent_sample(n, seed);
        let mut sketch = CoefficientSketch::sized_for(n).expect("template");
        let mut cache = CvCache::new();
        for chunk in data.chunks(batch) {
            sketch.push_batch(chunk);
            let cached = sketch.estimate_with_cache(rule, &mut cache).expect("cached");
            let full = sketch.estimate(rule).expect("full");
            prop_assert_eq!(cached.highest_level(), full.highest_level());
            prop_assert_eq!(cached.thresholds(), full.thresholds());
            for i in 0..=32 {
                let x = i as f64 / 32.0;
                prop_assert_eq!(cached.evaluate(x), full.evaluate(x), "x = {}", x);
            }
        }
    }
}

/// A hand-assembled byte fixture (Haar basis, levels 0..=1, four
/// observations): the frame layout must deserialize byte for byte,
/// independent of the writer — a dense payload and a coefficient-sparse
/// one alike.
#[test]
fn hand_built_frame_fixture_deserializes() {
    let observations = [0.125_f64, 0.375, 0.625, 0.875];
    let mut reference =
        CoefficientSketch::new(WaveletFamily::Haar, (0.0, 1.0), 0, 1).expect("haar sketch");
    reference.push_batch(&observations);

    // Assemble the frame by hand: magic, version 5, family tag 0 (Haar)
    // with order 1, one dimension, no window block, count 4, levels
    // 0..=1 and budget 0, interval [0, 1], a presence bitmap marking all
    // three levels present, then per level a payload tag and payload.
    let mut fixture: Vec<u8> = Vec::new();
    fixture.extend_from_slice(b"WDSK");
    fixture.extend_from_slice(&5_u16.to_le_bytes());
    fixture.push(0);
    fixture.extend_from_slice(&1_u16.to_le_bytes());
    fixture.extend_from_slice(&[1, 0]);
    fixture.extend_from_slice(&4_u64.to_le_bytes());
    for field in [0_i32, 1, 0] {
        fixture.extend_from_slice(&field.to_le_bytes());
    }
    fixture.extend_from_slice(&0.0_f64.to_le_bytes());
    fixture.extend_from_slice(&1.0_f64.to_le_bytes());
    fixture.push(0b111);
    let snapshot = reference.snapshot().expect("nonempty");
    for (index, level) in std::iter::once(snapshot.scaling())
        .chain(snapshot.details())
        .enumerate()
    {
        // Frames store raw sums; the snapshot holds means (sums / n).
        let sums: Vec<f64> = level.values.iter().map(|mean| mean * 4.0).collect();
        let squares = level.sum_squares.iter();
        fixture.push(u8::from(index == 2)); // payload tag: dense, dense, sparse
        fixture.extend_from_slice(&(level.len() as u64).to_le_bytes());
        if index < 2 {
            // Dense: slot count, sums, sums of squares.
            for v in sums.iter().chain(squares) {
                fixture.extend_from_slice(&v.to_le_bytes());
            }
        } else {
            // Sparse: entry count, then per entry slot index, sum, square.
            for (slot, (sum, square)) in sums.iter().zip(squares).enumerate() {
                fixture.extend_from_slice(&(slot as u32).to_le_bytes());
                fixture.extend_from_slice(&sum.to_le_bytes());
                fixture.extend_from_slice(&square.to_le_bytes());
            }
        }
    }
    let restored = CoefficientSketch::from_bytes(&fixture).expect("hand-built fixture");
    // Bitwise the same state: count, geometry, every sum and square.
    assert_eq!(restored.to_bytes_dense(), reference.to_bytes_dense());
    assert_eq!(restored.count(), 4);
}

/// End to end through the engine: an attribute ingested in bursts with a
/// refresh after each (the incremental path) ships a compacted frame whose
/// restored estimate matches the dense pipeline exactly, at a fraction of
/// the bytes.
#[test]
fn engine_ships_compact_lossless_synopses() {
    let data = dependent_sample(8192, 42);
    let config = SynopsisConfig::default()
        .with_expected_rows(8192)
        .with_shards(2);
    let synopsis = AttributeSynopsis::new(&config).expect("synopsis");
    for chunk in data.chunks(512) {
        synopsis.ingest(chunk);
        synopsis.refresh().expect("refresh").expect("nonempty");
    }

    let dense = synopsis.merged_sketch().expect("merged");
    let dense_bytes = dense.to_bytes_dense().len();
    let shipped = synopsis.ship(CompactionPolicy::InactiveTail).expect("ship");
    assert!(
        shipped.len() * 5 <= dense_bytes,
        "compacted frame {} bytes vs dense {} bytes (< 5×)",
        shipped.len(),
        dense_bytes
    );

    let restored = CoefficientSketch::from_bytes(&shipped).expect("round-trip");
    let original = dense.estimate(synopsis.rule()).expect("estimate");
    let roundtrip = restored.estimate(synopsis.rule()).expect("estimate");
    let grid = Grid::new(0.0, 1.0, 1025);
    let a = original.evaluate_dense(&grid);
    let b = roundtrip.evaluate_dense(&grid);
    for (i, (va, vb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(va, vb, "dense evaluation differs at grid point {i}");
    }
}

/// The frames the golden test pins: a tiny deterministic 1-D sketch (Haar,
/// levels 0..=2, eight rows) through every 1-D writer and both compaction
/// modes, and a tiny 2-D tensor sketch through both writers. Each comes
/// with the dense frame of the sketch it was written from: the dense
/// writer ships the whole state, so equal dense frames mean bitwise equal
/// counts, geometry, sums and sums of squares.
fn golden_frames() -> Vec<(&'static str, Vec<u8>, Vec<u8>)> {
    let rows = [0.1_f64, 0.11, 0.12, 0.13, 0.14, 0.15, 0.62, 0.63];
    let mut sketch =
        CoefficientSketch::new(WaveletFamily::Haar, (0.0, 1.0), 0, 2).expect("haar sketch");
    sketch.push_batch(&rows);
    let meta = WindowSliceMeta {
        slice_age: 1,
        ring_slices: 4,
        advances: 9,
        decay_lambda: 0.5,
    };
    let compact = |policy| {
        let compacted = sketch
            .compact(policy, ThresholdRule::Hard)
            .expect("compact");
        (compacted.to_bytes(), compacted.to_bytes_dense())
    };
    let (inactive_tail, inactive_tail_state) = compact(CompactionPolicy::InactiveTail);
    let (byte_budget, byte_budget_state) = compact(CompactionPolicy::ByteBudget { max_bytes: 120 });
    let mut joint = TensorSketch::new_2d(WaveletFamily::Haar, (0.0, 1.0), (0.0, 1.0), 0, 2, 0)
        .expect("haar tensor sketch");
    joint.push_pairs(&[(0.1, 0.7), (0.9, 0.35)]);
    let state = sketch.to_bytes_dense();
    let joint_state = joint.to_bytes_dense();
    vec![
        ("compact", sketch.to_bytes(), state.clone()),
        ("dense", sketch.to_bytes_dense(), state.clone()),
        ("windowed", sketch.to_bytes_with_window(&meta), state),
        ("inactive_tail", inactive_tail, inactive_tail_state),
        ("byte_budget", byte_budget, byte_budget_state),
        ("tensor", joint.to_bytes(), joint_state.clone()),
        ("tensor_dense", joint.to_bytes_dense(), joint_state),
    ]
}

/// The frames [`golden_frames`] produces, as lowercase hex.
const GOLDEN_FRAMES: [(&str, &str); 7] = [
    (
        "compact",
        concat!(
            "5744534b050000010001000800000000000000000000000200000000000000000000000000000000",
            "0000000000f03f0f0001000000000000000100000000002040010000000000204000010000000000",
            "000001000000000010400100000000002040000200000000000000db6cdfcc76f82040ce3b7f669e",
            "a006400200000000002840020000000000104001020000000000000000000000000000000000d03c",
            "02000000000038400200000000000000000000000200000000002040",
        ),
    ),
    (
        "dense",
        concat!(
            "5744534b050000010001000800000000000000000000000200000000000000000000000000000000",
            "0000000000f03f0f0001000000000000000100000000002040010000000000204000010000000000",
            "000001000000000010400100000000002040000200000000000000db6cdfcc76f82040ce3b7f669e",
            "a0064002000000000028400200000000001040000400000000000000000000000000d03c00000000",
            "00000000000000000000000000000000000000000200000000003840000000000000000002000000",
            "000020400000000000000000",
        ),
    ),
    (
        "windowed",
        concat!(
            "5744534b0500000100010101000000040000000900000000000000000000000000e03f0800000000",
            "0000000000000002000000000000000000000000000000000000000000f03f0f0001000000000000",
            "00010000000000204001000000000020400001000000000000000100000000001040010000000000",
            "2040000200000000000000db6cdfcc76f82040ce3b7f669ea0064002000000000028400200000000",
            "00104001020000000000000000000000000000000000d03c02000000000038400200000000000000",
            "000000000200000000002040",
        ),
    ),
    (
        "inactive_tail",
        concat!(
            "5744534b050000010001000800000000000000000000000100000000000000000000000000000000",
            "0000000000f03f070001000000000000000100000000002040010000000000204000010000000000",
            "000001000000000010400100000000002040000200000000000000db6cdfcc76f82040ce3b7f669e",
            "a0064002000000000028400200000000001040",
        ),
    ),
    (
        "byte_budget",
        concat!(
            "5744534b050000010001000800000000000000000000000000000000000000000000000000000000",
            "0000000000f03f030001000000000000000100000000002040010000000000204000010000000000",
            "000001000000000010400100000000002040",
        ),
    ),
    (
        "tensor",
        concat!(
            "5744534b050000010002000200000000000000000000000200000000000000000000000000000000",
            "0000000000f03f0000000000000000000000000000f03fff00010000000000000002000000000000",
            "40040000000000004000010000000000000000000000000000000400000000000040000200000000",
            "000000cf3b7f669ea0f63fcf3b7f669ea0f6bf030000000000004003000000000000400102000000",
            "0000000000000000020000000000004004000000000010400300000002000000000000c004000000",
            "0000104000010000000000000000000000000000000400000000000040000200000000000000cf3b",
            "7f669ea0f6bfcf3b7f669ea0f63f0300000000000040030000000000004001020000000000000001",
            "000000020000000000004004000000000010400200000002000000000000c0040000000000104000",
            "010000000000000002000000000000c00400000000000040",
        ),
    ),
    (
        "tensor_dense",
        concat!(
            "5744534b050000010002000200000000000000000000000200000000000000000000000000000000",
            "0000000000f03f0000000000000000000000000000f03fff00010000000000000002000000000000",
            "40040000000000004000010000000000000000000000000000000400000000000040000200000000",
            "000000cf3b7f669ea0f63fcf3b7f669ea0f6bf030000000000004003000000000000400004000000",
            "0000000002000000000000400000000000000000000000000000000002000000000000c004000000",
            "00001040000000000000000000000000000000000400000000001040000100000000000000000000",
            "00000000000400000000000040000200000000000000cf3b7f669ea0f6bfcf3b7f669ea0f63f0300",
            "00000000004003000000000000400004000000000000000000000000000000020000000000004002",
            "000000000000c0000000000000000000000000000000000400000000001040040000000000104000",
            "0000000000000000010000000000000002000000000000c00400000000000040",
        ),
    ),
];

/// The wire bytes of every writer are pinned: the compact, dense and
/// windowed frames of a tiny 1-D sketch, its compacted frames, and both
/// writers of a tiny 2-D sketch must match the recorded bytes exactly.
/// Each frame must decode to the state of the sketch it was written from,
/// bit for bit, and re-encode to the same bytes.
#[test]
fn frames_match_the_golden_bytes_and_reencode_identically() {
    let frames = golden_frames();
    assert_eq!(frames.len(), GOLDEN_FRAMES.len());
    for ((name, frame, state), (golden_name, golden)) in frames.iter().zip(GOLDEN_FRAMES) {
        assert_eq!(*name, golden_name);
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden, "{name} frame bytes changed");
        let (reencoded, decoded_state) = match *name {
            "dense" => {
                let restored = CoefficientSketch::from_bytes(frame).expect("decodes");
                (restored.to_bytes_dense(), restored.to_bytes_dense())
            }
            "windowed" => {
                let (restored, meta) =
                    CoefficientSketch::from_bytes_with_window(frame).expect("decodes");
                let meta = meta.expect("windowed frames carry window metadata");
                (
                    restored.to_bytes_with_window(&meta),
                    restored.to_bytes_dense(),
                )
            }
            "tensor" => {
                let restored = TensorSketch::from_bytes(frame).expect("decodes");
                (restored.to_bytes(), restored.to_bytes_dense())
            }
            "tensor_dense" => {
                let restored = TensorSketch::from_bytes(frame).expect("decodes");
                (restored.to_bytes_dense(), restored.to_bytes_dense())
            }
            _ => {
                let restored = CoefficientSketch::from_bytes(frame).expect("decodes");
                (restored.to_bytes(), restored.to_bytes_dense())
            }
        };
        assert_eq!(&reencoded, frame, "{name} re-encodes differently");
        assert_eq!(&decoded_state, state, "{name} decodes to a different state");
    }
}

/// There is one format: current frames carrying an earlier version
/// number (1–4) or any other one are refused by both decoders with
/// `InvalidSerialization`, never misread and never a panic.
#[test]
fn frames_of_other_versions_are_rejected() {
    for (name, frame, _) in golden_frames() {
        for version in [0_u16, 1, 2, 3, 4, 6, u16::MAX] {
            let mut patched = frame.clone();
            patched[4..6].copy_from_slice(&version.to_le_bytes());
            assert!(
                matches!(
                    CoefficientSketch::from_bytes(&patched),
                    Err(EstimatorError::InvalidSerialization { .. })
                ) && matches!(
                    TensorSketch::from_bytes(&patched),
                    Err(EstimatorError::InvalidSerialization { .. })
                ),
                "{name} frame decoded as version {version}"
            );
        }
    }
}
