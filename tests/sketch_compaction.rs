//! Level-truncating sketch compaction and the incremental refresh path.
//!
//! The load-bearing properties of this PR:
//!
//! 1. **Compaction is lossless.** Truncating the detail levels whose
//!    cross-validated active set is empty, shipping the v2 frame and
//!    restoring it produces an estimate that is *pointwise identical*
//!    (bitwise) to the uncompacted pipeline, with identical thresholds on
//!    every retained level and the same data-driven `ĵ1` — across data,
//!    split points and both thresholding rules.
//! 2. **The wire format is backward compatible.** Legacy dense v1 frames
//!    (including a hand-assembled byte fixture) still deserialize, and
//!    agree with the v2 frame of the same sketch; golden frames pin the
//!    bytes every writer emits.
//! 3. **Incremental cross-validation is exact.** Refreshing through the
//!    [`CvCache`] after every small batch is bitwise identical to
//!    re-running the full CV pipeline from scratch, however the batches
//!    are sliced.

use proptest::prelude::*;
use wavedens::engine::{AttributeSynopsis, CompactionPolicy, SynopsisConfig};
use wavedens::estimation::{
    CoefficientSketch, CvCache, TensorSketch, ThresholdRule, WindowSliceMeta,
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

    /// compact(v2) → ship → `from_bytes` → `estimate` is pointwise
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

    /// The legacy dense v1 frame and the current v2 frame of the same
    /// sketch restore to sketches with identical estimates.
    #[test]
    fn v1_and_v2_frames_restore_identically(
        seed in 0_u64..1_000,
        n in 128_usize..512,
    ) {
        let data = dependent_sample(n, seed);
        let mut sketch = CoefficientSketch::sized_for(n).expect("template");
        sketch.push_batch(&data);
        let from_v1 = CoefficientSketch::from_bytes(&sketch.to_bytes_v1()).expect("v1");
        let from_v2 = CoefficientSketch::from_bytes(&sketch.to_bytes()).expect("v2");
        prop_assert_eq!(from_v1.count(), from_v2.count());
        let a = from_v1.estimate(ThresholdRule::Soft).expect("estimate");
        let b = from_v2.estimate(ThresholdRule::Soft).expect("estimate");
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

/// A hand-assembled v1 byte fixture (Haar basis, levels 0..=1, four
/// observations): the legacy frame layout must keep deserializing
/// byte-for-byte, independent of the current writer.
#[test]
fn v1_frame_fixture_deserializes() {
    let observations = [0.125_f64, 0.375, 0.625, 0.875];
    let mut reference =
        CoefficientSketch::new(WaveletFamily::Haar, (0.0, 1.0), 0, 1).expect("haar sketch");
    reference.push_batch(&observations);

    // Assemble the v1 frame by hand: magic, version 1, family tag 0
    // (Haar) with order 1, interval [0, 1], count 4, levels 0..=1, then
    // every level dense (len + sums + sums of squares).
    let mut fixture: Vec<u8> = Vec::new();
    fixture.extend_from_slice(b"WDSK");
    fixture.extend_from_slice(&1_u16.to_le_bytes());
    fixture.push(0);
    fixture.extend_from_slice(&1_u16.to_le_bytes());
    fixture.extend_from_slice(&0.0_f64.to_le_bytes());
    fixture.extend_from_slice(&1.0_f64.to_le_bytes());
    fixture.extend_from_slice(&4_u64.to_le_bytes());
    fixture.extend_from_slice(&0_i32.to_le_bytes());
    fixture.extend_from_slice(&1_i32.to_le_bytes());
    let snapshot = reference.snapshot().expect("nonempty");
    for level in std::iter::once(snapshot.scaling()).chain(snapshot.details()) {
        fixture.extend_from_slice(&(level.len() as u64).to_le_bytes());
        for &mean in &level.values {
            // v1 stores raw sums; the snapshot holds means (sums / n).
            fixture.extend_from_slice(&(mean * 4.0).to_le_bytes());
        }
        for &sq in level.sum_squares.iter() {
            fixture.extend_from_slice(&sq.to_le_bytes());
        }
    }

    let restored = CoefficientSketch::from_bytes(&fixture).expect("v1 fixture");
    assert_eq!(restored.count(), 4);
    assert_eq!(restored.coarse_level(), 0);
    assert_eq!(restored.max_level(), 1);
    let a = restored.estimate(ThresholdRule::Soft).expect("estimate");
    let b = reference.estimate(ThresholdRule::Soft).expect("estimate");
    for i in 0..=32 {
        let x = i as f64 / 32.0;
        assert_eq!(a.evaluate(x), b.evaluate(x), "x = {x}");
    }
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
        synopsis.refreshed().expect("refresh").expect("nonempty");
    }

    let dense = synopsis.merged_sketch().expect("merged");
    let dense_bytes = dense.to_bytes_v1().len();
    let shipped = synopsis.ship(CompactionPolicy::InactiveTail).expect("ship");
    assert!(
        shipped.len() * 5 <= dense_bytes,
        "compacted frame {} bytes vs dense v1 {} bytes (< 5×)",
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
/// modes, and a tiny 2-D tensor sketch through both v4 writers.
fn golden_frames() -> Vec<(&'static str, Vec<u8>)> {
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
        sketch
            .compact(policy, ThresholdRule::Hard)
            .expect("compact")
            .to_bytes()
    };
    let mut joint = TensorSketch::new_2d(WaveletFamily::Haar, (0.0, 1.0), (0.0, 1.0), 0, 2, 0)
        .expect("haar tensor sketch");
    joint.push_pairs(&[(0.1, 0.7), (0.9, 0.35)]);
    vec![
        ("v2", sketch.to_bytes()),
        ("v1", sketch.to_bytes_v1()),
        ("v3", sketch.to_bytes_with_window(&meta)),
        ("inactive_tail", compact(CompactionPolicy::InactiveTail)),
        (
            "byte_budget",
            compact(CompactionPolicy::ByteBudget { max_bytes: 120 }),
        ),
        ("tensor", joint.to_bytes()),
        ("tensor_dense", joint.to_bytes_dense()),
    ]
}

/// The frames [`golden_frames`] produces, as lowercase hex.
const GOLDEN_FRAMES: [(&str, &str); 7] = [
    (
        "v2",
        concat!(
            "5744534b02000001000000000000000000000000000000f03f080000000000000000000000020000",
            "000f0100000000000000010000000000204001000000000020400100000000000000010000000000",
            "104001000000000020400200000000000000db6cdfcc76f82040ce3b7f669ea00640020000000000",
            "284002000000000010400400000000000000000000000000d03c0000000000000000000000000000",
            "00000000000000000000020000000000384000000000000000000200000000002040000000000000",
            "0000",
        ),
    ),
    (
        "v1",
        concat!(
            "5744534b01000001000000000000000000000000000000f03f080000000000000000000000020000",
            "00010000000000000001000000000020400100000000002040010000000000000001000000000010",
            "4001000000000020400200000000000000db6cdfcc76f82040ce3b7f669ea0064002000000000028",
            "4002000000000010400400000000000000000000000000d03c000000000000000000000000000000",
            "00000000000000000002000000000038400000000000000000020000000000204000000000000000",
            "00",
        ),
    ),
    (
        "v3",
        concat!(
            "5744534b03000001000000000000000000000000000000f03f080000000000000000000000020000",
            "0001000000040000000900000000000000000000000000e03f0f0100000000000000010000000000",
            "20400100000000002040010000000000000001000000000010400100000000002040020000000000",
            "0000db6cdfcc76f82040ce3b7f669ea0064002000000000028400200000000001040040000000000",
            "0000000000000000d03c000000000000000000000000000000000000000000000000020000000000",
            "3840000000000000000002000000000020400000000000000000",
        ),
    ),
    (
        "inactive_tail",
        concat!(
            "5744534b02000001000000000000000000000000000000f03f080000000000000000000000010000",
            "00070100000000000000010000000000204001000000000020400100000000000000010000000000",
            "104001000000000020400200000000000000db6cdfcc76f82040ce3b7f669ea00640020000000000",
            "28400200000000001040",
        ),
    ),
    (
        "byte_budget",
        concat!(
            "5744534b02000001000000000000000000000000000000f03f080000000000000000000000000000",
            "00030100000000000000010000000000204001000000000020400100000000000000010000000000",
            "10400100000000002040",
        ),
    ),
    (
        "tensor",
        concat!(
            "5744534b040000010002020000000000000000000000020000000000000000000000000000000000",
            "00000000f03f0000000000000000000000000000f03fff0001000000000000000200000000000040",
            "04000000000000400001000000000000000000000000000000040000000000004000020000000000",
            "0000cf3b7f669ea0f63fcf3b7f669ea0f6bf03000000000000400300000000000040010200000000",
            "00000000000000020000000000004004000000000010400300000002000000000000c00400000000",
            "00104000010000000000000000000000000000000400000000000040000200000000000000cf3b7f",
            "669ea0f6bfcf3b7f669ea0f63f030000000000004003000000000000400102000000000000000100",
            "0000020000000000004004000000000010400200000002000000000000c004000000000010400001",
            "0000000000000002000000000000c00400000000000040",
        ),
    ),
    (
        "tensor_dense",
        concat!(
            "5744534b040000010002020000000000000000000000020000000000000000000000000000000000",
            "00000000f03f0000000000000000000000000000f03fff0001000000000000000200000000000040",
            "04000000000000400001000000000000000000000000000000040000000000004000020000000000",
            "0000cf3b7f669ea0f63fcf3b7f669ea0f6bf03000000000000400300000000000040000400000000",
            "00000002000000000000400000000000000000000000000000000002000000000000c00400000000",
            "00104000000000000000000000000000000000040000000000104000010000000000000000000000",
            "000000000400000000000040000200000000000000cf3b7f669ea0f6bfcf3b7f669ea0f63f030000",
            "00000000400300000000000040000400000000000000000000000000000002000000000000400200",
            "0000000000c000000000000000000000000000000000040000000000104004000000000010400000",
            "00000000000000010000000000000002000000000000c00400000000000040",
        ),
    ),
];

/// The wire bytes of every writer are pinned: v1, v2 and v3 frames of a
/// tiny 1-D sketch, its compacted frames, and both v4 writers of a tiny
/// 2-D sketch must match the recorded bytes exactly, and each frame must
/// decode and re-encode to the same bytes.
#[test]
fn frames_match_the_golden_bytes_and_reencode_identically() {
    let frames = golden_frames();
    assert_eq!(frames.len(), GOLDEN_FRAMES.len());
    for ((name, frame), (golden_name, golden)) in frames.iter().zip(GOLDEN_FRAMES) {
        assert_eq!(*name, golden_name);
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden, "{name} frame bytes changed");
        let reencoded = match *name {
            "v1" => CoefficientSketch::from_bytes(frame).map(|s| s.to_bytes_v1()),
            "v3" => CoefficientSketch::from_bytes_with_window(frame).map(|(s, meta)| {
                s.to_bytes_with_window(&meta.expect("v3 frames carry window metadata"))
            }),
            "tensor" => TensorSketch::from_bytes(frame).map(|s| s.to_bytes()),
            "tensor_dense" => TensorSketch::from_bytes(frame).map(|s| s.to_bytes_dense()),
            _ => CoefficientSketch::from_bytes(frame).map(|s| s.to_bytes()),
        };
        assert_eq!(&reencoded.expect("golden frame decodes"), frame, "{name}");
    }
}
