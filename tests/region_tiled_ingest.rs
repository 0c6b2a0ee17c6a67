//! Large 1-D batches scatter their fine levels region by region, and the
//! sums stay bitwise those of the chunk loop.
//!
//! A `push_batch` of at least 4096 rows buckets the rows by the slot
//! region their translation window meets at the first detail level of
//! more than 2^13 slots, then scatters that level and every finer one
//! region by region. Every slot still receives its rows in batch order,
//! so each check here pushes the same rows once in batches that take the
//! region path and once in batches of fewer than 4096 rows, which take
//! the chunk loop for every level, and requires the two states to agree
//! bit for bit: the dense frame (sums, sums of squares and count) and
//! `to_bits` of every coefficient mean and sum of squares.
//!
//! The geometry is `sized_for(2^15)` (detail levels 2..=15) fed 2^14-row
//! batches, for Haar, Daubechies-4 and Symmlet-8, on `[0, 1]` and on an
//! interval left of 0, where positions and the first translations are
//! negative. The rows include region edges, windows straddling an edge,
//! batches confined to one region, NaN, ±∞, ±1e300 and finite rows
//! outside the interval. The paths are a plain `push_batch`, batches of
//! the gate size and ±1, `ShardedIngest::ingest_parallel`, a window
//! ring's current slice and `EmpiricalCoefficients::compute`; a
//! `CvCache` filled before a region-path push must see every level move.
//! The `bulk_load` geometry (`sized_for(2^18)`, one 2^17-row batch) runs
//! in release builds only.

use rand::Rng;
use wavedens::engine::ShardedIngest;
use wavedens::estimation::{CoefficientSketch, CvCache, EmpiricalCoefficients, ThresholdRule};
use wavedens::prelude::{
    seeded_rng, DependenceCase, SineUniformMixture, WaveletBasis, WaveletFamily, WindowedSketch,
};

/// The smallest batch that takes the region path.
const GATE: usize = 4096;
/// Rows per batch of the chunk-loop reference: below the gate.
const SUB_GATE: usize = 1000;
/// Rows per region-path batch.
const BATCH: usize = 1 << 14;
/// Slots a detail level must exceed to be scattered region by region.
const FINE_SLOTS: usize = 1 << 13;
/// Translations per region at the first fine level.
const REGION: f64 = 1024.0;

const FAMILIES: [WaveletFamily; 3] = [
    WaveletFamily::Haar,
    WaveletFamily::Daubechies(4),
    WaveletFamily::Symmlet(8),
];
const INTERVALS: [(f64, f64); 2] = [(0.0, 1.0), (-6.5, -0.25)];

/// An empty sketch with the levels of `sized_for(2^15)`.
fn sketch(family: WaveletFamily, interval: (f64, f64)) -> CoefficientSketch {
    let sized = CoefficientSketch::sized_for(1 << 15).expect("sized_for(2^15)");
    CoefficientSketch::new(family, interval, sized.coarse_level(), sized.max_level())
        .expect("sketch geometry")
}

/// The first detail level of more than `FINE_SLOTS` slots: the level
/// whose translations set the regions.
fn first_fine_level(sketch: &CoefficientSketch) -> i32 {
    let (lo, hi) = sketch.interval();
    (sketch.coarse_level()..=sketch.max_level())
        .find(|&j| sketch.basis().translation_count(j, lo, hi) > FINE_SLOTS)
        .expect("the geometry has fine levels")
}

/// Rows at every region edge of the first fine level inside the interval
/// (dyadic, so also edges of every finer level), rows a hair to either
/// side, and rows whose window straddles the edge.
fn edge_rows(sketch: &CoefficientSketch) -> Vec<f64> {
    let (lo, hi) = sketch.interval();
    let scale = f64::from(first_fine_level(sketch)).exp2();
    let reach = sketch.basis().support_length();
    let first = (lo * scale / REGION).floor() as i64 - 1;
    let last = (hi * scale / REGION).ceil() as i64 + 1;
    let mut rows = Vec::new();
    for region in first..=last {
        let edge = region as f64 * REGION;
        for offset in [0.0, 0.5, -0.5, 1.0, reach - 1.5, reach - 0.5, reach] {
            rows.push((edge + offset) / scale);
        }
        rows.push(edge / scale + f64::EPSILON);
        rows.push(edge / scale - f64::EPSILON);
    }
    rows
}

/// `len` rows mixing uniform draws over the interval widened by a tenth
/// on each side, the edge rows and the special values, in a seeded
/// random order.
fn adversarial_rows(sketch: &CoefficientSketch, len: usize, seed: u64) -> Vec<f64> {
    let (lo, hi) = sketch.interval();
    let pad = 0.1 * (hi - lo);
    let mut rng = seeded_rng(seed);
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        -1e300,
        lo,
        hi,
        lo - 1.0,
        hi + 1.0,
    ];
    let mut rows: Vec<f64> = edge_rows(sketch)
        .into_iter()
        .chain(specials)
        .cycle()
        .take(len / 4)
        .collect();
    while rows.len() < len {
        rows.push(rng.gen_range(lo - pad..hi + pad));
    }
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.gen_range(0..=i));
    }
    rows
}

/// The chunk-loop reference: `rows` pushed in sub-gate batches.
fn pushed_below_gate(template: &CoefficientSketch, rows: &[f64]) -> CoefficientSketch {
    let mut reference = template.clone();
    for batch in rows.chunks(SUB_GATE) {
        reference.push_batch(batch);
    }
    reference
}

fn assert_coefficients_bitwise(label: &str, a: &EmpiricalCoefficients, b: &EmpiricalCoefficients) {
    assert_eq!(a.sample_size(), b.sample_size(), "{label}: sample sizes");
    let levels =
        std::iter::once((a.scaling(), b.scaling())).chain(a.details().iter().zip(b.details()));
    for (la, lb) in levels {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!((la.level, la.k_start), (lb.level, lb.k_start), "{label}");
        assert!(
            bits(&la.values) == bits(&lb.values),
            "{label}: level {} means differ",
            la.level
        );
        assert!(
            bits(&la.sum_squares) == bits(&lb.sum_squares),
            "{label}: level {} sums of squares differ",
            la.level
        );
    }
}

fn assert_bitwise(label: &str, a: &CoefficientSketch, b: &CoefficientSketch) {
    assert_eq!(a.count(), b.count(), "{label}: counts");
    assert!(
        a.to_bytes_dense() == b.to_bytes_dense(),
        "{label}: dense frames differ"
    );
    if !a.is_empty() {
        let (sa, sb) = (
            a.snapshot().expect("snapshot"),
            b.snapshot().expect("snapshot"),
        );
        assert_coefficients_bitwise(label, &sa, &sb);
    }
}

#[test]
fn region_path_is_bitwise_the_chunk_loop() {
    for (f, family) in FAMILIES.into_iter().enumerate() {
        for (i, interval) in INTERVALS.into_iter().enumerate() {
            let template = sketch(family, interval);
            let rows = adversarial_rows(&template, 2 * BATCH, (10 * f + i) as u64);
            let mut tiled = template.clone();
            for batch in rows.chunks(BATCH) {
                tiled.push_batch(batch);
            }
            let label = format!("{family:?} on {interval:?}");
            assert_bitwise(&label, &tiled, &pushed_below_gate(&template, &rows));
        }
    }
}

#[test]
fn batches_confined_to_one_region_or_one_edge() {
    for family in FAMILIES {
        for interval in INTERVALS {
            let template = sketch(family, interval);
            let scale = f64::from(first_fine_level(&template)).exp2();
            let (lo, hi) = template.interval();
            // The region holding the interval's midpoint, kept clear of
            // its edges by the support; then one exact region edge.
            let region = ((lo + hi) / 2.0 * scale / REGION).floor();
            let reach = template.basis().support_length();
            let inside_lo = (region * REGION + reach) / scale;
            let inside_hi = ((region + 1.0) * REGION - 1.0) / scale;
            let mut rng = seeded_rng(77);
            let inside: Vec<f64> = (0..BATCH)
                .map(|_| rng.gen_range(inside_lo..inside_hi))
                .collect();
            let edge = vec![region * REGION / scale; GATE];
            for (what, rows) in [("one region", inside), ("one edge", edge)] {
                let mut tiled = template.clone();
                tiled.push_batch(&rows);
                let label = format!("{what}, {family:?} on {interval:?}");
                assert_bitwise(&label, &tiled, &pushed_below_gate(&template, &rows));
            }
        }
    }
}

#[test]
fn batches_at_the_gate_and_either_side() {
    for family in FAMILIES {
        for interval in INTERVALS {
            let template = sketch(family, interval);
            for len in [GATE - 1, GATE, GATE + 1] {
                let rows = adversarial_rows(&template, 3 * len, len as u64);
                let mut tiled = template.clone();
                for batch in rows.chunks(len) {
                    tiled.push_batch(batch);
                }
                let label = format!("{len}-row batches, {family:?} on {interval:?}");
                assert_bitwise(&label, &tiled, &pushed_below_gate(&template, &rows));
            }
        }
    }
}

#[test]
fn non_finite_huge_and_outlying_rows_add_nothing_extra() {
    for family in FAMILIES {
        for interval in INTERVALS {
            let template = sketch(family, interval);
            let (lo, hi) = interval;
            let hostile = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1e300,
                -1e300,
                f64::MAX,
                f64::MIN,
                9.3e18,
                -9.3e18,
                lo - 0.5,
                hi + 0.5,
            ];
            let mut rows: Vec<f64> = hostile.into_iter().cycle().take(GATE).collect();
            rows[GATE / 2] = (lo + hi) / 2.0;
            let mut tiled = template.clone();
            tiled.push_batch(&rows);
            let label = format!("hostile rows, {family:?} on {interval:?}");
            assert_bitwise(&label, &tiled, &pushed_below_gate(&template, &rows));
        }
    }
}

#[test]
fn parallel_ingest_matches_serial_pushes() {
    let template = sketch(WaveletFamily::Symmlet(8), (0.0, 1.0));
    let rows = adversarial_rows(&template, 2 * BATCH, 5);
    for shards in [1, 2, 3] {
        let sharded = ShardedIngest::new(&template, shards).expect("sharded ingest");
        sharded.ingest_parallel(&rows);
        // The shards take contiguous shares of `len.div_ceil(shards)`
        // rows and merge in index order.
        let mut shares = rows
            .chunks(rows.len().div_ceil(shards))
            .map(|share| pushed_below_gate(&template, share));
        let mut reference = shares.next().expect("a nonempty load");
        for share in shares {
            reference.merge(&share).expect("shards share the template");
        }
        let merged = sharded.merged().expect("merged");
        assert_bitwise(&format!("{shards} shards"), &merged, &reference);
    }
}

#[test]
fn a_window_slice_matches_serial_pushes() {
    let template = sketch(WaveletFamily::Symmlet(8), (-6.5, -0.25));
    let rows = adversarial_rows(&template, 2 * BATCH, 6);
    let mut ring = WindowedSketch::new(&template, 4).expect("ring");
    let (first, second) = rows.split_at(BATCH);
    ring.push_batch(first);
    ring.advance();
    ring.push_batch(second);
    for (age, share) in [(1, first), (0, second)] {
        let slice = ring.slice(age).expect("a live slice");
        let label = format!("slice of age {age}");
        assert_bitwise(&label, slice, &pushed_below_gate(&template, share));
    }
}

#[test]
fn batch_coefficients_match_serial_pushes() {
    for family in FAMILIES {
        let template = sketch(family, (0.0, 1.0));
        let rows = adversarial_rows(&template, BATCH, 8);
        let basis = WaveletBasis::shared(family).expect("basis");
        let computed = EmpiricalCoefficients::compute(
            basis,
            &rows,
            template.interval(),
            template.coarse_level(),
            template.max_level(),
        )
        .expect("compute");
        let reference = pushed_below_gate(&template, &rows)
            .snapshot()
            .expect("snapshot");
        assert_coefficients_bitwise(&format!("{family:?}"), &computed, &reference);
    }
}

#[test]
fn a_warm_cv_cache_recomputes_after_a_region_path_push() {
    let template = sketch(WaveletFamily::Symmlet(8), (0.0, 1.0));
    let rows = adversarial_rows(&template, GATE + BATCH, 9);
    let (small, large) = rows.split_at(GATE - 1);
    for rule in [ThresholdRule::Soft, ThresholdRule::Hard] {
        let mut sketch = template.clone();
        let mut cache = CvCache::new();
        sketch.push_batch(small);
        sketch.estimate_with_cache(rule, &mut cache).expect("warm");
        let before = sketch.detail_versions();
        sketch.push_batch(large);
        let after = sketch.detail_versions();
        for (level, (b, a)) in before.iter().zip(&after).enumerate() {
            assert!(a > b, "{rule:?}: detail level {level} stamp did not move");
        }
        let cached = sketch
            .estimate_with_cache(rule, &mut cache)
            .expect("cached");
        let full = sketch.estimate(rule).expect("full");
        assert_eq!(cached.highest_level(), full.highest_level(), "{rule:?}");
        assert_eq!(cached.thresholds(), full.thresholds(), "{rule:?}");
        for i in 0..=64 {
            let x = f64::from(i) / 64.0;
            assert_eq!(cached.evaluate(x).to_bits(), full.evaluate(x).to_bits());
        }
    }
}

/// The `bulk_load` geometry: one shard's 2^17 Case-2 rows into
/// `sized_for(2^18)` in one batch, then a batch long enough to be
/// bucketed in two parts.
#[test]
#[cfg_attr(debug_assertions, ignore = "bulk_load geometry: release builds only")]
fn bulk_load_geometry_is_bitwise_the_chunk_loop() {
    let rows = DependenceCase::ExpandingMap.simulate(
        &SineUniformMixture::paper(),
        (1 << 18) + 5000,
        &mut seeded_rng(18),
    );
    let template = CoefficientSketch::sized_for(1 << 18).expect("sized_for(2^18)");
    let mut tiled = template.clone();
    let (load, longer) = rows.split_at(1 << 17);
    tiled.push_batch(load);
    tiled.push_batch(longer);
    assert_bitwise(
        "bulk_load geometry",
        &tiled,
        &pushed_below_gate(&template, &rows),
    );
}
