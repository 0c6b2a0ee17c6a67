//! Rows the sketches cannot place: NaN, ±∞, and finite values so large
//! that their translation window leaves the `i64` range. Every ingest
//! path skips a row with a non-finite coordinate and does not count it,
//! so a batch salted with such rows leaves bitwise the frame of its
//! finite rows, and a synopsis' row counter stays equal to its merged
//! count. Finite rows count even where they add no mass. Pointwise
//! evaluation answers 0 at such positions instead of panicking.

use rand::Rng;
use wavedens::engine::AttributeSynopsis;
use wavedens::prelude::*;

/// Rows no sketch can place, plus finite rows far outside every interval.
const UNPLACEABLE: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300];
const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

fn uniform(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    (0..n).map(|_| rng.gen::<f64>()).collect()
}

fn uniform_pairs(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = seeded_rng(seed);
    (0..n).map(|_| (rng.gen(), rng.gen())).collect()
}

/// `rows` with a non-finite value inserted after every seventh row.
fn salted(rows: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    for (i, &x) in rows.iter().enumerate() {
        out.push(x);
        if i % 7 == 0 {
            out.push(NON_FINITE[i % NON_FINITE.len()]);
        }
    }
    out
}

/// `rows` with a pair carrying a non-finite coordinate inserted after
/// every seventh pair: in x, in y, or in both.
fn salted_pairs(rows: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for (i, &(x, y)) in rows.iter().enumerate() {
        out.push((x, y));
        if i % 7 == 0 {
            let bad = NON_FINITE[i % NON_FINITE.len()];
            out.push([(bad, y), (x, bad), (bad, bad)][(i / 7) % 3]);
        }
    }
    out
}

fn config(shards: usize) -> SynopsisConfig {
    SynopsisConfig::default()
        .with_expected_rows(2048)
        .with_shards(shards)
}

#[test]
fn unplaceable_rows_do_not_panic_ingest_or_evaluation() {
    let mut fast = CoefficientSketch::sized_for(1024).expect("sketch");
    fast.push_batch(&UNPLACEABLE);
    let mut reference = CoefficientSketch::sized_for(1024).expect("sketch");
    reference.push_batch_scalar(&UNPLACEABLE);
    let mut tensor = TensorSketch::sized_for_pairs(1024).expect("tensor");
    for &v in &UNPLACEABLE {
        tensor.push_pairs(&[(v, 0.5), (0.5, v), (v, v)]);
    }
    // Only the two finite rows (±1e300) count, three pairs each in 2-D.
    assert_eq!(fast.count(), 2);
    assert_eq!(reference.count(), 2);
    assert_eq!(tensor.count(), 6);

    fast.push_batch(&uniform(1024, 1));
    let estimate = fast.estimate(ThresholdRule::Soft).expect("estimate");
    for &x in &UNPLACEABLE {
        assert_eq!(estimate.evaluate(x), 0.0, "f̂({x})");
    }
}

/// An infinite coordinate must not panic the joint writer inside its
/// shard lock: the poison repair would drop every row of that shard.
#[test]
fn an_infinite_pair_leaves_a_joint_writer_and_its_shard_intact() {
    let joint = JointSynopsis::new(&config(1)).expect("joint");
    joint.ingest(&uniform_pairs(512, 2));
    joint.ingest(&[(f64::INFINITY, 0.5), (0.5, f64::NEG_INFINITY), (1e300, 0.5)]);
    assert_eq!(joint.rows(), 513);
    assert_eq!(joint.merged_sketch().expect("merged").count(), 513);
    assert!(joint.refresh().expect("refresh").is_some());
}

#[test]
fn non_finite_rows_leave_the_1d_frame_of_the_finite_rows() {
    let rows = uniform(2048, 3);
    let mixed = salted(&rows);
    assert!(mixed.len() > rows.len());
    type Push = fn(&mut CoefficientSketch, &[f64]);
    let paths: [Push; 2] = [
        CoefficientSketch::push_batch,
        CoefficientSketch::push_batch_scalar,
    ];
    for push in paths {
        let mut clean = CoefficientSketch::sized_for(2048).expect("sketch");
        push(&mut clean, &rows);
        let mut salted = CoefficientSketch::sized_for(2048).expect("sketch");
        push(&mut salted, &mixed);
        assert_eq!(salted.count(), rows.len());
        assert_eq!(salted.to_bytes(), clean.to_bytes());
    }

    // Streamed batches land on the same shard whether salted or not.
    for shards in [1, 3] {
        let clean = AttributeSynopsis::new(&config(shards)).expect("synopsis");
        let salted_synopsis = AttributeSynopsis::new(&config(shards)).expect("synopsis");
        for batch in rows.chunks(300) {
            clean.ingest(batch);
            salted_synopsis.ingest(&salted(batch));
        }
        let merged = salted_synopsis.merged_sketch().expect("merged");
        assert_eq!(salted_synopsis.rows(), rows.len());
        assert_eq!(merged.count(), rows.len());
        assert_eq!(
            merged.to_bytes(),
            clean.merged_sketch().expect("merged").to_bytes()
        );
    }

    // Bulk loads and window advances keep the counter on the merged count.
    let windowed = AttributeSynopsis::new(&config(2).with_window(WindowPolicy::SlidingSlices(2)))
        .expect("windowed");
    windowed.ingest_parallel(&mixed);
    assert_eq!(windowed.rows(), rows.len());
    windowed.advance();
    windowed.ingest(&salted(&rows[..500]));
    windowed.advance();
    assert_eq!(windowed.rows(), 500);
    assert_eq!(windowed.merged_sketch().expect("merged").count(), 500);
}

#[test]
fn non_finite_pairs_leave_the_2d_frame_of_the_finite_pairs() {
    let rows = uniform_pairs(1200, 4);
    let mixed = salted_pairs(&rows);
    let mut clean = TensorSketch::sized_for_pairs(2048).expect("tensor");
    clean.push_pairs(&rows);
    let mut salted = TensorSketch::sized_for_pairs(2048).expect("tensor");
    salted.push_pairs(&mixed);
    assert_eq!(salted.count(), rows.len());
    assert_eq!(salted.to_bytes(), clean.to_bytes());

    for shards in [1, 2] {
        let clean = JointSynopsis::new(&config(shards)).expect("joint");
        let salted_joint = JointSynopsis::new(&config(shards)).expect("joint");
        for batch in rows.chunks(300) {
            clean.ingest(batch);
            salted_joint.ingest(&salted_pairs(batch));
        }
        let merged = salted_joint.merged_sketch().expect("merged");
        assert_eq!(salted_joint.rows(), rows.len());
        assert_eq!(merged.count(), rows.len());
        assert_eq!(
            merged.to_bytes(),
            clean.merged_sketch().expect("merged").to_bytes()
        );
    }

    let bulk = JointSynopsis::new(&config(2)).expect("joint");
    bulk.ingest_parallel(&mixed);
    assert_eq!(bulk.rows(), rows.len());
    assert_eq!(bulk.merged_sketch().expect("merged").count(), rows.len());
}
