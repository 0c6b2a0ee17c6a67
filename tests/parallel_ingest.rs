//! Bulk loads are bitwise reproducible.
//!
//! The empirical coefficients are sample means, so sharded ingest merges
//! by plain addition — but float addition is not associative, so the
//! order of that addition is part of the answer. `ingest_parallel`
//! promises that, for a given shard count, the merged state is bitwise
//! identical whatever the pool's thread count or timing.
//!
//! Each case runs 10 loads of the same 2^14 Case-2 rows into fresh
//! ingests on each of 4 threads at once, so the global pool's workers
//! contend, and requires all 40 `merged().to_bytes()` frames to be equal.
//! They must also equal a single-threaded reference: share `i` pushed
//! into a clone of the template, then the shards merged in index order.
//! That pins independence from the pool size without varying the pool;
//! CI also runs this suite pinned to one core, where the global pool has
//! a single worker.
//!
//! The marginal case also loads a default (landmark) `AttributeSynopsis`,
//! whose shards are one-slice rings, and holds its merged sketch to the
//! same reference; the pair case does the same for a sliding-window
//! ingest of `(x, y)` pairs, whose shards are rings of tensor slices.

use std::collections::HashSet;
use std::sync::OnceLock;
use wavedens::engine::{
    AttributeSynopsis, MergeableSketch, ShardedIngest, SynopsisConfig, WindowPolicy, WindowedIngest,
};
use wavedens::estimation::{CoefficientSketch, TensorSketch};
use wavedens::prelude::{seeded_rng, DependenceCase, SineUniformMixture, WaveletFamily};

const ROWS: usize = 1 << 14;
const THREADS: usize = 4;
const LOADS_PER_THREAD: usize = 10;
const SHARD_COUNTS: [usize; 2] = [2, 4];

/// The paper's Case 2 (expanding map) with the sine+uniform marginal.
fn case2() -> &'static [f64] {
    static ROWS_CELL: OnceLock<Vec<f64>> = OnceLock::new();
    ROWS_CELL.get_or_init(|| {
        DependenceCase::ExpandingMap.simulate(
            &SineUniformMixture::paper(),
            ROWS,
            &mut seeded_rng(16),
        )
    })
}

/// Lag pairs `(x_t, x_{t+1})` of the Case-2 series (the last one wraps
/// around), for the joint path.
fn case2_pairs() -> Vec<(f64, f64)> {
    let rows = case2();
    rows.iter()
        .zip(rows.iter().cycle().skip(1))
        .map(|(&x, &y)| (x, y))
        .collect()
}

/// The single-threaded reference: contiguous share `i` of
/// `len.div_ceil(shards)` rows pushed into its own clone of the
/// template, then the shards merged in index order.
fn reference<S: MergeableSketch>(template: &S, rows: &[S::Row], shards: usize) -> S {
    let mut parts = rows.chunks(rows.len().div_ceil(shards)).map(|share| {
        let mut shard = template.clone();
        shard.push_rows(share);
        shard
    });
    let mut merged = parts.next().expect("a nonempty load");
    for part in parts {
        merged.merge(&part).expect("shards share the template");
    }
    merged
}

/// Runs `load` 10 times on each of 4 threads at once and requires all 40
/// frames to equal each other and `expected`.
fn assert_reproducible(label: &str, expected: &[u8], load: impl Fn() -> Vec<u8> + Sync) {
    let frames: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| scope.spawn(|| (0..LOADS_PER_THREAD).map(|_| load()).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("load thread panicked"))
            .collect()
    });
    assert_eq!(frames.len(), THREADS * LOADS_PER_THREAD);
    let distinct: HashSet<&Vec<u8>> = frames.iter().collect();
    let matches_reference = frames.iter().filter(|frame| *frame == expected).count();
    assert!(
        distinct.len() == 1 && matches_reference == frames.len(),
        "{label}: {} distinct frames out of {}, {matches_reference} equal to the \
         single-threaded reference",
        distinct.len(),
        frames.len()
    );
}

#[test]
fn sharded_marginal_loads_are_bitwise_reproducible() {
    let rows = case2();
    let template = CoefficientSketch::sized_for(ROWS).unwrap();
    for shards in SHARD_COUNTS {
        let expected = reference(&template, rows, shards).to_bytes();
        assert_reproducible(&format!("sharded, {shards} shards"), &expected, || {
            let ingest = ShardedIngest::new(&template, shards).unwrap();
            ingest.ingest_parallel(rows);
            assert_eq!(ingest.total_count(), ROWS);
            ingest.merged().unwrap().to_bytes()
        });
        // A landmark synopsis keeps one-slice rings in the same ingest;
        // its fold must give the same bits as the plain shards.
        let config = SynopsisConfig::default()
            .with_expected_rows(ROWS)
            .with_shards(shards);
        assert_reproducible(&format!("landmark, {shards} shards"), &expected, || {
            let synopsis = AttributeSynopsis::new(&config).unwrap();
            synopsis.ingest_parallel(rows);
            assert_eq!(synopsis.rows(), ROWS);
            synopsis.merged_sketch().unwrap().to_bytes()
        });
    }
}

#[test]
fn windowed_loads_are_bitwise_reproducible() {
    let rows = case2();
    let template = CoefficientSketch::sized_for(ROWS).unwrap();
    let policy = WindowPolicy::SlidingSlices(4);
    for shards in SHARD_COUNTS {
        let expected = reference(&template, rows, shards).to_bytes();
        assert_reproducible(&format!("windowed, {shards} shards"), &expected, || {
            let ingest = WindowedIngest::new(&template, shards, policy).unwrap();
            ingest.ingest_parallel(rows);
            assert_eq!(ingest.total_count(), ROWS);
            ingest.merged().unwrap().to_bytes()
        });
    }
}

#[test]
fn sharded_pair_loads_are_bitwise_reproducible() {
    let pairs = case2_pairs();
    // The levels `sized_for_pairs(2^14)` picks (j0 = 2, j_max = 8, budget
    // 10), on a Daubechies-2 basis: 9 slots per level pair instead of
    // Symmlet-8's 225 keeps the unoptimised build quick, and its
    // irrational basis values make the sums depend on the addition order
    // just the same.
    let template = TensorSketch::new_2d(
        WaveletFamily::Daubechies(2),
        (0.0, 1.0),
        (0.0, 1.0),
        2,
        8,
        10,
    )
    .unwrap();
    for shards in SHARD_COUNTS {
        let expected = reference(&template, &pairs, shards).to_bytes();
        assert_reproducible(&format!("pairs, {shards} shards"), &expected, || {
            let ingest: ShardedIngest<TensorSketch> =
                ShardedIngest::new(&template, shards).unwrap();
            ingest.ingest_parallel(&pairs);
            assert_eq!(ingest.total_count(), ROWS);
            ingest.merged().unwrap().to_bytes()
        });
        let policy = WindowPolicy::SlidingSlices(4);
        assert_reproducible(
            &format!("windowed pairs, {shards} shards"),
            &expected,
            || {
                let ingest = WindowedIngest::new(&template, shards, policy).unwrap();
                ingest.ingest_parallel(&pairs);
                assert_eq!(ingest.total_count(), ROWS);
                ingest.merged().unwrap().to_bytes()
            },
        );
    }
}
