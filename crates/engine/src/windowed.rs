//! Windowed sketch ingestion: [`WindowedIngest`], a [`ShardedIngest`]
//! built from a windowed [`WindowPolicy`].
//!
//! Every shard of a [`ShardedIngest`] is a ring of time slices, for 1-D
//! and 2-D sketches alike; batches and bulk-load shares land in the
//! shard's *current* slice, scattered under that shard's lock
//! (round-robin placement for streaming batches, one task per shard for
//! bulk loads, the same row counter and poison repair — see the
//! [`sharded`](crate::sharded) module docs). [`advance_all`](ShardedIngest::advance_all) closes the
//! current time slice on every shard. Because all shards advance
//! together, the shard rings stay aligned slice-for-slice and the merged
//! window over all shards is the mergeable-sketch state over exactly the
//! rows of the live slices, folded through the ingest's [`WindowPolicy`].
//!
//! [`ShardedIngest::new`] builds the landmark form: one-slice rings that
//! never advance, folded under [`WindowPolicy::Landmark`] (weight 1,
//! bitwise a plain merge). [`WindowedIngest`] is the name for rings built
//! from a windowed policy.

use crate::sharded::{MergeableSketch, ShardedIngest};
use std::ops::Deref;
use wavedens_core::{CoefficientSketch, EstimatorError, WindowPolicy};

/// N per-shard windowed sketch rings with round-robin batch placement,
/// collective advance, and policy-weighted window merges: a
/// [`ShardedIngest`] built from a windowed [`WindowPolicy`], which it
/// dereferences to for ingest, merges and advances. Generic over the
/// sketch kind the rings slice, like [`ShardedIngest`].
#[derive(Debug, Clone)]
pub struct WindowedIngest<S: MergeableSketch = CoefficientSketch>(ShardedIngest<S>);

impl<S: MergeableSketch> WindowedIngest<S> {
    /// Creates `shards ≥ 1` shards, each a ring of the size `policy`
    /// calls for, every slice an empty clone of `template`. Fails on
    /// [`WindowPolicy::Landmark`] (no ring to keep — use
    /// [`ShardedIngest::new`]) and on invalid policy parameters or a
    /// nonempty template.
    pub fn new(template: &S, shards: usize, policy: WindowPolicy) -> Result<Self, EstimatorError> {
        if !policy.is_windowed() {
            return Err(EstimatorError::InvalidParameter {
                message: "a landmark ingest keeps no slice ring".to_string(),
            });
        }
        ShardedIngest::with_window(template, shards, policy).map(Self)
    }
}

impl<S: MergeableSketch> Deref for WindowedIngest<S> {
    type Target = ShardedIngest<S>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wavedens_core::TensorSketch;
    use wavedens_processes::seeded_rng;

    fn sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n).map(|_| rng.gen::<f64>()).collect()
    }

    fn template(n: usize) -> CoefficientSketch {
        CoefficientSketch::sized_for(n).unwrap()
    }

    #[test]
    fn landmark_policy_is_rejected() {
        assert!(WindowedIngest::new(&template(100), 2, WindowPolicy::Landmark).is_err());
        assert!(WindowedIngest::new(&template(100), 2, WindowPolicy::SlidingSlices(0)).is_err());
        assert!(
            WindowedIngest::new(&template(100), 2, WindowPolicy::ExponentialDecay(1.5)).is_err()
        );
    }

    /// Sliding window over all live slices, before any retirement, equals
    /// the plain sharded fit on the same rows.
    #[test]
    fn sliding_window_matches_lifetime_before_retirement() {
        let data = sample(1200, 21);
        let windowed =
            WindowedIngest::new(&template(1200), 2, WindowPolicy::SlidingSlices(4)).unwrap();
        for (i, chunk) in data.chunks(400).enumerate() {
            if i > 0 {
                windowed.advance_all();
            }
            windowed.ingest(chunk);
        }
        assert_eq!(windowed.total_count(), data.len());
        assert_eq!(windowed.advances(), 2);
        let mut single = template(1200);
        single.push_batch(&data);
        let merged = windowed.merged().unwrap();
        assert_eq!(merged.count(), single.count());
        let a = merged.snapshot().unwrap();
        let b = single.snapshot().unwrap();
        for (la, lb) in a.details().iter().zip(b.details()) {
            for (va, vb) in la.values.iter().zip(&lb.values) {
                assert!((va - vb).abs() < 1e-12 * (1.0 + vb.abs()));
            }
        }
    }

    /// Advancing past the ring size retires the oldest rows: the live
    /// count drops and the merged window covers only the survivors.
    #[test]
    fn advance_retires_the_oldest_slice() {
        let windowed =
            WindowedIngest::new(&template(1000), 1, WindowPolicy::SlidingSlices(2)).unwrap();
        windowed.ingest(&sample(100, 22));
        windowed.advance_all();
        windowed.ingest(&sample(60, 23));
        assert_eq!(windowed.total_count(), 160);
        // The 2-slice ring is full: this advance retires the 100-row
        // slice.
        let retired = windowed.advance_all();
        assert_eq!(retired, 100);
        assert_eq!(windowed.total_count(), 60);
        windowed.ingest(&sample(40, 24));
        assert_eq!(windowed.total_count(), 100);
        assert_eq!(windowed.merged().unwrap().count(), 100);
    }

    /// Decay-weighted windows scale retired history instead of dropping
    /// it: the merged count is the λ-weighted sum of slice counts.
    #[test]
    fn decay_window_weights_slices_geometrically() {
        let lambda = 0.5;
        let windowed =
            WindowedIngest::new(&template(1000), 1, WindowPolicy::ExponentialDecay(lambda))
                .unwrap();
        windowed.ingest(&sample(400, 25));
        windowed.advance_all();
        windowed.ingest(&sample(200, 26));
        // Weighted count: 200·λ⁰ + 400·λ¹ = 400.
        assert_eq!(windowed.merged().unwrap().count(), 400);
    }

    /// The current slice ships as a windowed frame that plain consumers read as
    /// an ordinary sketch and windowed consumers read with metadata.
    #[test]
    fn current_slice_ships_and_restores() {
        let windowed =
            WindowedIngest::new(&template(1000), 2, WindowPolicy::SlidingSlices(3)).unwrap();
        windowed.ingest(&sample(300, 27));
        windowed.advance_all();
        windowed.ingest(&sample(120, 28));
        let frame = windowed.ship_current_slice().unwrap();
        let plain = CoefficientSketch::from_bytes(&frame).unwrap();
        assert_eq!(plain.count(), 120);
        let (slice, meta) = CoefficientSketch::from_bytes_with_window(&frame).unwrap();
        let meta = meta.expect("windowed frame carries metadata");
        assert_eq!(slice.count(), 120);
        assert_eq!(meta.slice_age, 0);
        assert_eq!(meta.ring_slices, 3);
        assert_eq!(meta.advances, 1);
        assert_eq!(meta.decay_lambda, 1.0);
    }

    /// Regression for the row-counter drift: the counter used to move
    /// after the shard lock was released, so an advance could retire a
    /// batch before its rows were counted; the subtraction saturated at
    /// 0, the late bump then added the batch back, and `total_count()`
    /// reported rows that were gone, forever. One-slice sliding rings on
    /// one shard make every advance retire everything, so after a final
    /// advance the window — and the counter — must read 0.
    #[test]
    fn row_counter_follows_concurrent_advances() {
        for trial in 0..5 {
            let windowed =
                WindowedIngest::new(&template(64), 1, WindowPolicy::SlidingSlices(1)).unwrap();
            let rows = sample(20_000, 40 + trial);
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(|| {
                        for row in &rows {
                            windowed.ingest(std::slice::from_ref(row));
                        }
                    });
                }
                scope.spawn(|| {
                    for _ in 0..2_000 {
                        windowed.advance_all();
                    }
                });
            });
            windowed.advance_all();
            assert_eq!(windowed.merged().unwrap().count(), 0, "trial {trial}");
            assert_eq!(windowed.total_count(), 0, "trial {trial}");
        }
    }

    /// Joint rings shard like marginal ones: after retirements, a sliding
    /// window of `(x, y)` pairs over two shards is bitwise the merged
    /// frame of a fresh ingest fed only the surviving batches.
    #[test]
    fn sliding_pair_window_is_bitwise_the_fresh_ingest_on_survivors() {
        let mut rng = seeded_rng(50);
        let batches: Vec<Vec<(f64, f64)>> = (0..4)
            .map(|i| (0..600 + 100 * i).map(|_| (rng.gen(), rng.gen())).collect())
            .collect();
        let template = TensorSketch::sized_for_pairs(1024).unwrap();
        let policy = WindowPolicy::SlidingSlices(2);
        let fed = |batches: &[Vec<(f64, f64)>]| {
            let windowed = WindowedIngest::new(&template, 2, policy).unwrap();
            for (i, batch) in batches.iter().enumerate() {
                if i > 0 {
                    windowed.advance_all();
                }
                windowed.ingest_parallel(batch);
            }
            windowed
        };
        let windowed = fed(&batches);
        let fresh = fed(&batches[2..]);
        assert_eq!(windowed.total_count(), batches[2].len() + batches[3].len());
        assert_eq!(
            windowed.merged().unwrap().to_bytes(),
            fresh.merged().unwrap().to_bytes()
        );
    }
}
