//! The 2-D sketch kind of [`Synopsis`]: an attribute *pair*'s synopsis
//! over a sharded tensor sketch.
//!
//! A query optimiser that multiplies two marginal selectivities assumes
//! the attributes are independent; on correlated columns (`y ≈ x`, say)
//! that product can be off by an order of magnitude. A [`JointSynopsis`]
//! accumulates `(x, y)` row pairs into a sharded [`TensorSketch`] — the
//! dimension-generic sibling of the 1-D coefficient sketch — and its
//! [`RefreshedJoint`] snapshot answers `selectivity((a₁, b₁), (a₂, b₂))`
//! from a precomputed joint CDF grid by inclusion–exclusion of four
//! corner lookups, capturing exactly the correlation the independence
//! assumption throws away.
//!
//! Everything but the snapshot is the generic [`Synopsis`] machinery,
//! shared with the 1-D [`AttributeSynopsis`](crate::AttributeSynopsis):
//! the sharded ingest, the cache and its refresh, and the window
//! policies. A windowed pair keeps a ring of
//! tensor-sketch slices per shard and retires old slices through
//! [`Synopsis::advance`], so the lag pairs `(X_t, X_{t+h})` of a stream
//! whose regime drifts are tracked the way a windowed marginal is.

use crate::synopsis::{Synopsis, SynopsisConfig, SynopsisSketch};
use wavedens_core::{
    CompactionPolicy, EstimatorError, TensorCumulative, TensorEstimate, TensorSketch, ThresholdRule,
};

/// Per-axis resolution cap of the joint CDF grid: a full-resolution 1-D
/// table squared would be ~16M nodes; 257² ≈ 66k nodes answers rectangle
/// queries to well below the estimation error.
const MAX_JOINT_CDF_POINTS: usize = 257;

/// One attribute pair's synopsis: the 2-D [`Synopsis`] over a
/// [`TensorSketch`] of `(x, y)` row pairs, landmark or windowed (a
/// windowed pair retires old slices through [`Synopsis::advance`]).
pub type JointSynopsis = Synopsis<TensorSketch>;

/// The refreshed state of a joint synopsis: the thresholded 2-D tensor
/// estimate plus its precomputed joint CDF grid. Immutable once built;
/// shared with readers via [`Arc`](std::sync::Arc).
#[derive(Debug, Clone)]
pub struct RefreshedJoint {
    estimate: TensorEstimate,
    cumulative: TensorCumulative,
}

impl RefreshedJoint {
    /// Runs the joint model-selection pipeline (level-wise CV thresholds
    /// over the flattened tensor levels + joint CDF grid construction) on
    /// an accumulation state.
    pub fn build(
        sketch: &TensorSketch,
        rule: ThresholdRule,
        cdf_points: usize,
    ) -> Result<Self, EstimatorError> {
        let estimate = sketch.thresholded(rule)?;
        let cumulative = estimate.cumulative(cdf_points, cdf_points);
        Ok(Self {
            estimate,
            cumulative,
        })
    }

    /// The thresholded joint density estimate.
    pub fn estimate(&self) -> &TensorEstimate {
        &self.estimate
    }

    /// The precomputed joint CDF grid.
    pub fn cumulative(&self) -> &TensorCumulative {
        &self.cumulative
    }

    /// Estimated joint selectivity `P(x ∈ x_range, y ∈ y_range)`; O(1)
    /// from the CDF grid (four bilinear corner lookups), normalised by
    /// the grid's total mass exactly as the 1-D synopsis normalises its
    /// range masses.
    pub fn selectivity(&self, x_range: (f64, f64), y_range: (f64, f64)) -> f64 {
        self.cumulative.selectivity(x_range, y_range)
    }
}

/// The 2-D kind: `(x, y)` rows, a per-axis CDF grid clamped to
/// `[2, 257]` points, and no incremental rebuild cache.
impl SynopsisSketch for TensorSketch {
    type Snapshot = RefreshedJoint;
    type RebuildCache = ();

    fn template(config: &SynopsisConfig) -> Result<Self, EstimatorError> {
        Self::sized_for_pairs(config.expected_rows.max(16))
    }

    fn snapshot(
        &self,
        config: &SynopsisConfig,
        _: &mut (),
    ) -> Result<RefreshedJoint, EstimatorError> {
        let cdf_points = config.cdf_points.clamp(2, MAX_JOINT_CDF_POINTS);
        RefreshedJoint::build(self, config.rule, cdf_points)
    }

    fn compact(
        &self,
        policy: CompactionPolicy,
        rule: ThresholdRule,
    ) -> Result<Self, EstimatorError> {
        TensorSketch::compact(self, policy, rule)
    }

    fn to_bytes(&self) -> Vec<u8> {
        TensorSketch::to_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synopsis::tests::{
        check_cached_read_path_never_rebuilds, check_clone_epoch_never_claims_unseen_batches,
        check_panicked_rebuild_thread_does_not_poison_queries, Kind,
    };
    use rand::Rng;
    use std::sync::Arc;
    use wavedens_core::WindowPolicy;
    use wavedens_processes::seeded_rng;

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

    fn config(shards: usize) -> SynopsisConfig {
        // Hard thresholding: shipped frames then carry coefficient-sparse
        // payloads (the survivors ship verbatim), which the round-trip
        // test's shrink assertion relies on.
        SynopsisConfig::default()
            .with_expected_rows(4096)
            .with_shards(shards)
            .with_rule(wavedens_core::ThresholdRule::Hard)
    }

    impl Kind for TensorSketch {
        fn config(shards: usize) -> SynopsisConfig {
            config(shards)
        }

        fn rows(n: usize, seed: u64) -> Vec<(f64, f64)> {
            correlated(n, seed, 0.1)
        }

        fn try_query(joint: &JointSynopsis, lo: f64, hi: f64) -> Result<f64, EstimatorError> {
            joint.try_query(&[(lo, hi), (lo, hi)], |j| j.selectivity((lo, hi), (lo, hi)))
        }

        fn query_cached(joint: &JointSynopsis, lo: f64, hi: f64) -> Option<f64> {
            joint
                .cached()
                .map(|snapshot| snapshot.selectivity((lo, hi), (lo, hi)))
        }
    }

    #[test]
    fn empty_joint_answers_zero_without_rebuilding() {
        let joint = JointSynopsis::new(&config(2)).unwrap();
        let answer = joint
            .refresh()
            .unwrap()
            .map_or(0.0, |j| j.selectivity((0.2, 0.8), (0.2, 0.8)));
        assert_eq!(answer, 0.0);
        assert_eq!(joint.rows(), 0);
        assert_eq!(joint.rebuild_count(), 0);
        assert!(joint.refresh().unwrap().is_none());
    }

    #[test]
    fn stale_cache_burst_rebuilds_exactly_once() {
        let joint = JointSynopsis::new(&config(2)).unwrap();
        joint.ingest_parallel(&correlated(4096, 1, 0.05));
        assert_eq!(joint.rebuild_count(), 0, "ingest must stay lazy");
        for i in 0..25 {
            let lo = i as f64 / 50.0;
            let s = joint
                .refresh()
                .unwrap()
                .unwrap()
                .selectivity((lo, lo + 0.3), (lo, lo + 0.3));
            assert!((0.0..=1.0).contains(&s));
        }
        assert_eq!(joint.rebuild_count(), 1);
        joint.ingest(&[(0.5, 0.5)]);
        for _ in 0..10 {
            joint
                .refresh()
                .unwrap()
                .unwrap()
                .selectivity((0.1, 0.9), (0.1, 0.9));
        }
        assert_eq!(joint.rebuild_count(), 2);
    }

    #[test]
    fn correlated_data_beats_the_independence_assumption() {
        // y tracks x closely, so the mass of a diagonal square is ~ its
        // side length, while independence predicts the side squared.
        let joint = JointSynopsis::new(&config(4)).unwrap();
        joint.ingest_parallel(&correlated(8192, 2, 0.05));
        let s = joint
            .refresh()
            .unwrap()
            .unwrap()
            .selectivity((0.3, 0.55), (0.3, 0.55));
        assert!(
            s > 0.15,
            "diagonal square must hold ~a quarter of the mass, got {s}"
        );
        // An anti-diagonal square holds almost nothing.
        let off = joint
            .refresh()
            .unwrap()
            .unwrap()
            .selectivity((0.05, 0.3), (0.6, 0.9));
        assert!(off < 0.05, "off-diagonal mass {off}");
    }

    #[test]
    fn uncorrelated_data_matches_the_product_of_marginals() {
        let mut rng = seeded_rng(3);
        let rows: Vec<(f64, f64)> = (0..4096).map(|_| (rng.gen(), rng.gen())).collect();
        let joint = JointSynopsis::new(&config(2)).unwrap();
        joint.ingest_parallel(&rows);
        let s = joint
            .refresh()
            .unwrap()
            .unwrap()
            .selectivity((0.2, 0.6), (0.3, 0.8));
        assert!((s - 0.4 * 0.5).abs() < 0.05, "independent uniforms: {s}");
    }

    /// Joints take window policies; invalid window parameters are
    /// rejected as they are for marginal synopses.
    #[test]
    fn windowed_configs_are_rejected() {
        for bad in [
            WindowPolicy::SlidingSlices(0),
            WindowPolicy::ExponentialDecay(1.5),
        ] {
            assert!(matches!(
                JointSynopsis::new(&config(2).with_window(bad)),
                Err(EstimatorError::InvalidParameter { .. })
            ));
        }
    }

    /// The 2-D twin of the marginal regime-change test: after the ring
    /// retires the correlated slice, the pair tracks only the
    /// anti-correlated regime.
    #[test]
    fn windowed_joint_forgets_retired_slices() {
        let windowed =
            JointSynopsis::new(&config(2).with_window(WindowPolicy::SlidingSlices(2))).unwrap();
        assert_eq!(windowed.window_policy(), WindowPolicy::SlidingSlices(2));
        let diagonal = ((0.05, 0.3), (0.05, 0.3));
        windowed.ingest_parallel(&correlated(4096, 40, 0.05));
        let snapshot = windowed.refresh().unwrap().unwrap();
        assert!(snapshot.selectivity(diagonal.0, diagonal.1) > 0.15);
        assert!(windowed.advance());
        let anti: Vec<(f64, f64)> = correlated(4096, 41, 0.05)
            .into_iter()
            .map(|(x, y)| (x, 1.0 - y))
            .collect();
        windowed.ingest_parallel(&anti);
        assert!(windowed.advance());
        assert_eq!(windowed.rows(), 4096, "retired pairs leave the count");
        // The diagonal square now holds almost nothing; the matching
        // anti-diagonal square holds about a quarter of the mass.
        let snapshot = windowed.refresh().unwrap().unwrap();
        assert!(snapshot.selectivity(diagonal.0, diagonal.1) < 0.05);
        assert!(snapshot.selectivity((0.05, 0.3), (0.7, 0.95)) > 0.15);
        // A landmark joint keeps no slices.
        let landmark = JointSynopsis::new(&config(1)).unwrap();
        assert!(!landmark.advance());
        assert!(landmark.ship_window_slice().is_err());
    }

    /// Decay-weighted joints scale old pairs instead of dropping them: the
    /// merged count is the λ-weighted sum of the slice counts.
    #[test]
    fn decayed_joint_weights_slices_geometrically() {
        let joint = JointSynopsis::new(&config(2).with_window(WindowPolicy::ExponentialDecay(0.5)))
            .unwrap();
        joint.ingest(&correlated(800, 42, 0.1));
        joint.advance();
        joint.ingest(&correlated(300, 43, 0.1));
        assert_eq!(joint.rows(), 1100);
        // 300·λ⁰ + 800·λ¹ at λ = 1/2.
        assert_eq!(joint.merged_sketch().unwrap().count(), 300 + 400);
    }

    /// A windowed pair ships its current slice as a 2-D windowed frame.
    #[test]
    fn windowed_joint_ships_its_current_slice() {
        let joint =
            JointSynopsis::new(&config(2).with_window(WindowPolicy::SlidingSlices(3))).unwrap();
        joint.ingest(&correlated(600, 44, 0.1));
        joint.advance();
        joint.ingest(&correlated(250, 45, 0.1));
        let frame = joint.ship_window_slice().unwrap();
        let (slice, meta) = TensorSketch::from_bytes_with_window(&frame).unwrap();
        assert_eq!((slice.dims(), slice.count()), (2, 250));
        let meta = meta.expect("windowed frames carry window metadata");
        assert_eq!((meta.slice_age, meta.ring_slices, meta.advances), (0, 3, 1));
        assert_eq!(meta.decay_lambda, 1.0);
    }

    #[test]
    fn shipped_joint_frames_round_trip() {
        let joint = JointSynopsis::new(&config(2)).unwrap();
        joint.ingest_parallel(&correlated(4096, 5, 0.05));
        let frame = joint.ship(CompactionPolicy::InactiveTail).unwrap();
        let restored = TensorSketch::from_bytes(&frame).unwrap();
        assert_eq!(restored.count(), 4096);
        assert_eq!(restored.dims(), 2);
        // The restored sketch estimates like the local merged state.
        let local = joint
            .merged_sketch()
            .unwrap()
            .thresholded(joint.rule())
            .unwrap()
            .cumulative(65, 65);
        let remote = restored
            .thresholded(joint.rule())
            .unwrap()
            .cumulative(65, 65);
        let q = ((0.25, 0.75), (0.25, 0.75));
        assert_eq!(local.selectivity(q.0, q.1), remote.selectivity(q.0, q.1));
        // The compacted frame is much smaller than the dense framing.
        let dense = joint.merged_sketch().unwrap().to_bytes_dense();
        assert!(
            dense.len() >= 5 * frame.len(),
            "dense {} vs shipped {}",
            dense.len(),
            frame.len()
        );
    }

    #[test]
    fn nan_bounds_error_on_the_fallible_path() {
        let joint = JointSynopsis::new(&config(1)).unwrap();
        joint.ingest(&correlated(512, 6, 0.1));
        let try_joint_selectivity =
            |x: (f64, f64), y: (f64, f64)| joint.try_query(&[x, y], |j| j.selectivity(x, y));
        assert!(matches!(
            try_joint_selectivity((f64::NAN, 0.5), (0.0, 1.0)),
            Err(EstimatorError::InvalidQueryBounds { .. })
        ));
        assert!(matches!(
            try_joint_selectivity((0.0, 1.0), (0.5, f64::NAN)),
            Err(EstimatorError::InvalidQueryBounds { .. })
        ));
        let snapshot = joint.refresh().unwrap().unwrap();
        assert_eq!(snapshot.selectivity((f64::NAN, 0.5), (0.0, 1.0)), 0.0);
        // Reversed ranges normalise to zero mass, not an error.
        assert_eq!(try_joint_selectivity((0.9, 0.1), (0.0, 1.0)).unwrap(), 0.0);
    }

    #[test]
    fn clone_preserves_cache_and_counters() {
        let joint = JointSynopsis::new(&config(2)).unwrap();
        joint.ingest(&correlated(1024, 7, 0.1));
        let s = joint
            .refresh()
            .unwrap()
            .unwrap()
            .selectivity((0.2, 0.7), (0.2, 0.7));
        let clone = joint.clone();
        assert_eq!(clone.rebuild_count(), 1);
        assert_eq!(clone.rows(), 1024);
        let cloned = clone.refresh().unwrap().unwrap();
        assert_eq!(cloned.selectivity((0.2, 0.7), (0.2, 0.7)), s);
        assert_eq!(clone.rebuild_count(), 1, "clone reuses the cached grid");
    }

    #[test]
    fn readers_see_the_old_snapshot_until_refresh() {
        let joint = JointSynopsis::new(&config(2)).unwrap();
        joint.ingest(&correlated(1024, 8, 0.1));
        let first = joint.refresh().unwrap().unwrap();
        joint.ingest(&[(0.5, 0.5); 16]);
        let again = joint.refresh().unwrap().unwrap();
        assert!(!Arc::ptr_eq(&first, &again), "stale cache must rebuild");
        let third = joint.refresh().unwrap().unwrap();
        assert!(Arc::ptr_eq(&again, &third));
        assert_eq!(joint.rebuild_count(), 2);
    }

    /// A one-shard joint fed batches of at least 256 pairs holds, bit for
    /// bit, the sketch `push_pairs` over the same batches gives.
    #[test]
    fn one_shard_ingest_is_bitwise_the_single_stream_sketch() {
        let rows = correlated(2400, 43, 0.1);
        let joint = JointSynopsis::new(&config(1)).unwrap();
        let mut single = TensorSketch::template(&config(1)).unwrap();
        for batch in rows.chunks(600) {
            joint.ingest(batch);
            single.push_pairs(batch);
        }
        assert_eq!(joint.merged_sketch().unwrap().to_bytes(), single.to_bytes());
    }

    #[test]
    fn cached_read_path_never_rebuilds() {
        check_cached_read_path_never_rebuilds::<TensorSketch>(|_| {});
    }

    #[test]
    fn clone_epoch_never_claims_unseen_batches() {
        check_clone_epoch_never_claims_unseen_batches::<TensorSketch>();
    }

    #[test]
    fn panicked_rebuild_thread_does_not_poison_queries() {
        check_panicked_rebuild_thread_does_not_poison_queries::<TensorSketch>();
    }
}
