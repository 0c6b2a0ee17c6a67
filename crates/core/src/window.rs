//! Windowed and decaying sketch rings for streaming workloads, and the
//! [`MergeableSketch`] contract the rings (and the engine's sharded
//! ingest) are generic over.
//!
//! A mergeable sketch can only merge — its sums add, never subtract — so
//! a single lifetime sketch models an append-forever stream and drifts
//! arbitrarily far from the *current* distribution under updates, deletes
//! or regime changes. The classic fix needs no subtraction at all:
//! time-slice the stream into a fixed ring of per-slice sketches
//! ([`WindowedSketch`]), retire the oldest slice wholesale on every
//! [`advance`](WindowedSketch::advance), and answer queries from a fold
//! over the live slices. "Subtracting" expired rows is just *not merging
//! their slice*, so the numerics stay the plain nonnegative-weight sums
//! the paper's estimator is built on. The ring holds 1-D
//! [`CoefficientSketch`] slices by default and [`TensorSketch`] slices
//! for the lag pairs `(X_t, X_{t+h})` of a joint synopsis.
//!
//! Two windowed read policies share the ring:
//!
//! * **Sliding window** ([`WindowPolicy::SlidingSlices`]): merge the `k`
//!   live slices at weight 1. The window estimate is *exactly* the
//!   mergeable-sketch fit on the surviving rows — bit-for-bit the state a
//!   fresh ring fed only those rows would hold.
//! * **Exponential decay** ([`WindowPolicy::ExponentialDecay`]): merge the
//!   slice of age `a` at weight `λᵃ` via
//!   [`MergeableSketch::merge_scaled`], smoothly down-weighting history
//!   instead of cliff-dropping it.
//!
//! [`WindowPolicy::Landmark`] is the no-window policy the rest of the
//! stack defaults to: one lifetime sketch, kept as a one-slice ring that
//! never advances.

use crate::error::EstimatorError;
use crate::sketch::CoefficientSketch;
use crate::tensor::TensorSketch;
use std::fmt::Debug;

/// Ring size used for [`WindowPolicy::ExponentialDecay`], where the
/// policy itself does not fix one: at 16 slices the oldest live slice
/// already carries weight `λ^15` (≈ 0.2 even at a gentle λ = 0.9), so a
/// deeper ring would spend memory on slices that barely register.
pub const DEFAULT_DECAY_SLICES: usize = 16;

/// How a synopsis weights history — the knob streaming workloads turn.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum WindowPolicy {
    /// No window: one lifetime sketch over everything ever ingested (the
    /// default, and the only policy before windowed rings existed).
    #[default]
    Landmark,
    /// A sliding window of the newest `k` time slices, each retired
    /// wholesale by an advance. Queries see exactly the rows of the live
    /// slices, equally weighted.
    SlidingSlices(usize),
    /// Exponential decay: the slice of age `a` contributes with weight
    /// `λᵃ` (λ in `(0, 1]`), over a ring of
    /// [`DEFAULT_DECAY_SLICES`] slices. Smaller λ forgets faster.
    ExponentialDecay(f64),
}

impl WindowPolicy {
    /// Validates the policy parameters: a sliding window needs at least
    /// one slice, a decay factor must be finite in `(0, 1]`.
    pub fn validate(&self) -> Result<(), EstimatorError> {
        match *self {
            Self::Landmark => Ok(()),
            Self::SlidingSlices(0) => Err(EstimatorError::InvalidParameter {
                message: "sliding window needs at least one slice".to_string(),
            }),
            Self::SlidingSlices(_) => Ok(()),
            Self::ExponentialDecay(lambda)
                if !lambda.is_finite() || lambda <= 0.0 || lambda > 1.0 =>
            {
                Err(EstimatorError::InvalidParameter {
                    message: format!("decay factor must be in (0, 1], got {lambda}"),
                })
            }
            Self::ExponentialDecay(_) => Ok(()),
        }
    }

    /// Ring size this policy maintains; `None` for
    /// [`Landmark`](Self::Landmark), which keeps no ring.
    pub fn ring_slices(&self) -> Option<usize> {
        match *self {
            Self::Landmark => None,
            Self::SlidingSlices(k) => Some(k),
            Self::ExponentialDecay(_) => Some(DEFAULT_DECAY_SLICES),
        }
    }

    /// Whether the policy maintains a slice ring at all.
    pub fn is_windowed(&self) -> bool {
        !matches!(self, Self::Landmark)
    }

    /// Merge weight of the slice `age` advances old (age 0 = current).
    /// `1.0` for every non-decaying policy.
    pub fn weight(&self, age: usize) -> f64 {
        match *self {
            Self::ExponentialDecay(lambda) => lambda.powi(age as i32),
            _ => 1.0,
        }
    }

    /// The decay factor, `1.0` for non-decaying policies — what a shipped
    /// slice records in its [`WindowSliceMeta`].
    pub fn decay_lambda(&self) -> f64 {
        match *self {
            Self::ExponentialDecay(lambda) => lambda,
            _ => 1.0,
        }
    }
}

/// Window metadata carried by a shipped slice frame (the window block of
/// the [wire format](crate::codec)), so a receiver can place the slice in
/// its own ring — or ignore it and read the frame as a plain sketch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSliceMeta {
    /// How many advances old the slice was when shipped (0 = the slice
    /// currently accumulating).
    pub slice_age: u32,
    /// Ring size at the sender.
    pub ring_slices: u32,
    /// The sender's advance counter at ship time — a logical clock that
    /// lets the receiver order slices from one sender.
    pub advances: u64,
    /// Decay factor of the sender's policy (`1.0` when not decaying).
    pub decay_lambda: f64,
}

/// The accumulation-state contract rings and sharded ingestion rely on:
/// a sketch whose state is a plain sum of per-row contributions, so that
/// any partition of the rows across instances merges back into exactly
/// the single-stream state. Implemented by the 1-D [`CoefficientSketch`]
/// (rows are scalars) and the 2-D [`TensorSketch`] (rows are `(x, y)`
/// pairs), which is what lets one ring and one ingest structure serve
/// both marginal and joint synopses.
pub trait MergeableSketch: Clone + Send + Sync + Debug {
    /// One observation: `f64` for marginal sketches, `(f64, f64)` for
    /// joint ones.
    type Row: Copy + Send + Sync;

    /// Observations accumulated so far.
    fn count(&self) -> usize;

    /// Whether no observation has been accumulated.
    fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Resets to the empty state in place, keeping allocations.
    fn clear(&mut self);

    /// A new empty sketch of the same geometry (basis, intervals, levels
    /// and budget) on fresh zeroed storage: unlike `clone` followed by
    /// `clear`, it copies no sums, and unlike a clone it shares no sums of
    /// squares with `self`. Its level stamps start at 0 and a 1-D sketch
    /// draws a fresh lineage, as from a constructor.
    fn empty_like(&self) -> Self;

    /// Accumulates a batch of rows.
    fn push_rows(&mut self, rows: &[Self::Row]);

    /// Adds `weight ×` a compatible sketch's accumulation state; bitwise
    /// [`merge`](Self::merge) at weight 1.
    fn merge_scaled(&mut self, other: &Self, weight: f64) -> Result<(), EstimatorError>;

    /// Overwrites this sketch with `weight ×` a compatible source,
    /// reusing allocations; bitwise a plain copy at weight 1.
    fn copy_scaled_from(&mut self, source: &Self, weight: f64) -> Result<(), EstimatorError>;

    /// Merges a compatible sketch (addition of accumulation state).
    fn merge(&mut self, other: &Self) -> Result<(), EstimatorError> {
        self.merge_scaled(other, 1.0)
    }

    /// Serializes the sketch as a frame carrying `meta` in its window
    /// block (see [`crate::codec`]).
    fn to_bytes_with_window(&self, meta: &WindowSliceMeta) -> Vec<u8>;
}

impl MergeableSketch for CoefficientSketch {
    type Row = f64;

    fn count(&self) -> usize {
        CoefficientSketch::count(self)
    }

    fn clear(&mut self) {
        CoefficientSketch::clear(self);
    }

    fn empty_like(&self) -> Self {
        CoefficientSketch::empty_like(self)
    }

    fn push_rows(&mut self, rows: &[f64]) {
        self.push_batch(rows);
    }

    fn merge_scaled(&mut self, other: &Self, weight: f64) -> Result<(), EstimatorError> {
        CoefficientSketch::merge_scaled(self, other, weight)
    }

    fn copy_scaled_from(&mut self, source: &Self, weight: f64) -> Result<(), EstimatorError> {
        CoefficientSketch::copy_scaled_from(self, source, weight)
    }

    fn to_bytes_with_window(&self, meta: &WindowSliceMeta) -> Vec<u8> {
        CoefficientSketch::to_bytes_with_window(self, meta)
    }
}

/// Joint (2-D) sketches slice and shard exactly like marginal ones; rows
/// are `(x, y)` pairs, so the sketch must be 2-dimensional
/// ([`TensorSketch::push_pairs`] checks).
impl MergeableSketch for TensorSketch {
    type Row = (f64, f64);

    fn count(&self) -> usize {
        TensorSketch::count(self)
    }

    fn clear(&mut self) {
        TensorSketch::clear(self);
    }

    fn empty_like(&self) -> Self {
        TensorSketch::empty_like(self)
    }

    fn push_rows(&mut self, rows: &[(f64, f64)]) {
        self.push_pairs(rows);
    }

    fn merge_scaled(&mut self, other: &Self, weight: f64) -> Result<(), EstimatorError> {
        TensorSketch::merge_scaled(self, other, weight)
    }

    fn copy_scaled_from(&mut self, source: &Self, weight: f64) -> Result<(), EstimatorError> {
        TensorSketch::copy_scaled_from(self, source, weight)
    }

    fn to_bytes_with_window(&self, meta: &WindowSliceMeta) -> Vec<u8> {
        TensorSketch::to_bytes_with_window(self, meta)
    }
}

/// A fixed ring of time-sliced mergeable sketches: 1-D
/// [`CoefficientSketch`]es by default, [`TensorSketch`]es for joints.
///
/// All ingestion lands in the *current* slice;
/// [`advance`](Self::advance) rotates the ring, retiring the oldest
/// slice (clearing it in place — no allocation) and starting a fresh
/// current slice. Queries fold the live slices through a
/// [`WindowPolicy`] into a single merged sketch. Until the ring has
/// wrapped once, only the slices actually started are live, so a young
/// ring never dilutes its estimate with never-used empty slices' stamps.
#[derive(Debug, Clone)]
pub struct WindowedSketch<S = CoefficientSketch> {
    slices: Vec<S>,
    /// Index of the current (age-0) slice.
    head: usize,
    /// Number of live slices: `1..=slices.len()`, growing by one per
    /// advance until the ring wraps.
    live: usize,
    /// Total advances performed — the ring's logical clock.
    advances: u64,
}

impl<S: MergeableSketch> WindowedSketch<S> {
    /// Creates a ring of `slices` empty clones of `template`. The
    /// template must itself be empty (a ring adopting half-accumulated
    /// state would mis-attribute those rows to the current time slice).
    pub fn new(template: &S, slices: usize) -> Result<Self, EstimatorError> {
        if slices == 0 {
            return Err(EstimatorError::InvalidParameter {
                message: "a windowed sketch needs at least one slice".to_string(),
            });
        }
        if !template.is_empty() {
            return Err(EstimatorError::InvalidParameter {
                message: format!(
                    "windowed sketch template must be empty, holds {} rows",
                    template.count()
                ),
            });
        }
        Ok(Self {
            slices: vec![template.clone(); slices],
            head: 0,
            live: 1,
            advances: 0,
        })
    }

    /// Creates the ring a policy calls for. Fails on
    /// [`WindowPolicy::Landmark`] (no ring to build) and on invalid
    /// policy parameters.
    pub fn from_policy(template: &S, policy: WindowPolicy) -> Result<Self, EstimatorError> {
        policy.validate()?;
        let slices = policy
            .ring_slices()
            .ok_or(EstimatorError::InvalidParameter {
                message: "a landmark synopsis keeps no slice ring".to_string(),
            })?;
        Self::new(template, slices)
    }

    /// Number of slices in the ring (live or not).
    pub fn ring_slices(&self) -> usize {
        self.slices.len()
    }

    /// Number of live slices: grows from 1 to the ring size as the
    /// stream's first advances happen, then stays there.
    pub fn live_slices(&self) -> usize {
        self.live
    }

    /// Total advances performed — the ring's logical clock.
    pub fn advances(&self) -> u64 {
        self.advances
    }

    /// Rows currently live across all slices.
    pub fn count(&self) -> usize {
        (0..self.live)
            .map(|age| self.slices[self.slot(age)].count())
            .sum()
    }

    /// Ring slot of the slice `age` advances old.
    fn slot(&self, age: usize) -> usize {
        debug_assert!(age < self.live);
        (self.head + self.slices.len() - age) % self.slices.len()
    }

    /// Read-only view of the slice `age` advances old (0 = current);
    /// `None` when the ring holds no slice that old yet.
    pub fn slice(&self, age: usize) -> Option<&S> {
        (age < self.live).then(|| &self.slices[self.slot(age)])
    }

    /// Ingests a batch into the current slice and returns the rows it
    /// accepted (the sketch skips rows with a non-finite coordinate).
    pub fn push_batch(&mut self, rows: &[S::Row]) -> usize {
        let current = &mut self.slices[self.head];
        let before = current.count();
        current.push_rows(rows);
        current.count() - before
    }

    /// Closes the current time slice and starts a fresh one, retiring the
    /// oldest slice when the ring is full (its rows leave the window).
    /// Clears the retired slice in place — no allocation. Returns the
    /// number of rows retired.
    pub fn advance(&mut self) -> usize {
        self.advances += 1;
        self.head = (self.head + 1) % self.slices.len();
        // When the ring has not wrapped yet the slot rotated into was
        // never live — nothing retires, the window just grows.
        let retired = if self.live < self.slices.len() {
            self.live += 1;
            0
        } else {
            self.slices[self.head].count()
        };
        self.slices[self.head].clear();
        retired
    }

    /// Folds the live slices through `policy` into `target`, oldest first
    /// (so the most-decayed contributions accumulate while small):
    /// overwriting `target` when `overwrite`, adding to its contents
    /// otherwise — what a multi-shard engine uses to fold several rings
    /// into one query sketch. Reuses `target`'s allocations; an
    /// overwrite advances its level stamps strictly, so caches keyed to
    /// it stay sound across advances.
    pub fn merge_window_into(
        &self,
        target: &mut S,
        policy: WindowPolicy,
        overwrite: bool,
    ) -> Result<(), EstimatorError> {
        policy.validate()?;
        for (i, age) in (0..self.live).rev().enumerate() {
            let (slice, weight) = (&self.slices[self.slot(age)], policy.weight(age));
            if overwrite && i == 0 {
                target.copy_scaled_from(slice, weight)?;
            } else {
                target.merge_scaled(slice, weight)?;
            }
        }
        Ok(())
    }

    /// The policy-weighted merged window as a standalone sketch. For
    /// [`WindowPolicy::SlidingSlices`] this is exactly the mergeable
    /// sketch over the surviving rows; for
    /// [`WindowPolicy::ExponentialDecay`] each slice enters at `λᵃ`.
    pub fn merged_window(&self, policy: WindowPolicy) -> Result<S, EstimatorError> {
        let mut merged = self.slices[self.head].empty_like();
        self.merge_window_into(&mut merged, policy, true)?;
        Ok(merged)
    }

    /// Serializes the slice `age` advances old as a windowed frame
    /// carrying [`WindowSliceMeta`]. Receivers without window support
    /// read it as a plain sketch (`from_bytes`).
    pub fn ship_slice(&self, age: usize, policy: WindowPolicy) -> Result<Vec<u8>, EstimatorError> {
        policy.validate()?;
        let slice = self
            .slice(age)
            .ok_or_else(|| EstimatorError::InvalidParameter {
                message: format!("no live slice of age {age} (ring holds {})", self.live),
            })?;
        let meta = WindowSliceMeta {
            slice_age: age as u32,
            ring_slices: self.slices.len() as u32,
            advances: self.advances,
            decay_lambda: policy.decay_lambda(),
        };
        Ok(slice.to_bytes_with_window(&meta))
    }

    /// [`clear`](Self::clear) that keeps the advance clock, so a ring
    /// emptied after a crash does not restart its logical time.
    pub fn clear_slices(&mut self) {
        let advances = self.advances;
        self.clear();
        self.advances = advances;
    }

    /// Resets the ring to its freshly-built state: every slice cleared,
    /// one live slice, advance clock back to zero.
    pub fn clear(&mut self) {
        for slice in &mut self.slices {
            slice.clear();
        }
        self.head = 0;
        self.live = 1;
        self.advances = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wavedens_processes::seeded_rng;

    fn sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n).map(|_| rng.gen::<f64>()).collect()
    }

    fn template() -> CoefficientSketch {
        CoefficientSketch::sized_for(1024).unwrap()
    }

    /// `empty_like` is a cleared clone without the copy: same geometry,
    /// same (empty) frame, every stamp 0, and a copy into it restores the
    /// source's frame.
    #[test]
    fn empty_like_is_a_cleared_clone_of_either_kind() {
        fn check<S: MergeableSketch>(full: &S, frame: impl Fn(&S) -> Vec<u8>) -> S {
            let empty = full.empty_like();
            let mut cleared = full.clone();
            cleared.clear();
            assert!(empty.is_empty());
            assert_eq!(frame(&empty), frame(&cleared));
            let mut refilled = empty.clone();
            refilled.copy_scaled_from(full, 1.0).unwrap();
            assert_eq!(frame(&refilled), frame(full));
            empty
        }
        let mut one = template();
        one.push_batch(&sample(300, 41));
        let empty = check(&one, CoefficientSketch::to_bytes_dense);
        assert!(empty.detail_versions().iter().all(|&v| v == 0));

        let mut two = TensorSketch::sized_for_pairs(256).unwrap();
        let xs = sample(200, 42);
        let pairs: Vec<(f64, f64)> = xs.iter().map(|&x| (x, 1.0 - x * x)).collect();
        two.push_pairs(&pairs);
        let empty = check(&two, TensorSketch::to_bytes_dense);
        assert!(empty.levels.iter().all(|l| l.version == 0));
    }

    #[test]
    fn policy_validation_and_weights() {
        assert!(WindowPolicy::Landmark.validate().is_ok());
        assert!(WindowPolicy::SlidingSlices(4).validate().is_ok());
        assert!(WindowPolicy::ExponentialDecay(0.5).validate().is_ok());
        assert!(WindowPolicy::ExponentialDecay(1.0).validate().is_ok());
        for bad in [
            WindowPolicy::SlidingSlices(0),
            WindowPolicy::ExponentialDecay(0.0),
            WindowPolicy::ExponentialDecay(-0.5),
            WindowPolicy::ExponentialDecay(1.5),
            WindowPolicy::ExponentialDecay(f64::NAN),
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(WindowPolicy::Landmark.ring_slices(), None);
        assert_eq!(WindowPolicy::SlidingSlices(3).ring_slices(), Some(3));
        assert_eq!(
            WindowPolicy::ExponentialDecay(0.9).ring_slices(),
            Some(DEFAULT_DECAY_SLICES)
        );
        assert!(!WindowPolicy::Landmark.is_windowed());
        assert!(WindowPolicy::SlidingSlices(1).is_windowed());
        assert_eq!(WindowPolicy::SlidingSlices(3).weight(5), 1.0);
        assert_eq!(WindowPolicy::ExponentialDecay(0.5).weight(0), 1.0);
        assert_eq!(WindowPolicy::ExponentialDecay(0.5).weight(2), 0.25);
        assert_eq!(WindowPolicy::default(), WindowPolicy::Landmark);
    }

    #[test]
    fn ring_construction_is_validated() {
        assert!(WindowedSketch::new(&template(), 0).is_err());
        let mut dirty = template();
        dirty.push_batch(&sample(8, 1));
        assert!(WindowedSketch::new(&dirty, 3).is_err());
        assert!(WindowedSketch::from_policy(&template(), WindowPolicy::Landmark).is_err());
        assert!(
            WindowedSketch::from_policy(&template(), WindowPolicy::ExponentialDecay(2.0)).is_err()
        );
        let ring =
            WindowedSketch::from_policy(&template(), WindowPolicy::SlidingSlices(3)).unwrap();
        assert_eq!(ring.ring_slices(), 3);
        assert_eq!(ring.live_slices(), 1);
        assert_eq!(ring.advances(), 0);
    }

    #[test]
    fn advances_grow_then_retire_in_fifo_order() {
        let mut ring = WindowedSketch::new(&template(), 3).unwrap();
        ring.push_batch(&sample(100, 2));
        assert_eq!(ring.advance(), 0, "a growing ring retires nothing");
        ring.push_batch(&sample(60, 3));
        assert_eq!(ring.advance(), 0);
        ring.push_batch(&sample(40, 4));
        assert_eq!(ring.live_slices(), 3);
        assert_eq!(ring.count(), 200);
        assert_eq!(ring.slice(0).unwrap().count(), 40);
        assert_eq!(ring.slice(2).unwrap().count(), 100);
        assert!(ring.slice(3).is_none());
        // Full ring: the next advances retire the oldest slices in order.
        assert_eq!(ring.advance(), 100);
        assert_eq!(ring.advance(), 60);
        assert_eq!(ring.advance(), 40);
        assert_eq!(ring.count(), 0);
        assert_eq!(ring.advances(), 5);
        ring.push_batch(&sample(10, 5));
        ring.clear_slices();
        assert_eq!(
            (ring.live_slices(), ring.advances(), ring.count()),
            (1, 5, 0)
        );
        ring.clear();
        assert_eq!((ring.live_slices(), ring.advances()), (1, 0));
    }

    #[test]
    fn sliding_fold_is_bitwise_the_fresh_fit_on_surviving_rows() {
        // Ring fed four batches with k = 2: after the retirements only the
        // last two batches survive. The folded window must be *bitwise*
        // the state of a fresh ring fed only those batches.
        let batches: Vec<Vec<f64>> = (0..4)
            .map(|i| sample(200 + 50 * i, 10 + i as u64))
            .collect();
        let mut ring = WindowedSketch::new(&template(), 2).unwrap();
        for (i, batch) in batches.iter().enumerate() {
            if i > 0 {
                ring.advance();
            }
            ring.push_batch(batch);
        }
        let mut fresh = WindowedSketch::new(&template(), 2).unwrap();
        fresh.push_batch(&batches[2]);
        fresh.advance();
        fresh.push_batch(&batches[3]);
        let policy = WindowPolicy::SlidingSlices(2);
        let a = ring.merged_window(policy).unwrap();
        let b = fresh.merged_window(policy).unwrap();
        assert_eq!(a.count(), b.count());
        assert_eq!(a.to_bytes(), b.to_bytes(), "sliding fold must be bitwise");
    }

    #[test]
    fn decayed_fold_weights_slices_geometrically() {
        let mut ring = WindowedSketch::new(&template(), 4).unwrap();
        ring.push_batch(&sample(400, 20));
        ring.advance();
        ring.push_batch(&sample(200, 21));
        let merged = ring
            .merged_window(WindowPolicy::ExponentialDecay(0.5))
            .unwrap();
        // 200·λ⁰ + 400·λ¹ at λ = 1/2.
        assert_eq!(merged.count(), 200 + 200);
        // Without `overwrite` the fold adds *into* existing mass instead.
        let mut acc = merged.clone();
        ring.merge_window_into(&mut acc, WindowPolicy::ExponentialDecay(0.5), false)
            .unwrap();
        assert_eq!(acc.count(), 800);
    }

    #[test]
    fn shipped_slices_round_trip_with_metadata() {
        let mut ring = WindowedSketch::new(&template(), 3).unwrap();
        ring.push_batch(&sample(150, 30));
        ring.advance();
        ring.push_batch(&sample(90, 31));
        let policy = WindowPolicy::ExponentialDecay(0.75);
        let frame = ring.ship_slice(1, policy).unwrap();
        let (slice, meta) = CoefficientSketch::from_bytes_with_window(&frame).unwrap();
        assert_eq!(slice.count(), 150);
        let meta = meta.expect("windowed frames carry window metadata");
        assert_eq!(meta.slice_age, 1);
        assert_eq!(meta.ring_slices, 3);
        assert_eq!(meta.advances, 1);
        assert_eq!(meta.decay_lambda, 0.75);
        // Plain readers see the same sketch, minus the metadata.
        assert_eq!(CoefficientSketch::from_bytes(&frame).unwrap().count(), 150);
        // Shipping a slice the ring does not hold yet fails cleanly.
        assert!(ring.ship_slice(2, policy).is_err());
    }

    /// Correlated lag-style pairs for the 2-D ring tests.
    fn pairs(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| {
                let x: f64 = rng.gen();
                (x, (x + 0.1 * rng.gen::<f64>()).rem_euclid(1.0))
            })
            .collect()
    }

    fn template_2d() -> TensorSketch {
        TensorSketch::sized_for_pairs(512).unwrap()
    }

    #[test]
    fn sliding_2d_fold_is_bitwise_the_fresh_fit_on_surviving_pairs() {
        // The 2-D twin of the 1-D test above: with k = 2 only the last two
        // of four pair batches survive, and the folded window must be
        // bitwise the frame of a fresh ring fed only those batches.
        let batches: Vec<Vec<(f64, f64)>> =
            (0..4).map(|i| pairs(150 + 40 * i, 40 + i as u64)).collect();
        let mut ring = WindowedSketch::new(&template_2d(), 2).unwrap();
        for (i, batch) in batches.iter().enumerate() {
            if i > 0 {
                ring.advance();
            }
            ring.push_batch(batch);
        }
        let mut fresh = WindowedSketch::new(&template_2d(), 2).unwrap();
        fresh.push_batch(&batches[2]);
        fresh.advance();
        fresh.push_batch(&batches[3]);
        let policy = WindowPolicy::SlidingSlices(2);
        let a = ring.merged_window(policy).unwrap();
        let b = fresh.merged_window(policy).unwrap();
        assert_eq!(a.count(), batches[2].len() + batches[3].len());
        assert_eq!(
            a.to_bytes(),
            b.to_bytes(),
            "sliding 2-D fold must be bitwise"
        );
    }

    #[test]
    fn decayed_2d_fold_weights_slices_geometrically() {
        let mut ring = WindowedSketch::new(&template_2d(), 4).unwrap();
        ring.push_batch(&pairs(400, 50));
        ring.advance();
        ring.push_batch(&pairs(100, 51));
        ring.advance();
        ring.push_batch(&pairs(60, 52));
        let merged = ring
            .merged_window(WindowPolicy::ExponentialDecay(0.5))
            .unwrap();
        // 60·λ⁰ + 100·λ¹ + 400·λ² at λ = 1/2.
        assert_eq!(merged.count(), 60 + 50 + 100);
        assert_eq!(ring.count(), 560, "the ring itself holds every live pair");
    }

    #[test]
    fn shipped_2d_slices_round_trip_with_metadata() {
        let mut ring = WindowedSketch::new(&template_2d(), 3).unwrap();
        ring.push_batch(&pairs(120, 60));
        ring.advance();
        ring.push_batch(&pairs(70, 61));
        let policy = WindowPolicy::SlidingSlices(3);
        let frame = ring.ship_slice(1, policy).unwrap();
        let (slice, meta) = TensorSketch::from_bytes_with_window(&frame).unwrap();
        assert_eq!(slice.dims(), 2);
        assert_eq!(slice.to_bytes(), ring.slice(1).unwrap().to_bytes());
        assert_eq!(
            meta,
            Some(WindowSliceMeta {
                slice_age: 1,
                ring_slices: 3,
                advances: 1,
                decay_lambda: 1.0,
            })
        );
        // Plain readers see the same sketch; a 1-D reader refuses it.
        assert_eq!(TensorSketch::from_bytes(&frame).unwrap().count(), 120);
        assert!(CoefficientSketch::from_bytes(&frame).is_err());
        // A plain frame carries no window block.
        let plain = ring.slice(0).unwrap().to_bytes();
        assert_eq!(
            TensorSketch::from_bytes_with_window(&plain).unwrap().1,
            None
        );
    }
}
