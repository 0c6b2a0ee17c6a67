//! Mergeable coefficient sketches — the accumulation state of the
//! estimator as a first-class, distributable object.
//!
//! The empirical coefficients `α̂_{j,k}`, `β̂_{j,k}` are sample means of
//! `δ_{j,k}(X_i)`, and the cross-validation criteria additionally need the
//! per-coefficient sums of squares. The *entire* estimator state is
//! therefore a classic mergeable sketch: per-level running sums, running
//! sums of squares and an observation count. Two sketches over the same
//! basis/interval/levels combine by plain addition of their sums (the
//! "weighted recombination" of the means happens implicitly when the
//! merged sums are divided by the merged count), which is **exactly**
//! equivalent to a single-stream fit on the concatenated data up to
//! floating-point summation order.
//!
//! This module separates that accumulation state ([`CoefficientSketch`])
//! from model selection (cross-validation + thresholding, still performed
//! downstream on a [`snapshot`](CoefficientSketch::snapshot)). Streaming
//! ingestion ([`push`](CoefficientSketch::push),
//! [`extend`](CoefficientSketch::extend)) and the batch coefficient
//! construction are thin layers over it, and the `wavedens-engine` crate builds sharded ingest
//! and multi-attribute synopsis catalogs on top. The sums themselves live
//! in a `dims = 1` [`TensorSketch`], the one store, scatter and merge
//! code of every sketch; this module adds the 1-D estimate and
//! compaction.
//!
//! Sketches also (de)serialize to a compact little-endian binary form
//! ([`to_bytes`](CoefficientSketch::to_bytes) /
//! [`from_bytes`](CoefficientSketch::from_bytes), the one format of
//! [`crate::codec`]) so synopses can be shipped between nodes and merged
//! where they land.

use crate::codec;
use crate::coefficients::EmpiricalCoefficients;
use crate::cv::{cross_validate, cross_validate_cached, CrossValidationResult, CvCache};
use crate::error::EstimatorError;
use crate::estimator::{ThresholdedLevel, WaveletDensityEstimate};
use crate::tensor::{TensorLevel, TensorSketch};
use crate::threshold::{ThresholdProfile, ThresholdRule};
use crate::window::WindowSliceMeta;
use std::sync::Arc;
use wavedens_wavelets::{WaveletBasis, WaveletFamily};

/// The mergeable accumulation state of the wavelet density estimator:
/// per-level running sums `Σ_i δ_{j,k}(X_i)`, running sums of squares
/// `Σ_i δ_{j,k}(X_i)²` and the observation count.
///
/// * [`push`](Self::push) / [`push_batch`](Self::push_batch) ingest
///   observations;
/// * [`merge`](Self::merge) combines two sketches over the same
///   configuration, exactly equivalent to a single-stream fit on the
///   concatenation of their inputs;
/// * [`snapshot`](Self::snapshot) produces the [`EmpiricalCoefficients`]
///   that the cross-validation + thresholding pipeline consumes, and
///   [`estimate`](Self::estimate) runs that pipeline;
/// * [`to_bytes`](Self::to_bytes) / [`from_bytes`](Self::from_bytes)
///   round-trip a compact binary form for shipping between nodes.
///
/// The sums are held by a `dims = 1` [`TensorSketch`]: the scaling level
/// `j0`, then the detail levels `j0..=j_max`.
#[derive(Debug)]
pub struct CoefficientSketch {
    inner: TensorSketch,
    /// Unique identifier of this sketch *instance*, never shared between
    /// two live sketches: every constructor (including [`Clone`]) draws a
    /// fresh one, and every content mutation strictly advances the
    /// per-level version stamps. Together the pair
    /// `(lineage, level version)` therefore identifies level contents
    /// unambiguously, which is what lets [`crate::cv::CvCache`] reuse
    /// cached per-level results without ever aliasing two different
    /// sketches that happen to share version numbers.
    lineage: u64,
}

impl Clone for CoefficientSketch {
    fn clone(&self) -> Self {
        // A clone is a *new* instance: it may diverge from the original
        // afterwards while reusing the same version numbers, so it must
        // not share the lineage tag caches key on.
        Self::wrap(self.inner.clone())
    }
}

impl CoefficientSketch {
    /// Creates an empty sketch on `interval` with scaling level `j0` and
    /// detail levels `j0..=j_max`, over the process-wide default-depth
    /// basis of `family` ([`WaveletBasis::shared`]).
    pub fn new(
        family: WaveletFamily,
        interval: (f64, f64),
        j0: i32,
        j_max: i32,
    ) -> Result<Self, EstimatorError> {
        Self::with_basis(WaveletBasis::shared(family)?, interval, j0, j_max)
    }

    /// Creates an empty sketch over a caller-supplied basis, e.g. one
    /// built with a non-default table depth. [`new`](Self::new) already
    /// shares one table per family, so this is not needed to avoid
    /// re-tabulating `φ`/`ψ`. Sketches merge only with sketches whose
    /// basis has the same family and table depth.
    pub fn with_basis(
        basis: Arc<WaveletBasis>,
        interval: (f64, f64),
        j0: i32,
        j_max: i32,
    ) -> Result<Self, EstimatorError> {
        TensorSketch::with_basis_1d(basis, interval, j0, j_max).map(Self::wrap)
    }

    fn wrap(inner: TensorSketch) -> Self {
        Self {
            inner,
            lineage: next_lineage(),
        }
    }

    /// Creates an empty sketch on `[0, 1]` sized for roughly `expected_n`
    /// observations with the paper's defaults (Symmlet 8, level rules of
    /// Theorem 3.1 / Section 5.1). Fails from `2^22` rows on, where the
    /// level set outgrows [`MAX_COEFFICIENT_SLOTS`](crate::MAX_COEFFICIENT_SLOTS).
    pub fn sized_for(expected_n: usize) -> Result<Self, EstimatorError> {
        let n = expected_n.max(2);
        let j0 = crate::estimator::default_coarse_level(n, 8);
        let j_max = crate::estimator::cv_max_level(n);
        Self::new(WaveletFamily::Symmlet(8), (0.0, 1.0), j0, j_max)
    }

    /// The wavelet basis the sketch accumulates in.
    pub fn basis(&self) -> &Arc<WaveletBasis> {
        self.inner.basis()
    }

    /// The estimation interval.
    pub fn interval(&self) -> (f64, f64) {
        self.inner.interval(0)
    }

    /// Number of observations accumulated.
    pub fn count(&self) -> usize {
        self.inner.count()
    }

    /// Whether the sketch has seen no observations.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The coarse scaling level `j0`.
    pub fn coarse_level(&self) -> i32 {
        self.inner.coarse_level()
    }

    /// The highest detail level accumulated.
    pub fn max_level(&self) -> i32 {
        self.inner.max_level()
    }

    /// The per-level dirty stamps of the detail levels, ordered from `j0`
    /// upwards — the `versions` input of
    /// [`cross_validate_cached`](crate::cv::cross_validate_cached()). A
    /// stamp moves (strictly monotonically for a fixed sketch lineage)
    /// whenever the level's sums may have changed; `0` means the level was
    /// never touched.
    pub fn detail_versions(&self) -> Vec<u64> {
        self.details().iter().map(|l| l.version).collect()
    }

    fn details(&self) -> &[TensorLevel] {
        &self.inner.levels[1..]
    }

    /// Overwrites this sketch with `source`'s accumulation state, reusing
    /// the existing allocations (the engine's refresh scratch relies on
    /// this to avoid re-allocating a full sketch per rebuild). The two
    /// sketches must be [compatible](Self::is_compatible). The target
    /// keeps its own lineage; its level stamps advance strictly, so
    /// caches keyed to it stay sound.
    pub fn copy_from(&mut self, source: &Self) -> Result<(), EstimatorError> {
        self.inner.copy_from(&source.inner)
    }

    /// Ingests one observation.
    pub fn push(&mut self, x: f64) {
        self.push_batch(std::slice::from_ref(&x));
    }

    /// Ingests a batch of observations through the strided-gather fast
    /// path: per `(observation, level)` pair one table gather evaluates
    /// every active translation with a shared interpolation weight
    /// (`WaveletTable::gather_phi/psi`), the dilation constants `2^j` and
    /// `√(2^j)` are hoisted out of the per-translation loop, and value +
    /// value² scatter from the gather buffer in one sweep. Large batches
    /// are processed in cache-friendly chunks so the chunk of observations
    /// stays resident while every level scatters it. Numerically identical
    /// to pushing the values one by one, and within 1e-12 relative of the
    /// scalar reference path
    /// [`push_batch_scalar`](Self::push_batch_scalar) (whose table
    /// arguments round once per translation instead of once per
    /// observation). NaN and ±∞ values are skipped and not counted; a
    /// finite value outside the interval counts toward `n` but adds no
    /// mass.
    pub fn push_batch(&mut self, values: &[f64]) {
        self.inner.push_scalars(values);
    }

    /// The scalar reference implementation of
    /// [`push_batch`](Self::push_batch): one `φ_{j,k}`/`ψ_{j,k}`
    /// evaluation per `(observation, translation)` pair, re-deriving the
    /// dilation constants per call. Agrees with the fast path to within
    /// 1e-12 relative — the equivalence suite and the `engine_throughput`
    /// bench pin the two against each other. Not for production
    /// ingestion.
    pub fn push_batch_scalar(&mut self, values: &[f64]) {
        self.inner.push_scalars_reference(values);
    }

    /// Resets the sketch to the empty state — zero observations, zero
    /// sums, all level stamps back to the never-touched 0 — while keeping
    /// every allocation, so a window ring can reuse a retired slice as its
    /// fresh one ([`WindowedSketch::advance`](crate::WindowedSketch::advance)
    /// does this).
    /// The cleared sketch adopts a fresh lineage: downstream caches can
    /// never alias pre- and post-clear contents, and merging a cleared,
    /// untouched level remains the no-op the version guard promises.
    pub fn clear(&mut self) {
        self.lineage = next_lineage();
        self.inner.clear();
    }

    /// An empty sketch of the same geometry on fresh zeroed storage, with
    /// a fresh lineage (see
    /// [`MergeableSketch::empty_like`](crate::MergeableSketch::empty_like)).
    pub(crate) fn empty_like(&self) -> Self {
        Self::wrap(self.inner.empty_like())
    }

    /// Ingests many observations via [`push_batch`](Self::push_batch),
    /// buffering the iterator in fixed-size chunks so arbitrarily long
    /// (or lazy) sources ingest with bounded memory.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for_each_batch(values, |chunk| self.push_batch(chunk));
    }

    /// Checks that `other` accumulates the same coefficients as `self`
    /// (same wavelet family, interval and resolution levels).
    pub fn is_compatible(&self, other: &Self) -> Result<(), EstimatorError> {
        self.inner.is_compatible(&other.inner)
    }

    /// Folds another sketch into this one. After the merge, `self` is
    /// exactly the sketch a single stream over the concatenation of both
    /// inputs would have produced (the raw sums and sums of squares add;
    /// the count-weighted recombination of the coefficient means happens
    /// when [`snapshot`](Self::snapshot) divides by the merged count).
    ///
    /// Fails with [`EstimatorError::IncompatibleSketches`] when the two
    /// sketches do not accumulate the same coefficients.
    pub fn merge(&mut self, other: &Self) -> Result<(), EstimatorError> {
        self.inner.merge(&other.inner)
    }

    /// Folds another sketch into this one with every contribution scaled
    /// by `weight` — the primitive behind exponential-decay windows: a
    /// slice merged at weight `λᵃ` counts as if each of its observations
    /// appeared `λᵃ` times. The raw sums, sums of squares and the
    /// observation count all scale (the count rounds to the nearest
    /// integer, saturating instead of overflowing).
    ///
    /// Invariant: `merge_scaled(other, 1.0)` is **bitwise** identical to
    /// [`merge`](Self::merge) — IEEE 754 multiplication by `1.0` is exact
    /// and the count scaling is exact for every count a sketch can hold.
    ///
    /// Fails with [`EstimatorError::IncompatibleSketches`] on mismatched
    /// sketches and [`EstimatorError::InvalidParameter`] when `weight` is
    /// negative, NaN or infinite.
    pub fn merge_scaled(&mut self, other: &Self, weight: f64) -> Result<(), EstimatorError> {
        self.inner.merge_scaled(&other.inner, weight)
    }

    /// [`copy_from`](Self::copy_from) with every copied sum and the count
    /// scaled by `weight` — the windowed refresh path uses it to seed a
    /// reusable scratch sketch with the oldest (most decayed) slice before
    /// [`merge_scaled`](Self::merge_scaled)-folding the newer ones on top.
    /// The target keeps its own lineage and its level stamps advance
    /// strictly, exactly like `copy_from`. Same weight validation as
    /// `merge_scaled`.
    pub fn copy_scaled_from(&mut self, source: &Self, weight: f64) -> Result<(), EstimatorError> {
        self.inner.copy_scaled_from(&source.inner, weight)
    }

    /// The empirical coefficients of everything accumulated so far — the
    /// input of the cross-validation + thresholding pipeline. Cheap: the
    /// sums of squares are shared by [`Arc`], only the coefficient means
    /// are materialised.
    pub fn snapshot(&self) -> Result<EmpiricalCoefficients, EstimatorError> {
        if self.is_empty() {
            return Err(EstimatorError::EmptySample);
        }
        let level = |index| self.inner.level_coefficients(index);
        Ok(EmpiricalCoefficients::from_parts(
            Arc::clone(self.basis()),
            self.count(),
            self.interval(),
            level(0),
            (1..self.inner.level_count()).map(level).collect(),
        ))
    }

    /// Runs the downstream model-selection pipeline (cross-validated
    /// per-level thresholds, data-driven `ĵ1`, thresholding) on the
    /// current accumulation state — equivalent to a batch CV fit with the
    /// same levels on the concatenation of everything pushed or merged in.
    pub fn estimate(&self, rule: ThresholdRule) -> Result<WaveletDensityEstimate, EstimatorError> {
        let coefficients = self.snapshot()?;
        let cv = cross_validate(&coefficients, rule);
        self.assemble_estimate(coefficients, cv, rule)
    }

    /// The delta-aware variant of [`estimate`](Self::estimate): feeds the
    /// per-level dirty stamps into
    /// [`cross_validate_cached`](crate::cv::cross_validate_cached()) so that
    /// levels unchanged since the cache was last filled skip the candidate
    /// scan, and dirty levels re-sort from the previous candidate order in
    /// near-linear time. Bitwise identical to `estimate(rule)` for any
    /// cache state.
    pub fn estimate_with_cache(
        &self,
        rule: ThresholdRule,
        cache: &mut CvCache,
    ) -> Result<WaveletDensityEstimate, EstimatorError> {
        let coefficients = self.snapshot()?;
        let versions = self.detail_versions();
        let cv = cross_validate_cached(&coefficients, rule, self.lineage, &versions, cache);
        self.assemble_estimate(coefficients, cv, rule)
    }

    /// Thresholds the snapshot with the cross-validated profile and packs
    /// the final estimate (shared tail of the two `estimate*` entry
    /// points).
    fn assemble_estimate(
        &self,
        coefficients: EmpiricalCoefficients,
        cv: CrossValidationResult,
        rule: ThresholdRule,
    ) -> Result<WaveletDensityEstimate, EstimatorError> {
        let profile: ThresholdProfile = cv.thresholds();
        let thresholded: Vec<ThresholdedLevel> = coefficients
            .details()
            .iter()
            .map(|level| {
                ThresholdedLevel::from_coefficients(level, rule, profile.level(level.level))
            })
            .collect();
        Ok(WaveletDensityEstimate::from_parts(
            Arc::clone(self.basis()),
            self.interval(),
            self.count(),
            rule,
            coefficients.scaling().clone(),
            thresholded,
            profile,
            cv.j1,
            Some(cv),
        ))
    }

    /// Returns a compacted copy of the sketch under `policy` (see
    /// [`CompactionPolicy`]); `rule` is the thresholding nonlinearity whose
    /// cross-validation decides which fine levels are provably inactive.
    ///
    /// With [`CompactionPolicy::InactiveTail`] the compacted sketch
    /// produces **pointwise-identical** estimates: every truncated level
    /// had an empty cross-validated active set, so it contributed exactly
    /// zero to the density (and the per-level CV of the remaining levels
    /// is unchanged — the criteria are level-separable). The byte-budget
    /// mode may additionally drop *active* fine levels and is therefore
    /// lossy; it never drops the scaling level or the coarsest detail
    /// level.
    ///
    /// A compacted sketch carries fewer levels, so it can only
    /// [`merge`](Self::merge) with sketches truncated to the same shape.
    pub fn compact(
        &self,
        policy: CompactionPolicy,
        rule: ThresholdRule,
    ) -> Result<Self, EstimatorError> {
        let mut compacted = self.clone();
        match policy {
            CompactionPolicy::Dense => {}
            CompactionPolicy::InactiveTail => compacted.truncate_inactive_tail(rule)?,
            CompactionPolicy::ByteBudget { max_bytes } => {
                compacted.truncate_inactive_tail(rule)?;
                // Best effort: drop the finest remaining (possibly active)
                // levels until the frame fits, keeping at least the
                // scaling level and one detail level.
                let keep = codec::levels_within(&compacted.inner, max_bytes);
                if keep < compacted.inner.levels.len() {
                    compacted.inner.truncate_details(keep - 1);
                }
            }
        }
        Ok(compacted)
    }

    /// Drops every detail level above the finest one whose cross-validated
    /// active set is nonempty. No-op on an empty sketch.
    fn truncate_inactive_tail(&mut self, rule: ThresholdRule) -> Result<(), EstimatorError> {
        if self.is_empty() {
            return Ok(());
        }
        let coefficients = self.snapshot()?;
        let cv = cross_validate(&coefficients, rule);
        let last_active = cv
            .levels
            .iter()
            .filter(|l| l.kept > 0)
            .map(|l| l.level)
            .max()
            .unwrap_or(self.coarse_level());
        let keep =
            ((last_active - self.coarse_level()).max(0) as usize + 1).min(self.details().len());
        self.inner.truncate_details(keep.max(1));
        Ok(())
    }

    /// Serializes the sketch to a compact [frame](crate::codec): all-zero
    /// levels are one cleared bitmap bit, the others ship dense or
    /// coefficient-sparse, whichever is smaller.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::encode(&self.inner, None, false)
    }

    /// Serializes with every level present and dense payloads — the
    /// uncompacted baseline compaction ratios are measured against.
    /// [`from_bytes`](Self::from_bytes) reads it like any other frame.
    pub fn to_bytes_dense(&self) -> Vec<u8> {
        codec::encode(&self.inner, None, true)
    }

    /// [`to_bytes`](Self::to_bytes) with the window block set to `meta`, so
    /// a receiver can place the slice in its own ring;
    /// [`from_bytes`](Self::from_bytes) validates and drops the metadata,
    /// [`from_bytes_with_window`](Self::from_bytes_with_window) returns it.
    pub fn to_bytes_with_window(&self, meta: &WindowSliceMeta) -> Vec<u8> {
        codec::encode(&self.inner, Some(meta), false)
    }

    /// Deserializes a frame of a 1-D sketch. A 2-D frame, a frame of
    /// another version, or any corrupted or hostile one is rejected with
    /// [`EstimatorError::InvalidSerialization`] — never a panic or an
    /// oversized allocation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EstimatorError> {
        Ok(Self::from_bytes_with_window(bytes)?.0)
    }

    /// [`from_bytes`](Self::from_bytes), additionally returning the
    /// [`WindowSliceMeta`] when the frame is a windowed slice; `None` for
    /// plain frames.
    pub fn from_bytes_with_window(
        bytes: &[u8],
    ) -> Result<(Self, Option<WindowSliceMeta>), EstimatorError> {
        let (inner, window) = codec::decode(bytes, 1)?;
        Ok((Self::wrap(inner), window))
    }
}

/// Feeds `values` to `flush` in fixed-size batches so arbitrarily long
/// (or lazy) sources are consumed with bounded memory. The single home of
/// the streaming chunk policy, shared by [`CoefficientSketch::extend`]
/// and the engine crate's streaming ingestion. The trailing (possibly
/// empty) batch is flushed too; batch consumers treat an empty slice as a
/// no-op.
pub fn for_each_batch<I: IntoIterator<Item = f64>>(values: I, mut flush: impl FnMut(&[f64])) {
    const CHUNK: usize = 1024;
    let mut buffer = Vec::with_capacity(CHUNK);
    for x in values {
        buffer.push(x);
        if buffer.len() == CHUNK {
            flush(&buffer);
            buffer.clear();
        }
    }
    flush(&buffer);
}

/// How [`CoefficientSketch::compact`] shrinks a sketch before shipping.
///
/// The cross-validation criterion of Section 5.1 is level-separable, so a
/// detail level whose optimal active set is empty (criterion identically
/// zero) contributes *nothing* to the estimate — shipping its dense sums
/// is pure overhead. At the paper's n = 8192 workload the dense frame is
/// ~265 KB while the CV keeps detail levels only up to `ĵ1 ≈ 5`, so
/// truncating the provably-inactive tail shrinks shipped synopses by
/// roughly an order of magnitude with pointwise-identical estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionPolicy {
    /// No truncation: every accumulated level is kept (all-zero levels
    /// are still elided by the frame's presence bitmap).
    Dense,
    /// Drop every detail level above the finest one whose cross-validated
    /// active set is nonempty. Lossless: the truncated levels were
    /// thresholded to zero wholesale, so estimates from the compacted
    /// sketch are pointwise identical.
    InactiveTail,
    /// [`InactiveTail`](Self::InactiveTail), then keep dropping the finest
    /// remaining levels until the serialized frame fits `max_bytes`.
    /// Best-effort and potentially lossy: it may drop levels with active
    /// coefficients, and it never drops the scaling level or the coarsest
    /// detail level (the frame may therefore still exceed a very small
    /// budget).
    ByteBudget {
        /// Target frame size in bytes.
        max_bytes: usize,
    },
}

/// Rejects scale weights that would corrupt the sums: decay weights must
/// be finite and nonnegative (zero is allowed — it merges nothing, which
/// is how a fully decayed slice drops out).
pub(crate) fn validate_merge_weight(weight: f64) -> Result<(), EstimatorError> {
    if !weight.is_finite() || weight < 0.0 {
        return Err(EstimatorError::InvalidParameter {
            message: format!("merge weight must be finite and nonnegative, got {weight}"),
        });
    }
    Ok(())
}

/// The observation count of a `weight`-scaled contribution, rounded to
/// the nearest integer and saturating at `usize::MAX`. Exact at
/// `weight == 1.0` for every representable count (counts are far below
/// 2^53).
pub(crate) fn scaled_count(count: usize, weight: f64) -> usize {
    if weight == 1.0 {
        return count;
    }
    (weight * count as f64).round() as usize
}

/// Issues process-unique sketch lineage tags (see
/// `CoefficientSketch::lineage`).
fn next_lineage() -> u64 {
    static LINEAGE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    LINEAGE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
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

    #[test]
    fn merge_matches_single_stream_sketch() {
        let data = sample(900, 1);
        let mut single = CoefficientSketch::sized_for(900).unwrap();
        single.push_batch(&data);
        let mut left = CoefficientSketch::sized_for(900).unwrap();
        let mut right = CoefficientSketch::sized_for(900).unwrap();
        left.push_batch(&data[..311]);
        right.push_batch(&data[311..]);
        left.merge(&right).unwrap();
        assert_eq!(left.count(), single.count());
        let a = left.snapshot().unwrap();
        let b = single.snapshot().unwrap();
        for (la, lb) in
            std::iter::once((a.scaling(), b.scaling())).chain(a.details().iter().zip(b.details()))
        {
            assert_eq!(la.k_start, lb.k_start);
            for (va, vb) in la.values.iter().zip(&lb.values) {
                assert!((va - vb).abs() < 1e-12 * (1.0 + vb.abs()), "{va} vs {vb}");
            }
            for (sa, sb) in la.sum_squares.iter().zip(lb.sum_squares.iter()) {
                assert!((sa - sb).abs() < 1e-12 * (1.0 + sb.abs()), "{sa} vs {sb}");
            }
        }
    }

    #[test]
    fn merge_of_empty_sketch_is_identity() {
        let data = sample(256, 2);
        let mut sketch = CoefficientSketch::sized_for(256).unwrap();
        sketch.push_batch(&data);
        let before = sketch.snapshot().unwrap().scaling().values.clone();
        let empty = CoefficientSketch::sized_for(256).unwrap();
        sketch.merge(&empty).unwrap();
        assert_eq!(sketch.count(), 256);
        assert_eq!(sketch.snapshot().unwrap().scaling().values, before);
    }

    #[test]
    fn incompatible_sketches_are_rejected() {
        let base = CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 1.0), 1, 5).unwrap();
        let mut probe = base.clone();
        let other_family =
            CoefficientSketch::new(WaveletFamily::Daubechies(4), (0.0, 1.0), 1, 5).unwrap();
        let other_interval =
            CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 2.0), 1, 5).unwrap();
        let other_levels =
            CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 1.0), 1, 6).unwrap();
        for other in [&other_family, &other_interval, &other_levels] {
            assert!(matches!(
                probe.merge(other).unwrap_err(),
                EstimatorError::IncompatibleSketches { .. }
            ));
        }
        // The failed merges must not have touched the state.
        assert_eq!(probe.count(), 0);
    }

    #[test]
    fn empty_sketch_cannot_snapshot_or_estimate() {
        let sketch = CoefficientSketch::sized_for(100).unwrap();
        assert!(sketch.is_empty());
        assert!(matches!(
            sketch.snapshot().unwrap_err(),
            EstimatorError::EmptySample
        ));
        assert!(matches!(
            sketch.estimate(ThresholdRule::Soft).unwrap_err(),
            EstimatorError::EmptySample
        ));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(matches!(
            CoefficientSketch::new(WaveletFamily::Symmlet(8), (1.0, 0.0), 1, 5).unwrap_err(),
            EstimatorError::InvalidInterval { .. }
        ));
        assert!(matches!(
            CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 1.0), 5, 1).unwrap_err(),
            EstimatorError::InvalidLevels { .. }
        ));
        assert!(matches!(
            CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 1.0), -1, 1).unwrap_err(),
            EstimatorError::InvalidLevels { .. }
        ));
        // The 1-D slot cap is `MAX_COEFFICIENT_SLOTS`, not the 2-D
        // `MAX_TENSOR_SLOTS`: a sketch sized for 2^21 rows (levels
        // 2..=21, more than `MAX_TENSOR_SLOTS` slots) builds. Zeroed slot
        // arrays are allocated lazily, so this stays cheap.
        let large = CoefficientSketch::sized_for(1 << 21).unwrap();
        assert_eq!((large.coarse_level(), large.max_level()), (2, 21));
    }

    #[test]
    fn serialization_round_trips() {
        let data = sample(500, 3);
        let mut sketch =
            CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 1.0), 1, 6).unwrap();
        sketch.push_batch(&data);
        let bytes = sketch.to_bytes();
        assert_eq!(bytes.len(), codec::encoded_len(&sketch.inner));
        let restored = CoefficientSketch::from_bytes(&bytes).unwrap();
        assert_eq!(restored.count(), sketch.count());
        assert_eq!(restored.interval(), sketch.interval());
        assert_eq!(restored.coarse_level(), sketch.coarse_level());
        assert_eq!(restored.max_level(), sketch.max_level());
        let a = sketch.estimate(ThresholdRule::Soft).unwrap();
        let b = restored.estimate(ThresholdRule::Soft).unwrap();
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            assert_eq!(a.evaluate(x), b.evaluate(x), "mismatch at {x}");
        }
        // A deserialized sketch keeps accumulating and merging.
        let mut restored = restored;
        restored.push_batch(&sample(100, 4));
        assert_eq!(restored.count(), 600);
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        let mut sketch = CoefficientSketch::new(WaveletFamily::Haar, (0.0, 1.0), 0, 1).unwrap();
        sketch.push_batch(&sample(32, 5));
        let bytes = sketch.to_bytes();
        // Truncations at every prefix length must error, never panic.
        for len in 0..bytes.len() {
            assert!(
                CoefficientSketch::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes must be rejected"
            );
        }
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            CoefficientSketch::from_bytes(&bad).unwrap_err(),
            EstimatorError::InvalidSerialization { .. }
        ));
        // Bad version.
        let mut bad = bytes.clone();
        bad[4] = 0xFF;
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
        // Bad family tag.
        let mut bad = bytes.clone();
        bad[6] = 9;
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
        // A corrupted count (zero) with intact nonzero level sums must
        // not deserialize into a sketch that claims to be empty: the
        // count field sits at bytes 11..19 of the header.
        let mut bad = bytes.clone();
        bad[11..19].copy_from_slice(&0_u64.to_le_bytes());
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
        // Non-finite sums are rejected. The header is 47 bytes, the
        // presence bitmap 1 byte (three levels); the scaling level's
        // payload tag (dense) sits at 48 and its first sum follows its
        // `u64` length at 57.
        assert_eq!(bytes[48], 0, "the scaling level ships dense");
        let mut bad = bytes.clone();
        bad[57..65].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
        // Negative sums of squares are rejected (they are sums of squares
        // of reals). The squares block follows the sums block.
        let squares_offset = 57 + 8 * sketch.snapshot().unwrap().scaling().len();
        let mut bad = bytes.clone();
        bad[squares_offset..squares_offset + 8].copy_from_slice(&(-1.0_f64).to_le_bytes());
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
        // Presence-bitmap bits beyond the level count must be clear (the
        // sketch has 3 levels, so bits 3..8 of byte 47 are reserved).
        let mut bad = bytes.clone();
        bad[47] |= 1 << 5;
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
        // The dims byte (9) must say 1-D, and a 1-D frame's hyperbolic
        // budget (bytes 27..31) must be zero.
        for (offset, value) in [(9, 0), (9, 3), (27, 4)] {
            let mut bad = bytes.clone();
            bad[offset] = value;
            assert!(CoefficientSketch::from_bytes(&bad).is_err());
        }
    }

    #[test]
    fn level_versions_track_mutations() {
        let mut sketch =
            CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 1.0), 1, 4).unwrap();
        assert!(sketch.detail_versions().iter().all(|&v| v == 0));
        sketch.push_batch(&sample(32, 11));
        let after_one = sketch.detail_versions();
        assert!(after_one.iter().all(|&v| v == 1));
        sketch.push_batch(&sample(32, 12));
        assert!(sketch.detail_versions().iter().all(|&v| v == 2));
        // Merging an untouched sketch is a no-op and must not move stamps.
        let empty = CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 1.0), 1, 4).unwrap();
        sketch.merge(&empty).unwrap();
        assert!(sketch.detail_versions().iter().all(|&v| v == 2));
        // Merging real data adds the other sketch's stamps.
        let mut other =
            CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 1.0), 1, 4).unwrap();
        other.push_batch(&sample(16, 13));
        sketch.merge(&other).unwrap();
        assert!(sketch.detail_versions().iter().all(|&v| v == 3));
    }

    #[test]
    fn copy_from_reproduces_the_source_state() {
        let mut source = CoefficientSketch::sized_for(400).unwrap();
        source.push_batch(&sample(400, 14));
        let mut target = CoefficientSketch::sized_for(400).unwrap();
        target.push_batch(&sample(100, 15)); // stale contents to overwrite
        let stale_versions = target.detail_versions();
        target.copy_from(&source).unwrap();
        assert_eq!(target.count(), source.count());
        // The target keeps its own lineage, so its stamps must advance
        // strictly past both its stale state and the copied source.
        for ((new, old), src) in target
            .detail_versions()
            .iter()
            .zip(&stale_versions)
            .zip(source.detail_versions())
        {
            assert!(
                *new > *old && *new >= src,
                "{new} vs stale {old} / source {src}"
            );
        }
        let a = target.estimate(ThresholdRule::Soft).unwrap();
        let b = source.estimate(ThresholdRule::Soft).unwrap();
        for i in 0..=50 {
            let x = i as f64 / 50.0;
            assert_eq!(a.evaluate(x), b.evaluate(x));
        }
        // Incompatible targets are rejected untouched.
        let mut incompatible =
            CoefficientSketch::new(WaveletFamily::Haar, (0.0, 1.0), 0, 1).unwrap();
        assert!(matches!(
            incompatible.copy_from(&source).unwrap_err(),
            EstimatorError::IncompatibleSketches { .. }
        ));
    }

    #[test]
    fn estimate_with_cache_matches_plain_estimate() {
        let mut sketch = CoefficientSketch::sized_for(600).unwrap();
        let mut cache = crate::cv::CvCache::new();
        let data = sample(720, 16);
        sketch.push_batch(&data[..600]);
        for (i, chunk) in data[600..].chunks(24).enumerate() {
            let cached = sketch
                .estimate_with_cache(ThresholdRule::Soft, &mut cache)
                .unwrap();
            let full = sketch.estimate(ThresholdRule::Soft).unwrap();
            assert_eq!(cached.highest_level(), full.highest_level(), "batch {i}");
            assert_eq!(cached.thresholds(), full.thresholds(), "batch {i}");
            for j in 0..=60 {
                let x = j as f64 / 60.0;
                assert_eq!(cached.evaluate(x), full.evaluate(x), "batch {i}, x = {x}");
            }
            sketch.push_batch(chunk);
        }
    }

    /// Regression: two same-shaped sketches with coincidentally equal
    /// version stamps and sample sizes must never alias in a shared
    /// `CvCache` — each sketch instance carries a unique lineage tag, so
    /// the cache discards results cached for a different sketch.
    #[test]
    fn shared_cv_cache_never_aliases_distinct_sketches() {
        let mut cache = crate::cv::CvCache::new();
        let mut a = CoefficientSketch::sized_for(300).unwrap();
        a.push_batch(&sample(300, 21));
        let mut b = CoefficientSketch::sized_for(300).unwrap();
        b.push_batch(&sample(300, 22));
        // Same shape, same count, identical (all-1) version stamps.
        assert_eq!(a.detail_versions(), b.detail_versions());
        assert_eq!(a.count(), b.count());
        for _ in 0..2 {
            for sketch in [&a, &b] {
                let cached = sketch
                    .estimate_with_cache(ThresholdRule::Soft, &mut cache)
                    .unwrap();
                let full = sketch.estimate(ThresholdRule::Soft).unwrap();
                assert_eq!(cached.thresholds(), full.thresholds());
                for i in 0..=40 {
                    let x = i as f64 / 40.0;
                    assert_eq!(cached.evaluate(x), full.evaluate(x), "x = {x}");
                }
            }
        }
        // A clone is a distinct instance too: diverging it and reusing the
        // original's cache must not replay the original's selections.
        let mut c = a.clone();
        c.push_batch(&sample(1, 23));
        let mut c2 = a.clone();
        c2.push_batch(&sample(1, 24));
        assert_eq!(c.detail_versions(), c2.detail_versions());
        for sketch in [&c, &c2] {
            let cached = sketch
                .estimate_with_cache(ThresholdRule::Soft, &mut cache)
                .unwrap();
            let full = sketch.estimate(ThresholdRule::Soft).unwrap();
            assert_eq!(cached.thresholds(), full.thresholds());
        }
    }

    #[test]
    fn inactive_tail_compaction_is_lossless_and_much_smaller() {
        // Smooth data at a generous level range: the CV zeroes out every
        // fine level, so the inactive tail dominates the dense frame.
        let mut sketch = CoefficientSketch::sized_for(4096).unwrap();
        sketch.push_batch(&sample(4096, 17));
        for rule in [ThresholdRule::Soft, ThresholdRule::Hard] {
            let compacted = sketch
                .compact(CompactionPolicy::InactiveTail, rule)
                .unwrap();
            assert!(compacted.max_level() < sketch.max_level());
            assert_eq!(compacted.count(), sketch.count());
            let dense_bytes = sketch.to_bytes().len();
            let compact_bytes = compacted.to_bytes().len();
            assert!(
                compact_bytes * 5 <= dense_bytes,
                "{rule:?}: {compact_bytes} vs dense {dense_bytes}"
            );
            // Ship and restore: the estimate is pointwise identical, with
            // identical thresholds over the retained levels and the same ĵ1.
            let restored = CoefficientSketch::from_bytes(&compacted.to_bytes()).unwrap();
            let original = sketch.estimate(rule).unwrap();
            let roundtrip = restored.estimate(rule).unwrap();
            assert_eq!(original.highest_level(), roundtrip.highest_level());
            for (a, b) in roundtrip
                .thresholds()
                .levels
                .iter()
                .zip(&original.thresholds().levels)
            {
                assert_eq!(a, b);
            }
            for i in 0..=200 {
                let x = i as f64 / 200.0;
                assert_eq!(original.evaluate(x), roundtrip.evaluate(x), "x = {x}");
            }
        }
        // Dense policy is the identity.
        let dense = sketch
            .compact(CompactionPolicy::Dense, ThresholdRule::Soft)
            .unwrap();
        assert_eq!(dense.max_level(), sketch.max_level());
    }

    #[test]
    fn byte_budget_compaction_fits_the_budget_best_effort() {
        let mut sketch = CoefficientSketch::sized_for(2048).unwrap();
        sketch.push_batch(&sample(2048, 18));
        let inactive = sketch
            .compact(CompactionPolicy::InactiveTail, ThresholdRule::Soft)
            .unwrap();
        let budget = inactive.to_bytes().len() / 2;
        let squeezed = sketch
            .compact(
                CompactionPolicy::ByteBudget { max_bytes: budget },
                ThresholdRule::Soft,
            )
            .unwrap();
        assert!(squeezed.to_bytes().len() <= budget, "budget {budget}");
        assert!(squeezed.max_level() < inactive.max_level());
        // An unsatisfiable budget still keeps the scaling level and one
        // detail level (best effort, documented).
        let minimal = sketch
            .compact(
                CompactionPolicy::ByteBudget { max_bytes: 1 },
                ThresholdRule::Soft,
            )
            .unwrap();
        assert_eq!(minimal.max_level(), minimal.coarse_level());
        assert!(minimal.estimate(ThresholdRule::Soft).is_ok());
        // Compaction of an empty sketch is a structural no-op.
        let empty = CoefficientSketch::sized_for(128).unwrap();
        let compacted = empty
            .compact(CompactionPolicy::InactiveTail, ThresholdRule::Soft)
            .unwrap();
        assert_eq!(compacted.max_level(), empty.max_level());
    }

    #[test]
    fn dense_frames_restore_like_compact_ones() {
        let mut sketch =
            CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 1.0), 1, 6).unwrap();
        sketch.push_batch(&sample(300, 19));
        let dense = sketch.to_bytes_dense();
        let compact = sketch.to_bytes();
        assert!(dense.len() >= compact.len());
        let from_dense = CoefficientSketch::from_bytes(&dense).unwrap();
        let from_compact = CoefficientSketch::from_bytes(&compact).unwrap();
        assert_eq!(from_dense.count(), sketch.count());
        assert_eq!(from_dense.to_bytes(), compact);
        let a = from_dense.estimate(ThresholdRule::Soft).unwrap();
        let b = from_compact.estimate(ThresholdRule::Soft).unwrap();
        let c = sketch.estimate(ThresholdRule::Soft).unwrap();
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            assert_eq!(a.evaluate(x), c.evaluate(x), "dense mismatch at {x}");
            assert_eq!(b.evaluate(x), c.evaluate(x), "compact mismatch at {x}");
        }
        // Dense truncations are rejected like compact ones.
        for len in [0, 10, 40, dense.len() - 1] {
            assert!(CoefficientSketch::from_bytes(&dense[..len]).is_err());
        }
    }

    /// Absent levels cost one bitmap bit on the wire but their full slot
    /// count in memory, so the decoder caps the slots a header implies
    /// before it allocates, at the cap construction applies: a hand-built
    /// 51-byte frame declaring levels 0..=30 (about 2^31 slots, 32 GiB of
    /// sums and squares) with every level absent is refused, a level set
    /// decodes exactly when it builds, and the largest default sketch that
    /// builds round-trips its dense and windowed frames.
    #[test]
    fn frames_implying_too_many_slots_are_rejected() {
        // An empty Haar sketch on [0, 1] with levels 0..=j_max, every
        // level absent.
        let frame = |j_max: i32| {
            let mut frame = b"WDSK".to_vec();
            frame.extend_from_slice(&codec::FORMAT_VERSION.to_le_bytes());
            frame.push(0); // Haar
            frame.extend_from_slice(&1_u16.to_le_bytes());
            frame.extend_from_slice(&[1, 0]); // dims 1, no window block
            frame.extend_from_slice(&0_u64.to_le_bytes()); // count
            for field in [0, j_max, 0] {
                frame.extend_from_slice(&field.to_le_bytes()); // j0, j_max, budget
            }
            frame.extend_from_slice(&0.0_f64.to_le_bytes());
            frame.extend_from_slice(&1.0_f64.to_le_bytes());
            frame.resize(frame.len() + (j_max as usize + 2).div_ceil(8), 0);
            frame
        };
        let refused_by_the_cap = |bytes: &[u8]| {
            matches!(
                CoefficientSketch::from_bytes(bytes),
                Err(EstimatorError::InvalidSerialization { message })
                    if message.contains("more than 8388608 coefficient slots")
            )
        };
        let hostile = frame(30);
        assert_eq!(hostile.len(), 51);
        assert!(refused_by_the_cap(&hostile));
        // Haar levels 0..=22 hold exactly 2^23 slots, levels 0..=23 twice
        // that: the first builds and decodes, the second does neither.
        let haar = |j_max| CoefficientSketch::new(WaveletFamily::Haar, (0.0, 1.0), 0, j_max);
        assert_eq!(haar(22).unwrap().to_bytes(), frame(22));
        assert_eq!(
            CoefficientSketch::from_bytes(&frame(22))
                .unwrap()
                .max_level(),
            22
        );
        assert!(matches!(
            haar(23).unwrap_err(),
            EstimatorError::InvalidParameter { .. }
        ));
        assert!(refused_by_the_cap(&frame(23)));
        // The largest sketch `sized_for` builds (levels 2..=21, 2^22 + 294
        // slots) ships frames every receiver reads: the empty frame, the
        // uncompacted dense frame and the windowed frame a ring slice ships.
        let empty = CoefficientSketch::sized_for(1 << 21).unwrap().to_bytes();
        assert!(CoefficientSketch::from_bytes(&empty).unwrap().is_empty());
        let mut large = CoefficientSketch::sized_for((1 << 22) - 1).unwrap();
        assert_eq!((large.coarse_level(), large.max_level()), (2, 21));
        large.push_batch(&sample(200, 17));
        let restored = CoefficientSketch::from_bytes(&large.to_bytes_dense()).unwrap();
        assert_eq!(restored.to_bytes(), large.to_bytes());
        let meta = WindowSliceMeta {
            slice_age: 1,
            ring_slices: 4,
            advances: 9,
            decay_lambda: 1.0,
        };
        let (restored, window) =
            CoefficientSketch::from_bytes_with_window(&large.to_bytes_with_window(&meta)).unwrap();
        assert_eq!(window, Some(meta));
        assert_eq!(restored.to_bytes(), large.to_bytes());
        // One row more and the sketch fails when it is built, not when a
        // receiver decodes its frames.
        assert!(matches!(
            CoefficientSketch::sized_for(1 << 22).unwrap_err(),
            EstimatorError::InvalidParameter { .. }
        ));
    }

    #[test]
    fn empty_and_zero_levels_serialize_as_absent() {
        // An empty sketch is all presence bits cleared: header + bitmap.
        let empty = CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 1.0), 1, 9).unwrap();
        let bytes = empty.to_bytes();
        assert!(
            bytes.len() < 64,
            "empty sketch frame should be tiny, got {} bytes",
            bytes.len()
        );
        let restored = CoefficientSketch::from_bytes(&bytes).unwrap();
        assert!(restored.is_empty());
        assert_eq!(restored.max_level(), 9);
        // The dense frame of the same empty sketch ships every zero.
        assert!(empty.to_bytes_dense().len() > 10_000);
    }

    #[test]
    fn estimate_matches_streaming_pipeline() {
        let data = sample(700, 6);
        let mut sketch = CoefficientSketch::sized_for(700).unwrap();
        sketch.extend(data.iter().copied());
        let estimate = sketch.estimate(ThresholdRule::Soft).unwrap();
        assert_eq!(estimate.sample_size(), 700);
        assert!((estimate.integral() - 1.0).abs() < 0.1);
    }

    #[test]
    fn merge_scaled_at_weight_one_is_bitwise_merge() {
        let mut a = CoefficientSketch::sized_for(512).unwrap();
        a.push_batch(&sample(512, 31));
        let mut b = CoefficientSketch::sized_for(512).unwrap();
        b.push_batch(&sample(256, 32));
        let mut via_merge = a.clone();
        via_merge.merge(&b).unwrap();
        let mut via_scaled = a.clone();
        via_scaled.merge_scaled(&b, 1.0).unwrap();
        assert_eq!(via_scaled.count(), via_merge.count());
        assert_eq!(via_scaled.detail_versions(), via_merge.detail_versions());
        assert_eq!(
            via_scaled.to_bytes(),
            via_merge.to_bytes(),
            "merge_scaled at weight 1 must be bitwise identical to merge"
        );
        // copy_scaled_from at weight 1 is likewise bitwise copy_from.
        let mut via_copy = CoefficientSketch::sized_for(512).unwrap();
        via_copy.copy_from(&b).unwrap();
        let mut via_scaled_copy = CoefficientSketch::sized_for(512).unwrap();
        via_scaled_copy.copy_scaled_from(&b, 1.0).unwrap();
        assert_eq!(via_scaled_copy.to_bytes(), via_copy.to_bytes());
    }

    #[test]
    fn merge_scaled_scales_mass_but_preserves_the_means() {
        // Uniformly down-weighting one sketch scales its sums *and* its
        // count, so the empirical coefficients (sample means) — and hence
        // the density estimate — are untouched: only its voting weight in
        // later merges shrinks.
        let mut source = CoefficientSketch::sized_for(400).unwrap();
        source.push_batch(&sample(400, 33));
        let mut half = CoefficientSketch::sized_for(400).unwrap();
        half.copy_scaled_from(&source, 0.5).unwrap();
        assert_eq!(half.count(), 200);
        let full = source.snapshot().unwrap();
        let scaled = half.snapshot().unwrap();
        for (s, f) in scaled.scaling().values.iter().zip(&full.scaling().values) {
            assert!((s - f).abs() < 1e-12 * (1.0 + f.abs()), "{s} vs {f}");
        }
        // The shrunk weight shows up when merging against fresh data: a
        // half-weighted copy pulls the blend only half as hard.
        let mut recent = CoefficientSketch::sized_for(400).unwrap();
        recent.push_batch(&sample(100, 37));
        let mut blend = recent.clone();
        blend.merge_scaled(&source, 0.5).unwrap();
        assert_eq!(blend.count(), 300);
        // Merging an empty sketch at any weight stays a no-op.
        let empty = CoefficientSketch::sized_for(400).unwrap();
        let stamps = half.detail_versions();
        half.merge_scaled(&empty, 0.25).unwrap();
        assert_eq!(half.detail_versions(), stamps);
        assert_eq!(half.count(), 200);
    }

    #[test]
    fn invalid_merge_weights_are_rejected_untouched() {
        let mut source = CoefficientSketch::sized_for(100).unwrap();
        source.push_batch(&sample(100, 34));
        let mut target = source.clone();
        let before = target.to_bytes();
        for weight in [f64::NAN, f64::INFINITY, -0.5] {
            assert!(matches!(
                target.merge_scaled(&source, weight).unwrap_err(),
                EstimatorError::InvalidParameter { .. }
            ));
            assert!(matches!(
                target.copy_scaled_from(&source, weight).unwrap_err(),
                EstimatorError::InvalidParameter { .. }
            ));
        }
        assert_eq!(
            target.to_bytes(),
            before,
            "failed scaled merges must not mutate"
        );
    }

    #[test]
    fn windowed_frames_round_trip_and_validate_their_metadata() {
        let mut sketch = CoefficientSketch::sized_for(300).unwrap();
        sketch.push_batch(&sample(300, 35));
        let meta = WindowSliceMeta {
            slice_age: 2,
            ring_slices: 8,
            advances: 41,
            decay_lambda: 0.875,
        };
        let frame = sketch.to_bytes_with_window(&meta);
        assert_eq!(frame[10], 1, "the window flag is set");
        let (restored, restored_meta) = CoefficientSketch::from_bytes_with_window(&frame).unwrap();
        assert_eq!(restored_meta, Some(meta));
        assert_eq!(restored.count(), 300);
        assert_eq!(restored.to_bytes(), sketch.to_bytes());
        // Plain frames carry no metadata.
        let (_, none_meta) = CoefficientSketch::from_bytes_with_window(&sketch.to_bytes()).unwrap();
        assert_eq!(none_meta, None);
        // Corrupted metadata fields are rejected: the 24-byte window block
        // follows the window flag at byte 10 (slice_age, ring_slices,
        // advances, decay_lambda).
        let mut bad = frame.clone();
        bad[15..19].copy_from_slice(&0_u32.to_le_bytes()); // ring_slices = 0
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
        let mut bad = frame.clone();
        bad[11..15].copy_from_slice(&9_u32.to_le_bytes()); // slice_age ≥ ring
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
        let mut bad = frame.clone();
        bad[27..35].copy_from_slice(&2.0_f64.to_le_bytes()); // λ out of (0, 1]
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
        // The flag is 0 or 1.
        let mut bad = frame.clone();
        bad[10] = 2;
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
    }

    /// Mini-fuzz over the decoder: every single-bit flip and every
    /// truncation of valid dense, compact and windowed 1-D frames must
    /// come back as `Ok`/`Err` from both faces — never a panic, and never
    /// an absurd allocation (the decoder caps the slots the header implies
    /// before sizing any buffer).
    #[test]
    fn frame_decoder_survives_bit_flips_and_truncations() {
        // Rows crowd into [0, 1/4), so the finer levels are mostly zero
        // and the compact frames carry coefficient-sparse payloads too.
        let mut sketch = CoefficientSketch::new(WaveletFamily::Haar, (0.0, 1.0), 0, 3).unwrap();
        let rows: Vec<f64> = sample(64, 36).iter().map(|x| x / 4.0).collect();
        sketch.push_batch(&rows);
        let meta = WindowSliceMeta {
            slice_age: 0,
            ring_slices: 4,
            advances: 7,
            decay_lambda: 1.0,
        };
        let frames = [
            sketch.to_bytes_dense(),
            sketch.to_bytes(),
            sketch.to_bytes_with_window(&meta),
        ];
        // Every level carries mass, so the compact frame can only be
        // smaller than the dense one through coefficient-sparse payloads.
        let snapshot = sketch.snapshot().unwrap();
        let mut levels = std::iter::once(snapshot.scaling()).chain(snapshot.details());
        assert!(levels.all(|level| level.values.iter().any(|v| *v != 0.0)));
        assert!(frames[1].len() < frames[0].len());
        for frame in &frames {
            for len in 0..frame.len() {
                assert!(CoefficientSketch::from_bytes(&frame[..len]).is_err());
            }
            for offset in 0..frame.len() {
                for bit in 0..8 {
                    let mut mutated = frame.clone();
                    mutated[offset] ^= 1 << bit;
                    if let Ok(restored) = CoefficientSketch::from_bytes(&mutated) {
                        // A surviving mutation (e.g. a flipped sum bit)
                        // must still decode into a self-consistent sketch.
                        let _ = restored.count();
                    }
                    let _ = TensorSketch::from_bytes(&mutated);
                }
            }
        }
    }

    #[test]
    fn estimate_matches_batch_fit_on_dependent_data() {
        // A sketch fed as a stream must give the batch fit on the same
        // levels: weakly dependent inserts with a non-uniform marginal,
        // both rules. The two paths share the CV and thresholding code but
        // build the coefficients differently, so the estimates must agree
        // to numerical round-off everywhere, not just at a few points.
        use crate::estimator::WaveletDensityEstimator;
        use crate::threshold::ThresholdSelection;
        use wavedens_processes::{DependenceCase, SineUniformMixture};
        let n = 800;
        let mut rng = seeded_rng(21);
        let data = DependenceCase::NonCausalMa.simulate(&SineUniformMixture::paper(), n, &mut rng);
        let j0 = crate::estimator::default_coarse_level(n, 8);
        let j_max = crate::estimator::cv_max_level(n);
        for rule in [ThresholdRule::Hard, ThresholdRule::Soft] {
            let mut sketch =
                CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 1.0), j0, j_max).unwrap();
            sketch.extend(data.iter().copied());
            let online = sketch.estimate(rule).unwrap();
            let batch = WaveletDensityEstimator::new(rule, ThresholdSelection::CrossValidation)
                .with_levels(Some(j0), Some(j_max))
                .fit(&data)
                .unwrap();
            let grid = crate::grid::Grid::new(0.0, 1.0, 257);
            let online_values = online.evaluate_on(&grid);
            let batch_values = batch.evaluate_on(&grid);
            for (i, (a, b)) in online_values.iter().zip(&batch_values).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9,
                    "{rule:?}: sketch and batch disagree at grid point {i}: {a} vs {b}"
                );
            }
            assert!((online.integral() - batch.integral()).abs() < 1e-9);
            assert_eq!(online.highest_level(), batch.highest_level());
            assert_eq!(online.sample_size(), batch.sample_size());
        }
    }

    #[test]
    fn estimate_improves_as_data_arrives() {
        let mut sketch = CoefficientSketch::sized_for(2048).unwrap();
        let data = sample(2048, 9);
        sketch.extend(data[..128].iter().copied());
        let early = sketch.estimate(ThresholdRule::Soft).unwrap();
        sketch.extend(data[128..].iter().copied());
        let late = sketch.estimate(ThresholdRule::Soft).unwrap();
        let grid = crate::grid::Grid::new(0.05, 0.95, 91);
        let truth: Vec<f64> = grid.evaluate(|_| 1.0);
        let err = |est: &WaveletDensityEstimate| {
            grid.integrate_abs_power(&est.evaluate_on(&grid), &truth, 2.0)
        };
        assert!(
            err(&late) < err(&early) + 1e-12,
            "error should not grow with more data: {} -> {}",
            err(&early),
            err(&late)
        );
        assert_eq!(sketch.count(), 2048);
    }

    #[test]
    fn snapshots_share_sum_squares_without_copying() {
        let mut sketch = CoefficientSketch::sized_for(256).unwrap();
        sketch.push_batch(&sample(256, 15));
        // Two successive estimates without intervening pushes must share
        // the same sum-of-squares allocation (Arc, not clone).
        let first = sketch.estimate(ThresholdRule::Soft).unwrap();
        let second = sketch.estimate(ThresholdRule::Soft).unwrap();
        let a = &first.scaling_coefficients().sum_squares;
        let b = &second.scaling_coefficients().sum_squares;
        assert!(
            Arc::ptr_eq(a, b),
            "re-estimation should not reallocate sum_squares"
        );
        // Pushing after a snapshot copy-on-writes instead of corrupting
        // the outstanding snapshot.
        let before: Vec<f64> = first.scaling_coefficients().sum_squares.to_vec();
        sketch.push(0.5);
        assert_eq!(*first.scaling_coefficients().sum_squares, before);
        let third = sketch.estimate(ThresholdRule::Soft).unwrap();
        assert!(!Arc::ptr_eq(a, &third.scaling_coefficients().sum_squares));
    }
}
