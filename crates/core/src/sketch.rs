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
//! downstream on a [`snapshot`](CoefficientSketch::snapshot)). Both the
//! streaming estimator and the batch coefficient construction are thin
//! layers over it, and the `wavedens-engine` crate builds sharded ingest
//! and multi-attribute synopsis catalogs on top. The sums themselves live
//! in a `dims = 1` [`TensorSketch`], the one store, scatter and merge
//! code of every sketch; this module adds the 1-D estimate, compaction
//! and wire frames.
//!
//! Sketches also (de)serialize to a compact little-endian binary form
//! ([`to_bytes`](CoefficientSketch::to_bytes) /
//! [`from_bytes`](CoefficientSketch::from_bytes)) so synopses can be
//! shipped between nodes and merged where they land.

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
    /// detail levels `j0..=j_max`.
    pub fn new(
        family: WaveletFamily,
        interval: (f64, f64),
        j0: i32,
        j_max: i32,
    ) -> Result<Self, EstimatorError> {
        TensorSketch::new_1d(family, interval, j0, j_max).map(Self::wrap)
    }

    /// Creates an empty sketch reusing an existing basis (avoids
    /// re-tabulating `φ`/`ψ` when many sketches share one).
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
    /// Theorem 3.1 / Section 5.1).
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
        &self.inner.levels()[1..]
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
    /// observation).
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
    /// every allocation, so one scratch sketch can be reused across many
    /// scatter-then-merge batches (the engine's sharded ingest does this).
    /// The cleared sketch adopts a fresh lineage: downstream caches can
    /// never alias pre- and post-clear contents, and merging a cleared,
    /// untouched level remains the no-op the version guard promises.
    pub fn clear(&mut self) {
        self.lineage = next_lineage();
        self.inner.clear();
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
                while compacted.serialized_len() > max_bytes && compacted.details().len() > 1 {
                    let keep = compacted.details().len() - 1;
                    compacted.inner.truncate_details(keep);
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

    /// Serializes the sketch to the current (v2) compact little-endian
    /// binary frame: magic + version header, wavelet family, interval,
    /// count, level range, a per-level **presence bitmap**, then the raw
    /// sums and sums of squares of every *present* level. Levels whose
    /// sums and sums of squares are identically zero — empty sketches,
    /// boundary levels no observation ever touched, and the zero tail a
    /// [`compact`](Self::compact)ed sketch would otherwise ship dense —
    /// are recorded as a single cleared bit and restored as zeros.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        self.write_header(&mut out, FORMAT_V2);
        self.write_v2_body(&mut out);
        out
    }

    /// Serializes the sketch as a **windowed slice frame** (v3): the v2
    /// compact body prefixed by the window metadata in `meta` — slice age,
    /// ring size, advance counter and decay factor — so a receiver can
    /// place the slice in its own ring. Existing
    /// [`from_bytes`](Self::from_bytes) consumers read the frame as a
    /// plain sketch (the metadata is skipped);
    /// [`from_bytes_with_window`](Self::from_bytes_with_window) also
    /// returns the metadata.
    pub fn to_bytes_with_window(&self, meta: &WindowSliceMeta) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len() + WINDOW_META_LEN);
        self.write_header(&mut out, FORMAT_V3_WINDOWED);
        write_window_meta(&mut out, meta);
        self.write_v2_body(&mut out);
        out
    }

    /// The presence bitmap + present-level payloads shared by the v2 and
    /// v3 frames.
    fn write_v2_body(&self, out: &mut Vec<u8>) {
        let levels = self.inner.levels();
        write_presence(out, levels.iter().map(|level| !level.is_zero()));
        for level in levels.iter().filter(|level| !level.is_zero()) {
            level.write_dense(out);
        }
    }

    /// Serializes the sketch to the legacy v1 frame (every level shipped
    /// dense, no presence bitmap), for interoperability with nodes still
    /// on the previous wire format. [`from_bytes`](Self::from_bytes) reads
    /// both frames.
    pub fn to_bytes_v1(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_header(&mut out, FORMAT_V1);
        for level in self.inner.levels() {
            level.write_dense(&mut out);
        }
        out
    }

    fn write_header(&self, out: &mut Vec<u8>, version: u16) {
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        let (family_tag, order) = encode_family(self.basis().family());
        out.push(family_tag);
        out.extend_from_slice(&(order as u16).to_le_bytes());
        let (lo, hi) = self.interval();
        out.extend_from_slice(&lo.to_le_bytes());
        out.extend_from_slice(&hi.to_le_bytes());
        out.extend_from_slice(&(self.count() as u64).to_le_bytes());
        out.extend_from_slice(&self.coarse_level().to_le_bytes());
        out.extend_from_slice(&self.max_level().to_le_bytes());
    }

    /// Exact length of the v2 frame [`to_bytes`](Self::to_bytes) emits —
    /// what the byte-budget compaction mode measures against.
    fn serialized_len(&self) -> usize {
        let header = MAGIC.len() + 2 + 3 + 16 + 8 + 8;
        let levels = self.inner.levels();
        let payloads: usize = levels
            .iter()
            .filter(|level| !level.is_zero())
            .map(|level| 8 + 16 * level.sums.len())
            .sum();
        header + presence_bitmap_len(levels.len()) + payloads
    }

    /// Deserializes a sketch previously produced by
    /// [`to_bytes`](Self::to_bytes) (v2, presence bitmap), the legacy
    /// dense v1 writer ([`to_bytes_v1`](Self::to_bytes_v1)), **or** the
    /// windowed slice writer
    /// ([`to_bytes_with_window`](Self::to_bytes_with_window), v3 — the
    /// window metadata is validated and discarded), rebuilding the wavelet
    /// basis from the encoded family. Fails with
    /// [`EstimatorError::InvalidSerialization`] on any malformed input;
    /// every structural field — level range, interval, per-level payload
    /// sizes — is validated against the buffer *before* the level vectors
    /// are allocated, so a corrupted or hostile frame can neither panic
    /// the reader nor provoke an oversized allocation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EstimatorError> {
        Ok(Self::from_bytes_with_window(bytes)?.0)
    }

    /// [`from_bytes`](Self::from_bytes), additionally returning the
    /// [`WindowSliceMeta`] when the frame is a windowed slice (v3);
    /// `None` for plain v1/v2 frames.
    pub fn from_bytes_with_window(
        bytes: &[u8],
    ) -> Result<(Self, Option<WindowSliceMeta>), EstimatorError> {
        let mut reader = Reader::new(bytes);
        let magic = reader.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(invalid("bad magic bytes"));
        }
        let version = reader.u16()?;
        if !matches!(version, FORMAT_V1 | FORMAT_V2 | FORMAT_V3_WINDOWED) {
            return Err(invalid(&format!(
                "unsupported format version {version} \
                 (expected {FORMAT_V1}, {FORMAT_V2} or {FORMAT_V3_WINDOWED})"
            )));
        }
        let family_tag = reader.u8()?;
        let order = reader.u16()? as usize;
        let family = decode_family(family_tag, order)?;
        let lo = reader.f64()?;
        let hi = reader.f64()?;
        let count = reader.u64()? as usize;
        let j0 = reader.i32()?;
        let j_max = reader.i32()?;
        let window = if version == FORMAT_V3_WINDOWED {
            Some(read_window_meta(&mut reader)?)
        } else {
            None
        };
        check_frame_geometry(j0, j_max, &[(lo, hi)])?;
        // Pre-compute the slot count of every level from cheap translation
        // arithmetic and require the remaining payload to fit *exactly*
        // before constructing the sketch: a length prefix claiming more
        // coefficients than the buffer holds is rejected while the frame
        // is still just bytes.
        let basis = Arc::new(WaveletBasis::new(family)?);
        let slots: Vec<usize> = (j0..=j_max)
            .map(|level| {
                let range = basis.translations_covering(level, lo, hi);
                (*range.end() - *range.start() + 1).max(0) as usize
            })
            .collect();
        // Level list on the wire: the scaling level at j0, then details
        // j0..=j_max — the scaling and first detail level share a slot
        // count (same translation range at the same level). v1 frames
        // ship every level.
        let level_count = 1 + slots.len();
        let bitmap = match version {
            FORMAT_V1 => None,
            _ => Some(read_presence(&mut reader, level_count)?),
        };
        let present = |index: usize| bitmap.as_ref().map_or(true, |bits| bits[index]);
        let expected: usize = std::iter::once(&slots[0])
            .chain(&slots)
            .enumerate()
            .filter(|&(index, _)| present(index))
            .map(|(_, &slot_count)| 8_usize.saturating_add(slot_count.saturating_mul(16)))
            .fold(0_usize, usize::saturating_add);
        if reader.remaining() != expected {
            return Err(invalid(&format!(
                "level payloads hold {} bytes, header implies {expected}",
                reader.remaining()
            )));
        }
        let mut sketch = Self::with_basis(basis, (lo, hi), j0, j_max)?;
        sketch
            .inner
            .read_levels(&mut reader, count, present, TensorLevel::read_dense)?;
        Ok((sketch, window))
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
    /// are still elided by the v2 frame's presence bitmap).
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

pub(crate) const MAGIC: &[u8] = b"WDSK";
const FORMAT_V1: u16 = 1;
const FORMAT_V2: u16 = 2;
/// Windowed slice frame: the standard header, then [`WindowSliceMeta`],
/// then the v2 compact body.
const FORMAT_V3_WINDOWED: u16 = 3;
/// Tensor-product frame of a 2-D sketch (see `crate::tensor`): the shared
/// magic/family prefix, then a dims header, then per-level dense or
/// coefficient-sparse payloads behind a presence bitmap. Decoded only by
/// `TensorSketch::from_bytes`; the 1-D decoder keeps rejecting it.
pub(crate) const FORMAT_V4_TENSOR: u16 = 4;

/// Hard cap on the detail level a wire frame may declare. A level at `j`
/// holds `O(2^j)` coefficient slots, so the cap bounds what a hostile
/// header can make [`CoefficientSketch::from_bytes`] allocate (~2 × 8 GB
/// of slots at 30 — far above any real synopsis, which the exact
/// byte-fit check then rejects long before allocation anyway, since such
/// a payload cannot actually be present).
pub(crate) const MAX_SERIALIZED_LEVEL: i32 = 30;

/// Serialized size of [`WindowSliceMeta`] in a v3 frame.
const WINDOW_META_LEN: usize = 4 + 4 + 8 + 8;

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

fn write_window_meta(out: &mut Vec<u8>, meta: &WindowSliceMeta) {
    out.extend_from_slice(&meta.slice_age.to_le_bytes());
    out.extend_from_slice(&meta.ring_slices.to_le_bytes());
    out.extend_from_slice(&meta.advances.to_le_bytes());
    out.extend_from_slice(&meta.decay_lambda.to_le_bytes());
}

fn read_window_meta(reader: &mut Reader<'_>) -> Result<WindowSliceMeta, EstimatorError> {
    let slice_age = reader.u32()?;
    let ring_slices = reader.u32()?;
    let advances = reader.u64()?;
    let decay_lambda = reader.f64()?;
    if ring_slices == 0 {
        return Err(invalid("windowed frame declares a zero-slice ring"));
    }
    if slice_age >= ring_slices {
        return Err(invalid(&format!(
            "slice age {slice_age} outside the {ring_slices}-slice ring"
        )));
    }
    if !decay_lambda.is_finite() || decay_lambda <= 0.0 || decay_lambda > 1.0 {
        return Err(invalid(&format!(
            "decay factor {decay_lambda} outside (0, 1]"
        )));
    }
    Ok(WindowSliceMeta {
        slice_age,
        ring_slices,
        advances,
        decay_lambda,
    })
}

/// Issues process-unique sketch lineage tags (see
/// `CoefficientSketch::lineage`).
fn next_lineage() -> u64 {
    static LINEAGE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    LINEAGE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Bytes needed for one presence bit per level.
pub(crate) fn presence_bitmap_len(levels: usize) -> usize {
    levels.div_ceil(8)
}

/// Writes a presence bitmap: one bit per level, set where `present` holds.
pub(crate) fn write_presence(out: &mut Vec<u8>, present: impl ExactSizeIterator<Item = bool>) {
    let mut bitmap = vec![0_u8; presence_bitmap_len(present.len())];
    for (i, _) in present.enumerate().filter(|&(_, is_present)| is_present) {
        bitmap[i / 8] |= 1 << (i % 8);
    }
    out.extend_from_slice(&bitmap);
}

/// Reads the presence bitmap of a frame with `levels` levels. Bits beyond
/// the level count must be clear: set ones would silently change meaning
/// if a later format ever widens the bitmap.
pub(crate) fn read_presence(
    reader: &mut Reader<'_>,
    levels: usize,
) -> Result<Vec<bool>, EstimatorError> {
    let bitmap = reader.take(presence_bitmap_len(levels))?;
    let bit = |i: usize| bitmap[i / 8] & (1 << (i % 8)) != 0;
    if (levels..bitmap.len() * 8).any(bit) {
        return Err(invalid("presence bitmap has bits beyond the level count"));
    }
    Ok((0..levels).map(bit).collect())
}

/// The structural header checks every frame version shares, run before
/// anything is sized off the header: a valid level range no finer than
/// [`MAX_SERIALIZED_LEVEL`] (a level at `j` holds `O(2^j)` slots, so an
/// absurd `j_max` must die here, not in the allocator), then finite,
/// nonempty intervals.
pub(crate) fn check_frame_geometry(
    j0: i32,
    j_max: i32,
    intervals: &[(f64, f64)],
) -> Result<(), EstimatorError> {
    if j0 < 0 || j_max < j0 {
        return Err(invalid(&format!("invalid level range {j0}..={j_max}")));
    }
    if j_max > MAX_SERIALIZED_LEVEL {
        return Err(invalid(&format!(
            "max level {j_max} exceeds the wire cap {MAX_SERIALIZED_LEVEL}"
        )));
    }
    for &(lo, hi) in intervals {
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(invalid(&format!("invalid interval [{lo}, {hi}]")));
        }
    }
    Ok(())
}

pub(crate) fn invalid(message: &str) -> EstimatorError {
    EstimatorError::InvalidSerialization {
        message: message.to_string(),
    }
}

pub(crate) fn encode_family(family: WaveletFamily) -> (u8, usize) {
    match family {
        WaveletFamily::Haar => (0, 1),
        WaveletFamily::Daubechies(n) => (1, n),
        WaveletFamily::Symmlet(n) => (2, n),
    }
}

pub(crate) fn decode_family(tag: u8, order: usize) -> Result<WaveletFamily, EstimatorError> {
    match tag {
        0 => Ok(WaveletFamily::Haar),
        1 => Ok(WaveletFamily::Daubechies(order)),
        2 => Ok(WaveletFamily::Symmlet(order)),
        _ => Err(invalid(&format!("unknown wavelet family tag {tag}"))),
    }
}

/// A bounds-checked little-endian cursor over a byte slice.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, offset: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], EstimatorError> {
        let end = self
            .offset
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| invalid("payload truncated"))?;
        let slice = &self.bytes[self.offset..end];
        self.offset = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, EstimatorError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, EstimatorError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, EstimatorError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    pub(crate) fn i32(&mut self) -> Result<i32, EstimatorError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, EstimatorError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, EstimatorError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.offset
    }

    pub(crate) fn is_done(&self) -> bool {
        self.offset == self.bytes.len()
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
        // The 1-D size limit is the level range, not the 2-D slot cap: a
        // sketch sized for 2^21 rows (levels 2..=21, more than
        // `MAX_TENSOR_SLOTS` slots) builds. Zeroed slot arrays are
        // allocated lazily, so this stays cheap.
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
        assert_eq!(bytes.len(), sketch.serialized_len());
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
        // count field sits at bytes 25..33 of the header.
        let mut bad = bytes.clone();
        bad[25..33].copy_from_slice(&0_u64.to_le_bytes());
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
        // Non-finite sums are rejected; the first scaling sum starts
        // right after the header (41 bytes), the presence bitmap (1 byte
        // for the three levels of this sketch) and the level length (8).
        let mut bad = bytes.clone();
        bad[50..58].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
        // Negative sums of squares are rejected (they are sums of squares
        // of reals). The squares block follows the sums block.
        let squares_offset = 50 + 8 * sketch.snapshot().unwrap().scaling().len();
        let mut bad = bytes.clone();
        bad[squares_offset..squares_offset + 8].copy_from_slice(&(-1.0_f64).to_le_bytes());
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
        // Presence-bitmap bits beyond the level count must be clear (the
        // sketch has 3 levels, so bits 3..8 of byte 41 are reserved).
        let mut bad = bytes.clone();
        bad[41] |= 1 << 5;
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
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
    fn v1_frames_are_still_readable() {
        let mut sketch =
            CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 1.0), 1, 6).unwrap();
        sketch.push_batch(&sample(300, 19));
        let v1 = sketch.to_bytes_v1();
        let v2 = sketch.to_bytes();
        assert_eq!(u16::from_le_bytes([v1[4], v1[5]]), 1);
        assert_eq!(u16::from_le_bytes([v2[4], v2[5]]), 2);
        let from_v1 = CoefficientSketch::from_bytes(&v1).unwrap();
        let from_v2 = CoefficientSketch::from_bytes(&v2).unwrap();
        assert_eq!(from_v1.count(), sketch.count());
        let a = from_v1.estimate(ThresholdRule::Soft).unwrap();
        let b = from_v2.estimate(ThresholdRule::Soft).unwrap();
        let c = sketch.estimate(ThresholdRule::Soft).unwrap();
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            assert_eq!(a.evaluate(x), c.evaluate(x), "v1 mismatch at {x}");
            assert_eq!(b.evaluate(x), c.evaluate(x), "v2 mismatch at {x}");
        }
        // v1 truncations are rejected like v2 ones.
        for len in [0, 10, 40, v1.len() - 1] {
            assert!(CoefficientSketch::from_bytes(&v1[..len]).is_err());
        }
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
        // The dense v1 frame of the same empty sketch ships every zero.
        assert!(empty.to_bytes_v1().len() > 10_000);
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
        assert_eq!(u16::from_le_bytes([frame[4], frame[5]]), 3);
        let (restored, restored_meta) = CoefficientSketch::from_bytes_with_window(&frame).unwrap();
        assert_eq!(restored_meta, Some(meta));
        assert_eq!(restored.count(), 300);
        assert_eq!(restored.to_bytes(), sketch.to_bytes());
        // Plain v2 frames carry no metadata.
        let (_, none_meta) = CoefficientSketch::from_bytes_with_window(&sketch.to_bytes()).unwrap();
        assert_eq!(none_meta, None);
        // Corrupted metadata fields are rejected: the 24-byte window block
        // follows the 41-byte header (slice_age, ring_slices, advances,
        // decay_lambda).
        let mut bad = frame.clone();
        bad[45..49].copy_from_slice(&0_u32.to_le_bytes()); // ring_slices = 0
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
        let mut bad = frame.clone();
        bad[41..45].copy_from_slice(&9_u32.to_le_bytes()); // slice_age ≥ ring
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
        let mut bad = frame.clone();
        bad[57..65].copy_from_slice(&2.0_f64.to_le_bytes()); // λ out of (0, 1]
        assert!(CoefficientSketch::from_bytes(&bad).is_err());
    }

    /// Mini-fuzz over the decoder: every single-bit flip and every
    /// truncation of valid v1, v2 and v3 frames must come back as
    /// `Ok`/`Err` — never a panic, and never an absurd allocation (the
    /// decoder validates the level geometry against the byte length
    /// before sizing any buffer).
    #[test]
    fn frame_decoder_survives_bit_flips_and_truncations() {
        let mut sketch = CoefficientSketch::new(WaveletFamily::Haar, (0.0, 1.0), 0, 2).unwrap();
        sketch.push_batch(&sample(64, 36));
        let meta = WindowSliceMeta {
            slice_age: 0,
            ring_slices: 4,
            advances: 7,
            decay_lambda: 1.0,
        };
        let frames = [
            sketch.to_bytes_v1(),
            sketch.to_bytes(),
            sketch.to_bytes_with_window(&meta),
        ];
        for frame in &frames {
            for len in 0..frame.len() {
                let _ = CoefficientSketch::from_bytes(&frame[..len]);
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
                }
            }
        }
    }
}
