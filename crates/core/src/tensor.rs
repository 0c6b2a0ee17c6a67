//! Dimension-generic tensor-product coefficient sketches.
//!
//! [`TensorSketch`] is the one store of the estimator's accumulation state
//! for `dims ∈ {1, 2}`. A *level* is keyed by a per-axis
//! `(generator, level)` tuple — the scaling layer `φ_{j0}⊗φ_{j0}`, the two
//! mixed orientations `ψ_j⊗φ_{j0}` / `φ_{j0}⊗ψ_j`, and the
//! wavelet–wavelet layers `ψ_{jx}⊗ψ_{jy}` kept under a hyperbolic budget
//! `jx + jy ≤ budget` (the standard hyperbolic-cross truncation that keeps
//! the 2-D level-set blowup polynomial instead of quadratic). Translations
//! within a level are flattened to a single row-major index
//! `kx·extent_y + ky`, so the accumulation, merge and CV+threshold
//! machinery operate on flat slot arrays. A `dims == 1` sketch holds the
//! scaling level and the detail levels `j0..=j_max` of one axis; it is
//! the store behind [`CoefficientSketch`], which adds the 1-D estimate
//! and compaction on top. 2-D sketches are public; 1-D ones are reached
//! through [`CoefficientSketch`]. Both travel in the one wire format of
//! [`crate::codec`].
//!
//! The empirical coefficient of the product basis function
//! `δ_{jx,kx}(x)·δ_{jy,ky}(y)` is the sample mean of the product, so a
//! [`TensorSketch`] stores per-slot running sums and sums of squares plus
//! the observation count: the same mergeable statistic in every
//! dimension, which is what lets sharded ingestion, scaled decay merges
//! and cross-node shipping serve both.
//!
//! Ingest is one loop for both dims. A batch is cut into autotuned
//! chunks; for `dims == 2` every `x` factor row of a chunk (the `φ` row
//! and one `ψ` row per level) is gathered once and scaled by its
//! `2^{j/2}`; then every level runs the whole-chunk fused scatter of
//! [`WaveletTable::scatter_rows_phi`] over its last axis, with an outer
//! row per observation: the unit row in 1-D, the level's `x` row in 2-D,
//! whose weights multiply each `y` window into the rows of its slot
//! matrix. Both are bitwise the product of the gathered, scaled axis
//! factors accumulated in observation order.
//!
//! A 1-D batch of at least 4096 rows takes one more step for its fine
//! levels, the detail levels from the first one holding more than 2^13
//! slots up: their slot arrays outgrow the cache, and rows in batch order
//! land on them at random. Each run of up to 2^17 rows is bucketed once,
//! by a stable counting sort, by the slot region of 2^10 translations its
//! window meets at the first fine level (twice as many translations per
//! region at each finer level, so the regions split every fine level's
//! slots alike). Each fine level then runs the same fused scatter region
//! by region, on the region's rows and slots only. The bits do not
//! change: a slot still receives exactly the rows whose window covers it,
//! in batch order, and a window's values do not depend on where the
//! region clips it. Coarse levels, smaller batches and 2-D sketches keep
//! the chunk loop alone.
//!
//! Estimates come out of [`TensorSketch::thresholded`]: each non-scaling
//! level is handed (flattened) to the level-wise cross-validation of the
//! 1-D pipeline to pick its threshold `λ`, and the surviving coefficients
//! reconstruct a density on a 2-D grid via separable per-axis strided
//! table sweeps. [`TensorCumulative`] then turns the grid into a joint
//! CDF whose rectangle queries are answered by inclusion–exclusion of
//! four corner lookups.
//!
//! [`CoefficientSketch`]: crate::sketch::CoefficientSketch

use std::sync::Arc;

use crate::autotune;
use crate::codec;
use crate::coefficients::{
    active_translations, max_active_translations, Generator, LevelAccumulator, LevelCoefficients,
};
use crate::cv::{cross_validate_into, cross_validate_level, run_levels, CvCriterion};
use crate::error::EstimatorError;
use crate::estimator::{coefficient_window, cv_max_level, default_coarse_level};
use crate::grid::Grid;
use crate::sketch::{scaled_count, validate_merge_weight, CompactionPolicy};
use crate::threshold::ThresholdRule;
use crate::window::WindowSliceMeta;
use wavedens_wavelets::cascade::OuterRows;
use wavedens_wavelets::{WaveletBasis, WaveletFamily, WaveletTable};

/// Hard cap on the total number of flattened coefficient slots a 2-D
/// tensor sketch may hold. At `2^22` slots the slot arrays top out
/// around 64 MB — far above any real synopsis. Construction and
/// [decoding](crate::codec) enforce it alike, before any level is
/// allocated.
pub const MAX_TENSOR_SLOTS: usize = 1 << 22;

/// Hard cap on the total number of coefficient slots a 1-D
/// [`CoefficientSketch`](crate::CoefficientSketch) may hold, enforced
/// like [`MAX_TENSOR_SLOTS`] at construction and decoding, so every
/// sketch that builds also decodes. At `2^23` slots (128 MB of sums and
/// squares) the default level sets stop at their ceiling instead of
/// failing: [`sized_for`](crate::CoefficientSketch::sized_for) and a
/// default [`fit`](crate::WaveletDensityEstimator::fit) on `[0, 1]` keep
/// `j* = ⌊log₂ n⌋` up to `2^22 - 1` rows and detail level 21 from `2^22`
/// rows on. An explicit level set that is too large is still refused
/// when it is built.
pub const MAX_COEFFICIENT_SLOTS: usize = 1 << 23;

/// The highest detail level `≤ j_max` whose 1-D level set — the scaling
/// level `j0` and the detail levels `j0..=level` on `interval` — holds
/// at most [`MAX_COEFFICIENT_SLOTS`] slots; `j_max` itself when the whole
/// set fits, and never below `j0`. The default level rules clamp to it.
pub(crate) fn max_level_within_cap(
    basis: &WaveletBasis,
    interval: (f64, f64),
    j0: i32,
    j_max: i32,
) -> i32 {
    let slots = |level| basis.translation_count(level, interval.0, interval.1);
    let mut total = slots(j0);
    for level in j0..=j_max {
        total = total.saturating_add(slots(level));
        if total > MAX_COEFFICIENT_SLOTS {
            return (level - 1).max(j0);
        }
    }
    j_max
}

/// Untuned defaults for the observations per internal scatter chunk, of
/// 1-D and of 2-D sketches: large batches are scattered in slices so the
/// chunk and its gathered `x` rows stay cache-resident while every level
/// sweeps them, instead of streaming the whole batch once per level. The
/// first large batch per basis shape races the candidate sizes on real
/// data and caches the winner (see [`crate::autotune`]); these constants
/// only serve batches too small to probe.
const INGEST_CHUNK: [usize; 2] = [512, 128];

/// Rows a 1-D batch must hold before its fine levels scatter region by
/// region ([`TensorSketch::scatter_tiled`]): below it one bucketing pass
/// costs more than the cache misses it saves. Pushing 2^17 rows into
/// `sized_for(2^18)` in batches of 16, 256 or 1024 rows, tiling every
/// batch was 28 %, 6 % and 6 % slower than the chunk loop alone; from
/// 2048 rows on it was faster.
const TILE_GATE_ROWS: usize = 1 << 12;

/// A detail level holding more than this many slots is a fine level, the
/// first of which sets the regions. At `2^13` slots (128 KiB of sums and
/// squares) a level still sits in L2 while the chunk loop sweeps it;
/// tiling such levels measured slower, not faster.
const TILE_MIN_SLOTS: usize = 1 << 13;

/// A region spans `2^TILE_REGION_BITS` translations of the first fine
/// level, and twice as many at every finer level. Regions of 2^8 to
/// 2^12 translations measured alike.
const TILE_REGION_BITS: u32 = 10;

/// Rows bucketed at once, which bounds the region buffer of a batch.
/// Runs of 2^14 and 2^15 rows measured 15 % and 6 % slower than 2^17.
const TILE_SUPER_CHUNK: usize = 1 << 17;

/// Frames whose total mass is below this floor answer zero selectivity
/// (mirrors the 1-D `CumulativeEstimate` guard).
const TOTAL_MASS_FLOOR: f64 = 1e-12;

/// One per-axis basis factor: a generator (`φ` or `ψ`) at one resolution
/// level, with the translation range covering that axis' interval.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AxisComponent {
    generator: Generator,
    level: i32,
    scale: f64,
    sqrt_scale: f64,
    k_start: i64,
    extent: usize,
}

impl AxisComponent {
    fn new(basis: &WaveletBasis, interval: (f64, f64), level: i32, generator: Generator) -> Self {
        let range = basis.translations_covering(level, interval.0, interval.1);
        let k_start = *range.start();
        let extent = (*range.end() - k_start + 1).max(0) as usize;
        let scale = f64::from(level).exp2();
        Self {
            generator,
            level,
            scale,
            sqrt_scale: scale.sqrt(),
            k_start,
            extent,
        }
    }
}

/// One tensor level: a pair of per-axis component indices plus the
/// flattened row-major slot arrays.
///
/// `sum_squares` sits behind an [`Arc`] so that snapshotting hands
/// cross-validation a read-only view without copying the vector;
/// ingestion and merging use copy-on-write ([`Arc::make_mut`]), which
/// only actually clones when a snapshot from a previous estimate is still
/// alive.
///
/// `version` is a cheap per-level dirty stamp: it moves (strictly
/// monotonically for any fixed sketch lineage) whenever the level's sums
/// may have changed, so downstream consumers — the delta-aware
/// cross-validation cache ([`crate::cv::CvCache`]) in particular — can
/// recognise unchanged levels without comparing payloads.
#[derive(Debug, Clone)]
pub(crate) struct TensorLevel {
    component: [usize; 2],
    pub(crate) version: u64,
    pub(crate) sums: Vec<f64>,
    pub(crate) sum_squares: Arc<Vec<f64>>,
}

impl TensorLevel {
    fn new(component: [usize; 2], slots: usize) -> Self {
        Self {
            component,
            version: 0,
            sums: vec![0.0; slots],
            sum_squares: Arc::new(vec![0.0; slots]),
        }
    }

    fn clear(&mut self) {
        self.version = 0;
        self.sums.fill(0.0);
        Arc::make_mut(&mut self.sum_squares).fill(0.0);
    }

    /// Adds `weight ×` another level's sums. At `weight == 1.0` this is
    /// bitwise a plain addition: IEEE 754 guarantees `1.0 * v == v`
    /// exactly for every value `v` the sums can hold.
    fn merge_scaled(&mut self, other: &Self, weight: f64) {
        debug_assert_eq!(self.sums.len(), other.sums.len());
        if other.version == 0 {
            // A never-touched level carries identically zero sums; adding
            // them would not change the state, so the stamp must not move.
            return;
        }
        self.version += other.version;
        for (acc, v) in self.sums.iter_mut().zip(&other.sums) {
            *acc += weight * v;
        }
        let squares = Arc::make_mut(&mut self.sum_squares);
        for (acc, v) in squares.iter_mut().zip(other.sum_squares.iter()) {
            *acc += weight * v;
        }
    }

    /// Overwrites the level with `weight ×` the source's sums (bitwise a
    /// copy at `weight == 1.0`).
    fn copy_scaled_from(&mut self, source: &Self, weight: f64) {
        debug_assert_eq!(self.sums.len(), source.sums.len());
        // The target keeps its own lineage, so its version must *strictly*
        // advance: the copied contents are arbitrary relative to whatever
        // this instance held at any earlier stamp. (On the engine's
        // refresh path `source.version` — the sum of monotone shard
        // stamps — is the larger term.)
        self.version = source.version.max(self.version + 1);
        for (slot, v) in self.sums.iter_mut().zip(&source.sums) {
            *slot = weight * v;
        }
        let squares = Arc::make_mut(&mut self.sum_squares);
        for (slot, v) in squares.iter_mut().zip(source.sum_squares.iter()) {
            *slot = weight * v;
        }
    }

    /// Whether every stored sum (and sum of squares) is exactly zero — the
    /// criterion for eliding the level from a compact frame.
    pub(crate) fn is_zero(&self) -> bool {
        self.sums.iter().all(|v| *v == 0.0) && self.sum_squares.iter().all(|v| *v == 0.0)
    }

    pub(crate) fn nonzero_slots(&self) -> usize {
        self.sums
            .iter()
            .zip(self.sum_squares.iter())
            .filter(|(s, q)| **s != 0.0 || **q != 0.0)
            .count()
    }
}

/// Per-chunk scratch of the scatter: the chunk's coordinates on the
/// scattered (last) axis, the fallback row of the scatter driver and, for
/// `dims == 2`, the `x` factor rows of every observation — gathered
/// **once** per chunk per `x` component and pre-scaled by its
/// `sqrt_scale`, then shared as outer rows by every level with that `x`
/// factor. The region path of 1-D batches keeps its bucketed rows and
/// bucket bounds here too.
#[derive(Debug)]
struct Scratch {
    rows: usize,
    width: usize,
    inner: Vec<f64>,
    spans: Vec<(u32, u32)>,
    weights: Vec<f64>,
    fallback: Vec<f64>,
    tiled: Vec<f64>,
    bucket_starts: Vec<usize>,
}

impl Scratch {
    fn new(basis: &WaveletBasis, outer_components: usize, rows: usize) -> Self {
        let width = max_active_translations(basis);
        Self {
            rows,
            width,
            inner: Vec::with_capacity(rows),
            spans: vec![(0, 0); outer_components * rows],
            weights: vec![0.0; outer_components * rows * width],
            fallback: vec![0.0; width],
            tiled: Vec::new(),
            bucket_starts: Vec::new(),
        }
    }
}

/// A mergeable, dimension-generic coefficient sketch over the tensor
/// product of a 1-D wavelet basis with itself.
///
/// For `dims == 2` levels are keyed by per-axis level tuples and
/// translations by a flattened row-major index, and
/// [`thresholded`](Self::thresholded) runs the level-wise CV+threshold
/// pipeline over the flattened slots. A `dims == 1` sketch is the store
/// behind [`CoefficientSketch`](crate::CoefficientSketch).
#[derive(Debug)]
pub struct TensorSketch {
    basis: Arc<WaveletBasis>,
    dims: usize,
    intervals: [(f64, f64); 2],
    j0: i32,
    j_max: i32,
    budget: i32,
    pub(crate) count: usize,
    axes: [Vec<AxisComponent>; 2],
    /// The levels in canonical order (see `enumerate_levels`): for
    /// `dims == 1` the scaling level, then the detail levels `j0..=j_max`.
    pub(crate) levels: Vec<TensorLevel>,
    scratch: Option<Scratch>,
}

impl Clone for TensorSketch {
    fn clone(&self) -> Self {
        Self {
            basis: Arc::clone(&self.basis),
            dims: self.dims,
            intervals: self.intervals,
            j0: self.j0,
            j_max: self.j_max,
            budget: self.budget,
            count: self.count,
            axes: self.axes.clone(),
            levels: self.levels.clone(),
            // Scratch is pure accumulation workspace; clones start fresh.
            scratch: None,
        }
    }
}

impl TensorSketch {
    /// Builds a 1-D sketch: the scaling level `j0` and the detail levels
    /// `j0..=j_max` on `interval`.
    pub(crate) fn with_basis_1d(
        basis: Arc<WaveletBasis>,
        interval: (f64, f64),
        j0: i32,
        j_max: i32,
    ) -> Result<Self, EstimatorError> {
        Self::build(basis, 1, [interval; 2], j0, j_max, 0)
    }

    /// Builds a 2-D tensor-product sketch over `interval_x × interval_y`.
    ///
    /// The level set is the scaling layer `φ_{j0}⊗φ_{j0}`, the mixed
    /// orientations `ψ_j⊗φ_{j0}` and `φ_{j0}⊗ψ_j` for
    /// `j ∈ j0..=max_level`, and the wavelet–wavelet layers
    /// `ψ_{jx}⊗ψ_{jy}` for every pair with `jx + jy ≤ budget`.
    pub fn new_2d(
        family: WaveletFamily,
        interval_x: (f64, f64),
        interval_y: (f64, f64),
        coarse_level: i32,
        max_level: i32,
        budget: i32,
    ) -> Result<Self, EstimatorError> {
        Self::with_basis_2d(
            WaveletBasis::shared(family)?,
            interval_x,
            interval_y,
            coarse_level,
            max_level,
            budget,
        )
    }

    /// [`new_2d`](Self::new_2d) over an existing (possibly shared) basis.
    pub fn with_basis_2d(
        basis: Arc<WaveletBasis>,
        interval_x: (f64, f64),
        interval_y: (f64, f64),
        coarse_level: i32,
        max_level: i32,
        budget: i32,
    ) -> Result<Self, EstimatorError> {
        Self::build(
            basis,
            2,
            [interval_x, interval_y],
            coarse_level,
            max_level,
            budget,
        )
    }

    /// A 2-D sketch sized for `expected_n` observation pairs on the unit
    /// square, mirroring the 1-D
    /// [`sized_for`](crate::CoefficientSketch::sized_for) rule per axis:
    /// Symmlet-8, `j0` from the paper's coarse-level rule, per-axis
    /// `j_max = min(⌊log2 n⌋, j0 + 6)` and hyperbolic budget
    /// `j0 + j_max` (so the finest pure-wavelet layers pair the finest
    /// level on one axis with the coarsest on the other).
    pub fn sized_for_pairs(expected_n: usize) -> Result<Self, EstimatorError> {
        let n = expected_n.max(2);
        let family = WaveletFamily::Symmlet(8);
        let vanishing = 8;
        let j0 = default_coarse_level(n, vanishing);
        let j_max = cv_max_level(n).min(j0 + 6).max(j0);
        Self::new_2d(family, (0.0, 1.0), (0.0, 1.0), j0, j_max, j0 + j_max)
    }

    /// Builds the canonical level set of `(dims, j0, j_max, budget)`,
    /// refusing more slots in total than the cap of its dimension count
    /// ([`MAX_COEFFICIENT_SLOTS`] or [`MAX_TENSOR_SLOTS`]) before it
    /// allocates any level.
    pub(crate) fn build(
        basis: Arc<WaveletBasis>,
        dims: usize,
        intervals: [(f64, f64); 2],
        j0: i32,
        j_max: i32,
        budget: i32,
    ) -> Result<Self, EstimatorError> {
        if !(1..=2).contains(&dims) {
            return Err(EstimatorError::InvalidParameter {
                message: format!("tensor sketches support 1 or 2 dimensions, got {dims}"),
            });
        }
        for &(lo, hi) in intervals.iter().take(dims) {
            if !lo.is_finite() || !hi.is_finite() || lo >= hi {
                return Err(EstimatorError::InvalidInterval { lo, hi });
            }
        }
        if j0 < 0 {
            return Err(EstimatorError::InvalidLevels {
                message: format!("coarse level must be nonnegative, got {j0}"),
            });
        }
        if j_max < j0 {
            return Err(EstimatorError::InvalidLevels {
                message: format!("max level {j_max} below coarse level {j0}"),
            });
        }
        let axis_count = if dims == 2 { 2 } else { 1 };
        let mut axes: [Vec<AxisComponent>; 2] = [Vec::new(), Vec::new()];
        for (axis, components) in axes.iter_mut().enumerate().take(axis_count) {
            components.push(AxisComponent::new(
                &basis,
                intervals[axis],
                j0,
                Generator::Scaling,
            ));
            for level in j0..=j_max {
                components.push(AxisComponent::new(
                    &basis,
                    intervals[axis],
                    level,
                    Generator::Wavelet,
                ));
            }
        }
        let slot_cap = if dims == 1 {
            MAX_COEFFICIENT_SLOTS
        } else {
            MAX_TENSOR_SLOTS
        };
        let mut shapes = Vec::new();
        let mut total_slots = 0_usize;
        for selector in enumerate_levels(dims, j0, j_max, budget) {
            let cx = component_index(selector[0], j0);
            let cy = component_index(selector[1], j0);
            let slots = if dims == 2 {
                axes[0][cx].extent.saturating_mul(axes[1][cy].extent)
            } else {
                axes[0][cx].extent
            };
            total_slots = total_slots.saturating_add(slots);
            if total_slots > slot_cap {
                return Err(EstimatorError::InvalidParameter {
                    message: format!("level set holds more than {slot_cap} coefficient slots"),
                });
            }
            shapes.push(([cx, cy], slots));
        }
        let levels = shapes
            .into_iter()
            .map(|(component, slots)| TensorLevel::new(component, slots))
            .collect();
        Ok(Self {
            basis,
            dims,
            intervals,
            j0,
            j_max,
            budget,
            count: 0,
            axes,
            levels,
            scratch: None,
        })
    }

    /// Number of dimensions (1 or 2).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Observations accumulated so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether no observations have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The coarse resolution level `j0` (shared by both axes).
    pub fn coarse_level(&self) -> i32 {
        self.j0
    }

    /// The finest per-axis detail level.
    pub fn max_level(&self) -> i32 {
        self.j_max
    }

    /// The hyperbolic budget bounding `jx + jy` of the `ψ⊗ψ` layers
    /// (irrelevant for `dims == 1`).
    pub fn hyperbolic_budget(&self) -> i32 {
        self.budget
    }

    /// The accumulation interval of one axis (`axis < dims`).
    pub fn interval(&self, axis: usize) -> (f64, f64) {
        assert!(
            axis < self.dims,
            "axis {axis} out of range for {} dims",
            self.dims
        );
        self.intervals[axis]
    }

    /// The shared per-axis wavelet basis.
    pub fn basis(&self) -> &Arc<WaveletBasis> {
        &self.basis
    }

    /// Number of tensor levels in the canonical level set.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Total flattened coefficient slots across all levels.
    pub fn total_slots(&self) -> usize {
        self.levels.iter().map(|l| l.sums.len()).sum()
    }

    /// Ingests a batch of scalar observations (`dims == 1` only) through
    /// the fused scatter of
    /// [`CoefficientSketch::push_batch`](crate::CoefficientSketch::push_batch).
    ///
    /// # Panics
    /// If the sketch is 2-dimensional.
    pub(crate) fn push_scalars(&mut self, values: &[f64]) {
        assert_eq!(self.dims, 1, "push_scalars requires a 1-D tensor sketch");
        self.count += values.iter().filter(|x| x.is_finite()).count();
        let fine = self.first_fine_level(values.len());
        self.push_rows(values, fine, |&x| [x, x]);
        if fine < self.levels.len() {
            for rows in values.chunks(TILE_SUPER_CHUNK) {
                self.scatter_tiled(rows, fine);
            }
            // The bucketed rows (about 1 MiB) live for one batch only:
            // kept in the scratch of every live shard sketch, they added
            // 7 % to `bulk_load`'s peak RSS.
            if let Some(scratch) = &mut self.scratch {
                scratch.tiled = Vec::new();
            }
        }
    }

    /// The index of the first level a batch of `rows` scalars scatters
    /// region by region: the first detail level of more than
    /// [`TILE_MIN_SLOTS`] slots, once the batch holds at least
    /// [`TILE_GATE_ROWS`] rows; `levels.len()` (none) otherwise.
    fn first_fine_level(&self, rows: usize) -> usize {
        if rows < TILE_GATE_ROWS {
            return self.levels.len();
        }
        self.levels
            .iter()
            .skip(1)
            .position(|level| level.sums.len() > TILE_MIN_SLOTS)
            .map_or(self.levels.len(), |index| index + 1)
    }

    /// Scatters `rows` into the fine levels `levels[fine..]` of a 1-D
    /// sketch, region by region.
    ///
    /// Region `r` covers translations `[r·2^{B+d}, (r+1)·2^{B+d})` of the
    /// level `d` above the first fine level `L₀` (`B` is
    /// [`TILE_REGION_BITS`]), so each level's slots split into regions
    /// that fit in cache. One stable counting sort lists every row under
    /// the regions its translation window at `L₀`, `[⌊2^{L₀}x⌋ − S + 1,
    /// ⌊2^{L₀}x⌋]`, meets — two when it straddles an edge. Since
    /// `⌊2^{L₀+d}x⌋ ∈ [2^d⌊2^{L₀}x⌋, 2^d⌊2^{L₀}x⌋ + 2^d − 1]`, the window of
    /// any finer level meets only regions listed for the row. Every
    /// level then runs the one scatter driver per region, on that
    /// region's rows and slots, with `k_start` at the region's first
    /// translation, so the driver's clamp clips each window to the region.
    ///
    /// The sums are bitwise the chunk loop's: a slot receives exactly the
    /// rows whose window covers it, in batch order, since the sort is
    /// stable; a row listed in a region its clipped window misses adds
    /// nothing; and a window's values depend on its translations only,
    /// not on where the clamp starts it.
    fn scatter_tiled(&mut self, rows: &[f64], fine: usize) {
        let first = self.axes[0][self.levels[fine].component[0]];
        let region_range = |axis: &AxisComponent| {
            let bits = TILE_REGION_BITS + (axis.level - first.level) as u32;
            let k_last = axis.k_start + axis.extent as i64 - 1;
            (axis.k_start >> bits, k_last >> bits, bits)
        };
        let (mut r_min, mut r_max) = (i64::MAX, i64::MIN);
        for level in &self.levels[fine..] {
            let (lo, hi, _) = region_range(&self.axes[0][level.component[0]]);
            r_min = r_min.min(lo);
            r_max = r_max.max(hi);
        }
        let reach = self.basis.support_length() as i64 - 1;
        let regions = |x: f64| {
            let position = first.scale * x;
            if !position.is_finite() {
                return 0..0;
            }
            let k_hi = position.floor() as i64;
            let lo = (k_hi.saturating_sub(reach) >> TILE_REGION_BITS).max(r_min);
            let hi = (k_hi >> TILE_REGION_BITS).min(r_max);
            if lo > hi {
                return 0..0;
            }
            (lo - r_min) as usize..(hi - r_min + 1) as usize
        };

        let scratch = self
            .scratch
            .get_or_insert_with(|| Scratch::new(&self.basis, 0, 0));
        // Counting sort: bucket `b` is `tiled[starts[b]..starts[b + 1]]`.
        let buckets = (r_max - r_min + 1) as usize;
        let starts = &mut scratch.bucket_starts;
        starts.clear();
        starts.resize(buckets + 2, 0);
        for &x in rows {
            for bucket in regions(x) {
                starts[bucket + 2] += 1;
            }
        }
        for b in 2..starts.len() {
            starts[b] += starts[b - 1];
        }
        scratch.tiled.resize(starts[buckets + 1], 0.0);
        for &x in rows {
            for bucket in regions(x) {
                scratch.tiled[starts[bucket + 1]] = x;
                starts[bucket + 1] += 1;
            }
        }

        let table = self.basis.table();
        for level in &mut self.levels[fine..] {
            level.version += 1;
            let axis = self.axes[0][level.component[0]];
            let scatter = match axis.generator {
                Generator::Scaling => WaveletTable::scatter_rows_phi,
                Generator::Wavelet => WaveletTable::scatter_rows_psi,
            };
            let squares = Arc::make_mut(&mut level.sum_squares);
            let (lo, hi, bits) = region_range(&axis);
            let k_end = axis.k_start + axis.extent as i64;
            for region in lo..=hi {
                let bucket = (region - r_min) as usize;
                let xs = &scratch.tiled[starts[bucket]..starts[bucket + 1]];
                if xs.is_empty() {
                    continue;
                }
                let k_first = (region << bits).max(axis.k_start);
                let k_stop = ((region + 1) << bits).min(k_end);
                let slots = (k_first - axis.k_start) as usize..(k_stop - axis.k_start) as usize;
                scatter(
                    table,
                    xs,
                    OuterRows::Unit,
                    axis.scale,
                    axis.sqrt_scale,
                    k_first,
                    &mut scratch.fallback,
                    &mut level.sums[slots.clone()],
                    &mut squares[slots],
                );
            }
        }
    }

    /// The scalar reference path of [`push_scalars`](Self::push_scalars)
    /// (`dims == 1` only): one basis-function evaluation per
    /// `(observation, translation)` pair; see
    /// [`CoefficientSketch::push_batch_scalar`](crate::CoefficientSketch::push_batch_scalar).
    pub(crate) fn push_scalars_reference(&mut self, values: &[f64]) {
        assert_eq!(self.dims, 1, "push_scalars_reference is 1-D");
        self.count += values.iter().filter(|x| x.is_finite()).count();
        if values.is_empty() {
            return;
        }
        for level in &mut self.levels {
            let axis = self.axes[0][level.component[0]];
            level.version += 1;
            let accumulator =
                LevelAccumulator::new(&self.basis, axis.generator, axis.level, axis.k_start);
            let squares = Arc::make_mut(&mut level.sum_squares);
            for &x in values {
                accumulator.scatter(x, &mut level.sums, squares);
            }
        }
    }

    /// Ingests a batch of `(x, y)` observation pairs (`dims == 2` only).
    ///
    /// Each `x` factor (the `φ` row and one `ψ` row per level) is
    /// gathered **once** per observation through the 1-D polyphase fast
    /// path; every tensor level then runs the 1-D fused scatter over the
    /// `y` axis with those rows as its outer weights.
    ///
    /// A pair with a NaN or infinite coordinate is skipped and not
    /// counted; a finite pair outside the intervals counts toward `n`
    /// (the coefficients are means over every observation) but adds no
    /// mass.
    ///
    /// # Panics
    /// If the sketch is 1-dimensional.
    pub fn push_pairs(&mut self, rows: &[(f64, f64)]) {
        assert_eq!(self.dims, 2, "push_pairs requires a 2-D tensor sketch");
        self.count += rows
            .iter()
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .count();
        self.push_rows(rows, self.levels.len(), |&(x, y)| [x, y]);
    }

    /// The chunk loop of both dims: slices the batch into autotuned
    /// chunks (keyed by dims, support and level count) and scatters each
    /// into the first `levels` levels.
    fn push_rows<T>(
        &mut self,
        rows: &[T],
        levels: usize,
        coordinates: impl Fn(&T) -> [f64; 2] + Copy,
    ) {
        if rows.is_empty() {
            return;
        }
        let key = autotune::ChunkKey {
            dims: self.dims as u32,
            support: self.basis.support_length() as u32,
            levels: levels as u32,
        };
        let default = INGEST_CHUNK[self.dims - 1];
        let mut scatter = |chunk: &[T]| self.scatter_chunk(chunk, levels, coordinates);
        let (chunk_size, rest) = autotune::tuned_chunk(key, default, rows, &mut scatter);
        for chunk in rest.chunks(chunk_size) {
            scatter(chunk);
        }
    }

    /// The one level loop: for `dims == 2` gathers every `x` factor row of
    /// the chunk once, then runs each of the first `levels` levels through
    /// the fused scatter of its last axis, with the level's `x` rows (or,
    /// in 1-D, the unit row) as outer weights.
    fn scatter_chunk<T>(
        &mut self,
        chunk: &[T],
        levels: usize,
        coordinates: impl Fn(&T) -> [f64; 2],
    ) {
        let inner_axis = self.dims - 1;
        let outer_components = if self.dims == 2 {
            self.axes[0].len()
        } else {
            0
        };
        if self.scratch.as_ref().is_some_and(|s| s.rows < chunk.len()) {
            self.scratch = None;
        }
        let scratch = self
            .scratch
            .get_or_insert_with(|| Scratch::new(&self.basis, outer_components, chunk.len()));
        let (rows_cap, width) = (scratch.rows, scratch.width);
        let (table, support) = (self.basis.table(), self.basis.support_length());
        scratch.inner.clear();
        scratch
            .inner
            .extend(chunk.iter().map(|row| coordinates(row)[inner_axis]));
        for (c, comp) in self.axes[0].iter().enumerate().take(outer_components) {
            for (i, row) in chunk.iter().enumerate() {
                let position = comp.scale * coordinates(row)[0];
                let range = active_translations(support, position, comp.k_start, comp.extent);
                let slot = c * rows_cap + i;
                if range.is_empty() {
                    scratch.spans[slot] = (0, 0);
                    continue;
                }
                let (k_lo, len) = (*range.start(), (range.end() - range.start() + 1) as usize);
                scratch.spans[slot] = ((k_lo - comp.k_start) as u32, len as u32);
                let out = &mut scratch.weights[slot * width..slot * width + len];
                match comp.generator {
                    Generator::Scaling => table.gather_phi(position, k_lo, out),
                    Generator::Wavelet => table.gather_psi(position, k_lo, out),
                }
                for weight in out.iter_mut() {
                    *weight *= comp.sqrt_scale;
                }
            }
        }
        for level in &mut self.levels[..levels] {
            level.version += 1;
            let inner = self.axes[inner_axis][level.component[inner_axis]];
            let outer = if self.dims == 2 {
                let first = level.component[0] * rows_cap;
                OuterRows::Rows {
                    spans: &scratch.spans[first..first + chunk.len()],
                    weights: &scratch.weights[first * width..],
                    width,
                    extent: inner.extent,
                }
            } else {
                OuterRows::Unit
            };
            let scatter = match inner.generator {
                Generator::Scaling => WaveletTable::scatter_rows_phi,
                Generator::Wavelet => WaveletTable::scatter_rows_psi,
            };
            let squares = Arc::make_mut(&mut level.sum_squares);
            scatter(
                table,
                &scratch.inner,
                outer,
                inner.scale,
                inner.sqrt_scale,
                inner.k_start,
                &mut scratch.fallback,
                &mut level.sums,
                squares,
            );
        }
    }

    /// Resets the sketch to the empty state in place — zero observations,
    /// zero sums, every level stamp back to the never-touched 0 — keeping
    /// every allocation, so a window ring can reuse a retired slice as its
    /// fresh one.
    pub fn clear(&mut self) {
        self.count = 0;
        for level in &mut self.levels {
            level.clear();
        }
    }

    /// An empty sketch of the same geometry on fresh zeroed storage (see
    /// [`MergeableSketch::empty_like`](crate::MergeableSketch::empty_like)):
    /// nothing is copied, every level stamp is 0.
    pub(crate) fn empty_like(&self) -> Self {
        Self {
            basis: Arc::clone(&self.basis),
            dims: self.dims,
            intervals: self.intervals,
            j0: self.j0,
            j_max: self.j_max,
            budget: self.budget,
            count: 0,
            axes: self.axes.clone(),
            levels: self
                .levels
                .iter()
                .map(|level| TensorLevel::new(level.component, level.sums.len()))
                .collect(),
            scratch: None,
        }
    }

    /// Checks that `other` accumulates the same tensor coefficients as
    /// `self` (same family, table depth, dimensions, intervals, levels and
    /// budget).
    pub fn is_compatible(&self, other: &Self) -> Result<(), EstimatorError> {
        let mismatch = |message: String| EstimatorError::IncompatibleSketches { message };
        if self.basis.family() != other.basis.family() {
            return Err(mismatch(format!(
                "wavelet families differ: {:?} vs {:?}",
                self.basis.family(),
                other.basis.family()
            )));
        }
        let (depth, other_depth) = (self.basis.table().levels(), other.basis.table().levels());
        if depth != other_depth {
            return Err(mismatch(format!(
                "table depths differ: {depth} vs {other_depth}"
            )));
        }
        if self.dims != other.dims {
            return Err(mismatch(format!(
                "dimensions differ: {} vs {}",
                self.dims, other.dims
            )));
        }
        for axis in 0..self.dims {
            if self.intervals[axis] != other.intervals[axis] {
                return Err(mismatch(format!(
                    "axis {axis} intervals differ: {:?} vs {:?}",
                    self.intervals[axis], other.intervals[axis]
                )));
            }
        }
        if (self.j0, self.j_max, self.budget) != (other.j0, other.j_max, other.budget) {
            return Err(mismatch(format!(
                "level sets differ: ({}, {}, budget {}) vs ({}, {}, budget {})",
                self.j0, self.j_max, self.budget, other.j0, other.j_max, other.budget
            )));
        }
        Ok(())
    }

    /// Merges another sketch accumulated over the same tensor basis;
    /// exactly equivalent to having pushed both observation streams into
    /// one sketch (the raw sums and sums of squares add).
    pub fn merge(&mut self, other: &Self) -> Result<(), EstimatorError> {
        self.merge_scaled(other, 1.0)
    }

    /// [`merge`](Self::merge) with every contribution scaled by `weight`
    /// (decayed window folds): a sketch merged at weight `λᵃ` counts as if
    /// each of its observations appeared `λᵃ` times. The sums, sums of
    /// squares and the count scale (the count rounds to the nearest
    /// integer, saturating). At `weight == 1.0` this is bitwise `merge`.
    /// Fails on incompatible sketches and on a negative, NaN or infinite
    /// `weight`, leaving `self` untouched.
    pub fn merge_scaled(&mut self, other: &Self, weight: f64) -> Result<(), EstimatorError> {
        validate_merge_weight(weight)?;
        self.is_compatible(other)?;
        for (mine, theirs) in self.levels.iter_mut().zip(&other.levels) {
            mine.merge_scaled(theirs, weight);
        }
        self.count = self.count.saturating_add(scaled_count(other.count, weight));
        Ok(())
    }

    /// Overwrites this sketch with the contents of a compatible source,
    /// reusing the allocations (the engine's refresh scratch path). The
    /// level stamps advance strictly, so caches keyed to the target stay
    /// sound.
    pub fn copy_from(&mut self, source: &Self) -> Result<(), EstimatorError> {
        self.copy_scaled_from(source, 1.0)
    }

    /// [`copy_from`](Self::copy_from) with every copied sum and the count
    /// scaled by `weight` — windowed refreshes seed a reusable scratch
    /// sketch with the oldest (most decayed) slice this way before
    /// [`merge_scaled`](Self::merge_scaled)-folding the newer ones on top.
    /// Same weight validation as `merge_scaled`.
    pub fn copy_scaled_from(&mut self, source: &Self, weight: f64) -> Result<(), EstimatorError> {
        validate_merge_weight(weight)?;
        self.is_compatible(source)?;
        for (mine, theirs) in self.levels.iter_mut().zip(&source.levels) {
            mine.copy_scaled_from(theirs, weight);
        }
        self.count = scaled_count(source.count, weight);
        Ok(())
    }

    /// The empirical coefficients of every tensor level, each flattened
    /// into a pseudo-1-D [`LevelCoefficients`] (values are `sums / n`;
    /// the `level` tag is the finest per-axis level of the pair, the
    /// flattened slot index starts at `k_start = 0`). This is the view
    /// the level-wise CV pipeline consumes.
    pub fn snapshot_levels(&self) -> Result<Vec<LevelCoefficients>, EstimatorError> {
        if self.count == 0 {
            return Err(EstimatorError::EmptySample);
        }
        Ok((0..self.levels.len())
            .map(|index| self.level_coefficients(index))
            .collect())
    }

    /// The level at `index` as a 1-D coefficient set (values are
    /// `sums / n`). A 1-D level keeps its own generator, level and first
    /// translation; a 2-D level is flattened into a pseudo-1-D set tagged
    /// with the finest per-axis level of its pair, its slot index starting
    /// at `k_start = 0`.
    pub(crate) fn level_coefficients(&self, index: usize) -> LevelCoefficients {
        let level = &self.levels[index];
        let ax = self.axes[0][level.component[0]];
        let (tag_level, generator, k_start) = if self.dims == 2 {
            let ay = self.axes[1][level.component[1]];
            let wavelet = ax.generator == Generator::Wavelet || ay.generator == Generator::Wavelet;
            let generator = if wavelet {
                Generator::Wavelet
            } else {
                Generator::Scaling
            };
            (ax.level.max(ay.level), generator, 0)
        } else {
            (ax.level, ax.generator, ax.k_start)
        };
        let n = self.count as f64;
        LevelCoefficients {
            level: tag_level,
            generator,
            k_start,
            values: level.sums.iter().map(|s| s / n).collect(),
            sum_squares: Arc::clone(&level.sum_squares),
        }
    }

    /// Runs the level-wise CV+threshold pipeline over the flattened
    /// levels: the scaling layer is kept as-is, every other level gets a
    /// cross-validated threshold `λ` (exactly the 1-D
    /// [`cross_validate_level`] over the
    /// flattened coefficients) and `rule` applied slot by slot. The
    /// levels run through the CV fan-out of [`crate::cv`]: on
    /// `workpool::WorkPool::global()` when they hold at least 2^14 slots,
    /// with a result bitwise equal to the serial one.
    pub fn thresholded(&self, rule: ThresholdRule) -> Result<TensorEstimate, EstimatorError> {
        if self.count == 0 {
            return Err(EstimatorError::EmptySample);
        }
        let n = self.count;
        let criterion = CvCriterion::recommended_for(rule);
        // The scaling layer is never thresholded (same convention as the
        // 1-D pipeline); every other level is one job of the CV fan-out.
        let details = &self.levels[1..];
        let jobs = (1..self.levels.len()).map(|index| {
            let pseudo = self.level_coefficients(index);
            let order = Vec::with_capacity(pseudo.len());
            (pseudo, order)
        });
        let thresholded = run_levels(
            jobs,
            details.iter().map(|level| level.sums.len()).sum(),
            |(pseudo, _)| pseudo.len(),
            &mut (),
            |(mut pseudo, order), _| {
                let lambda = cross_validate_into(&pseudo, n, criterion, order).lambda;
                for beta in &mut pseudo.values {
                    *beta = rule.apply(*beta, lambda);
                }
                pseudo.values
            },
        );
        let all = std::iter::once(self.level_coefficients(0).values).chain(thresholded);
        let last = self.dims - 1;
        let levels = self
            .levels
            .iter()
            .zip(all)
            .map(|(level, coefficients)| EstimateLevel {
                axes: [
                    self.axes[0][level.component[0]],
                    self.axes[last][level.component[last]],
                ],
                surviving: coefficients.iter().filter(|c| **c != 0.0).count(),
                coefficients,
            })
            .collect();
        Ok(TensorEstimate {
            basis: Arc::clone(&self.basis),
            dims: self.dims,
            intervals: self.intervals,
            n,
            levels,
        })
    }

    /// Zeroes the cross-validated inactive state of every detail level.
    /// Levels whose CV active set is empty are cleared wholesale (the
    /// presence bitmap then elides them). Under [`ThresholdRule::Hard`]
    /// the sweep additionally zeroes *individual* slots the threshold
    /// kills: hard-thresholded survivors ship verbatim, so dropping the
    /// killed slots leaves the re-thresholded estimate pointwise
    /// identical while making the level coefficient-sparse on the wire.
    /// (Soft shrinkage depends on the selected `λ`, which the frame does
    /// not carry, so `Soft` stays level-granular.)
    fn zero_inactive_levels(&mut self, rule: ThresholdRule) -> Result<(), EstimatorError> {
        if self.count == 0 {
            return Ok(());
        }
        let n = self.count;
        let criterion = CvCriterion::recommended_for(rule);
        let per_slot = matches!(rule, ThresholdRule::Hard);
        for index in 1..self.levels.len() {
            if self.levels[index].is_zero() {
                continue;
            }
            let keep = {
                let pseudo = self.level_coefficients(index);
                let cv = cross_validate_level(&pseudo, n, criterion);
                if cv.kept == 0 {
                    None
                } else if per_slot && cv.kept < pseudo.values.len() {
                    Some(
                        pseudo
                            .values
                            .iter()
                            .map(|&beta| rule.apply(beta, cv.lambda) != 0.0)
                            .collect::<Vec<bool>>(),
                    )
                } else {
                    // Every slot survives: nothing to zero.
                    continue;
                }
            };
            let level = &mut self.levels[index];
            match keep {
                None => level.clear(),
                Some(keep) => {
                    let squares = Arc::make_mut(&mut level.sum_squares);
                    let mut changed = false;
                    for (slot, kept) in keep.iter().enumerate() {
                        if !kept && (level.sums[slot] != 0.0 || squares[slot] != 0.0) {
                            level.sums[slot] = 0.0;
                            squares[slot] = 0.0;
                            changed = true;
                        }
                    }
                    if changed {
                        level.version += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Produces a compacted clone for shipping, mirroring the 1-D
    /// [`compact`](crate::CoefficientSketch::compact) semantics on the
    /// tensor level set: `Dense` keeps everything, `InactiveTail` zeroes
    /// the CV-inactive levels — and, under [`ThresholdRule::Hard`], the
    /// individually killed slots (lossless — pointwise-identical
    /// estimates), `ByteBudget` additionally zeroes the finest remaining
    /// levels until
    /// the frame fits (best-effort, potentially lossy; the scaling layer
    /// is never dropped).
    pub fn compact(
        &self,
        policy: CompactionPolicy,
        rule: ThresholdRule,
    ) -> Result<Self, EstimatorError> {
        let mut compacted = self.clone();
        match policy {
            CompactionPolicy::Dense => {}
            CompactionPolicy::InactiveTail => compacted.zero_inactive_levels(rule)?,
            CompactionPolicy::ByteBudget { max_bytes } => {
                compacted.zero_inactive_levels(rule)?;
                let keep = codec::levels_within(&compacted, max_bytes);
                for level in &mut compacted.levels[keep..] {
                    level.clear();
                }
            }
        }
        Ok(compacted)
    }

    /// Keeps the scaling level and the `details` coarsest detail levels of
    /// a 1-D sketch, lowering `j_max` to match: what 1-D compaction ships.
    /// The truncated sketch merges only with sketches of the same shape.
    pub(crate) fn truncate_details(&mut self, details: usize) {
        debug_assert!(self.dims == 1 && (1..self.levels.len()).contains(&details));
        self.levels.truncate(1 + details);
        self.axes[0].truncate(1 + details);
        self.j_max = self.j0 + details as i32 - 1;
    }

    /// Exact length of [`to_bytes`](Self::to_bytes).
    pub fn serialized_len(&self) -> usize {
        codec::encoded_len(self)
    }

    /// Serializes the sketch as a compact [frame](crate::codec): all-zero
    /// levels elided, the others dense or coefficient-sparse, whichever is
    /// smaller. Lossless, bit for bit.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::encode(self, None, false)
    }

    /// Serializes with every level present and dense payloads — the
    /// uncompacted baseline the compaction ratio is measured against.
    pub fn to_bytes_dense(&self) -> Vec<u8> {
        codec::encode(self, None, true)
    }

    /// [`to_bytes`](Self::to_bytes) with the window block set to `meta`,
    /// so a receiver can place the slice in its own ring.
    pub fn to_bytes_with_window(&self, meta: &WindowSliceMeta) -> Vec<u8> {
        codec::encode(self, Some(meta), false)
    }

    /// Deserializes a frame of a 2-D sketch. A 1-D frame, like any
    /// corrupted or hostile one, is rejected with
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
        codec::decode(bytes, 2)
    }
}

/// The canonical tensor level list derived from `(dims, j0, j_max,
/// budget)`: the scaling layer, then `ψ_j⊗φ_{j0}`, then `φ_{j0}⊗ψ_j`,
/// then `ψ_{jx}⊗ψ_{jy}` under the hyperbolic cut, each block in
/// ascending level order. The wire format relies on this list being a
/// pure function of the four header parameters.
pub(crate) fn enumerate_levels(
    dims: usize,
    j0: i32,
    j_max: i32,
    budget: i32,
) -> Vec<[(Generator, i32); 2]> {
    let scaling = (Generator::Scaling, j0);
    let mut levels = vec![[scaling, scaling]];
    for j in j0..=j_max {
        levels.push([(Generator::Wavelet, j), scaling]);
    }
    if dims == 1 {
        return levels;
    }
    for j in j0..=j_max {
        levels.push([scaling, (Generator::Wavelet, j)]);
    }
    for jx in j0..=j_max {
        for jy in j0..=j_max {
            if jx + jy <= budget {
                levels.push([(Generator::Wavelet, jx), (Generator::Wavelet, jy)]);
            }
        }
    }
    levels
}

/// Index of a `(generator, level)` factor in the per-axis component list
/// (`φ_{j0}` first, then `ψ_{j0}..ψ_{j_max}`).
fn component_index(selector: (Generator, i32), j0: i32) -> usize {
    match selector.0 {
        Generator::Scaling => 0,
        Generator::Wavelet => 1 + (selector.1 - j0) as usize,
    }
}

/// One thresholded tensor level of a [`TensorEstimate`].
#[derive(Debug, Clone)]
struct EstimateLevel {
    axes: [AxisComponent; 2],
    coefficients: Vec<f64>,
    surviving: usize,
}

/// A thresholded tensor-product density expansion, produced by
/// [`TensorSketch::thresholded`].
#[derive(Debug, Clone)]
pub struct TensorEstimate {
    basis: Arc<WaveletBasis>,
    dims: usize,
    intervals: [(f64, f64); 2],
    n: usize,
    levels: Vec<EstimateLevel>,
}

impl TensorEstimate {
    /// Number of dimensions (1 or 2).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Sample size behind the empirical coefficients.
    pub fn sample_size(&self) -> usize {
        self.n
    }

    /// Total coefficients surviving thresholding (scaling layer
    /// included).
    pub fn surviving_coefficients(&self) -> usize {
        self.levels.iter().map(|l| l.surviving).sum()
    }

    /// The thresholded coefficients of every level, in the order and
    /// flattening of [`TensorSketch::snapshot_levels`] (scaling layer
    /// first, kept as is).
    pub fn level_coefficients(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.levels.iter().map(|l| l.coefficients.as_slice())
    }

    /// Evaluates the 2-D density expansion on the tensor grid
    /// `grid_x × grid_y`, returned row-major (`x` major). Each surviving
    /// coefficient sweeps its compact support with two 1-D strided table
    /// passes — one per axis — and scatters their outer product.
    ///
    /// # Panics
    /// If the estimate is 1-dimensional.
    pub fn density_grid(&self, grid_x: &Grid, grid_y: &Grid) -> Vec<f64> {
        assert_eq!(self.dims, 2, "density_grid requires a 2-D estimate");
        let nx = grid_x.len();
        let ny = grid_y.len();
        let mut out = vec![0.0; nx * ny];
        let support = self.basis.support_length();
        let table = self.basis.table();
        let mut row_x: Vec<f64> = Vec::new();
        let mut row_y: Vec<f64> = Vec::new();
        for level in &self.levels {
            if level.surviving == 0 {
                continue;
            }
            let ax = level.axes[0];
            let ay = level.axes[1];
            let stride_x = ax.scale * grid_x.step();
            let stride_y = ay.scale * grid_y.step();
            for (m, &coeff) in level.coefficients.iter().enumerate() {
                if coeff == 0.0 {
                    continue;
                }
                let kx = ax.k_start + (m / ay.extent) as i64;
                let ky = ay.k_start + (m % ay.extent) as i64;
                let Some((first_x, last_x, u0_x)) =
                    coefficient_window(grid_x, ax.scale, support, kx, nx)
                else {
                    continue;
                };
                let Some((first_y, last_y, u0_y)) =
                    coefficient_window(grid_y, ay.scale, support, ky, ny)
                else {
                    continue;
                };
                row_x.clear();
                row_x.resize(last_x - first_x + 1, 0.0);
                match ax.generator {
                    Generator::Scaling => {
                        table.accumulate_phi(u0_x, stride_x, ax.sqrt_scale, &mut row_x)
                    }
                    Generator::Wavelet => {
                        table.accumulate_psi(u0_x, stride_x, ax.sqrt_scale, &mut row_x)
                    }
                }
                row_y.clear();
                row_y.resize(last_y - first_y + 1, 0.0);
                match ay.generator {
                    Generator::Scaling => {
                        table.accumulate_phi(u0_y, stride_y, ay.sqrt_scale, &mut row_y)
                    }
                    Generator::Wavelet => {
                        table.accumulate_psi(u0_y, stride_y, ay.sqrt_scale, &mut row_y)
                    }
                }
                for (i, &vx) in row_x.iter().enumerate() {
                    if vx == 0.0 {
                        continue;
                    }
                    let weight = coeff * vx;
                    let base = (first_x + i) * ny + first_y;
                    for (j, &vy) in row_y.iter().enumerate() {
                        out[base + j] += weight * vy;
                    }
                }
            }
        }
        out
    }

    /// Builds the joint cumulative grid of the 2-D expansion on a
    /// `points_x × points_y` tensor grid over the accumulation
    /// rectangle.
    ///
    /// # Panics
    /// If the estimate is 1-dimensional.
    pub fn cumulative(&self, points_x: usize, points_y: usize) -> TensorCumulative {
        assert_eq!(self.dims, 2, "cumulative requires a 2-D estimate");
        let (lo_x, hi_x) = self.intervals[0];
        let (lo_y, hi_y) = self.intervals[1];
        let grid_x = Grid::new(lo_x, hi_x, points_x.max(2));
        let grid_y = Grid::new(lo_y, hi_y, points_y.max(2));
        let density = self.density_grid(&grid_x, &grid_y);
        TensorCumulative::from_density(grid_x, grid_y, &density)
    }
}

/// A precomputed joint CDF grid over a rectangle, answering range-mass
/// queries by inclusion–exclusion of four bilinear corner lookups.
///
/// Construction clamps the density at zero and accumulates nonnegative
/// per-cell trapezoid masses into a 2-D prefix grid; the bilinear
/// interpolant of that grid is the exact CDF of the measure spreading
/// each cell's mass uniformly over the cell. Rectangle masses are
/// therefore nonnegative and exactly additive across abutting
/// rectangles.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorCumulative {
    grid_x: Grid,
    grid_y: Grid,
    cumulative: Vec<f64>,
}

impl TensorCumulative {
    /// Builds the prefix-mass grid from a row-major density sample on
    /// `grid_x × grid_y` (negative density values are clamped to zero).
    ///
    /// # Panics
    /// If `density.len() != grid_x.len() * grid_y.len()`.
    pub fn from_density(grid_x: Grid, grid_y: Grid, density: &[f64]) -> Self {
        let nx = grid_x.len();
        let ny = grid_y.len();
        assert_eq!(density.len(), nx * ny, "density grid size mismatch");
        let cell_weight = 0.25 * grid_x.step() * grid_y.step();
        let mut cumulative = vec![0.0; nx * ny];
        for i in 1..nx {
            for j in 1..ny {
                let d00 = density[(i - 1) * ny + (j - 1)].max(0.0);
                let d10 = density[i * ny + (j - 1)].max(0.0);
                let d01 = density[(i - 1) * ny + j].max(0.0);
                let d11 = density[i * ny + j].max(0.0);
                let mass = cell_weight * (d00 + d10 + d01 + d11);
                cumulative[i * ny + j] = cumulative[(i - 1) * ny + j]
                    + cumulative[i * ny + (j - 1)]
                    - cumulative[(i - 1) * ny + (j - 1)]
                    + mass;
            }
        }
        Self {
            grid_x,
            grid_y,
            cumulative,
        }
    }

    /// The evaluation grid along `x`.
    pub fn grid_x(&self) -> &Grid {
        &self.grid_x
    }

    /// The evaluation grid along `y`.
    pub fn grid_y(&self) -> &Grid {
        &self.grid_y
    }

    /// Total mass over the full rectangle.
    pub fn total_mass(&self) -> f64 {
        *self
            .cumulative
            .last()
            .expect("grids have at least 2 points")
    }

    /// Fractional grid position of `v` along one axis (clamped).
    fn axis_position(grid: &Grid, v: f64) -> f64 {
        if v <= grid.lo() {
            return 0.0;
        }
        if v >= grid.hi() {
            return (grid.len() - 1) as f64;
        }
        (v - grid.lo()) / grid.step()
    }

    /// The joint CDF `F(x, y)` — the mass over `(-∞, x] × (-∞, y]` —
    /// by bilinear interpolation of the prefix grid. NaN arguments
    /// answer 0.
    pub fn cdf(&self, x: f64, y: f64) -> f64 {
        if x.is_nan() || y.is_nan() {
            return 0.0;
        }
        let ny = self.grid_y.len();
        let px = Self::axis_position(&self.grid_x, x);
        let py = Self::axis_position(&self.grid_y, y);
        let cx = (px as usize).min(self.grid_x.len() - 2);
        let cy = (py as usize).min(ny - 2);
        let fx = px - cx as f64;
        let fy = py - cy as f64;
        let c00 = self.cumulative[cx * ny + cy];
        let c10 = self.cumulative[(cx + 1) * ny + cy];
        let c01 = self.cumulative[cx * ny + cy + 1];
        let c11 = self.cumulative[(cx + 1) * ny + cy + 1];
        (1.0 - fx) * (1.0 - fy) * c00
            + fx * (1.0 - fy) * c10
            + (1.0 - fx) * fy * c01
            + fx * fy * c11
    }

    /// Mass of the rectangle `x_range × y_range` by inclusion–exclusion
    /// of the four corner CDF lookups:
    /// `F(b₁,b₂) − F(a₁,b₂) − F(b₁,a₂) + F(a₁,a₂)`. Reversed or NaN
    /// ranges answer 0; the result is clamped at 0 against floating-point
    /// cancellation.
    pub fn range_mass(&self, x_range: (f64, f64), y_range: (f64, f64)) -> f64 {
        let (ax, bx) = x_range;
        let (ay, by) = y_range;
        if ax.is_nan() || bx.is_nan() || ay.is_nan() || by.is_nan() {
            return 0.0;
        }
        if bx <= ax || by <= ay {
            return 0.0;
        }
        (self.cdf(bx, by) - self.cdf(ax, by) - self.cdf(bx, ay) + self.cdf(ax, ay)).max(0.0)
    }

    /// The selectivity of the rectangle predicate: range mass normalised
    /// by total mass, clamped to `[0, 1]`. Answers 0 when the total mass
    /// is numerically negligible.
    pub fn selectivity(&self, x_range: (f64, f64), y_range: (f64, f64)) -> f64 {
        let total = self.total_mass();
        if total <= TOTAL_MASS_FLOOR {
            return 0.0;
        }
        (self.range_mass(x_range, y_range) / total).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::CoefficientSketch;
    use rand::Rng;
    use wavedens_processes::seeded_rng;

    fn pairs(n: usize, seed: u64, noise: f64) -> Vec<(f64, f64)> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| {
                let x: f64 = rng.gen();
                let y = (x + noise * (2.0 * rng.gen::<f64>() - 1.0)).rem_euclid(1.0);
                (x, y)
            })
            .collect()
    }

    fn small_2d() -> TensorSketch {
        TensorSketch::new_2d(WaveletFamily::Symmlet(8), (0.0, 1.0), (0.0, 1.0), 1, 4, 5)
            .expect("valid 2-D sketch")
    }

    #[test]
    fn dims1_sums_are_bitwise_identical_to_coefficient_sketch() {
        let mut rng = seeded_rng(7);
        let sample: Vec<f64> = (0..700).map(|_| rng.gen()).collect();
        let basis = Arc::new(WaveletBasis::new(WaveletFamily::Symmlet(8)).unwrap());
        let mut reference =
            CoefficientSketch::with_basis(Arc::clone(&basis), (0.0, 1.0), 2, 6).unwrap();
        let mut tensor = TensorSketch::with_basis_1d(basis, (0.0, 1.0), 2, 6).unwrap();
        // Mixed slicings: the chunk boundaries must not matter.
        reference.push_batch(&sample[..611]);
        reference.push_batch(&sample[611..]);
        tensor.push_scalars(&sample[..611]);
        tensor.push_scalars(&sample[611..]);
        assert_eq!(tensor.count(), reference.count());
        let snapshot = reference.snapshot().unwrap();
        let reference_levels: Vec<&LevelCoefficients> = std::iter::once(snapshot.scaling())
            .chain(snapshot.details())
            .collect();
        let tensor_levels = tensor.snapshot_levels().unwrap();
        assert_eq!(tensor_levels.len(), reference_levels.len());
        for (mine, theirs) in tensor_levels.iter().zip(reference_levels) {
            assert_eq!(mine.values.len(), theirs.values.len());
            for (a, b) in mine.values.iter().zip(&theirs.values) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in mine.sum_squares.iter().zip(theirs.sum_squares.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn merge_matches_single_stream() {
        let rows = pairs(900, 11, 0.1);
        let mut single = small_2d();
        single.push_pairs(&rows);
        let mut left = small_2d();
        let mut right = small_2d();
        left.push_pairs(&rows[..450]);
        right.push_pairs(&rows[450..]);
        left.merge(&right).unwrap();
        assert_eq!(left.count(), single.count());
        for (a, b) in left.levels.iter().zip(&single.levels) {
            for (x, y) in a.sums.iter().zip(&b.sums) {
                assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()));
            }
        }
    }

    #[test]
    fn merge_scaled_at_weight_one_is_bitwise_merge() {
        let rows = pairs(300, 3, 0.05);
        let mut merged = small_2d();
        let mut scaled = small_2d();
        let mut other = small_2d();
        other.push_pairs(&rows[..150]);
        merged.push_pairs(&rows[150..]);
        scaled.push_pairs(&rows[150..]);
        merged.merge(&other).unwrap();
        scaled.merge_scaled(&other, 1.0).unwrap();
        assert_eq!(merged.count(), scaled.count());
        for (a, b) in merged.levels.iter().zip(&scaled.levels) {
            for (x, y) in a.sums.iter().zip(&b.sums) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in a.sum_squares.iter().zip(b.sum_squares.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn incompatible_sketches_are_rejected() {
        let mut a = small_2d();
        let b = TensorSketch::new_2d(WaveletFamily::Symmlet(8), (0.0, 1.0), (0.0, 1.0), 1, 4, 4)
            .unwrap();
        assert!(matches!(
            a.merge(&b),
            Err(EstimatorError::IncompatibleSketches { .. })
        ));
        let basis = Arc::new(WaveletBasis::new(WaveletFamily::Symmlet(8)).unwrap());
        let c = TensorSketch::with_basis_1d(basis, (0.0, 1.0), 1, 4).unwrap();
        assert!(matches!(
            a.merge(&c),
            Err(EstimatorError::IncompatibleSketches { .. })
        ));
        // Same family and level set, but sums drawn from a coarser table.
        let coarse =
            Arc::new(WaveletBasis::with_table_levels(WaveletFamily::Symmlet(8), 6).unwrap());
        let mut shallow = CoefficientSketch::with_basis(coarse, (0.0, 1.0), 2, 5).unwrap();
        let mut default =
            CoefficientSketch::new(WaveletFamily::Symmlet(8), (0.0, 1.0), 2, 5).unwrap();
        assert!(matches!(
            default.merge(&shallow),
            Err(EstimatorError::IncompatibleSketches { .. })
        ));
        assert!(matches!(
            shallow.merge(&default),
            Err(EstimatorError::IncompatibleSketches { .. })
        ));
    }

    #[test]
    fn serialization_round_trips_bitwise() {
        let rows = pairs(800, 23, 0.08);
        let mut sketch = small_2d();
        sketch.push_pairs(&rows);
        let bytes = sketch.to_bytes();
        assert_eq!(bytes.len(), sketch.serialized_len());
        let restored = TensorSketch::from_bytes(&bytes).unwrap();
        assert_eq!(restored.count(), sketch.count());
        assert_eq!(restored.dims(), 2);
        for (a, b) in restored.levels.iter().zip(&sketch.levels) {
            for (x, y) in a.sums.iter().zip(&b.sums) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in a.sum_squares.iter().zip(b.sum_squares.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Dense framing round-trips to the same state too.
        let dense = TensorSketch::from_bytes(&sketch.to_bytes_dense()).unwrap();
        for (a, b) in dense.levels.iter().zip(&sketch.levels) {
            for (x, y) in a.sums.iter().zip(&b.sums) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn compacted_frames_shrink_and_stay_lossless() {
        let rows = pairs(4096, 41, 0.05);
        let mut sketch = TensorSketch::sized_for_pairs(4096).unwrap();
        sketch.push_pairs(&rows);
        let rule = ThresholdRule::Hard;
        let compacted = sketch
            .compact(CompactionPolicy::InactiveTail, rule)
            .unwrap();
        let compact_bytes = compacted.to_bytes();
        let dense_bytes = sketch.to_bytes_dense();
        assert!(
            dense_bytes.len() >= 5 * compact_bytes.len(),
            "dense {} vs compact {}",
            dense_bytes.len(),
            compact_bytes.len()
        );
        // Lossless: the estimates agree pointwise on a probe grid.
        let restored = TensorSketch::from_bytes(&compact_bytes).unwrap();
        let grid_x = Grid::new(0.0, 1.0, 65);
        let grid_y = Grid::new(0.0, 1.0, 65);
        let original = sketch
            .thresholded(rule)
            .unwrap()
            .density_grid(&grid_x, &grid_y);
        let shipped = restored
            .thresholded(rule)
            .unwrap()
            .density_grid(&grid_x, &grid_y);
        for (a, b) in original.iter().zip(&shipped) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn byte_budget_fits_best_effort() {
        let rows = pairs(2000, 5, 0.2);
        let mut sketch = small_2d();
        sketch.push_pairs(&rows);
        let budget = 4096;
        let compacted = sketch
            .compact(
                CompactionPolicy::ByteBudget { max_bytes: budget },
                ThresholdRule::Hard,
            )
            .unwrap();
        assert!(
            compacted.serialized_len() <= budget.max(compacted.levels[0].sums.len() * 16 + 128)
        );
        // The scaling layer always survives.
        assert!(!compacted.levels[0].is_zero());
    }

    #[test]
    fn cumulative_masses_are_nonnegative_and_additive() {
        let rows = pairs(2048, 17, 0.07);
        let mut sketch = TensorSketch::sized_for_pairs(2048).unwrap();
        sketch.push_pairs(&rows);
        let cumulative = sketch
            .thresholded(ThresholdRule::Hard)
            .unwrap()
            .cumulative(129, 129);
        assert!(cumulative.total_mass() > 0.5);
        let rects = [
            ((0.1, 0.4), (0.2, 0.5)),
            ((0.0, 1.0), (0.0, 1.0)),
            ((0.33, 0.34), (0.9, 0.99)),
        ];
        for (xr, yr) in rects {
            assert!(cumulative.range_mass(xr, yr) >= 0.0);
        }
        // Abutting rectangles add exactly.
        let whole = cumulative.range_mass((0.1, 0.7), (0.2, 0.6));
        let left = cumulative.range_mass((0.1, 0.45), (0.2, 0.6));
        let right = cumulative.range_mass((0.45, 0.7), (0.2, 0.6));
        assert!((whole - (left + right)).abs() <= 1e-9);
        let bottom = cumulative.range_mass((0.1, 0.7), (0.2, 0.37));
        let top = cumulative.range_mass((0.1, 0.7), (0.37, 0.6));
        assert!((whole - (bottom + top)).abs() <= 1e-9);
        // Reversed and NaN ranges answer zero.
        assert_eq!(cumulative.range_mass((0.5, 0.2), (0.1, 0.9)), 0.0);
        assert_eq!(cumulative.range_mass((f64::NAN, 0.2), (0.1, 0.9)), 0.0);
    }

    #[test]
    fn empty_sketches_cannot_estimate_and_frames_without_mass_decode() {
        let sketch = small_2d();
        assert!(matches!(
            sketch.thresholded(ThresholdRule::Hard),
            Err(EstimatorError::EmptySample)
        ));
        let restored = TensorSketch::from_bytes(&sketch.to_bytes()).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // A tiny Haar frame keeps the exhaustive truncation sweep cheap
        // (every prefix past the header pays a basis construction).
        let rows = pairs(64, 31, 0.1);
        let mut sketch =
            TensorSketch::new_2d(WaveletFamily::Haar, (0.0, 1.0), (0.0, 1.0), 0, 1, 2).unwrap();
        sketch.push_pairs(&rows);
        let bytes = sketch.to_bytes();
        // Truncations at every prefix length must error, never panic.
        for len in 0..bytes.len() {
            assert!(
                TensorSketch::from_bytes(&bytes[..len]).is_err(),
                "prefix {len}"
            );
        }
        // Trailing garbage is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(TensorSketch::from_bytes(&padded).is_err());
        // A 1-D frame is not a tensor frame, and a tensor frame is not a
        // 1-D frame.
        let mut one_d = CoefficientSketch::sized_for(256).unwrap();
        one_d.push_batch(&[0.5; 64]);
        assert!(TensorSketch::from_bytes(&one_d.to_bytes()).is_err());
        assert!(CoefficientSketch::from_bytes(&bytes).is_err());
        // Single-bit flips in the header region must never panic.
        for bit in 0..(bytes.len().min(80) * 8) {
            let mut corrupted = bytes.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            let _ = TensorSketch::from_bytes(&corrupted);
        }
    }

    /// Each face decodes only its own dims: a 1-D frame is refused by
    /// `TensorSketch::from_bytes` instead of reaching the 2-D-only
    /// estimate path, and a 2-D frame by `CoefficientSketch::from_bytes`.
    #[test]
    fn frames_of_the_other_dims_are_rejected() {
        let basis = Arc::new(WaveletBasis::new(WaveletFamily::Haar).unwrap());
        let mut sketch = TensorSketch::with_basis_1d(basis, (0.0, 1.0), 0, 2).unwrap();
        sketch.push_scalars(&[0.1, 0.4, 0.7]);
        let one_d = sketch.to_bytes();
        assert_eq!(one_d[9], 1, "the frame declares one dimension");
        assert!(CoefficientSketch::from_bytes(&one_d).is_ok());
        assert!(matches!(
            TensorSketch::from_bytes(&one_d),
            Err(EstimatorError::InvalidSerialization { .. })
        ));
        let mut joint = small_2d();
        joint.push_pairs(&pairs(50, 9, 0.1));
        for two_d in [joint.to_bytes(), joint.to_bytes_dense()] {
            assert_eq!(two_d[9], 2, "the frame declares two dimensions");
            assert!(TensorSketch::from_bytes(&two_d).is_ok());
            assert!(matches!(
                CoefficientSketch::from_bytes(&two_d),
                Err(EstimatorError::InvalidSerialization { .. })
            ));
        }
    }

    #[test]
    fn clear_resets_in_place() {
        let rows = pairs(300, 2, 0.1);
        let mut sketch = small_2d();
        sketch.push_pairs(&rows);
        sketch.clear();
        assert!(sketch.is_empty());
        assert!(sketch.levels.iter().all(TensorLevel::is_zero));
        sketch.push_pairs(&rows);
        let mut fresh = small_2d();
        fresh.push_pairs(&rows);
        for (a, b) in sketch.levels.iter().zip(&fresh.levels) {
            for (x, y) in a.sums.iter().zip(&b.sums) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(
            TensorSketch::new_2d(WaveletFamily::Symmlet(8), (1.0, 0.0), (0.0, 1.0), 1, 3, 4)
                .is_err()
        );
        assert!(
            TensorSketch::new_2d(WaveletFamily::Symmlet(8), (0.0, 1.0), (0.0, 1.0), 3, 1, 4)
                .is_err()
        );
        assert!(
            TensorSketch::new_2d(WaveletFamily::Symmlet(8), (0.0, 1.0), (0.0, 1.0), -1, 3, 4)
                .is_err()
        );
        // Slot-cap guard: an absurd level range is refused at
        // construction.
        assert!(
            TensorSketch::new_2d(WaveletFamily::Symmlet(8), (0.0, 1.0), (0.0, 1.0), 1, 14, 28)
                .is_err()
        );
        // Decoding applies the same cap: Haar levels up to 20 hold exactly
        // 2^22 slots and build and decode; the same frame declaring
        // `j_max = 21` (2^23 slots, same bitmap length) is refused for its
        // slot count, like the sketch it describes.
        let haar =
            |j_max| TensorSketch::new_2d(WaveletFamily::Haar, (0.0, 1.0), (0.0, 1.0), 0, j_max, 0);
        let fits = haar(20).unwrap().to_bytes();
        assert_eq!(TensorSketch::from_bytes(&fits).unwrap().max_level(), 20);
        assert!(haar(21).is_err());
        let mut over = fits;
        over[23..27].copy_from_slice(&21_i32.to_le_bytes()); // j_max
        assert!(matches!(
            TensorSketch::from_bytes(&over),
            Err(EstimatorError::InvalidSerialization { message })
                if message.contains("more than 4194304 coefficient slots")
        ));
    }

    /// The pointwise value `δ_{j,k}(x)` of one axis factor.
    fn factor(basis: &WaveletBasis, axis: &AxisComponent, k: i64, x: f64) -> f64 {
        match axis.generator {
            Generator::Scaling => basis.phi_jk(axis.level, k, x),
            Generator::Wavelet => basis.psi_jk(axis.level, k, x),
        }
    }

    /// Calls `visit(level, kx, ky, sum)` for every slot of a 2-D sketch.
    fn for_each_slot(sketch: &TensorSketch, mut visit: impl FnMut(&TensorLevel, i64, i64, f64)) {
        for level in &sketch.levels {
            let ax = &sketch.axes[0][level.component[0]];
            let ay = &sketch.axes[1][level.component[1]];
            for (slot, &sum) in level.sums.iter().enumerate() {
                let kx = ax.k_start + (slot / ay.extent) as i64;
                let ky = ay.k_start + (slot % ay.extent) as i64;
                visit(level, kx, ky, sum);
            }
        }
    }

    /// One pair pushed into a 2-D sketch leaves, in every slot of every
    /// level, the separable product of the two axis factors at that pair.
    #[test]
    fn product_is_separable() {
        let point = (0.31, 0.67);
        let mut sketch = small_2d();
        sketch.push_pairs(&[point]);
        let basis = Arc::clone(&sketch.basis);
        let mut touched = 0;
        for_each_slot(&sketch, |level, kx, ky, sum| {
            let fx = factor(&basis, &sketch.axes[0][level.component[0]], kx, point.0);
            let fy = factor(&basis, &sketch.axes[1][level.component[1]], ky, point.1);
            let expected = fx * fy;
            assert!(
                (sum - expected).abs() <= 1e-12 * (1.0 + expected.abs()),
                "slot ({kx}, {ky}): {sum} vs {expected}"
            );
            touched += usize::from(sum != 0.0);
        });
        assert!(touched > 0, "the pair must reach some slot");
    }

    /// A slot whose product support misses the pair stays exactly zero,
    /// in its sum and its sum of squares.
    #[test]
    fn vanishes_outside_product_support() {
        let point = (0.4375, 0.05);
        let mut sketch = small_2d();
        sketch.push_pairs(&[point]);
        let support = sketch.basis.support_length();
        let inside = |axis: &AxisComponent, k: i64, x: f64| {
            let offset = axis.scale * x - k as f64;
            offset > 0.0 && offset < support
        };
        let mut outside = 0;
        for_each_slot(&sketch, |level, kx, ky, sum| {
            let ax = &sketch.axes[0][level.component[0]];
            let ay = &sketch.axes[1][level.component[1]];
            if !(inside(ax, kx, point.0) && inside(ay, ky, point.1)) {
                let slot = (kx - ax.k_start) as usize * ay.extent + (ky - ay.k_start) as usize;
                assert_eq!(sum.to_bits(), 0.0_f64.to_bits(), "slot ({kx}, {ky})");
                assert_eq!(level.sum_squares[slot].to_bits(), 0.0_f64.to_bits());
                outside += 1;
            }
        });
        assert!(outside > 0, "the sketch must hold slots the pair misses");
    }

    /// The per-axis table gather the 2-D scatter runs matches the
    /// pointwise factor, divided by its `2^{j/2}` normalisation, on every
    /// translation the scatter visits.
    #[test]
    fn gather_matches_pointwise_factor() {
        let sketch = small_2d();
        let (basis, support) = (&sketch.basis, sketch.basis.support_length());
        let x = 0.4375;
        for axis in &sketch.axes[0] {
            let position = axis.scale * x;
            let range = active_translations(support, position, axis.k_start, axis.extent);
            let mut row = vec![0.0; (range.end() - range.start() + 1) as usize];
            match axis.generator {
                Generator::Scaling => basis.table().gather_phi(position, *range.start(), &mut row),
                Generator::Wavelet => basis.table().gather_psi(position, *range.start(), &mut row),
            }
            for (k, &raw) in range.zip(&row) {
                let expected = factor(basis, axis, k, x) / axis.sqrt_scale;
                assert!(
                    (raw - expected).abs() <= 1e-12,
                    "k = {k}: {raw} vs {expected}"
                );
            }
        }
    }

    /// `n` rows mixing uniform draws with the edge cases of the scatter:
    /// the interval ends, exact dyadic points (whose windows take the
    /// gather fallback), points just outside the interval, NaN and ±∞.
    fn adversarial_rows(n: usize, seed: u64) -> Vec<[f64; 2]> {
        const SPECIAL: [f64; 13] = [
            0.0,
            1.0,
            0.5,
            0.25,
            0.375,
            1.0 / 1024.0,
            -1e-9,
            1.0 + 1e-9,
            -0.3,
            1.3,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut rng = seeded_rng(seed);
        let mut coordinate = |i: usize| {
            if i % 5 == 0 {
                SPECIAL[(i / 5) % SPECIAL.len()]
            } else {
                rng.gen::<f64>()
            }
        };
        (0..n).map(|i| [coordinate(i), coordinate(i + 3)]).collect()
    }

    /// The scatter's specification, computed the slow way: every axis
    /// factor of every row is gathered with `WaveletTable::gather_{phi,psi}`
    /// over its active translations and scaled by its `sqrt_scale`, and
    /// the product of the factors (the second one is the unit for
    /// `dims == 1`) is accumulated into each slot in observation order.
    fn reference_scatter(sketch: &TensorSketch, rows: &[[f64; 2]]) -> Vec<(Vec<f64>, Vec<f64>)> {
        let (table, support) = (sketch.basis.table(), sketch.basis.support_length());
        let gather = |axis: &AxisComponent, x: f64| {
            let position = axis.scale * x;
            let range = active_translations(support, position, axis.k_start, axis.extent);
            if range.is_empty() {
                return (0, Vec::new());
            }
            let mut row = vec![0.0; (range.end() - range.start() + 1) as usize];
            match axis.generator {
                Generator::Scaling => table.gather_phi(position, *range.start(), &mut row),
                Generator::Wavelet => table.gather_psi(position, *range.start(), &mut row),
            }
            let first = (range.start() - axis.k_start) as usize;
            let values: Vec<f64> = row.iter().map(|raw| axis.sqrt_scale * raw).collect();
            (first, values)
        };
        sketch
            .levels
            .iter()
            .map(|level| {
                let mut sums = vec![0.0; level.sums.len()];
                let mut squares = vec![0.0; level.sums.len()];
                let ax = &sketch.axes[0][level.component[0]];
                for row in rows {
                    let (first_x, fx) = gather(ax, row[0]);
                    let (first_y, fy, extent_y) = if sketch.dims == 2 {
                        let ay = &sketch.axes[1][level.component[1]];
                        let (first, values) = gather(ay, row[1]);
                        (first, values, ay.extent)
                    } else {
                        (0, vec![1.0], 1)
                    };
                    for (mx, vx) in fx.iter().enumerate() {
                        for (my, vy) in fy.iter().enumerate() {
                            let slot = (first_x + mx) * extent_y + first_y + my;
                            let value = vx * vy;
                            sums[slot] += value;
                            squares[slot] += value * value;
                        }
                    }
                }
                (sums, squares)
            })
            .collect()
    }

    /// The production scatter of both dims is bitwise the reference
    /// above, in every sum and sum of squares, across families, edge-case
    /// rows and batch sizes on both sides of the chunk-size probe.
    #[test]
    fn scatter_is_bitwise_the_gathered_axis_product() {
        let families = [
            WaveletFamily::Haar,
            WaveletFamily::Daubechies(4),
            WaveletFamily::Symmlet(8),
        ];
        for family in families {
            let basis = WaveletBasis::shared(family).unwrap();
            for n in [1, 127, autotune::probe_rows() + 32] {
                let rows = adversarial_rows(n, n as u64);
                let mut one_d =
                    TensorSketch::with_basis_1d(Arc::clone(&basis), (0.0, 1.0), 1, 5).unwrap();
                let scalars: Vec<f64> = rows.iter().map(|row| row[0]).collect();
                one_d.push_scalars(&scalars);
                let mut two_d = TensorSketch::with_basis_2d(
                    Arc::clone(&basis),
                    (0.0, 1.0),
                    (0.0, 1.0),
                    1,
                    4,
                    5,
                )
                .unwrap();
                let pairs: Vec<(f64, f64)> = rows.iter().map(|row| (row[0], row[1])).collect();
                two_d.push_pairs(&pairs);
                for sketch in [&one_d, &two_d] {
                    let expected = reference_scatter(sketch, &rows);
                    for (index, (level, (sums, squares))) in
                        sketch.levels.iter().zip(&expected).enumerate()
                    {
                        let context =
                            format!("{family:?} dims {} n {n} level {index}", sketch.dims);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&level.sums), bits(sums), "sums: {context}");
                        assert_eq!(
                            bits(&level.sum_squares),
                            bits(squares),
                            "squares: {context}"
                        );
                    }
                }
            }
        }
    }

    /// Both axes of a 2-D sketch read one table: the process-wide one of
    /// the family for `new_2d`, the caller's for `with_basis_2d`, shared
    /// by clones.
    #[test]
    fn shares_one_axis_table() {
        let shared = WaveletBasis::shared(WaveletFamily::Symmlet(8)).unwrap();
        assert!(Arc::ptr_eq(&small_2d().basis, &shared));
        let axis = Arc::new(WaveletBasis::new(WaveletFamily::Haar).unwrap());
        let sketch =
            TensorSketch::with_basis_2d(Arc::clone(&axis), (0.0, 1.0), (0.0, 1.0), 1, 3, 4)
                .unwrap();
        assert!(Arc::ptr_eq(&sketch.basis, &axis));
        assert!(Arc::ptr_eq(&sketch.clone().basis, &axis));
    }
}
